//! Workspace-wide kernel dispatch: the one answer to "may this hardware
//! tier run?".
//!
//! Every runtime-dispatched kernel in the workspace asks [`has`] before it
//! takes a hardware tier: PDEP select and `popcnt` rank in
//! `memtree_succinct::kernels`, the AVX2 separator search in
//! `memtree_btree::sepsearch`, and hardware CRC32C in [`crate::crc`].
//! [`has`] combines two checks once per process, and every later call is
//! one relaxed load:
//!
//! * the policy knob, the `MEMTREE_KERNELS` environment variable. Setting
//!   it to `scalar` (or `portable`) pins every dispatch to its portable
//!   tier, so the fallback paths that normally only run on feature-less
//!   hardware are exercised — and CI does exercise them — on any machine.
//!   Any other value (or none) means "auto": use whatever the CPU offers.
//! * the CPU, through `is_x86_feature_detected!` (every feature reads
//!   absent off `x86_64`).
//!
//! A tier that needs only SSE2, part of the `x86_64` baseline, checks the
//! policy alone ([`hardware_allowed`]). Both checks are read once per
//! process; flipping the variable after the first dispatch has no effect.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How runtime kernel dispatch should behave for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Use hardware tiers when CPU feature detection finds them.
    Auto,
    /// Pin every kernel to its portable (scalar/SWAR) tier.
    Scalar,
}

/// The process-wide kernel mode, read once from `MEMTREE_KERNELS`.
pub fn kernel_mode() -> KernelMode {
    static MODE: OnceLock<KernelMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MEMTREE_KERNELS") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") || v.eq_ignore_ascii_case("portable") => {
            KernelMode::Scalar
        }
        _ => KernelMode::Auto,
    })
}

/// True when hardware kernel tiers are allowed (mode is [`KernelMode::Auto`]).
#[inline]
pub fn hardware_allowed() -> bool {
    kernel_mode() == KernelMode::Auto
}

/// A CPU feature beyond the `x86_64` baseline that a dispatched kernel
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// `PDEP`, for in-word select.
    Bmi2,
    /// The `popcnt` instruction, for multi-word rank.
    Popcnt,
    /// 256-bit integer compares, for the separator search.
    Avx2,
    /// The `crc32` instruction, for CRC32C.
    Sse42,
}

impl Feature {
    const ALL: [Feature; 4] = [Feature::Bmi2, Feature::Popcnt, Feature::Avx2, Feature::Sse42];

    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Whether this CPU has the feature, whatever the policy says.
    fn detected(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return match self {
            Feature::Bmi2 => std::arch::is_x86_feature_detected!("bmi2"),
            Feature::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            Feature::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Feature::Sse42 => std::arch::is_x86_feature_detected!("sse4.2"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        false
    }
}

/// Bit set of the features [`has`] grants, with `RESOLVED` set once it is
/// known; 0 before the first call.
static FEATURES: AtomicU8 = AtomicU8::new(0);
const RESOLVED: u8 = 0x80;

/// True when a kernel may run the tier that needs `feature`: the policy
/// allows hardware tiers and the CPU has the feature.
#[inline]
pub fn has(feature: Feature) -> bool {
    let mut set = FEATURES.load(Ordering::Relaxed);
    if set == 0 {
        set = resolve();
    }
    set & feature.bit() != 0
}

#[cold]
fn resolve() -> u8 {
    let mut set = RESOLVED;
    if hardware_allowed() {
        for f in Feature::ALL.into_iter().filter(|f| f.detected()) {
            set |= f.bit();
        }
    }
    FEATURES.store(set, Ordering::Relaxed);
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run in both CI kernel lanes: under `MEMTREE_KERNELS=scalar` every
    /// feature reads absent, under auto each agrees with the CPU.
    #[test]
    fn has_is_the_policy_and_the_cpu() {
        for f in Feature::ALL {
            #[cfg(target_arch = "x86_64")]
            let cpu = match f {
                Feature::Bmi2 => std::arch::is_x86_feature_detected!("bmi2"),
                Feature::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
                Feature::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
                Feature::Sse42 => std::arch::is_x86_feature_detected!("sse4.2"),
            };
            #[cfg(not(target_arch = "x86_64"))]
            let cpu = false;
            let want = match kernel_mode() {
                KernelMode::Scalar => false,
                KernelMode::Auto => cpu,
            };
            assert_eq!(has(f), want, "{f:?} in {:?} mode", kernel_mode());
            assert_eq!(has(f), want, "{f:?} again, from the cached set");
        }
        assert_ne!(FEATURES.load(Ordering::Relaxed) & RESOLVED, 0);
    }
}
