//! SIMD separator search for the Compact B+tree's sampled levels.
//!
//! A separator probe ("how many separators have `key <= target`?") is a
//! partition point over **variable-length byte strings reached through an
//! index indirection** — nothing a vector unit can chew on directly. The
//! trick: every separator level carries a side array of 8-byte big-endian
//! key prefixes (one `u64` per separator, zero-padded). Prefix order is
//! *consistent* with key order — `prefix(a) < prefix(b)` implies `a < b`
//! and vice versa; only prefix *ties* say nothing — so the probe splits
//! into
//!
//! 1. a data-parallel count of prefixes strictly below / at the target
//!    prefix ([`count_lt_le`]: compare + movemask + popcount over the
//!    whole ≤ [`NODE_FANOUT`](crate::compact::NODE_FANOUT)-wide node at
//!    once), and
//! 2. a scalar walk over the (usually empty) run of prefix ties, the only
//!    entries whose full keys must be fetched and compared.
//!
//! Kernel tiers, all exported for the differential tests: portable
//! scalar, SSE2 (64-bit unsigned compare emulated from 32-bit signed
//! compares), and AVX2 (`vpcmpgtq` after a sign flip). AVX2 runs when
//! [`memtree_common::dispatch::has`] grants it; SSE2, part of the `x86_64`
//! baseline, runs when the policy allows hardware tiers at all, so
//! `MEMTREE_KERNELS=scalar` pins the portable form.

#[cfg(target_arch = "x86_64")]
use memtree_common::dispatch::{hardware_allowed, has, Feature};

/// Big-endian, zero-padded 8-byte prefix of `key`.
///
/// Order consistency with lexicographic byte-string order: if the first
/// difference between two keys falls inside the first 8 bytes the prefixes
/// order exactly like the keys; if one key is a ≤ 8-byte prefix of the
/// other, padding zeros keep the shorter one no greater. Prefixes can tie
/// only when the keys agree on their first 8 bytes — never ordering two
/// keys the wrong way around.
#[inline]
pub fn key_prefix8(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// `(lt, le)` — how many entries of `prefixes` are `< target` and how many
/// are `<= target` (unsigned). Dispatches AVX2 → SSE2 → scalar.
#[inline]
pub fn count_lt_le(prefixes: &[u64], target: u64) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if has(Feature::Avx2) {
            // SAFETY: AVX2 presence was verified at runtime just above.
            return unsafe { count_lt_le_avx2_impl(prefixes, target) };
        }
        if hardware_allowed() {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            return unsafe { count_lt_le_sse2_impl(prefixes, target) };
        }
    }
    count_lt_le_scalar(prefixes, target)
}

/// Branchless scalar baseline for the ablation.
#[inline]
pub fn count_lt_le_scalar(prefixes: &[u64], target: u64) -> (usize, usize) {
    let (mut lt, mut le) = (0usize, 0usize);
    for &p in prefixes {
        lt += usize::from(p < target);
        le += usize::from(p <= target);
    }
    (lt, le)
}

/// SSE2 tier, when this CPU has it — `None` otherwise. Ignores the
/// `MEMTREE_KERNELS` policy so differential tests and the ablation bench
/// can cross-check tiers in any mode.
#[cfg(target_arch = "x86_64")]
pub fn count_lt_le_sse2(prefixes: &[u64], target: u64) -> Option<(usize, usize)> {
    if std::arch::is_x86_feature_detected!("sse2") {
        // SAFETY: SSE2 presence was verified at runtime just above.
        Some(unsafe { count_lt_le_sse2_impl(prefixes, target) })
    } else {
        None
    }
}

/// AVX2 tier, when this CPU has it — `None` otherwise.
#[cfg(target_arch = "x86_64")]
pub fn count_lt_le_avx2(prefixes: &[u64], target: u64) -> Option<(usize, usize)> {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was verified at runtime just above.
        Some(unsafe { count_lt_le_avx2_impl(prefixes, target) })
    } else {
        None
    }
}

/// SSE2 has no 64-bit compare at all, so each 128-bit vector holds two
/// prefixes compared as (hi, lo) 32-bit halves: unsigned `a < t` per
/// 64-bit lane is `hi(a) < hi(t) || (hi(a) == hi(t) && lo(a) < lo(t))`,
/// built from sign-flipped `pcmpgtd` and `pcmpeqd`, then `movmskpd` reads
/// one verdict bit per lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn count_lt_le_sse2_impl(prefixes: &[u64], target: u64) -> (usize, usize) {
    use core::arch::x86_64::*;
    // SAFETY: every load reads 16 in-bounds bytes (`i + 2 <= len` words).
    unsafe {
        let sign32 = _mm_set1_epi32(i32::MIN);
        let t = _mm_set1_epi64x(target as i64);
        let tx = _mm_xor_si128(t, sign32);
        let (mut lt, mut le) = (0usize, 0usize);
        let mut i = 0usize;
        while i + 2 <= prefixes.len() {
            let a = _mm_loadu_si128(prefixes.as_ptr().add(i) as *const __m128i);
            let ax = _mm_xor_si128(a, sign32);
            // Per-32-bit-lane verdicts (memory lane order: lo, hi, lo, hi).
            let lt32 = _mm_cmpgt_epi32(tx, ax);
            let eq32 = _mm_cmpeq_epi32(a, t);
            // Spread the hi-half verdicts over the full 64-bit lane
            // (lanes 1,1,3,3) and the lo-half ones likewise (0,0,2,2).
            let lt_hi = _mm_shuffle_epi32::<0b11_11_01_01>(lt32);
            let eq_hi = _mm_shuffle_epi32::<0b11_11_01_01>(eq32);
            let lt_lo = _mm_shuffle_epi32::<0b10_10_00_00>(lt32);
            let eq_lo = _mm_shuffle_epi32::<0b10_10_00_00>(eq32);
            let lt64 = _mm_or_si128(lt_hi, _mm_and_si128(eq_hi, lt_lo));
            let eq64 = _mm_and_si128(eq_hi, eq_lo);
            let lt_bits = _mm_movemask_pd(_mm_castsi128_pd(lt64)) as u32;
            let eq_bits = _mm_movemask_pd(_mm_castsi128_pd(eq64)) as u32;
            lt += lt_bits.count_ones() as usize;
            le += (lt_bits | eq_bits).count_ones() as usize;
            i += 2;
        }
        if i < prefixes.len() {
            let p = prefixes[i];
            lt += usize::from(p < target);
            le += usize::from(p <= target);
        }
        (lt, le)
    }
}

/// AVX2 form: four prefixes per vector, `vpcmpgtq` after flipping the sign
/// bit turns the signed compare unsigned, `vmovmskpd` reads one verdict
/// bit per 64-bit lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_lt_le_avx2_impl(prefixes: &[u64], target: u64) -> (usize, usize) {
    use core::arch::x86_64::*;
    // SAFETY: every load reads 32 in-bounds bytes (`i + 4 <= len` words).
    unsafe {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let t = _mm256_set1_epi64x(target as i64);
        let tx = _mm256_xor_si256(t, sign);
        let (mut lt, mut le) = (0usize, 0usize);
        let mut i = 0usize;
        while i + 4 <= prefixes.len() {
            let a = _mm256_loadu_si256(prefixes.as_ptr().add(i) as *const __m256i);
            let ax = _mm256_xor_si256(a, sign);
            let lt64 = _mm256_cmpgt_epi64(tx, ax);
            let eq64 = _mm256_cmpeq_epi64(a, t);
            let lt_bits = _mm256_movemask_pd(_mm256_castsi256_pd(lt64)) as u32;
            let eq_bits = _mm256_movemask_pd(_mm256_castsi256_pd(eq64)) as u32;
            lt += lt_bits.count_ones() as usize;
            le += (lt_bits | eq_bits).count_ones() as usize;
            i += 4;
        }
        while i < prefixes.len() {
            let p = prefixes[i];
            lt += usize::from(p < target);
            le += usize::from(p <= target);
            i += 1;
        }
        (lt, le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(prefixes: &[u64], target: u64) -> (usize, usize) {
        (
            prefixes.iter().filter(|&&p| p < target).count(),
            prefixes.iter().filter(|&&p| p <= target).count(),
        )
    }

    #[test]
    fn prefix_order_is_consistent_with_key_order() {
        let mut state = 3u64;
        let mut keys: Vec<Vec<u8>> = (0..500)
            .map(|_| {
                let len = (memtree_common::hash::splitmix64(&mut state) % 12) as usize;
                (0..len)
                    .map(|_| (memtree_common::hash::splitmix64(&mut state) % 4) as u8)
                    .collect()
            })
            .collect();
        keys.sort();
        for w in keys.windows(2) {
            assert!(
                key_prefix8(&w[0]) <= key_prefix8(&w[1]),
                "prefixes out of order for {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        // Boundary widths around the 8-byte cut.
        assert!(key_prefix8(b"abcdefg") < key_prefix8(b"abcdefgh"));
        assert_eq!(key_prefix8(b"abcdefgh"), key_prefix8(b"abcdefghZZZ"));
        assert_eq!(key_prefix8(b""), 0);
    }

    #[test]
    fn every_tier_matches_the_reference() {
        let mut state = 17u64;
        for len in 0..70usize {
            let mut prefixes: Vec<u64> = (0..len)
                .map(|_| {
                    // Cluster values so equality and near-ties are common,
                    // and sprinkle sign-bit-high values to catch a botched
                    // unsigned emulation.
                    let r = memtree_common::hash::splitmix64(&mut state);
                    (r % 16).wrapping_mul(0x2000_0000_0000_0000)
                })
                .collect();
            prefixes.sort_unstable();
            let mut targets: Vec<u64> =
                (0..16).map(|k| (k as u64).wrapping_mul(0x2000_0000_0000_0000)).collect();
            targets.extend([0, 1, u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1]);
            for &t in &targets {
                let want = reference(&prefixes, t);
                assert_eq!(count_lt_le_scalar(&prefixes, t), want, "scalar len={len} t={t:#x}");
                assert_eq!(count_lt_le(&prefixes, t), want, "dispatch len={len} t={t:#x}");
                #[cfg(target_arch = "x86_64")]
                {
                    if let Some(got) = count_lt_le_sse2(&prefixes, t) {
                        assert_eq!(got, want, "sse2 len={len} t={t:#x}");
                    }
                    if let Some(got) = count_lt_le_avx2(&prefixes, t) {
                        assert_eq!(got, want, "avx2 len={len} t={t:#x}");
                    }
                }
            }
        }
    }
}
