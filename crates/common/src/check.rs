//! A tiny, deterministic, dependency-free property-test harness.
//!
//! Replaces the external `proptest` crate so the workspace builds and
//! tests fully offline. The trade-offs are deliberate: generation is a
//! seeded SplitMix64 stream (reproducible by construction — a failure
//! message names the seed and case), and there is no shrinking; suites
//! keep inputs small instead so failing cases are directly readable.
//!
//! ```
//! use memtree_common::check::{prop_check, Gen};
//!
//! prop_check("reverse_involutive", 64, |g: &mut Gen| {
//!     let v = g.bytes_vec(0..50);
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     if w == v { Ok(()) } else { Err(format!("{v:?} != {w:?}")) }
//! });
//! ```

use crate::hash::splitmix64;
use std::ops::Range;

/// A seeded pseudo-random generator for property-test inputs.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        // One mixing step so nearby seeds diverge immediately.
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        splitmix64(&mut state);
        Self { state }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[range.start, range.end)`. Panics on an empty range.
    #[inline]
    pub fn range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + (self.u64() as usize) % (range.end - range.start)
    }

    /// Uniform `i64` in `[0, n)`.
    #[inline]
    pub fn i64_below(&mut self, n: i64) -> i64 {
        (self.u64() % n.max(1) as u64) as i64
    }

    /// A coin flip with probability `p` of `true`.
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        (self.u64() as f64 / u64::MAX as f64) < p
    }

    /// One element of a slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0..xs.len())]
    }

    /// A byte vector with length drawn from `len`, bytes uniform over 0–255.
    pub fn bytes_vec(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.range_or_zero(len);
        (0..n).map(|_| self.u64() as u8).collect()
    }

    /// A byte vector with length drawn from `len`, bytes drawn from
    /// `alphabet` — small alphabets maximize prefix/boundary collisions,
    /// the same trick the proptest suites used.
    pub fn bytes_from(&mut self, alphabet: &[u8], len: Range<usize>) -> Vec<u8> {
        let n = self.range_or_zero(len);
        (0..n).map(|_| *self.pick(alphabet)).collect()
    }

    /// A `Vec<bool>` with length drawn from `len`.
    pub fn bools(&mut self, len: Range<usize>) -> Vec<bool> {
        let n = self.range_or_zero(len);
        (0..n).map(|_| self.u64() & 1 == 1).collect()
    }

    /// Like [`Gen::range`] but an empty/zero-width start is allowed
    /// (`0..0` yields 0).
    fn range_or_zero(&mut self, range: Range<usize>) -> usize {
        if range.start >= range.end {
            range.start
        } else {
            self.range(range)
        }
    }
}

/// Default seed for [`prop_check`]; override per-suite via
/// [`prop_check_seeded`] or the `MEMTREE_CHECK_SEED` environment variable
/// to replay a reported failure.
pub const DEFAULT_SEED: u64 = 0x5EED_0000_0000_0001;

/// Runs `f` against `cases` deterministic generated inputs. On `Err`, panics
/// naming the property, the seed, and the case index so the failure replays
/// exactly.
pub fn prop_check<F>(name: &str, cases: u64, f: F)
where
    F: FnMut(&mut Gen) -> Result<(), String>,
{
    let seed = std::env::var("MEMTREE_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    prop_check_seeded(name, seed, cases, f)
}

/// [`prop_check`] with an explicit base seed.
pub fn prop_check_seeded<F>(name: &str, seed: u64, cases: u64, mut f: F)
where
    F: FnMut(&mut Gen) -> Result<(), String>,
{
    for case in 0..cases {
        // Each case gets an independent stream so one case's draw count
        // doesn't perturb the next.
        let mut g = Gen::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        if let Err(msg) = f(&mut g) {
            panic!(
                "property `{name}` failed (seed {seed:#x}, case {case}/{cases}): {msg}\n\
                 replay: MEMTREE_CHECK_SEED={seed} with the same case index"
            );
        }
    }
}

/// The seed range of the seeded oracles (crash, scrub, publish, chaos
/// soak): `MEMTREE_FAULT_SEEDS` as `"lo..hi"`, default `0..32`. CI shards
/// a suite by giving each job its own range; replay a failing seed `n`
/// with `MEMTREE_FAULT_SEEDS=n..n+1`.
pub fn seed_range() -> std::ops::Range<u64> {
    let spec = std::env::var("MEMTREE_FAULT_SEEDS").unwrap_or_else(|_| "0..32".to_string());
    let (lo, hi) = spec
        .split_once("..")
        .unwrap_or_else(|| panic!("MEMTREE_FAULT_SEEDS must look like '0..32', got {spec:?}"));
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("bad bound {s:?} in MEMTREE_FAULT_SEEDS: {e}"))
    };
    parse(lo)..parse(hi)
}

/// `assert_eq!`-style helper that returns `Err(String)` instead of
/// panicking, for use inside [`prop_check`] closures.
#[macro_export]
macro_rules! check_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{:?} != {:?} [{} vs {}]",
                a,
                b,
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{:?} != {:?} [{} vs {}]: {}",
                a,
                b,
                stringify!($a),
                stringify!($b),
                format!($($fmt)+)
            ));
        }
    }};
}

/// `assert!`-style helper returning `Err(String)` for [`prop_check`] closures.
#[macro_export]
macro_rules! check {
    ($cond:expr $(, $($fmt:tt)+)?) => {{
        if !$cond {
            #[allow(unused_mut)]
            let mut msg = format!("check failed: {}", stringify!($cond));
            $(msg = format!("{}: {}", msg, format!($($fmt)+));)?
            return Err(msg);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        let va = Gen::new(9).bytes_vec(10..20);
        let vb = Gen::new(9).bytes_vec(10..20);
        assert_eq!(va, vb);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut g = Gen::new(3);
        for _ in 0..1000 {
            let x = g.range(5..9);
            assert!((5..9).contains(&x));
            let v = g.bytes_from(b"abc", 0..4);
            assert!(v.len() < 4);
            assert!(v.iter().all(|b| b"abc".contains(b)));
        }
    }

    #[test]
    fn prop_check_runs_all_cases() {
        let mut n = 0;
        prop_check_seeded("counter", 1, 25, |_| {
            n += 1;
            Ok(())
        });
        assert_eq!(n, 25);
    }

    #[test]
    #[should_panic(expected = "property `boom` failed")]
    fn prop_check_reports_failures() {
        prop_check_seeded("boom", 1, 5, |g| {
            if g.u64() % 2 == 0 || true {
                Err("forced".into())
            } else {
                Ok(())
            }
        });
    }
}
