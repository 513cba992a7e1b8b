//! Deterministic fault injection for the memtree workspace.
//!
//! A [`Faults`] value is a registry of **named injection points**, owned
//! by the object the faulted operation already touches: the LSM's
//! simulated disk, a hybrid index's dual-stage merge, H-Store's
//! anti-cache. Production code marks its risky transitions with
//! [`fail_point!`] (or [`Faults::should_fail`]); a test arms points on the
//! instance it built with a seed, a failure probability, and an optional
//! failure budget, then asserts that the system degrades instead of
//! corrupting state. Two instances never see each other's points, so
//! tests running side by side in one process cannot trip each other.
//!
//! Design goals, in order:
//!
//! 1. **Zero cost when disarmed** — a single relaxed atomic load of the
//!    instance's switch guards every point; an owner whose registry was
//!    never [`enable`](Faults::enable)d pays one branch per point.
//! 2. **Deterministic** — each point owns a SplitMix64 stream seeded from
//!    the instance's seed and the point's name, so a failing schedule
//!    replays from `(seed, op sequence)` alone, independent of unrelated
//!    points.
//! 3. **Thread-safe** — the points sit in a `Mutex`-guarded map and are
//!    armed/tripped atomically; threads sharing the owner share its
//!    points.
//!
//! ```
//! use memtree_faults::{fail_point, Faults};
//!
//! fn fetch_block(faults: &Faults) -> memtree_common::error::Result<Vec<u8>> {
//!     fail_point!(faults, "doc.fetch");
//!     Ok(vec![1, 2, 3])
//! }
//!
//! let faults = Faults::default();
//! faults.enable(42);
//! faults.arm("doc.fetch", 1.0, Some(1)); // always fail, once
//! assert!(fetch_block(&faults).is_err());
//! assert!(fetch_block(&faults).is_ok()); // budget exhausted
//! assert_eq!(faults.trips("doc.fetch"), 1);
//! ```

#![warn(missing_docs)]

use memtree_common::hash::{hash64_seed, splitmix64};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use memtree_common::error::MemtreeError;

#[derive(Debug, Default)]
struct PointState {
    /// Probability in [0, 1] that an evaluation trips.
    probability: f64,
    /// Remaining failures allowed (`None` = unlimited).
    budget: Option<u64>,
    /// Per-point deterministic RNG stream.
    rng: u64,
    /// Times this point fired.
    trips: u64,
}

#[derive(Debug, Default)]
struct Registry {
    seed: u64,
    points: HashMap<String, PointState>,
}

/// One owner's named injection points. Starts disabled with nothing
/// armed; `Send + Sync`, so every thread working through the owner
/// evaluates the same points.
#[derive(Debug, Default)]
pub struct Faults {
    /// Fast-path switch: while false, every [`Faults::should_fail`]
    /// returns false after one relaxed load.
    enabled: AtomicBool,
    registry: Mutex<Registry>,
}

impl Faults {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enables fault injection with `seed`. Clears any previously armed
    /// points so each schedule starts from a clean registry.
    pub fn enable(&self, seed: u64) {
        let mut r = self.lock();
        r.seed = seed;
        r.points.clear();
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Disables fault injection and clears every armed point. All
    /// [`Faults::should_fail`] calls return false afterwards.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        self.lock().points.clear();
    }

    /// Arms `point` to fail with `probability` (clamped to [0, 1]) and an
    /// optional budget of at most `budget` failures. Re-arming resets the
    /// point's trip count and RNG stream.
    pub fn arm(&self, point: &str, probability: f64, budget: Option<u64>) {
        let mut r = self.lock();
        let rng = r.seed ^ hash64_seed(point.as_bytes(), 0x0FA1_7599);
        r.points.insert(
            point.to_string(),
            PointState {
                probability: probability.clamp(0.0, 1.0),
                budget,
                rng,
                trips: 0,
            },
        );
    }

    /// Disarms a single point, leaving the rest of the registry untouched.
    pub fn disarm(&self, point: &str) {
        self.lock().points.remove(point);
    }

    /// Evaluates `point`: returns true if the fault should fire now,
    /// consuming budget on a trip. Points that were never
    /// [`arm`](Faults::arm)ed never fire.
    pub fn should_fail(&self, point: &str) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let mut r = self.lock();
        let Some(s) = r.points.get_mut(point) else {
            return false;
        };
        if s.budget == Some(0) {
            return false;
        }
        let draw = splitmix64(&mut s.rng) as f64 / u64::MAX as f64;
        if draw >= s.probability {
            return false;
        }
        if let Some(b) = &mut s.budget {
            *b -= 1;
        }
        s.trips += 1;
        true
    }

    /// Times `point` has fired since it was armed.
    pub fn trips(&self, point: &str) -> u64 {
        self.lock().points.get(point).map_or(0, |s| s.trips)
    }
}

/// Bounded-backoff retry policy for transient faults.
///
/// The simulated disk has no asynchronous completion to wait on, so the
/// backoff is a deterministic, exponentially growing busy-wait — enough to
/// model "give the device a moment" without wall-clock nondeterminism.
/// Only [`MemtreeError::is_transient`] failures are retried; corruption,
/// ENOSPC, and injected crash faults propagate immediately so callers keep
/// their typed abort semantics.
#[derive(Debug)]
pub struct Backoff {
    attempts: u32,
    max_attempts: u32,
    spin: u32,
}

impl Backoff {
    /// A policy allowing at most `max_attempts` total attempts (so at most
    /// `max_attempts - 1` retries).
    pub fn new(max_attempts: u32) -> Self {
        Self {
            attempts: 1,
            max_attempts: max_attempts.max(1),
            spin: 32,
        }
    }

    /// Attempts recorded so far (starts at 1: the initial try).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records a failed attempt. Returns true when the caller should try
    /// again — the error is transient and budget remains — after a bounded
    /// busy-wait. Returns false (no wait) for non-transient errors or an
    /// exhausted budget.
    pub fn retry(&mut self, err: &MemtreeError) -> bool {
        if !err.is_transient() || self.attempts >= self.max_attempts {
            return false;
        }
        self.attempts += 1;
        for _ in 0..self.spin {
            std::hint::spin_loop();
        }
        self.spin = self.spin.saturating_mul(2).min(1 << 14);
        true
    }
}

/// Marks a fallible injection point on `faults` (a [`Faults`] or a
/// reference to one). If the point is armed and fires, the enclosing
/// function returns `Err(MemtreeError::Injected { .. })`.
///
/// Compiles to a single relaxed atomic load plus a never-taken branch when
/// the registry is disabled.
#[macro_export]
macro_rules! fail_point {
    ($faults:expr, $name:expr) => {
        if $faults.should_fail($name) {
            return Err($crate::MemtreeError::Injected {
                point: ($name).to_string(),
            }
            .into());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_never_fire_and_cost_nothing() {
        let f = Faults::default();
        assert!(!f.should_fail("never.armed"));
        f.enable(1);
        assert!(!f.should_fail("never.armed"));
        f.arm("armed", 1.0, None);
        f.disable();
        assert!(!f.should_fail("armed"), "disable clears armed points");
    }

    #[test]
    fn probability_one_always_fires_until_budget() {
        let f = Faults::default();
        f.enable(7);
        f.arm("t.always", 1.0, Some(3));
        let fired: Vec<bool> = (0..5).map(|_| f.should_fail("t.always")).collect();
        assert_eq!(fired, [true, true, true, false, false]);
        assert_eq!(f.trips("t.always"), 3);
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        let run = |seed| {
            let f = Faults::default();
            f.enable(seed);
            f.arm("t.half", 0.5, None);
            (0..64).map(|_| f.should_fail("t.half")).collect::<Vec<bool>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn points_are_independent_streams() {
        let f = Faults::default();
        f.enable(5);
        f.arm("t.a", 0.5, None);
        f.arm("t.b", 0.5, None);
        let solo: Vec<bool> = (0..32).map(|_| f.should_fail("t.a")).collect();
        // Re-arm and interleave evaluations of another point: t.a's
        // schedule must not change.
        f.arm("t.a", 0.5, None);
        let interleaved: Vec<bool> = (0..32)
            .map(|_| {
                f.should_fail("t.b");
                f.should_fail("t.a")
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn instances_with_one_seed_and_point_are_independent() {
        let (a, b) = (Faults::default(), Faults::default());
        for f in [&a, &b] {
            f.enable(9);
            f.arm("t.same", 0.5, None);
        }
        let from_a: Vec<bool> = (0..64).map(|_| a.should_fail("t.same")).collect();
        let a_trips = from_a.iter().filter(|&&t| t).count() as u64;
        assert_eq!(a.trips("t.same"), a_trips);
        assert_eq!(b.trips("t.same"), 0, "a's trips landed on b");
        // b's stream starts where a's did: a's draws consumed none of it.
        let from_b: Vec<bool> = (0..64).map(|_| b.should_fail("t.same")).collect();
        assert_eq!(from_a, from_b);
        assert_eq!((a.trips("t.same"), b.trips("t.same")), (a_trips, a_trips));
        a.disable();
        assert_eq!((a.trips("t.same"), b.trips("t.same")), (0, a_trips), "b stays armed");
    }

    #[test]
    fn fail_point_macro_returns_typed_error() {
        fn op(f: &Faults) -> Result<u32, MemtreeError> {
            crate::fail_point!(f, "t.macro");
            Ok(42)
        }
        let f = Faults::default();
        f.enable(3);
        f.arm("t.macro", 1.0, Some(1));
        match op(&f) {
            Err(MemtreeError::Injected { point }) => assert_eq!(point, "t.macro"),
            other => panic!("expected injected error, got {other:?}"),
        }
        assert_eq!(op(&f), Ok(42));
    }

    #[test]
    fn backoff_retries_transient_only_within_budget() {
        let mut b = Backoff::new(3);
        let transient = MemtreeError::TransientIo { context: "t" };
        assert!(b.retry(&transient), "first retry allowed");
        assert!(b.retry(&transient), "second retry allowed");
        assert!(!b.retry(&transient), "budget of 3 attempts exhausted");
        assert_eq!(b.attempts(), 3);

        let mut b = Backoff::new(4);
        let hard = MemtreeError::corruption("t", "bad");
        assert!(!b.retry(&hard), "corruption is never retried");
        let enospc = MemtreeError::Enospc { context: "t", requested: 1 };
        assert!(!b.retry(&enospc), "ENOSPC is never retried");
        assert_eq!(b.attempts(), 1, "non-transient errors consume no budget");
    }

    #[test]
    fn threads_share_the_registry_safely() {
        let f = Faults::default();
        f.enable(11);
        f.arm("t.mt", 1.0, Some(1000));
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..250).filter(|_| f.should_fail("t.mt")).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 1000);
        assert_eq!(f.trips("t.mt"), 1000);
    }
}
