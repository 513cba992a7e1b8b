//! Shared measurement helpers for the reproduction harness.
//!
//! Every experiment of DESIGN.md's index lives under [`experiments`]; run
//! them with `cargo run -p memtree-bench --release --bin repro -- <id>`.
//! The `bench_*` binaries (each writes one `BENCH_*.json`) share
//! [`harness`].

pub mod experiments;
pub mod harness;

use std::time::{Duration, Instant};

/// Experiment scale. Paper datasets (25–100 M keys) are scaled down;
/// shapes are preserved (EXPERIMENTS.md records both).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys loaded into the structure under test.
    pub n_keys: usize,
    /// Operations measured.
    pub n_ops: usize,
}

impl Scale {
    /// Fast mode for `repro all --quick` (seconds per experiment).
    pub fn quick() -> Self {
        Self {
            n_keys: 100_000,
            n_ops: 100_000,
        }
    }

    /// Default single-experiment mode.
    pub fn standard() -> Self {
        Self {
            n_keys: 1_000_000,
            n_ops: 1_000_000,
        }
    }
}

/// Times a closure.
pub fn time<F: FnOnce()>(f: F) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Million operations per second.
pub fn mops(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64() / 1e6
}

/// Nanoseconds per operation.
pub fn ns_per_op(n: usize, d: Duration) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Megabytes.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Section header for experiment output.
pub fn header(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

#[cfg(test)]
mod tests {
    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = crate::experiments::registry().iter().map(|e| e.0).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "`repro <id>` runs the first match only");
    }
}
