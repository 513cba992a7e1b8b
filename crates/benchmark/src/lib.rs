//! `memtree-benchmark`: the one seeded, checked benchmark of the serving
//! stack (`ShardedDb` → LSM engine → SuRF/FST filters → succinct kernels →
//! `SimDisk`).
//!
//! Four YCSB-style closed-loop workloads, every answer checked against an
//! exact model, end-to-end metrics from an ordinary run and per-layer
//! metrics from a traced run whose spans are all taken from outside, by
//! timing calls into each layer's public functions. No program crate
//! knows this crate exists. See `README.md` for the protocol.

#![warn(missing_docs)]

pub mod harness;
pub mod keys;
pub mod layers;
pub mod ops;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
