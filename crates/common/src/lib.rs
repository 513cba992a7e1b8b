//! Shared foundations for the `memtree` workspace.
//!
//! This crate defines the vocabulary types used throughout the
//! reproduction of *Memory-Efficient Search Trees for Database Management
//! Systems*:
//!
//! * [`traits`] — the [`OrderedIndex`] / [`StaticIndex`] abstractions that
//!   every search
//!   tree in the workspace implements, plus the filter traits used by the
//!   LSM engine.
//! * [`key`] — order-preserving key encodings (integers ↔ byte strings)
//!   and byte-string helpers (successors, common prefixes).
//! * [`hash`] — 64-bit mixing/hash functions used by Bloom filters and
//!   SuRF-Hash (no external hash crates are used).
//! * [`mem`] — lightweight heap-size accounting helpers.
//! * [`probe`] — software profiling counters standing in for the PAPI
//!   hardware counters of Table 2.2.
//! * [`error`] — the typed error taxonomy ([`MemtreeError`]) returned by
//!   fallible paths (block decode, merges, anti-cache fetches).
//! * [`codec`] — the bounded [`codec::Reader`] every on-disk decoder
//!   reads through (a lying length or count is typed corruption, never a
//!   panic or an oversized allocation), and the writer helpers it pairs with.
//! * [`crc`] — from-scratch, runtime-dispatched CRC32C (SSE4.2 hardware
//!   tier + portable slicing-by-16) used to frame compressed blocks.
//! * [`dispatch`] — the process-wide `MEMTREE_KERNELS` kernel-dispatch
//!   policy consulted by every hardware-accelerated kernel.
//! * [`check`](mod@check) — a deterministic, dependency-free property-test harness
//!   (seeded generator + `prop_check`), replacing the external `proptest`.
//! * [`snapshot`] — [`SnapshotCell`], epoch-stamped `Arc`-swap snapshot
//!   publication (readers never block behind writers).

#![warn(missing_docs)]

pub mod check;
pub mod codec;
pub mod crc;
pub mod dispatch;
pub mod error;
pub mod hash;
pub mod key;
pub mod mem;
pub mod probe;
pub mod snapshot;
pub mod traits;

pub use crc::{crc32c, crc32c_update, crc32c_update_slicing16};
pub use dispatch::{hardware_allowed, kernel_mode, KernelMode};
pub use error::MemtreeError;
pub use snapshot::SnapshotCell;
pub use traits::{OrderedIndex, PointFilter, RangeFilter, StaticIndex, Value};
