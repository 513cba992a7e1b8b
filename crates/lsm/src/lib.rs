//! A miniature log-structured merge engine in the image of RocksDB
//! (§4.2, Figure 4.2), built to evaluate SuRF as a drop-in Bloom-filter
//! replacement.
//!
//! Architecture: a MemTable (the thesis's hybrid index: a sorted write
//! buffer over one static run) absorbs writes; full MemTables become
//! level-0 SSTables; leveled compaction keeps levels
//! ≥ 1 sorted and disjoint. SSTables are sequences of fixed-size blocks on
//! a **simulated disk** that counts every block read and can charge a
//! configurable per-read latency — the paper's speedups are I/O-count
//! driven, and the simulator measures those counts exactly (substitution
//! #3 in DESIGN.md). Each SSTable carries a block index (one arena of
//! shortest separators, one per block, with bit-packed end offsets and
//! block ids) and an optional filter: Bloom, SuRF-Hash, or SuRF-Real.
//!
//! `Get` and `Seek` (open and closed) follow the Figure 4.3 execution
//! paths, including SuRF's `moveToNext`-based candidate pruning for seeks.
//! They and the merged range scan — a lazy [`ScanCursor`] that reads a
//! block only when its walk reaches it — are implemented once, in the
//! `read` module, over a borrowed view of a MemTable, the levels, the
//! device and the block cache; [`Db`] (its live MemTable) and
//! [`DbSnapshot`] (a frozen copy) delegate every read method to it.
//!
//! Since the durability PR the engine is crash-consistent: puts are logged
//! to a CRC-framed WAL before touching the MemTable, flushes and
//! compactions publish their results through a CRC-framed manifest with an
//! atomic `CURRENT` pointer, and [`Db::open`] recovers the exact
//! acknowledged prefix of the put history after a simulated power loss
//! ([`SimDisk::crash`]), including torn final writes.

#![warn(missing_docs)]

mod cache;
mod compaction;
mod db;
#[cfg(test)]
mod decode_sweep;
mod disk;
mod manifest;
mod memtable;
mod merge;
mod read;
mod run;
mod scrub;
mod snapshot;
mod sstable;
mod wal;

pub use compaction::CompactionConfig;
pub use db::{
    gc_orphans, Db, DbOptions, DbStats, FilterKind, FilterStats, FlushStats, OpenReport,
    StallConfig,
};
pub use disk::{IoStats, SimDisk, SlowIo};
pub use read::{ScanCursor, SCAN_RESERVE_ROWS};
pub use scrub::{FileScrubOutcome, LostRange, ScrubReport};
pub use snapshot::DbSnapshot;
pub use sstable::{FilterMemStats, SsTable, TableMemStats};
pub use wal::WalStats;
