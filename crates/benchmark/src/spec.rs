//! What the benchmark runs: the four workloads, the two size profiles,
//! and the database options every run uses.

use memtree_lsm::{DbOptions, FilterKind};
use memtree_serve::ServeOptions;
use memtree_workload::ycsb::{Dist, Mix};

/// Closed-loop client threads. An embedded store's callers wait for their
/// reply, and the sizing host has two cores.
pub const CLIENTS: usize = 2;
/// Shards of the `ShardedDb` under test.
pub const SHARDS: usize = 2;

/// Operation type; the index into per-type arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ShardedDb::get`
    Get = 0,
    /// `ShardedDb::put`
    Put = 1,
    /// `ShardedDb::scan`
    Scan = 2,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 3] = [Kind::Get, Kind::Put, Kind::Scan];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        ["get", "put", "scan"][self as usize]
    }

    /// Name of the span around the `ShardedDb` call.
    pub fn span(self) -> &'static str {
        ["serve.get", "serve.put", "serve.scan"][self as usize]
    }
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// YCSB operation mix.
    pub mix: Mix,
    /// Key-selection distribution.
    pub dist: Dist,
    /// Share of point lookups (percent) sent to keys that do not exist.
    pub absent_pct: u64,
    /// Block-cache capacity per shard, in 4 KiB blocks.
    pub cache_blocks: usize,
    /// The operation whose latency is the workload's end-to-end
    /// `op_p50_us` / `op_p99_us`: the one that sets its throughput.
    pub op: Kind,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_uncached",
        why: "100% get, uniform keys, 20% absent, data 23x the block cache: SuRF on negatives, device read + CRC + decode on positives; the write path is idle",
        mix: Mix::C,
        dist: Dist::Uniform,
        absent_pct: 20,
        cache_blocks: 64,
        op: Kind::Get,
    },
    Workload {
        name: "point_cached",
        why: "100% get, Zipfian keys, whole data set fits the block cache: snapshot load, filter probes and in-block search do the work; the device does none",
        mix: Mix::C,
        dist: Dist::Zipfian,
        absent_pct: 0,
        cache_blocks: 8192,
        op: Kind::Get,
    },
    Workload {
        name: "write_heavy",
        why: "YCSB-A, 50% get / 50% durable put, Zipfian, small cache: shard queue, WAL, group commit, flush with SuRF build, compaction and snapshot republish beside reads; ends with crash + reopen",
        mix: Mix::A,
        dist: Dist::Zipfian,
        absent_pct: 0,
        cache_blocks: 64,
        op: Kind::Put,
    },
    Workload {
        name: "scan_insert",
        why: "YCSB-E, 95% scan of 50-100 entries / 5% insert, Zipfian start keys, small cache: snapshot cursors, cross-shard merge and sequential block fetch, the ordered access point workloads bypass",
        mix: Mix::E,
        dist: Dist::Zipfian,
        absent_pct: 0,
        cache_blocks: 64,
        op: Kind::Scan,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How big a run is. Two fixed profiles; nothing else is tunable.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Keys loaded before the measured phase (a multiple of [`CLIENTS`]).
    pub keys: usize,
    /// Unmeasured seconds of the workload before the measured phase.
    pub warmup_s: f64,
    /// Keys per kernel probe set in the traced run.
    pub probe_keys: usize,
    /// Fewest samples of the workload's op the end-to-end percentiles
    /// are reported from.
    pub min_samples: u64,
}

impl Profile {
    /// The profile `BENCHMARK.json` numbers are taken with.
    pub const FULL: Profile = Profile {
        keys: 100_000,
        warmup_s: 2.0,
        probe_keys: 50_000,
        min_samples: 1_000,
    };
    /// A seconds-long profile that still reaches every code path and
    /// every metric name; for tests and CI.
    pub const SMOKE: Profile = Profile {
        keys: 5_000,
        warmup_s: 0.2,
        probe_keys: 2_000,
        min_samples: 100,
    };
}

/// MemTable flush threshold per shard.
pub const MEMTABLE_BYTES: usize = 256 << 10;
/// Data-block size.
pub const BLOCK_SIZE: usize = 4096;

/// Engine options of one run (per shard).
pub fn db_options(w: &Workload) -> DbOptions {
    DbOptions {
        memtable_bytes: MEMTABLE_BYTES,
        block_size: BLOCK_SIZE,
        filter: FilterKind::SurfReal(8),
        cache_blocks: w.cache_blocks,
        ..DbOptions::default()
    }
}

/// Serving options of one run: committer-owned group commit (one
/// `disk.sync()` per batch), WAL on, no deadlines.
pub fn serve_options(w: &Workload) -> ServeOptions {
    ServeOptions {
        shards: SHARDS,
        db: db_options(w),
        ..ServeOptions::default()
    }
}
