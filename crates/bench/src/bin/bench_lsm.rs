//! LSM filter and compaction-policy benchmark, written to `BENCH_lsm.json`.
//!
//! For every filter configuration (None / Bloom / SuRF-Hash / SuRF-Real /
//! SuRF-Mixed) the same negative-lookup workload runs as a per-key `get`
//! loop with the block cache off. The disk simulator counts every block
//! read and the engine counts every filter probe, so each kind's cost is
//! exact, not just a wall-clock race. Each kind's row also gives the
//! memory axis: the tables' resident block index and filter per stored
//! entry (`Db::index_filter_mem` over `Db::table_entries`), and the same
//! split into the filter and the block index beside it
//! (`Db::table_mem_stats`); the two parts must sum to the whole. One
//! counter gate always runs, in `--smoke` mode too, because it is
//! deterministic: every filter kind reads strictly fewer blocks than
//! `none`.
//!
//! A second section sweeps the **compaction policy**: the same
//! overwrite-heavy load and the same point-read probe run under leveled
//! and tiered compaction, and the exact block counters give each policy's
//! write / read / space amplification. Plausibility gates (tiered writes
//! strictly fewer blocks, leveled reads strictly fewer blocks) are
//! deterministic and run in `--smoke` mode too.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_lsm`

use memtree_bench::harness::{best_of, BenchArgs, Json};
use memtree_bench::mops;
use memtree_common::key::encode_u64;
use memtree_lsm::{CompactionConfig, Db, DbOptions, FilterKind, FilterStats, TableMemStats};

struct Config {
    n_keys: usize,
    n_probes: usize,
    runs: usize,
    smoke: bool,
}

impl Config {
    fn new(smoke: bool) -> Self {
        if smoke {
            Config { n_keys: 6_000, n_probes: 3_000, runs: 1, smoke }
        } else {
            Config { n_keys: 150_000, n_probes: 60_000, runs: 3, smoke }
        }
    }
}

fn kinds() -> [(FilterKind, &'static str); 5] {
    [
        (FilterKind::None, "none"),
        (FilterKind::Bloom(14.0), "bloom14"),
        (FilterKind::SurfHash(8), "surf_hash8"),
        (FilterKind::SurfReal(8), "surf_real8"),
        (FilterKind::SurfMixed(4, 4), "surf_mixed4_4"),
    ]
}

/// Stored keys are `i << 12`, so `(j << 12) | 777` is always a miss that
/// falls inside the table range (the interesting negative-lookup case —
/// fence indexes alone can't reject it, only a filter can).
fn stored_key(i: u64) -> [u8; 8] {
    encode_u64(i << 12)
}

fn negative_key(i: u64) -> [u8; 8] {
    encode_u64((i << 12) | 777)
}

fn build_db(cfg: &Config, filter: FilterKind) -> Db {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 32 << 10, // many flushes: leveled shape, several tables
        cache_blocks: 0,          // every block fetch hits the simulated disk
        filter,
        ..Default::default()
    });
    for i in 0..cfg.n_keys as u64 {
        db.put(&stored_key(i), b"valuevalue").unwrap();
    }
    db.flush().unwrap();
    db
}

/// Scattered *clusters* of in-range misses: bases hop around the
/// keyspace, and each cluster of 64 visits consecutive gaps in a
/// scrambled order (37 is coprime to 64, so `j * 37 mod 64` permutes the
/// cluster).
fn negative_probes(cfg: &Config) -> Vec<[u8; 8]> {
    let n = cfg.n_keys as u64;
    (0..cfg.n_probes as u64)
        .map(|i| {
            let base = (i / 64) * 7919 % n;
            let offset = (i * 37) % 64;
            negative_key((base + offset) % n)
        })
        .collect()
}

struct Counters {
    block_reads: u64,
    filter: FilterStats,
}

/// Runs `f` once with counters zeroed and returns what it cost.
fn counted<F: FnOnce()>(db: &Db, f: F) -> Counters {
    db.reset_io_stats();
    db.reset_filter_stats();
    f();
    Counters {
        block_reads: db.io_stats().block_reads,
        filter: db.filter_stats(),
    }
}

/// What the filter gate compares for one filter kind.
struct KindReport {
    name: &'static str,
    per_key: Counters,
}

fn counters(j: &mut Json, mops: f64, c: &Counters) {
    j.num("mops", mops, 3);
    j.int("block_reads", c.block_reads);
    j.int("probe_passes", c.filter.probe_passes);
    j.int("keys_probed", c.filter.keys_probed);
}

fn bench_kind(cfg: &Config, filter: FilterKind, name: &'static str, j: &mut Json) -> KindReport {
    let db = build_db(cfg, filter);

    let probes = negative_probes(cfg);
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();

    let per_key = counted(&db, || {
        let misses = refs.iter().filter(|k| db.get(k).is_none()).count();
        assert_eq!(misses, refs.len(), "{name}: negative probe unexpectedly hit");
    });
    let per_key_mops = mops(
        refs.len(),
        best_of(cfg.runs, || {
            let misses = refs.iter().filter(|k| db.get(k).is_none()).count();
            std::hint::black_box(misses);
        }),
    );

    let tables: usize = db.level_sizes().iter().sum();
    let entries = db.table_entries() as f64;
    let index_bytes_per_key = db.index_filter_mem() as f64 / entries;
    let parts = db.table_mem_stats();
    let filter_bytes: usize = parts.iter().map(|t| t.filter.total()).sum();
    let block_index_bytes: usize = parts.iter().map(TableMemStats::block_index).sum();
    assert_eq!(
        filter_bytes + block_index_bytes,
        db.index_filter_mem(),
        "{name}: the filter and the block index sum to the tables' footprint"
    );
    println!(
        "{name:<14} {tables} tables  {index_bytes_per_key:>5.3} B/key ({:.3} index)  per-key {per_key_mops:>8.3} Mops/s  {:>7} reads  {:>7} passes",
        block_index_bytes as f64 / entries, per_key.block_reads, per_key.filter.probe_passes
    );
    j.str("kind", name);
    j.int("tables", tables);
    j.num("index_bytes_per_key", index_bytes_per_key, 3);
    j.num("filter_bytes_per_key", filter_bytes as f64 / entries, 3);
    j.num("block_index_bytes_per_key", block_index_bytes as f64 / entries, 3);
    j.obj("per_key", |j| counters(j, per_key_mops, &per_key));
    KindReport { name, per_key }
}

/// Every filter kind rejects in-range misses that `none` must fetch a
/// block for, so it reads strictly fewer blocks.
fn enforce_gates(reports: &[KindReport]) {
    let none = reports.iter().find(|r| r.name == "none").expect("kinds() has none");
    for r in reports.iter().filter(|r| r.name != "none") {
        assert!(
            r.per_key.block_reads < none.per_key.block_reads,
            "{}: a filter should read strictly fewer blocks than none ({} vs {})",
            r.name, r.per_key.block_reads, none.per_key.block_reads
        );
    }
}

/// What the policy gates compare: blocks written by the load, blocks
/// read by its interleaved probes.
struct PolicyCost {
    block_writes: u64,
    probe_reads: u64,
}

/// The same overwrite-heavy load under one compaction policy, with
/// in-range negative probes interleaved throughout. Filterless with the
/// cache off, so the block counters measure the *level shape* — how much
/// each policy rewrites on the way down and how many runs a lookup must
/// consult — not filter quality.
///
/// Two details make the comparison honest:
///
/// * keys arrive in a scrambled order (stride 7919), so every flushed run
///   spans the whole keyspace and a negative probe has to consult each
///   run that the policy has left standing;
/// * read amplification is sampled *during* the load, not after a final
///   collapse — tiered's stacked runs between merges are its steady
///   state, and a post-load snapshot can catch it at a momentary minimum
///   where both policies look identical. Each probe's cost is the
///   `block_reads` delta across the `get` call alone, so compaction's own
///   reads never pollute the read-amplification number.
fn bench_policy(
    cfg: &Config,
    compaction: CompactionConfig,
    name: &'static str,
    j: &mut Json,
) -> PolicyCost {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 8 << 10, // small memtable: many flushes, deep compaction churn
        cache_blocks: 0,
        filter: FilterKind::None,
        compaction,
        ..Default::default()
    });
    let n = cfg.n_keys as u64;
    db.reset_io_stats();
    let mut probes = 0u64;
    let mut probe_reads = 0u64;
    for round in 0..2u8 {
        let val = [b'0' + round; 10];
        for i in 0..n {
            db.put(&stored_key((i * 7919) % n), &val).unwrap();
            if i % 64 == 63 {
                let before = db.io_stats().block_reads;
                assert!(
                    db.get(&negative_key((i * 13) % n)).is_none(),
                    "{name}: negative probe unexpectedly hit"
                );
                probe_reads += db.io_stats().block_reads - before;
                probes += 1;
            }
        }
    }
    db.flush().unwrap();
    let block_writes = db.io_stats().block_writes;
    let block_size = DbOptions::default().block_size as f64;
    // User payload: 2 generations of (8-byte key + 10-byte value).
    let user_bytes = (2 * n * 18) as f64;
    let live_bytes = (n * 18) as f64;

    // Correctness sweep (unmeasured): round 1 must win everywhere.
    let mut i = 0u64;
    while i < n {
        let got = db.get(&stored_key(i));
        assert_eq!(got.as_deref(), Some(&[b'1'; 10][..]), "{name}: overwrite lost at key {i}");
        i += 7;
    }

    let levels = db.level_sizes();
    let write_amp = block_writes as f64 * block_size / user_bytes;
    let read_amp = probe_reads as f64 / probes as f64;
    let used_bytes = db.disk_handle().used_bytes();
    let space_amp = used_bytes as f64 / live_bytes;
    println!(
        "policy {name:<8} levels {levels:?}  write-amp {write_amp:>6.2} ({block_writes} blocks)  read-amp {read_amp:>5.2} ({probe_reads} reads / {probes} interleaved probes)  space-amp {space_amp:>5.2}"
    );
    j.item(|j| {
        j.str("policy", name);
        j.int("tables", levels.iter().sum::<usize>());
        j.ints("levels", &levels);
        j.int("block_writes", block_writes);
        j.num("write_amp", write_amp, 3);
        j.int("probe_reads", probe_reads);
        j.num("read_amp", read_amp, 3);
        j.int("used_bytes", used_bytes);
        j.num("space_amp", space_amp, 3);
    });
    PolicyCost { block_writes, probe_reads }
}

/// The classic amplification trade-off, as strict counter inequalities on
/// an identical workload: tiered must *write* strictly fewer blocks
/// (no re-merge of the run below) and leveled must *read* strictly fewer
/// blocks (one disjoint run per level instead of a stack).
fn enforce_policy_gates(leveled: &PolicyCost, tiered: &PolicyCost) {
    assert!(
        tiered.block_writes < leveled.block_writes,
        "tiered compaction should have strictly lower write amplification ({} vs {} blocks written)",
        tiered.block_writes, leveled.block_writes
    );
    assert!(
        leveled.probe_reads < tiered.probe_reads,
        "leveled compaction should have strictly lower read amplification ({} vs {} blocks read)",
        leveled.probe_reads, tiered.probe_reads
    );
}

fn main() {
    let args = BenchArgs::from_env("lsm");
    let cfg = Config::new(args.smoke);
    let mut j = Json::default();
    j.obj("meta", |j| {
        j.int("n_keys", cfg.n_keys);
        j.int("n_probes", cfg.n_probes);
        j.int("runs", cfg.runs);
        j.bool("smoke", cfg.smoke);
        j.str("note", "negative point lookups through a per-key get loop, one row per filter kind; cache disabled so block_reads counts every fetch");
    });
    let reports: Vec<KindReport> = j.arr("kinds", |j| {
        kinds().iter().map(|&(filter, name)| j.item(|j| bench_kind(&cfg, filter, name, j))).collect()
    });
    enforce_gates(&reports);
    let (leveled, tiered) = j.arr("policies", |j| {
        (
            bench_policy(&cfg, CompactionConfig::Leveled { fanout: 10 }, "leveled", j),
            bench_policy(&cfg, CompactionConfig::Tiered { tiers_per_level: 3 }, "tiered", j),
        )
    });
    enforce_policy_gates(&leveled, &tiered);
    j.write_checked(
        &args.out,
        &[
            "meta", "n_keys", "n_probes", "smoke", "kinds", "kind", "tables",
            "index_bytes_per_key", "filter_bytes_per_key", "block_index_bytes_per_key", "per_key",
            "mops", "block_reads", "probe_passes", "keys_probed",
            "policies", "policy", "block_writes", "write_amp", "read_amp", "space_amp",
            "used_bytes",
        ],
    );
}
