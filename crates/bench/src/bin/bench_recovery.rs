//! Durability-cost benchmark, written to `BENCH_recovery.json`.
//!
//! Three questions, all answered with the simulator's exact counters plus
//! wall-clock time:
//!
//! 1. **What does the WAL cost on the write path?** The same insert
//!    workload runs with the WAL off and with group commit 1 / 8 / 64.
//!    Reported: throughput, sync barriers, WAL bytes, and write
//!    amplification (WAL bytes per logical byte — the CRC frame and key
//!    length add a fixed overhead per record).
//! 2. **What does recovery cost?** For each filter kind the same database
//!    is closed cleanly and reopened; recovery time and the block reads
//!    paid to restore filters are reported. Filters persist as one image
//!    block per table, so a clean reopen loads every filter in **O(tables)
//!    meta-sized reads** instead of re-scanning every data block — gated
//!    at `block_reads ≤ 2 × tables`, with every image accounted for.
//! 3. **What survives a crash?** Deterministic gates, enforced in smoke
//!    mode too: a clean shutdown replays **zero** WAL records, and a torn
//!    power-loss recovery loses **only the unsynced suffix** (< one group
//!    commit window), never an acknowledged record.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_recovery`

use memtree_bench::harness::{BenchArgs, Json};
use memtree_bench::{mops, time};
use memtree_common::key::encode_u64;
use memtree_lsm::{Db, DbOptions, FilterKind};

fn key_of(i: u64) -> [u8; 8] {
    encode_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) // scattered inserts
}

const VALUE: &[u8] = b"ten-bytes!";

fn opts(filter: FilterKind, wal: bool, group: usize) -> DbOptions {
    DbOptions {
        memtable_bytes: 64 << 10,
        filter,
        wal,
        wal_group_commit: group,
        ..Default::default()
    }
}

/// What the WAL gates compare across durability settings.
struct WalLine {
    name: &'static str,
    syncs: u64,
    wal_bytes: u64,
    write_amp: f64,
}

/// The same insert workload under each durability setting.
fn bench_wal_overhead(n_keys: usize, j: &mut Json) -> Vec<WalLine> {
    let configs: [(&'static str, bool, usize); 4] = [
        ("wal_off", false, 1),
        ("group_1", true, 1),
        ("group_8", true, 8),
        ("group_64", true, 64),
    ];
    let mut lines = Vec::new();
    for (name, wal, group) in configs {
        let mut db = Db::new(opts(FilterKind::None, wal, group));
        let elapsed = time(|| {
            for i in 0..n_keys as u64 {
                db.put(&key_of(i), VALUE).unwrap();
            }
        });
        let rate = mops(n_keys, elapsed);
        let syncs = db.io_stats().syncs;
        let wal_bytes = db.wal_stats().appended_bytes;
        let logical = (n_keys * (8 + VALUE.len())) as u64;
        let write_amp = wal_bytes as f64 / logical as f64;
        println!(
            "{name:<9} {rate:>8.3} Mops/s  {syncs:>8} syncs  {wal_bytes:>9} WAL bytes  amp {write_amp:.2}"
        );
        j.item(|j| {
            j.str("config", name);
            j.bool("wal", wal);
            j.int("group_commit", group);
            j.num("mops", rate, 3);
            j.int("syncs", syncs);
            j.int("wal_bytes", wal_bytes);
            j.int("logical_bytes", logical);
            j.num("write_amp", write_amp, 3);
        });
        lines.push(WalLine { name, syncs, wal_bytes, write_amp });
    }
    lines
}

/// Clean-shutdown recovery cost per filter kind. Persistent filter
/// images make this O(tables): the gate holds reopen to at most two
/// block reads per table (the filter image, plus slack for an index
/// probe) and requires every filter to come from its image, none from a
/// data-block rebuild.
fn bench_recovery_time(n_keys: usize, j: &mut Json) {
    let kinds: [(FilterKind, &'static str); 3] = [
        (FilterKind::None, "none"),
        (FilterKind::Bloom(14.0), "bloom14"),
        (FilterKind::SurfReal(8), "surf_real8"),
    ];
    for (filter, kind) in kinds {
        let o = opts(filter, true, 8);
        let mut db = Db::new(o.clone());
        for i in 0..n_keys as u64 {
            db.put(&key_of(i), VALUE).unwrap();
        }
        let disk = db.close().expect("clean close");
        disk.reset_stats();
        let mut reopened = None;
        let elapsed = time(|| {
            reopened = Some(Db::open(disk.clone(), o.clone()).expect("clean reopen"));
        });
        let db = reopened.unwrap();
        let replayed = db.wal_stats().replayed_records;
        assert_eq!(replayed, 0, "{kind}: clean shutdown must replay zero WAL records");
        let tables = db.level_sizes().iter().sum::<usize>() as u64;
        let block_reads = db.io_stats().block_reads;
        assert!(
            block_reads <= 2 * tables,
            "{kind}: reopen read {block_reads} blocks for {tables} tables — \
             persistent filter images should make recovery O(tables)"
        );
        let filters_loaded = db.open_report().filters_loaded;
        if !matches!(filter, FilterKind::None) {
            assert_eq!(
                filters_loaded, tables,
                "{kind}: every filter should load from its persisted image"
            );
            assert_eq!(db.open_report().filters_rebuilt, 0, "{kind}: no filter should need a data-block rebuild");
        }
        let open_ms = elapsed.as_secs_f64() * 1e3;
        println!(
            "recover {kind:<11} {open_ms:>8.2} ms  {replayed:>3} replayed  {block_reads:>7} block reads  ({tables} tables, {filters_loaded} filters from images)"
        );
        j.item(|j| {
            j.str("kind", kind);
            j.num("open_ms", open_ms, 3);
            j.int("replayed_records", replayed);
            j.int("block_reads", block_reads);
            j.int("tables", tables);
            j.int("filters_loaded", filters_loaded);
        });
    }
}

/// Power loss mid-workload with a torn final write: the acknowledged
/// prefix must survive, and only the unsynced suffix may be lost.
fn bench_torn_tail(j: &mut Json) {
    let group = 8usize;
    // Large memtable: everything rides on the WAL, nothing is flushed —
    // the hardest case for recovery.
    let o = DbOptions {
        memtable_bytes: 1 << 22,
        wal_group_commit: group,
        ..Default::default()
    };
    let issued = 10_001u64; // deliberately not a multiple of the group
    let mut db = Db::new(o.clone());
    for i in 0..issued {
        db.put(&key_of(i), VALUE).unwrap();
    }
    let acked = db.last_synced_seq();
    let disk = db.disk_handle();
    drop(db);
    disk.crash(Some(0xC0FFEE)); // tear the in-flight tail append

    let db = Db::open(disk, o).expect("torn-tail recovery");
    let recovered = db.last_seq();
    let w = db.wal_stats();
    assert!(
        recovered >= acked && recovered <= issued,
        "recovered {recovered} outside [acked {acked}, issued {issued}]"
    );
    let lost = issued - recovered;
    assert!(
        (lost as usize) < group,
        "lost {lost} records — more than one group-commit window ({group})"
    );
    for i in 0..recovered {
        assert_eq!(
            db.get(&key_of(i)).as_deref(),
            Some(VALUE),
            "acknowledged record {i} lost"
        );
    }
    for i in recovered..issued {
        assert_eq!(db.get(&key_of(i)), None, "phantom record {i}");
    }
    println!(
        "torn tail: issued {issued}, acked {acked}, recovered {recovered}, lost {lost} (< group {group})"
    );
    j.int("group_commit", group);
    j.int("issued", issued);
    j.int("acked", acked);
    j.int("recovered", recovered);
    j.int("lost", lost);
    j.int("replayed_records", w.replayed_records);
    j.int("torn_tail_truncated", w.torn_tail_truncated);
}

fn enforce_gates(wal: &[WalLine]) {
    let by = |n: &str| wal.iter().find(|l| l.name == n).unwrap();
    // Group commit amortizes the sync barrier.
    assert!(
        by("group_64").syncs < by("group_1").syncs,
        "group commit must reduce sync barriers ({} vs {})",
        by("group_64").syncs,
        by("group_1").syncs
    );
    // Same records → same WAL bytes regardless of grouping.
    assert_eq!(
        by("group_1").wal_bytes,
        by("group_64").wal_bytes,
        "grouping changes sync cadence, not log content"
    );
    // Framing overhead is bounded: header (16 B) + key length (4 B) on an
    // 18-byte logical record ≈ 2.1×.
    let amp = by("group_1").write_amp;
    assert!(
        amp > 1.0 && amp < 3.0,
        "WAL write amplification {amp:.2} outside sane bounds"
    );
    assert_eq!(by("wal_off").wal_bytes, 0, "disabled WAL must write nothing");
}

fn main() {
    let args = BenchArgs::from_env("recovery");
    let n_keys = if args.smoke { 20_000 } else { 120_000 };
    let mut j = Json::default();
    j.obj("meta", |j| {
        j.int("n_keys", n_keys);
        j.bool("smoke", args.smoke);
        j.str("note", "WAL write-path overhead, clean-shutdown recovery cost per filter kind, and torn-tail crash-recovery gates on the simulated disk");
    });
    let wal = j.arr("wal_overhead", |j| bench_wal_overhead(n_keys, j));
    j.arr("recovery", |j| bench_recovery_time(n_keys, j));
    j.obj("torn_tail", bench_torn_tail);
    enforce_gates(&wal);
    j.write_checked(
        &args.out,
        &[
            "meta", "n_keys", "smoke", "wal_overhead", "config", "group_commit", "mops", "syncs",
            "wal_bytes", "write_amp", "recovery", "kind", "open_ms", "replayed_records",
            "block_reads", "tables", "filters_loaded", "torn_tail", "issued", "acked",
            "recovered", "lost", "torn_tail_truncated",
        ],
    );
}
