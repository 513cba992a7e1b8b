//! The recovery oracle: crash at every injection point, recover, and
//! verify **prefix consistency** against an in-memory model.
//!
//! For each crashpoint × seed, a seeded workload runs against a small
//! memtable (forcing flushes and compactions through the fault) until the
//! armed point fires — then the disk "loses power" (optionally tearing
//! the last in-flight write at a seeded offset) and the database reopens.
//!
//! The contract checked after every recovery:
//!
//! 1. `last_seq()` = some prefix length `p` of the put history, with
//!    `p >= last_synced_seq()` observed before the crash — acknowledged
//!    writes survive;
//! 2. the recovered state equals **exactly** the fold of puts `1..=p` —
//!    no lost acknowledged record, no phantom suffix record, no
//!    half-applied compaction;
//! 3. structural invariants hold (`check_invariants`);
//! 4. the recovered database accepts new writes and survives a further
//!    clean reopen.
//!
//! Seeds come from `MEMTREE_FAULT_SEEDS` (`"lo..hi"`, default `0..32`),
//! so CI can shard the matrix across jobs.

use memtree_common::check::seed_range;
use memtree_common::error::MemtreeError;
use memtree_common::key::successor;
use memtree_lsm::{CompactionConfig, Db, DbOptions, FilterKind, StallConfig};
use std::collections::BTreeMap;

/// Every fail point on the write/flush/compact paths. The two
/// recovery-only points (`lsm.manifest.rotate`, `lsm.current.swap`) never
/// evaluate during a workload; `crash_during_recovery_is_survivable`
/// covers them.
const CRASHPOINTS: [&str; 11] = [
    "lsm.wal.append",
    "lsm.wal.sync",
    "lsm.disk.write_fault",
    "lsm.table.block_write",
    "lsm.flush.filter_block",
    "lsm.flush.sync",
    "lsm.manifest.append",
    "lsm.manifest.sync",
    "lsm.wal.reset",
    "lsm.compact.begin",
    "lsm.compact.sync",
];

fn opts_for(seed: u64) -> DbOptions {
    DbOptions {
        // Small memtable: the workload crosses many flush/compaction
        // boundaries, so the armed point sits on a hot path.
        memtable_bytes: 2 << 10,
        l0_tables: 2,
        l1_tables: 2,
        filter: [FilterKind::None, FilterKind::Bloom(10.0), FilterKind::SurfReal(6)]
            [(seed % 3) as usize],
        wal_group_commit: [1usize, 4, 16][(seed / 3 % 3) as usize],
        // Half the matrix runs each compaction policy: crash consistency
        // must hold under both level shapes.
        compaction: if seed.is_multiple_of(2) {
            CompactionConfig::Leveled { fanout: 10 }
        } else {
            CompactionConfig::Tiered { tiers_per_level: 3 }
        },
        ..Default::default()
    }
}

fn key_of(i: u64) -> Vec<u8> {
    // ~200 distinct keys: plenty of overwrites, so compactions must keep
    // the *newest* version and recovery must not resurrect older ones.
    let mut s = i % 200;
    memtree_common::key::encode_u64(memtree_common::hash::splitmix64(&mut s)).to_vec()
}

fn value_of(i: u64) -> Vec<u8> {
    format!("v{i:06}").into_bytes()
}

/// Seeded op mix: ~1 in 5 operations is a delete, so tombstones ride
/// through every flush, compaction, and crash the oracle provokes.
fn op_is_delete(seed: u64, i: u64) -> bool {
    let mut s = seed ^ i.wrapping_mul(0x517c_c1b7_2722_0a95);
    memtree_common::hash::splitmix64(&mut s).is_multiple_of(5)
}

/// The fold of operations `1..=p` (puts and deletes) into final state.
fn fold_model(seed: u64, p: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for i in 1..=p {
        if op_is_delete(seed, i) {
            model.remove(&key_of(i));
        } else {
            model.insert(key_of(i), value_of(i));
        }
    }
    model
}

/// Checks the whole 200-key space against the model: catches lost
/// records, phantom suffix records, and resurrected deleted keys alike.
fn assert_matches_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>, ctx: &str) {
    for i in 0..200u64 {
        let k = key_of(i);
        assert_eq!(db.get(&k), model.get(&k).cloned(), "{ctx}: key {i}");
    }
}

/// One crash-recover-verify cycle. Returns whether the armed point fired.
fn run_case(point: &str, seed: u64) -> bool {
    let opts = opts_for(seed);
    let mut db = Db::new(opts.clone());
    let disk = db.disk_handle();
    // Probability tiers: always / often / rarely — late firings crash in
    // deeper states (mid-compaction chains) than first-call firings.
    let probability = [1.0, 0.3, 0.05][(seed % 3) as usize];
    disk.faults().enable(seed);
    disk.faults().arm(point, probability, Some(1));

    // ~2000 puts of ~15 bytes against a 2 KiB memtable: ≈15 flushes and a
    // steady stream of compactions, so every point gets many evaluations.
    let total_puts = 2000 + (seed % 7) * 31;
    let mut issued = 0u64;
    for i in 1..=total_puts {
        let result = if op_is_delete(seed, i) {
            db.delete(&key_of(i))
        } else {
            db.put(&key_of(i), &value_of(i))
        };
        match result {
            Ok(seq) => {
                assert_eq!(seq, i, "seqs are dense while writes succeed");
                issued = i;
            }
            Err(_) => {
                issued = i; // the failed write may or may not have logged
                break;
            }
        }
    }
    let fired = disk.faults().trips(point) > 0;
    disk.faults().disable();

    let acked = db.last_synced_seq();
    drop(db);
    let tear = if seed.is_multiple_of(2) { Some(seed.wrapping_mul(0x9E37_79B9)) } else { None };
    disk.crash(tear);

    let db = Db::open(disk, opts.clone()).unwrap_or_else(|e| {
        panic!("recovery after crash at {point} (seed {seed}) failed: {e:?}")
    });
    db.check_invariants()
        .unwrap_or_else(|e| panic!("invariants broken after {point}/{seed}: {e:?}"));

    // 1. The recovered prefix covers everything acknowledged.
    let p = db.last_seq();
    assert!(
        p >= acked && p <= issued,
        "{point}/{seed}: recovered prefix {p} outside [acked {acked}, issued {issued}]"
    );

    // 2. The state is exactly the fold of operations 1..=p: no lost
    // record, no phantom suffix record, no resurrected deleted key.
    let mut model = fold_model(seed, p);
    assert_matches_model(&db, &model, &format!("{point}/{seed} after recovery"));

    // 3. The recovered database is live: absorb new writes (and deletes),
    // flush through a fresh manifest transaction, and survive a clean
    // reopen.
    let mut db = db;
    for i in (issued + 1)..=(issued + 40) {
        if op_is_delete(seed, i) {
            db.delete(&key_of(i)).unwrap();
            model.remove(&key_of(i));
        } else {
            db.put(&key_of(i), &value_of(i)).unwrap();
            model.insert(key_of(i), value_of(i));
        }
    }
    let disk = db.close().unwrap();
    let db = Db::open(disk, opts)
        .unwrap_or_else(|e| panic!("clean reopen after {point}/{seed} failed: {e:?}"));
    assert_eq!(db.wal_stats().replayed_records, 0, "clean shutdown replays nothing");
    assert_matches_model(&db, &model, &format!("{point}/{seed} after clean reopen"));
    fired
}

#[test]
fn every_crashpoint_recovers_the_acknowledged_prefix() {
    let seeds = seed_range();
    assert!(!seeds.is_empty(), "empty MEMTREE_FAULT_SEEDS range");
    for point in CRASHPOINTS {
        let mut fired = 0u64;
        for seed in seeds.clone() {
            if run_case(point, seed) {
                fired += 1;
            }
        }
        // Probability tiers mean not every seed fires, but a point that
        // never fires across the whole seed range is a dead crashpoint
        // (e.g. renamed in the engine but not here).
        assert!(
            fired > 0,
            "{point}: never fired across seeds {seeds:?} — stale crashpoint name?"
        );
    }
}

#[test]
fn crash_during_recovery_is_survivable() {
    // Double-fault: the first recovery itself is interrupted (rotation and
    // CURRENT swap are on the recovery path), then a second recovery runs
    // clean. Nothing acknowledged may be lost across the pile-up.
    for seed in seed_range() {
        let opts = opts_for(seed);
        let mut db = Db::new(opts.clone());
        for i in 1..=120u64 {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
            }
        }
        let acked = db.last_synced_seq();
        let disk = db.disk_handle();
        drop(db);
        disk.crash(if seed % 2 == 0 { Some(seed) } else { None });

        let point = ["lsm.manifest.rotate", "lsm.current.swap"][(seed % 2) as usize];
        disk.faults().enable(seed);
        disk.faults().arm(point, 1.0, Some(1));
        let first = Db::open(disk.clone(), opts.clone());
        disk.faults().disable();
        if let Ok(db) = first {
            // Rotation fired after its durable work or never evaluated;
            // either way this handle is fully recovered.
            drop(db);
        }
        disk.crash(Some(seed ^ 0xDEAD));

        let db = Db::open(disk, opts)
            .unwrap_or_else(|e| panic!("second recovery failed ({point}/{seed}): {e:?}"));
        let p = db.last_seq();
        assert!(p >= acked, "{point}/{seed}: double-fault lost acked records");
        let model = fold_model(seed, p);
        assert_matches_model(&db, &model, &format!("{point}/{seed} after double fault"));
    }
}

/// Stall-band oracle: with write stalls armed tighter than the compaction
/// trigger and auto-compaction off, a workload must see typed
/// `Backpressure`/`Stalled` rejections, every rejection must have **zero
/// side effects** (the retry's sequence number proves nothing was
/// half-logged), `compact_debt` must always drain enough for the retry to
/// eventually land — and a crash mid-churn must still recover an exact
/// acknowledged prefix.
#[test]
fn stall_bands_reject_typed_then_drain_and_recover_across_crash() {
    for seed in seed_range() {
        let opts = DbOptions {
            stall: StallConfig {
                slowdown_l0_runs: 1,
                stop_l0_runs: 3,
                slowdown_memtable_bytes: 8 << 10,
                stop_memtable_bytes: 16 << 10,
            },
            compact_on_flush: false,
            ..opts_for(seed)
        };
        let mut db = Db::new(opts.clone());
        let mut rejections = 0u64;
        let mut issued = 0u64;
        for i in 1..=800u64 {
            loop {
                let result = if op_is_delete(seed, i) {
                    db.delete(&key_of(i))
                } else {
                    db.put(&key_of(i), &value_of(i))
                };
                match result {
                    Ok(seq) => {
                        // Dense seqs across rejections: a rejected write
                        // left nothing behind, not even a seq allocation.
                        assert_eq!(seq, i, "seed {seed}: rejection had side effects");
                        issued = i;
                        break;
                    }
                    Err(e) if e.is_overload() => {
                        rejections += 1;
                        if matches!(e, MemtreeError::Stalled { .. }) {
                            let _ = db.flush();
                        }
                        db.compact_debt()
                            .unwrap_or_else(|e| panic!("seed {seed}: drain failed: {e:?}"));
                    }
                    Err(e) => panic!("seed {seed}: untyped write error: {e:?}"),
                }
            }
        }
        assert!(rejections > 0, "seed {seed}: bands this tight must reject");
        let stats = db.stats();
        assert!(
            stats.backpressure_rejections + stats.stall_rejections >= rejections,
            "seed {seed}: rejection accounting lost events: {stats:?}"
        );
        assert!(stats.compact_steps > 0, "seed {seed}: no drain ran: {stats:?}");

        let acked = db.last_synced_seq();
        let disk = db.disk_handle();
        drop(db);
        disk.crash(if seed % 2 == 0 { Some(seed) } else { None });
        let db = Db::open(disk, opts)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e:?}"));
        db.check_invariants().unwrap();
        let p = db.last_seq();
        assert!(
            p >= acked && p <= issued,
            "seed {seed}: recovered prefix {p} outside [acked {acked}, issued {issued}]"
        );
        let model = fold_model(seed, p);
        assert_matches_model(&db, &model, &format!("stall-band crash, seed {seed}"));
    }
}

/// Filter-image corruption oracle: flip one seeded bit in **every**
/// persisted filter-image block, reopen, and demand zero wrong answers.
/// The CRC frame must catch each flip, the open must fall back to
/// rebuilding each filter from its (intact) data blocks, and the rebuilt
/// filters must still serve the full key space exactly — under both
/// compaction policies.
#[test]
fn filter_image_bitrot_rebuilds_with_zero_wrong_answers() {
    for seed in seed_range() {
        let opts = DbOptions {
            // Force a filter (a filterless config has no image to rot).
            filter: [FilterKind::Bloom(10.0), FilterKind::SurfReal(6)][(seed % 2) as usize],
            ..opts_for(seed)
        };
        let mut db = Db::new(opts.clone());
        let total = 1200u64;
        for i in 1..=total {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
            }
        }
        let disk = db.close().unwrap();
        let clean = Db::open(disk, opts.clone()).unwrap();
        let images = clean.filter_block_ids();
        assert!(!images.is_empty(), "seed {seed}: no filter images to corrupt");
        let tables: u64 = clean.level_sizes().iter().map(|&s| s as u64).sum();
        assert_eq!(clean.open_report().filters_loaded, tables, "seed {seed}: clean open loads all");
        let disk = clean.close().unwrap();
        for &b in &images {
            disk.bitrot_block(b, seed).unwrap();
        }
        let db = Db::open(disk, opts)
            .unwrap_or_else(|e| panic!("seed {seed}: open died on rotten images: {e:?}"));
        db.check_invariants().unwrap();
        let report = db.open_report();
        assert_eq!(
            report.filter_images_corrupt,
            images.len() as u64,
            "seed {seed}: every single-bit flip must be caught"
        );
        assert_eq!(report.filters_rebuilt, images.len() as u64, "seed {seed}: rebuild fallback");
        assert_eq!(report.degraded_tables, 0, "seed {seed}: data is intact, no degrade");
        let model = fold_model(seed, total);
        assert_matches_model(&db, &model, &format!("seed {seed} after image bitrot"));
    }
}

/// Resurrection oracle: a deleted key must stay dead through a crash,
/// recovery, and however many compactions it takes for its tombstone to
/// reach the bottom level and be dropped. A tombstone dropped too early
/// (while an older version still lives below) would resurface the old
/// value here.
#[test]
fn deleted_keys_stay_dead_across_crash_and_compaction() {
    for seed in seed_range() {
        let opts = opts_for(seed);
        let mut db = Db::new(opts.clone());
        // Phase 1: seed every key with several overwritten generations so
        // old versions pile up in deep levels.
        for i in 1..=800u64 {
            db.put(&key_of(i), &value_of(i)).unwrap();
        }
        // Phase 2: deletes mixed with puts, then crash mid-history.
        let mut issued = 800u64;
        for i in 801..=1400u64 {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
            }
            issued = i;
        }
        let acked = db.last_synced_seq();
        let disk = db.disk_handle();
        drop(db);
        disk.crash(if seed % 2 == 0 { Some(seed) } else { None });

        let mut db = Db::open(disk, opts.clone())
            .unwrap_or_else(|e| panic!("recovery failed (seed {seed}): {e:?}"));
        let p = db.last_seq();
        assert!(p >= acked && p <= issued, "seed {seed}: bad recovered prefix {p}");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 1..=800.min(p) {
            model.insert(key_of(i), value_of(i));
        }
        for i in 801..=p {
            if op_is_delete(seed, i) {
                model.remove(&key_of(i));
            } else {
                model.insert(key_of(i), value_of(i));
            }
        }
        assert_matches_model(&db, &model, &format!("seed {seed} after recovery"));

        // Phase 3: churn hard enough that the tombstones migrate down and
        // are eventually dropped at the bottom — the deleted keys must
        // stay dead the whole way, and seeks must not step onto them.
        for i in (issued + 1)..=(issued + 1200) {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
                model.remove(&key_of(i));
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
                model.insert(key_of(i), value_of(i));
            }
        }
        assert_matches_model(&db, &model, &format!("seed {seed} after churn"));
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts)
            .unwrap_or_else(|e| panic!("clean reopen failed (seed {seed}): {e:?}"));
        assert_matches_model(&db, &model, &format!("seed {seed} after reopen"));
        // Seek sweep: walking the whole key space must surface exactly the
        // model's keys — a tombstone visible to `seek` is a live leak.
        let mut at = Vec::new();
        let mut seen = 0usize;
        while let Some(key) = db.seek(&successor(&at), None) {
            assert!(model.contains_key(&key), "seed {seed}: seek surfaced dead key");
            seen += 1;
            at = key;
        }
        assert_eq!(seen, model.len(), "seed {seed}: seek missed live keys");
    }
}
