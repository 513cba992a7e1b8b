//! The latent-fault oracle: inject every fault class the simulated disk
//! supports — post-sync bit rot, transient read errors, capacity
//! exhaustion — and prove, differentially against a `BTreeMap` model,
//! that the engine never *silently* loses an acknowledged, non-deleted
//! key. Any key the database cannot serve correctly after corruption
//! must fall inside a [`memtree_lsm::LostRange`] reported by
//! [`memtree_lsm::Db::scrub`] — loss is allowed only with a receipt.
//!
//! Seeds come from `MEMTREE_FAULT_SEEDS` (`"lo..hi"`, default `0..32`),
//! so CI can shard the matrix across jobs.

use memtree_common::check::seed_range;
use memtree_common::hash::splitmix64;
use memtree_common::key::encode_u64;
use memtree_lsm::{CompactionConfig, Db, DbOptions, FileScrubOutcome, FilterKind, ScrubReport};
use std::collections::BTreeMap;
use std::sync::Arc;

const KEYSPACE: u64 = 150;

fn opts_for(seed: u64) -> DbOptions {
    DbOptions {
        // Small memtable and blocks: many flushes, compactions, and
        // multi-block tables, so corruption can land in any level and
        // any block position.
        memtable_bytes: 2 << 10,
        block_size: 512,
        l0_tables: 2,
        l1_tables: 2,
        filter: [FilterKind::None, FilterKind::Bloom(10.0), FilterKind::SurfReal(6)]
            [(seed % 3) as usize],
        ..Default::default()
    }
}

fn key_of(i: u64) -> Vec<u8> {
    let mut s = i % KEYSPACE;
    encode_u64(splitmix64(&mut s)).to_vec()
}

fn value_of(i: u64) -> Vec<u8> {
    format!("v{i:06}").into_bytes()
}

fn op_is_delete(seed: u64, i: u64) -> bool {
    let mut s = seed ^ i.wrapping_mul(0x517c_c1b7_2722_0a95);
    splitmix64(&mut s) % 5 == 0
}

/// Seeded put/delete workload; returns the database and its model.
fn build_workload(seed: u64, ops: u64) -> (Db, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut db = Db::new(opts_for(seed));
    let mut model = BTreeMap::new();
    for i in 1..=ops {
        if op_is_delete(seed, i) {
            db.delete(&key_of(i)).unwrap();
            model.remove(&key_of(i));
        } else {
            db.put(&key_of(i), &value_of(i)).unwrap();
            model.insert(key_of(i), value_of(i));
        }
    }
    (db, model)
}

/// The core contract: every key the database answers differently from the
/// model must be covered by a reported lost range.
fn assert_no_silent_loss(
    db: &Db,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    report: &ScrubReport,
    ctx: &str,
) {
    let mut mismatches = 0usize;
    for i in 0..KEYSPACE {
        let k = key_of(i);
        let got = db.get(&k);
        let want = model.get(&k).cloned();
        if got == want {
            continue;
        }
        mismatches += 1;
        assert!(
            report.lost_ranges.iter().any(|r| r.contains(&k)),
            "{ctx}: key {i} answers {got:?} (model {want:?}) outside every \
             reported lost range — silent loss"
        );
    }
    if !report.lost_ranges.is_empty() {
        // Having ranges with zero mismatches is legal (the damage may sit
        // under newer data) — but mismatches without ranges never are,
        // and that direction is what the per-key asserts above enforce.
        let _ = mismatches;
    }
}

fn live_blocks(disk: &Arc<memtree_lsm::SimDisk>) -> Vec<u32> {
    (0..disk.block_slots() as u32).filter(|&id| disk.is_live(id)).collect()
}

/// Latent bit rot: flip a seeded bit in 1–4 live data blocks after a
/// clean shutdown, reopen (possibly degraded), scrub, and check the
/// no-silent-loss contract — then again after a further reopen, since
/// quarantines and rewrites must persist through the manifest.
#[test]
fn bitrot_differential_never_loses_a_key_silently() {
    for seed in seed_range() {
        let (db, model) = build_workload(seed, 1200);
        let disk = db.close().unwrap();
        let blocks = live_blocks(&disk);
        assert!(!blocks.is_empty(), "seed {seed}: workload left no live blocks");
        let victims = (1 + (seed % 4) as usize).min(blocks.len());
        let mut s = seed;
        for v in 0..victims {
            let id = blocks[splitmix64(&mut s) as usize % blocks.len()];
            // Re-rotting the same block is fine: it just flips another bit.
            disk.bitrot_block(id, seed.wrapping_add(v as u64)).unwrap();
        }

        let mut db = Db::open(disk, opts_for(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: degraded open failed: {e:?}"));
        let report = db
            .scrub()
            .unwrap_or_else(|e| panic!("seed {seed}: scrub failed: {e:?}"));
        assert!(report.blocks_scanned > 0, "seed {seed}: scrub scanned nothing");
        assert_no_silent_loss(&db, &model, &report, &format!("seed {seed} post-scrub"));

        // A second scrub is a fixed point: nothing left to repair or drop.
        let second = db.scrub().unwrap();
        assert_eq!(second.repaired_blocks, 0, "seed {seed}");
        assert_eq!(second.dropped_blocks, 0, "seed {seed}");
        assert_eq!(second.tables_rewritten, 0, "seed {seed}");
        assert_eq!(
            second.quarantined_blocks, report.quarantined_blocks,
            "seed {seed}: quarantine set must be stable"
        );

        // Quarantines survive reopen; the contract holds on the new handle.
        let disk = db.disk_handle();
        drop(db);
        let mut db = Db::open(disk, opts_for(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: reopen after scrub failed: {e:?}"));
        db.check_invariants().unwrap();
        let third = db.scrub().unwrap();
        assert_no_silent_loss(&db, &model, &third, &format!("seed {seed} post-reopen"));
    }
}

/// Transient read faults (25% of reads fail once) heal under retry:
/// every answer stays correct, nothing is quarantined, and the retry
/// counter proves the fault path actually ran.
#[test]
fn transient_read_storms_heal_without_quarantine_or_wrong_answers() {
    let mut retries_across_seeds = 0u64;
    for seed in seed_range() {
        let (db, model) = build_workload(seed, 1000);
        let disk = db.close().unwrap();
        let db = Db::open(Arc::clone(&disk), opts_for(seed)).unwrap();
        disk.faults().enable(seed);
        disk.faults().arm("lsm.disk.read_transient", 0.25, Some(400));
        for i in 0..KEYSPACE {
            let k = key_of(i);
            assert_eq!(
                db.get(&k),
                model.get(&k).cloned(),
                "seed {seed}: wrong answer under transient storm at key {i}"
            );
        }
        let stats = db.io_stats();
        assert_eq!(stats.quarantined_blocks, 0, "seed {seed}: transient must not quarantine");
        retries_across_seeds += stats.transient_retries;
    }
    // Per-seed read counts vary with caching, but a storm that never
    // trips anywhere across the whole seed range means the fault point
    // is dead.
    assert!(retries_across_seeds > 0, "transient fault point never fired");
}

/// Capacity exhaustion is typed, clean, and retryable: a flush that hits
/// `Enospc` releases its partial blocks (no leak across attempts), the
/// database keeps serving out of the memtable, and freeing capacity lets
/// the same flush succeed with zero data loss.
#[test]
fn enospc_is_typed_leak_free_and_retryable() {
    for seed in seed_range() {
        let (mut db, mut model) = build_workload(seed, 600);
        let disk = db.disk_handle();
        disk.set_capacity_bytes(Some(disk.used_bytes() + 256));
        // Fill the remaining headroom until the engine reports Enospc.
        let mut typed = false;
        for i in 601..=1200u64 {
            match db.put(&key_of(i), &value_of(i)) {
                Ok(_) => {
                    model.insert(key_of(i), value_of(i));
                }
                Err(memtree_common::error::MemtreeError::Enospc { .. }) => {
                    typed = true;
                    break;
                }
                Err(e) => panic!("seed {seed}: expected Enospc, got {e:?}"),
            }
        }
        assert!(typed, "seed {seed}: capacity limit never surfaced");
        // Serviceable while full: everything acknowledged still answers.
        for (k, v) in &model {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "seed {seed}: full-disk read");
        }
        // Failed flushes must not leak partial blocks across attempts.
        let used_after_first = {
            let _ = db.flush();
            disk.used_bytes()
        };
        let used_after_second = {
            let _ = db.flush();
            disk.used_bytes()
        };
        assert_eq!(
            used_after_first, used_after_second,
            "seed {seed}: failing flushes leak disk space"
        );
        // Free space: the same writes now succeed and nothing was lost.
        disk.set_capacity_bytes(None);
        for i in 1201..=1400u64 {
            db.put(&key_of(i), &value_of(i)).unwrap();
            model.insert(key_of(i), value_of(i));
        }
        db.flush().unwrap();
        for (k, v) in &model {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "seed {seed}: post-recovery read");
        }
        let report = db.scrub().unwrap();
        assert!(report.lost_ranges.is_empty(), "seed {seed}: Enospc must not lose data");
    }
}

/// Scrub repairs a rotted block from a clean block-cache copy: the data
/// comes back bit-identical, nothing is lost, and the follow-up scrub is
/// fully clean.
#[test]
fn scrub_repairs_rotted_blocks_from_the_cache() {
    for seed in seed_range() {
        let (db, model) = build_workload(seed, 900);
        let disk = db.close().unwrap();
        let mut db = Db::open(disk, opts_for(seed)).unwrap();
        // Warm the cache over the whole key space, then rot one block that
        // is certain to be cached (small workload, 64-block cache).
        for i in 0..KEYSPACE {
            let _ = db.get(&key_of(i));
        }
        let disk = db.disk_handle();
        let blocks = live_blocks(&disk);
        let mut s = seed ^ 0xC0FFEE;
        let victim = blocks[splitmix64(&mut s) as usize % blocks.len()];
        disk.bitrot_block(victim, seed).unwrap();

        let report = db.scrub().unwrap();
        assert!(
            report.repaired_blocks + report.dropped_blocks + report.quarantined_blocks > 0
                || report.clean_blocks == report.blocks_scanned,
            "seed {seed}: rot vanished without classification"
        );
        // Whatever the classification, the contract holds…
        assert_no_silent_loss(&db, &model, &report, &format!("seed {seed}"));
        // …and when the block was cached (cache capacity permitting), the
        // repair path specifically must have fired instead of quarantine.
        if report.repaired_blocks > 0 {
            assert!(report.lost_ranges.is_empty(), "seed {seed}: repair still reported loss");
            let second = db.scrub().unwrap();
            assert!(second.is_clean(), "seed {seed}: repair did not stick: {second:?}");
            for (k, v) in &model {
                assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "seed {seed}");
            }
        }
    }
}

/// Scrub is the only un-quarantine path: a block that rots, gets
/// quarantined by the read path, and is then restored (the fault model's
/// stand-in for a media remap or an operator fixing a cable) is lifted
/// back to clean by the next scrub — and only then.
#[test]
fn restored_blocks_are_unquarantined_by_scrub_only() {
    for seed in seed_range() {
        // Filterless config: the open does not read blocks, so the
        // quarantine must come from the runtime read path.
        let opts = DbOptions {
            filter: FilterKind::None,
            memtable_bytes: 2 << 10,
            l0_tables: 2,
            l1_tables: 2,
            cache_blocks: 0, // no cache: the repair path must not mask the rot
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        let mut model = BTreeMap::new();
        for i in 1..=900u64 {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
                model.remove(&key_of(i));
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
                model.insert(key_of(i), value_of(i));
            }
        }
        let disk = db.close().unwrap();
        let mut db = Db::open(disk, opts).unwrap();
        let disk = db.disk_handle();
        let blocks = live_blocks(&disk);
        let mut s = seed ^ 0xFACADE;
        let victim = blocks[splitmix64(&mut s) as usize % blocks.len()];
        disk.bitrot_block(victim, seed).unwrap();

        // Reads over the whole space trip the quarantine on the rotted
        // block (and answer degraded for its keys — allowed while the
        // loss is pending a scrub report).
        for i in 0..KEYSPACE {
            let _ = db.get(&key_of(i));
        }
        let quarantined = db.io_stats().quarantined_blocks;
        assert_eq!(quarantined, 1, "seed {seed}: read path did not quarantine the rot");

        // Restore the bit (bitrot_block is self-inverse per (id, seed)).
        disk.bitrot_block(victim, seed).unwrap();
        // Reads still skip the block: quarantine outlives the fault…
        assert_eq!(db.io_stats().quarantined_blocks, 1, "seed {seed}");

        // …until a scrub verifies it clean and lifts it.
        let report = db.scrub().unwrap();
        assert_eq!(report.unquarantined_blocks, 1, "seed {seed}: scrub must lift the quarantine");
        assert!(report.lost_ranges.is_empty(), "seed {seed}: nothing is lost after restore");
        assert_eq!(db.io_stats().quarantined_blocks, 0, "seed {seed}");
        for (k, v) in &model {
            assert_eq!(
                db.get(k).as_deref(),
                Some(v.as_slice()),
                "seed {seed}: restored data must serve again"
            );
        }
        // The lift persists: reopen and re-verify.
        let disk = db.close().unwrap();
        let db = Db::open(disk, DbOptions { filter: FilterKind::None, ..opts_for(seed) }).unwrap();
        assert_eq!(db.io_stats().quarantined_blocks, 0, "seed {seed}: lift must persist");
    }
}

/// Crash mid-scrub: the republish step (rewriting a repaired table under
/// a fresh id) is interrupted by a crash under the Tiered policy, whose
/// overlapping runs make half-swapped level states easiest to corrupt.
/// Recovery must come back structurally sound, and a clean scrub
/// afterwards must finish the interrupted repair with zero lost ranges
/// and an exact model match.
#[test]
fn crash_during_scrub_republish_recovers_under_tiered() {
    for seed in seed_range() {
        let opts = DbOptions {
            filter: FilterKind::None,
            memtable_bytes: 2 << 10,
            l0_tables: 2,
            l1_tables: 2,
            cache_blocks: 0,
            // No auto-compaction: a merge would rescue the quarantined
            // block first, and this case is about scrub's republish.
            compact_on_flush: false,
            compaction: CompactionConfig::Tiered { tiers_per_level: 3 },
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        let mut model = BTreeMap::new();
        for i in 1..=900u64 {
            if op_is_delete(seed, i) {
                db.delete(&key_of(i)).unwrap();
                model.remove(&key_of(i));
            } else {
                db.put(&key_of(i), &value_of(i)).unwrap();
                model.insert(key_of(i), value_of(i));
            }
        }
        let disk = db.close().unwrap();
        let mut db = Db::open(disk, opts.clone()).unwrap();
        let disk = db.disk_handle();

        // Rot one live block that reads actually touch (tiered keeps
        // shadowed runs whose blocks no query probes), trip the
        // quarantine, then restore the bit (self-inverse) so the next
        // scrub has a rescue to republish.
        let mut blocks = live_blocks(&disk);
        let mut s = seed ^ 0xFACADE;
        blocks.sort_by_key(|_| splitmix64(&mut s));
        let mut tripped = false;
        for victim in blocks {
            disk.bitrot_block(victim, seed).unwrap();
            for i in 0..KEYSPACE {
                let _ = db.get(&key_of(i));
            }
            disk.bitrot_block(victim, seed).unwrap();
            if db.io_stats().quarantined_blocks == 1 {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "seed {seed}: no reachable block quarantined");

        // Scrub dies mid-republish.
        disk.faults().enable(seed);
        disk.faults().arm("lsm.scrub.republish", 1.0, Some(1));
        let interrupted = db.scrub();
        let fired = disk.faults().trips("lsm.scrub.republish") > 0;
        disk.faults().disable();
        assert!(fired, "seed {seed}: republish point never evaluated — stale name?");
        assert!(interrupted.is_err(), "seed {seed}: injected republish fault must surface");
        drop(db);
        disk.crash(Some(seed));

        // Recovery is sound, and a clean scrub completes the repair.
        let mut db = Db::open(disk, opts)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery after scrub crash: {e:?}"));
        db.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: invariants after scrub crash: {e:?}"));
        let report = db.scrub().unwrap();
        assert!(
            report.lost_ranges.is_empty(),
            "seed {seed}: stored bytes were intact throughout, nothing may be lost: {report:?}"
        );
        assert_eq!(db.io_stats().quarantined_blocks, 0, "seed {seed}: quarantine must lift");
        for i in 0..KEYSPACE {
            let k = key_of(i);
            assert_eq!(db.get(&k), model.get(&k).cloned(), "seed {seed}: key {i}");
        }
    }
}

/// Bit rot in the WAL and manifest while the database is live: scrub
/// detects the damage and repairs each from in-memory state (flush or
/// truncate for the WAL, rotation for the manifest) with zero data loss.
#[test]
fn live_wal_and_manifest_rot_are_repaired_in_place() {
    for seed in seed_range() {
        // Leave the workload dirty: memtable + WAL hold the newest writes.
        let (mut db, model) = build_workload(seed, 700);
        let disk = db.disk_handle();
        let manifest_file = disk
            .file_names()
            .into_iter()
            .find(|f| f.starts_with("manifest-"))
            .unwrap_or_else(|| panic!("seed {seed}: no manifest file on disk"));
        assert!(disk.bitrot_file("wal", seed), "seed {seed}: WAL missing or empty");
        assert!(disk.bitrot_file(&manifest_file, seed), "seed {seed}");

        let report = db.scrub().unwrap();
        assert_eq!(report.wal, FileScrubOutcome::Repaired, "seed {seed}");
        assert_eq!(report.manifest, FileScrubOutcome::Repaired, "seed {seed}");
        assert!(report.lost_ranges.is_empty(), "seed {seed}: log repair lost data");
        for (k, v) in &model {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "seed {seed}");
        }
        // The repaired logs must now recover cleanly through a reopen.
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts_for(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: reopen after log repair failed: {e:?}"));
        for (k, v) in &model {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "seed {seed}: post-reopen");
        }
    }
}
