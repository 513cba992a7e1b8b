//! Differential fault-injection tests for the anti-cache: OLTP-style op
//! streams against a `BTreeMap` reference model while fetch, eviction, and
//! corruption faults fire. Invariants, across every seed:
//!
//! * no operation panics;
//! * every successful read returns exactly what the model holds;
//! * failed operations leave the database and indexes consistent;
//! * checksum-detected corruption quarantines exactly the damaged block —
//!   its tuples error, everything else keeps serving.

use memtree_common::check::Gen;
use memtree_common::error::MemtreeError;
use memtree_compress::decode_block;
use memtree_hstore::db::{
    Database, IndexChoice, FP_ANTICACHE_CORRUPT, FP_ANTICACHE_EVICT, FP_ANTICACHE_FETCH,
};
use memtree_hstore::row::{Row, Val};
use std::collections::BTreeMap;
use std::time::Duration;

fn small_db(threshold: usize) -> Database {
    let mut db = Database::new(IndexChoice::BTree);
    db.enable_anticaching(threshold, Duration::ZERO);
    let t = db.create_table("items");
    db.create_unique_index("items_pk", t, &[0]);
    db
}

fn row_for(id: i64, g: &mut Gen) -> Row {
    vec![
        Val::I64(id),
        Val::I64(g.i64_below(7)),
        Val::Str("p".repeat(20 + g.range(0..20))),
    ]
}

/// One differential run with fetch (25 %) and eviction (10 %) faults
/// armed. The model only applies a mutation when the database reports
/// success, so injected failures must not desynchronize.
fn run_differential(seed: u64) -> Result<(), String> {
    let mut g = Gen::new(seed ^ 0xD1FF);
    let mut db = small_db(200 << 10);
    let faults = db.anticache_faults().expect("anti-caching on");
    faults.enable(seed);
    faults.arm(FP_ANTICACHE_FETCH, 0.25, None);
    faults.arm(FP_ANTICACHE_EVICT, 0.10, None);
    let t = db.table_id("items");
    let pk = db.unique_id("items_pk");
    let mut model: BTreeMap<i64, Row> = BTreeMap::new();
    let mut next_id = 0i64;

    // Preload enough rows that eviction is active throughout.
    for _ in 0..4000 {
        let row = row_for(next_id, &mut g);
        model.insert(next_id, row.clone());
        db.insert(t, row).unwrap();
        next_id += 1;
    }

    for step in 0..800 {
        let op = g.range(0..10);
        match op {
            0 | 1 => {
                let row = row_for(next_id, &mut g);
                model.insert(next_id, row.clone());
                if db.insert(t, row).unwrap().is_none() {
                    return Err(format!("seed {seed} step {step}: duplicate pk {next_id}"));
                }
                next_id += 1;
            }
            2..=6 => {
                let id = g.i64_below(next_id);
                let slot = db.get_unique(pk, &[Val::I64(id)]).unwrap();
                match (slot, model.get(&id)) {
                    (Some(s), Some(want)) => match db.read(t, s) {
                        Ok(got) => {
                            if &got != want {
                                return Err(format!(
                                    "seed {seed} step {step}: read {id} wrong value"
                                ));
                            }
                        }
                        // Transient fetch exhausted its retries: the tuple
                        // must still be readable once the fault clears.
                        Err(MemtreeError::Injected { .. }) => {}
                        Err(e) => {
                            return Err(format!("seed {seed} step {step}: read {id}: {e}"))
                        }
                    },
                    (None, None) => {}
                    (s, m) => {
                        return Err(format!(
                            "seed {seed} step {step}: index/model disagree on {id}: \
                             slot {s:?} model {}",
                            m.is_some()
                        ))
                    }
                }
            }
            7 | 8 => {
                let id = g.i64_below(next_id);
                if let Some(s) = db.get_unique(pk, &[Val::I64(id)]).unwrap() {
                    let tag = g.i64_below(1 << 40);
                    match db.update(t, s, |row| {
                        row[1] = Val::I64(tag);
                        Ok(())
                    }) {
                        Ok(()) => {
                            model.get_mut(&id).expect("index implies model")[1] = Val::I64(tag);
                        }
                        Err(MemtreeError::Injected { .. }) => {} // not applied
                        Err(e) => {
                            return Err(format!("seed {seed} step {step}: update {id}: {e}"))
                        }
                    }
                }
            }
            _ => {
                let id = g.i64_below(next_id);
                if let Some(s) = db.get_unique(pk, &[Val::I64(id)]).unwrap() {
                    match db.delete(t, s) {
                        Ok(()) => {
                            model.remove(&id);
                        }
                        Err(MemtreeError::Injected { .. }) => {} // row survives
                        Err(e) => {
                            return Err(format!("seed {seed} step {step}: delete {id}: {e}"))
                        }
                    }
                }
            }
        }
    }

    // Faults off: every surviving row must read back exactly.
    db.anticache_faults().expect("anti-caching on").disable();
    for (id, want) in &model {
        let Some(s) = db.get_unique(pk, &[Val::I64(*id)]).unwrap() else {
            return Err(format!("seed {seed}: post-run lost pk {id}"));
        };
        match db.read(t, s) {
            Ok(got) if &got == want => {}
            Ok(_) => return Err(format!("seed {seed}: post-run wrong value for {id}")),
            Err(e) => return Err(format!("seed {seed}: post-run read {id}: {e}")),
        }
    }
    Ok(())
}

#[test]
fn differential_under_injected_anticache_faults_32_seeds() {
    for seed in 0..32u64 {
        if let Err(msg) = run_differential(seed) {
            panic!("{msg}");
        }
    }
}

/// Loads 3000 rows into `db` — a `small_db(60 << 10)`, so its anti-cache
/// ends up holding live blocks — and returns (db, table, pk index,
/// highest id loaded).
fn evicted_db(mut db: Database) -> (Database, usize, usize, i64) {
    let t = db.table_id("items");
    let pk = db.unique_id("items_pk");
    let mut g = Gen::new(0xB10C);
    for id in 0..3000i64 {
        db.insert(t, row_for(id, &mut g)).unwrap();
    }
    assert!(db.stats().evicted_tuples > 0, "nothing evicted");
    (db, t, pk, 3000)
}

#[test]
fn every_bit_flip_in_an_anticache_block_is_detected() {
    let (db, ..) = evicted_db(small_db(60 << 10));
    // Exhaustively damage the actual stored image of a live block: every
    // single-bit flip must surface as a Corruption error from the frame
    // decoder — never a successful decode of different bytes.
    let frame = db.anticache_block_frame().expect("a live block");
    let reference = decode_block(&frame).expect("pristine frame decodes");
    let mut copy = frame.clone();
    for byte in 0..copy.len() {
        for bit in 0..8 {
            copy[byte] ^= 1 << bit;
            match decode_block(&copy) {
                Err(MemtreeError::Corruption { .. }) => {}
                Ok(out) => panic!(
                    "flip {byte}.{bit}: decoded silently (equal: {})",
                    out == reference
                ),
                Err(other) => panic!("flip {byte}.{bit}: unexpected error {other:?}"),
            }
            copy[byte] ^= 1 << bit;
        }
    }
    assert_eq!(decode_block(&copy).expect("restored"), reference);
}

#[test]
fn corrupted_block_is_quarantined_and_only_its_tuples_fail() {
    let (mut db, t, pk, n) = evicted_db(small_db(60 << 10));
    let damaged = db.corrupt_anticache_block(17, 0x20).expect("a live block");

    let mut quarantined_errors = 0;
    let mut served = 0;
    for id in 0..n {
        let Some(slot) = db.get_unique(pk, &[Val::I64(id)]).unwrap() else {
            panic!("pk {id} lost");
        };
        match db.read(t, slot) {
            Ok(row) => {
                assert_eq!(row[0].as_i64().unwrap(), id, "wrong row served for {id}");
                served += 1;
            }
            Err(MemtreeError::Quarantined { block }) => {
                assert_eq!(block, damaged, "unexpected block quarantined");
                quarantined_errors += 1;
            }
            Err(e) => panic!("read {id}: unexpected error {e}"),
        }
    }
    assert!(quarantined_errors > 0, "corruption never surfaced");
    assert!(served > 0, "healthy tuples stopped serving");
    assert_eq!(db.stats().quarantined_blocks, 1);

    // The quarantined tuples keep erroring deterministically — no panic,
    // no wrong bytes, and re-reads don't \"heal\" into garbage.
    let mut still_failing = 0;
    for id in 0..n {
        if let Some(slot) = db.get_unique(pk, &[Val::I64(id)]).unwrap() {
            if matches!(db.read(t, slot), Err(MemtreeError::Quarantined { .. })) {
                still_failing += 1;
            }
        }
    }
    assert_eq!(still_failing, quarantined_errors);
}

#[test]
fn injected_corruption_at_eviction_time_quarantines() {
    let db = small_db(60 << 10);
    let faults = db.anticache_faults().expect("anti-caching on");
    faults.enable(0xC0);
    faults.arm(FP_ANTICACHE_CORRUPT, 1.0, Some(1)); // damage exactly one block
    let (mut db, t, pk, n) = evicted_db(db);
    db.anticache_faults().expect("anti-caching on").disable();
    let mut outcomes = (0, 0);
    for id in 0..n {
        let slot = db.get_unique(pk, &[Val::I64(id)]).unwrap().expect("pk");
        match db.read(t, slot) {
            Ok(_) => outcomes.0 += 1,
            Err(MemtreeError::Quarantined { .. }) => outcomes.1 += 1,
            Err(e) => panic!("read {id}: {e}"),
        }
    }
    assert!(outcomes.1 > 0, "the damaged block never surfaced");
    assert!(outcomes.0 > n as usize / 2, "most tuples should still serve");
    assert_eq!(db.stats().quarantined_blocks, 1);
}

#[test]
fn transient_fetch_faults_are_retried() {
    let (mut db, t, pk, _) = evicted_db(small_db(60 << 10));
    let faults = db.anticache_faults().expect("anti-caching on");
    faults.enable(0xF3);
    faults.arm(FP_ANTICACHE_FETCH, 1.0, Some(2)); // two failures, then heal
    // Find an evicted tuple by probing ids until a read triggers a fetch.
    let before = db.stats().fetches;
    let mut fetched = false;
    for id in 0..3000i64 {
        let slot = db.get_unique(pk, &[Val::I64(id)]).unwrap().expect("pk");
        let row = db.read(t, slot).expect("retry should absorb both faults");
        assert_eq!(row[0].as_i64().unwrap(), id);
        if db.stats().fetches > before {
            fetched = true;
            break;
        }
    }
    assert!(fetched, "no fetch was exercised");
    assert_eq!(db.stats().fetch_retries, 2);
}
