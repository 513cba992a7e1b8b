//! Publish differential: `Db::snapshot()` hands out a shared MemTable base
//! plus a small delta and a shared table set, rebuilt at different times.
//! Whatever the sharing, every snapshot must read exactly what the
//! database held *at the instant it was taken*, and keep reading that
//! while the database moves on underneath it.

use memtree_common::check::{prop_check, Gen};
use memtree_common::{check, check_eq};
use memtree_lsm::{gc_orphans, CompactionConfig, Db, DbOptions, DbSnapshot, FilterKind};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Keys drawn from a space small enough that overwrites, deletes of live
/// keys and re-inserts of deleted ones all happen constantly.
const KEY_SPACE: usize = 400;

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

/// `snap` against the model it was taken over: sampled point reads (hits
/// and misses), the full scan, and one bounded, limited scan.
fn agrees(snap: &DbSnapshot, model: &Model, g: &mut Gen) -> Result<(), String> {
    for _ in 0..32 {
        let k = key(g.range(0..KEY_SPACE + 20));
        check_eq!(
            snap.get(&k),
            model.get(&k).cloned(),
            "get {:?}",
            String::from_utf8_lossy(&k)
        );
    }
    let all: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    check_eq!(snap.scan_from(&[], None, usize::MAX), all);
    let (lo, hi) = (key(g.range(0..KEY_SPACE)), key(g.range(0..KEY_SPACE)));
    let limit = g.range(1..60);
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(lo.clone()..)
        .filter(|(k, _)| **k < hi)
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    check_eq!(snap.scan_from(&lo, Some(&hi), limit), want);
    Ok(())
}

#[test]
fn every_snapshot_reads_its_own_instant_forever() {
    prop_check("publish_differential", 24, |g| {
        let mut db = Db::new(DbOptions {
            // ~600 entries per MemTable generation: several base rebuilds
            // between two flushes.
            memtable_bytes: 16 << 10,
            block_size: 256,
            cache_blocks: 8,
            l0_tables: 2,
            filter: *g.pick(&[
                FilterKind::None,
                FilterKind::Bloom(10.0),
                FilterKind::SurfReal(4),
            ]),
            compaction: *g.pick(&[
                CompactionConfig::Leveled { fanout: 4 },
                CompactionConfig::Tiered { tiers_per_level: 3 },
            ]),
            // Half the cases leave flushed runs as debt that only the
            // explicit `compact_debt` steps below merge.
            compact_on_flush: g.bool(0.5),
            ..DbOptions::default()
        });
        let mut model = Model::new();
        // Snapshots held while the base, the delta and the table set they
        // were cut from are all replaced, each with its frozen model.
        let mut held: Vec<(DbSnapshot, Model)> = Vec::new();
        // Writes between snapshots swing between "a few" (the delta grows
        // one publish at a time to the rebuild threshold) and "hundreds"
        // (the delta overflows unobserved).
        let mut snapshot_pct = 25;
        for step in 0..3000 {
            if step % 250 == 0 {
                snapshot_pct = *g.pick(&[1, 5, 25, 60]);
            }
            let roll = g.range(0..100);
            if roll < snapshot_pct {
                let snap = db.snapshot();
                agrees(&snap, &model, g)?;
                check_eq!(snap.seq(), db.last_seq());
                if held.len() < 8 {
                    held.push((snap, model.clone()));
                } else {
                    let slot = g.range(0..held.len());
                    held[slot] = (snap, model.clone());
                }
                continue;
            }
            match g.range(0..100) {
                0..=64 => {
                    let (k, v) = (key(g.range(0..KEY_SPACE)), g.bytes_vec(0..24));
                    db.put(&k, &v).map_err(|e| e.to_string())?;
                    model.insert(k, v);
                }
                65..=96 => {
                    let k = key(g.range(0..KEY_SPACE));
                    db.delete(&k).map_err(|e| e.to_string())?;
                    model.remove(&k);
                }
                97 => {
                    db.flush().map_err(|e| e.to_string())?;
                }
                _ => {
                    db.compact_debt().map_err(|e| e.to_string())?;
                }
            }
            if step % 400 == 399 {
                for (snap, frozen) in &held {
                    agrees(snap, frozen, g)?;
                }
            }
        }
        check!(
            db.level_sizes().iter().sum::<usize>() > 0,
            "no table was ever flushed"
        );
        for (snap, frozen) in &held {
            agrees(snap, frozen, g)?;
        }
        // With the last snapshot gone, nothing may keep a retired table's
        // blocks allocated past the next flush.
        drop(held);
        db.put(b"last", b"write").map_err(|e| e.to_string())?;
        db.flush().map_err(|e| e.to_string())?;
        let leaked = gc_orphans(&db.disk_handle(), &[&db]).map_err(|e| e.to_string())?;
        check_eq!(leaked, 0, "blocks no live table references");
        db.check_invariants().map_err(|e| e.to_string())
    });
}
