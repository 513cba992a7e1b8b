//! Publish differential: `Db::snapshot()` hands out a shared MemTable base
//! plus a small delta and a shared table set, rebuilt at different times.
//! Whatever the sharing, every snapshot must read exactly what the
//! database held *at the instant it was taken*, and keep reading that
//! while the database moves on underneath it.
//!
//! It is also the gate that the two handles are one read path: at every
//! snapshot instant the `Db` and the `DbSnapshot` just cut from it answer
//! the same inputs — `get`, `seek`, `scan_from` — each against the exact
//! model.
//!
//! Case seeds come from `MEMTREE_FAULT_SEEDS` (`"lo..hi"`, default
//! `0..32`), like the crash and scrub oracles; replay a failing seed `n`
//! with `MEMTREE_FAULT_SEEDS=n..n+1`.

use memtree_common::check::{prop_check_seeded, seed_range, Gen};
use memtree_common::{check, check_eq};
use memtree_lsm::{
    gc_orphans, CompactionConfig, Db, DbOptions, DbSnapshot, FilterKind, SeekResult,
};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Keys drawn from a space small enough that overwrites, deletes of live
/// keys and re-inserts of deleted ones all happen constantly.
const KEY_SPACE: usize = 400;

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

fn found(r: SeekResult) -> Option<Vec<u8>> {
    match r {
        SeekResult::Found { key } => Some(key),
        SeekResult::NotFound => None,
    }
}

/// One set of inputs, drawn once so that every handle checked at an
/// instant answers the same questions.
struct Probes {
    /// Point keys, hits and misses, shuffled with duplicates.
    keys: Vec<Vec<u8>>,
    /// The bounded, limited scan: `lo` and `hi` drawn independently (so the
    /// range spans anything from the whole key space to nothing, `hi < lo`
    /// included) and a limit that crosses blocks and tables.
    scan: (Vec<u8>, Vec<u8>, usize),
    /// `lo <= hi` pairs, narrow and wide: closed seeks and short scans.
    /// Half the lows are keys the model does not hold — in this workload
    /// mostly tombstones, so the seek starts on a deleted entry.
    ranges: Vec<(Vec<u8>, Vec<u8>)>,
    /// Short-scan lengths, one per range.
    lens: Vec<usize>,
}

impl Probes {
    fn draw(model: &Model, g: &mut Gen) -> Self {
        let mut keys: Vec<Vec<u8>> = (0..32).map(|_| key(g.range(0..KEY_SPACE + 20))).collect();
        keys.push(keys[g.range(0..keys.len())].clone());
        let scan = (key(g.range(0..KEY_SPACE)), key(g.range(0..KEY_SPACE)), g.range(1..60));
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..4)
            .map(|r| {
                let mut lo = g.range(0..KEY_SPACE);
                while r % 2 == 0 && lo + 1 < KEY_SPACE && model.contains_key(&key(lo)) {
                    lo += 1;
                }
                let width = if r < 2 { g.range(0..60) } else { g.range(0..KEY_SPACE) };
                (key(lo), key(lo + width))
            })
            .collect();
        let lens = ranges.iter().map(|_| *g.pick(&[0usize, 1, 6, 40])).collect();
        Self { keys, scan, ranges, lens }
    }
}

/// Every read op of `$h` (a `Db` or a `DbSnapshot` — the same methods, no
/// common trait) against `$model`.
macro_rules! check_ops {
    ($h:expr, $who:expr, $model:expr, $p:expr) => {{
        let (h, who, model, p): (_, &str, &Model, &Probes) = ($h, $who, $model, $p);
        for k in &p.keys {
            check_eq!(h.get(k), model.get(k).cloned(), "{who} get {:?}", String::from_utf8_lossy(k));
        }
        let rows = |lo: &[u8], hi: Option<&[u8]>, n: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            model
                .range(lo.to_vec()..)
                .take_while(|(k, _)| hi.is_none_or(|hi| k.as_slice() < hi))
                .take(n)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let first = |lo: &[u8], hi: Option<&[u8]>| rows(lo, hi, 1).pop().map(|(k, _)| k);
        check_eq!(h.scan_from(&[], None, usize::MAX), rows(&[], None, usize::MAX), "{who} scan");
        let (lo, hi, limit) = &p.scan;
        check_eq!(h.scan_from(lo, Some(hi), *limit), rows(lo, Some(hi), *limit), "{who} long scan");
        check_eq!(found(h.seek(lo, Some(hi))), first(lo, Some(hi)), "{who} seek {lo:?}..{hi:?}");
        for ((lo, hi), &n) in p.ranges.iter().zip(&p.lens) {
            let (hk, n) = (Some(hi.as_slice()), n.max(1));
            check_eq!(found(h.seek(lo, None)), first(lo, None), "{who} open seek {lo:?}");
            check_eq!(found(h.seek(lo, hk)), first(lo, hk), "{who} seek {lo:?}..{hi:?}");
            check_eq!(h.scan_from(lo, hk, n), rows(lo, hk, n), "{who} bounded scan {lo:?}");
        }
    }};
}

/// `snap` against the model it was taken over, on every read op — and,
/// when `db` is the database it was just cut from, the `Db` on the same
/// inputs, op for op.
fn agrees(db: Option<&Db>, snap: &DbSnapshot, model: &Model, g: &mut Gen) -> Result<(), String> {
    let probes = Probes::draw(model, g);
    check_ops!(snap, "snapshot", model, &probes);
    if let Some(db) = db {
        check_ops!(db, "db", model, &probes);
    }
    Ok(())
}

#[test]
fn every_snapshot_reads_its_own_instant_forever() {
    for seed in seed_range() {
        prop_check_seeded("publish_differential", seed, 1, |g| {
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
                    agrees(Some(&db), &snap, &model, g)?;
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
                        agrees(None, snap, frozen, g)?;
                    }
                }
            }
            check!(
                db.level_sizes().iter().sum::<usize>() > 0,
                "no table was ever flushed"
            );
            for (snap, frozen) in &held {
                agrees(None, snap, frozen, g)?;
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
}
