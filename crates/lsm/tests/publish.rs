//! Publish differential: `Db::snapshot()` hands out the MemTable's shared
//! young run and stage plus a copy of the write buffer and a shared table
//! set, rebuilt at different times.
//! Whatever the sharing, every snapshot must read exactly what the
//! database held *at the instant it was taken*, and keep reading that
//! while the database moves on underneath it.
//!
//! It is also the gate that the two handles are one read path: at every
//! snapshot instant the `Db` and the `DbSnapshot` just cut from it answer
//! the same inputs — `get`, `seek`, `scan_from` — each against the exact
//! model; the snapshot's `cursor` is walked row by row as well.
//!
//! Case seeds come from `MEMTREE_FAULT_SEEDS` (`"lo..hi"`, default
//! `0..32`), like the crash and scrub oracles; replay a failing seed `n`
//! with `MEMTREE_FAULT_SEEDS=n..n+1`.

use memtree_common::check::{prop_check_seeded, seed_range, Gen};
use memtree_common::{check, check_eq};
use memtree_lsm::{gc_orphans, CompactionConfig, Db, DbOptions, DbSnapshot, FilterKind};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One case family: the key space writes and probes draw from, and the
/// MemTable that holds them.
#[derive(Clone, Copy)]
struct Shape {
    /// Keys are `key(0..key_space)`.
    key_space: usize,
    memtable_bytes: usize,
    /// A rolled explicit flush or compaction step runs only one time in
    /// `rare` (1 = always; no extra draw).
    rare: usize,
}

/// Keys drawn from a space small enough that overwrites, deletes of live
/// keys and re-inserts of deleted ones all happen constantly. The explicit
/// flush, rolled on 1 % of the write steps, ends a MemTable generation
/// after ~90–140 writes, long before the 16 KiB threshold: one or two
/// buffer merges into the young run between two flushes, and no young-run
/// merge into the stage — only `WIDE` reaches those.
const SMALL: Shape = Shape { key_space: 400, memtable_bytes: 16 << 10, rare: 1 };

/// A key space above the MemTable's young-run size (512 entries) and a
/// MemTable that holds most of it, with explicit flushes rare: the young
/// run fills and merges into the stage between two snapshots, and reads
/// meet keys whose young-run version shadows their stage version.
const WIDE: Shape = Shape { key_space: 1600, memtable_bytes: 24 << 10, rare: 16 };

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
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
    fn draw(model: &Model, g: &mut Gen, space: usize) -> Self {
        let mut keys: Vec<Vec<u8>> = (0..32).map(|_| key(g.range(0..space + 20))).collect();
        keys.push(keys[g.range(0..keys.len())].clone());
        let scan = (key(g.range(0..space)), key(g.range(0..space)), g.range(1..60));
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..4)
            .map(|r| {
                let mut lo = g.range(0..space);
                while r % 2 == 0 && lo + 1 < space && model.contains_key(&key(lo)) {
                    lo += 1;
                }
                let width = if r < 2 { g.range(0..60) } else { g.range(0..space) };
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
        check_eq!(h.seek(lo, Some(hi)), first(lo, Some(hi)), "{who} seek {lo:?}..{hi:?}");
        for ((lo, hi), &n) in p.ranges.iter().zip(&p.lens) {
            let (hk, n) = (Some(hi.as_slice()), n.max(1));
            check_eq!(h.seek(lo, None), first(lo, None), "{who} open seek {lo:?}");
            check_eq!(h.seek(lo, hk), first(lo, hk), "{who} seek {lo:?}..{hi:?}");
            check_eq!(h.scan_from(lo, hk, n), rows(lo, hk, n), "{who} bounded scan {lo:?}");
        }
    }};
}

/// `snap` against the model it was taken over, on every read op — and,
/// when `db` is the database it was just cut from, the `Db` on the same
/// inputs, op for op. Probes draw from `key(0..space)`.
fn agrees(
    db: Option<&Db>,
    snap: &DbSnapshot,
    model: &Model,
    g: &mut Gen,
    space: usize,
) -> Result<(), String> {
    let probes = Probes::draw(model, g, space);
    check_ops!(snap, "snapshot", model, &probes);
    walk_cursor(snap, model, &probes.scan)?;
    if let Some(db) = db {
        check_ops!(db, "db", model, &probes);
    }
    Ok(())
}

/// The snapshot's cursor walked by hand over the bounded scan's range: the
/// bound taken before each row never passes the row, is the row's key once
/// the row is known, and runs out with the rows.
fn walk_cursor(
    snap: &DbSnapshot,
    model: &Model,
    (lo, hi, _): &(Vec<u8>, Vec<u8>, usize),
) -> Result<(), String> {
    let mut cursor = snap.cursor(lo, Some(hi));
    let mut walked = Vec::new();
    loop {
        let bound = cursor.bound().map(|(b, _)| b.to_vec());
        let Some((k, v)) = cursor.peek().map(|(k, v)| (k.to_vec(), v.to_vec())) else {
            break;
        };
        check!(
            bound.as_ref().is_some_and(|b| *b <= k),
            "cursor bound {bound:?} past row {k:?}"
        );
        check_eq!(
            cursor.bound().map(|(b, known)| (b.to_vec(), known)),
            Some((k.clone(), true))
        );
        walked.push((k, v));
        cursor.advance();
    }
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .filter(|(k, _)| *k >= lo && *k < hi)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    check_eq!(walked, want, "cursor walk {lo:?}..{hi:?}");
    Ok(())
}

#[test]
fn every_snapshot_reads_its_own_instant_forever() {
    differential("publish_differential", SMALL);
}

#[test]
fn every_snapshot_reads_its_own_instant_across_young_run_merges() {
    differential("publish_differential_wide", WIDE);
}

fn differential(name: &str, shape: Shape) {
    let space = shape.key_space;
    for seed in seed_range() {
        prop_check_seeded(name, seed, 1, |g| {
            let mut db = Db::new(DbOptions {
                memtable_bytes: shape.memtable_bytes,
                block_size: 256,
                // Two one-slot stripes recycle an evicted block on nearly
                // every miss; eight slots keep some blocks resident.
                cache_blocks: *g.pick(&[2, 8]),
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
            // Snapshots held while the stage, the buffer and the table set they
            // were cut from are all replaced, each with its frozen model.
            let mut held: Vec<(DbSnapshot, Model)> = Vec::new();
            // Writes between snapshots swing between "a few" (the buffer grows
            // one publish at a time to its merge) and "hundreds" (the buffer
            // merges several times unobserved).
            let mut snapshot_pct = 25;
            for step in 0..3000 {
                if step % 250 == 0 {
                    snapshot_pct = *g.pick(&[1, 5, 25, 60]);
                }
                let roll = g.range(0..100);
                if roll < snapshot_pct {
                    let snap = db.snapshot();
                    agrees(Some(&db), &snap, &model, g, space)?;
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
                        let (k, v) = (key(g.range(0..space)), g.bytes_vec(0..24));
                        db.put(&k, &v).map_err(|e| e.to_string())?;
                        model.insert(k, v);
                    }
                    65..=96 => {
                        let k = key(g.range(0..space));
                        db.delete(&k).map_err(|e| e.to_string())?;
                        model.remove(&k);
                    }
                    97 if shape.rare == 1 || g.range(0..shape.rare) == 0 => {
                        db.flush().map_err(|e| e.to_string())?;
                    }
                    98.. if shape.rare == 1 || g.range(0..shape.rare) == 0 => {
                        db.compact_debt().map_err(|e| e.to_string())?;
                    }
                    _ => {}
                }
                if step % 400 == 399 {
                    for (snap, frozen) in &held {
                        agrees(None, snap, frozen, g, space)?;
                    }
                }
            }
            check!(
                db.level_sizes().iter().sum::<usize>() > 0,
                "no table was ever flushed"
            );
            for (snap, frozen) in &held {
                agrees(None, snap, frozen, g, space)?;
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
