//! Differential LSM oracle: `get` and open / closed `seek` cross-checked
//! against a `BTreeMap` reference across 32 seeds for every `FilterKind`.
//!
//! Unlike `model.rs` (which interleaves commands and checks), this harness
//! builds a randomized database per seed and then sweeps every read API
//! over the same probe set.

use memtree_common::check::{prop_check_seeded, Gen};
use memtree_common::check_eq;
use memtree_lsm::{Db, DbOptions, FilterKind};
use std::collections::BTreeMap;

const SEEDS: u64 = 32;

fn all_kinds() -> [FilterKind; 5] {
    [
        FilterKind::None,
        FilterKind::Bloom(12.0),
        FilterKind::SurfHash(6),
        FilterKind::SurfReal(6),
        FilterKind::SurfMixed(4, 4),
    ]
}

fn key(g: &mut Gen) -> Vec<u8> {
    g.bytes_from(b"pqrs", 1..7)
}

/// Builds a DB + model pair with random puts, overwrites, and flushes.
fn build(g: &mut Gen, filter: FilterKind) -> (Db, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 256, // tiny: force flushes + multi-level shapes
        filter,
        cache_blocks: g.range(0..6),
        ..Default::default()
    });
    let mut model = BTreeMap::new();
    for _ in 0..g.range(20..250) {
        if g.bool(0.04) {
            db.flush().unwrap();
        } else if g.bool(0.15) {
            // Delete a live key half the time (tombstone shadowing real
            // data through flushes), a random key otherwise (tombstone
            // for a key that may never have existed).
            let k = if !model.is_empty() && g.bool(0.5) {
                let stored: Vec<&Vec<u8>> = model.keys().collect();
                (*g.pick(&stored)).clone()
            } else {
                key(g)
            };
            db.delete(&k).unwrap();
            model.remove(&k);
        } else {
            let k = key(g);
            let v = vec![g.u64() as u8; g.range(1..4)];
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
    }
    (db, model)
}

/// Probe set mixing stored keys, their neighbors, random misses, and
/// duplicates — shared by every read API below.
fn probes(g: &mut Gen, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<Vec<u8>> {
    let stored: Vec<&Vec<u8>> = model.keys().collect();
    let mut out = Vec::new();
    for _ in 0..60 {
        match g.range(0..4) {
            0 if !stored.is_empty() => out.push((*g.pick(&stored)).clone()),
            1 if !stored.is_empty() => {
                let mut k = (*g.pick(&stored)).clone();
                k.push(b'!');
                out.push(k);
            }
            2 => out.push(key(g)),
            _ => {
                if let Some(last) = out.last() {
                    out.push(last.clone()); // duplicate
                } else {
                    out.push(key(g));
                }
            }
        }
    }
    out
}

#[test]
fn oracle_all_filter_kinds() {
    for filter in all_kinds() {
        prop_check_seeded(
            "lsm_oracle",
            0xC0FFEE ^ (format!("{filter:?}").len() as u64), // per-kind stream
            SEEDS,
            |g: &mut Gen| {
                let (db, model) = build(g, filter);
                let probe_keys = probes(g, &model);

                // get ↔ model.
                for k in &probe_keys {
                    check_eq!(db.get(k), model.get(k).cloned(), "{filter:?} get {k:?}");
                }

                // seek (open + closed) ↔ model.
                for w in probe_keys.windows(2) {
                    let lk = &w[0];
                    let want_open = model.range(lk.clone()..).next().map(|(k, _)| k.clone());
                    check_eq!(db.seek(lk, None), want_open, "{filter:?} open seek {lk:?}");

                    let (lo, hi) = if w[0] <= w[1] {
                        (w[0].clone(), w[1].clone())
                    } else {
                        (w[1].clone(), w[0].clone())
                    };
                    let want_closed = model
                        .range(lo.clone()..hi.clone())
                        .next()
                        .map(|(k, _)| k.clone());
                    check_eq!(
                        db.seek(&lo, Some(&hi)),
                        want_closed,
                        "{filter:?} closed {lo:?}..{hi:?}"
                    );
                }
                Ok(())
            },
        );
    }
}
