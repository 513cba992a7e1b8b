//! The LSM engine against a `BTreeMap` model: puts, overwrites, gets,
//! open/closed seeks must agree under every filter configuration.

use memtree_common::check::{prop_check, Gen};
use memtree_common::check_eq;
use memtree_lsm::{Db, DbOptions, FilterKind, SeekResult};
use std::collections::BTreeMap;

fn key(g: &mut Gen) -> Vec<u8> {
    g.bytes_from(b"klm", 1..6)
}

#[derive(Debug, Clone)]
enum Cmd {
    Put(Vec<u8>, u8),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    SeekOpen(Vec<u8>),
    SeekClosed(Vec<u8>, Vec<u8>),
    Flush,
}

fn cmd(g: &mut Gen) -> Cmd {
    // Weights 4/3/1/1/1 (put, get, open seek, closed seek, flush), plus 2
    // for deletes. The small key space means deletes hit live keys
    // often — and a miss writes a tombstone for a key that never
    // existed, its own edge case.
    match g.range(0..12) {
        0..=3 => Cmd::Put(key(g), g.u64() as u8),
        4..=5 => Cmd::Delete(key(g)),
        6..=8 => Cmd::Get(key(g)),
        9 => Cmd::SeekOpen(key(g)),
        10 => Cmd::SeekClosed(key(g), key(g)),
        _ => Cmd::Flush,
    }
}

fn filter_for(case: usize) -> FilterKind {
    match case % 4 {
        0 => FilterKind::None,
        1 => FilterKind::Bloom(12.0),
        2 => FilterKind::SurfHash(6),
        _ => FilterKind::SurfReal(6),
    }
}

#[test]
fn db_matches_model() {
    let mut fsel = 0usize;
    prop_check("db_matches_model", 48, |g: &mut Gen| {
        // Cycle through every filter configuration across cases.
        fsel += 1;
        let mut db = Db::new(DbOptions {
            memtable_bytes: 256, // tiny: force flushes + compactions
            filter: filter_for(fsel),
            cache_blocks: 4,
            ..Default::default()
        });
        let mut model: BTreeMap<Vec<u8>, u8> = BTreeMap::new();
        let n_cmds = g.range(1..150);
        for step in 0..n_cmds {
            match cmd(g) {
                Cmd::Put(k, v) => {
                    db.put(&k, &[v]).unwrap();
                    model.insert(k, v);
                }
                Cmd::Delete(k) => {
                    db.delete(&k).unwrap();
                    model.remove(&k);
                }
                Cmd::Get(k) => {
                    let expect = model.get(&k).map(|v| vec![*v]);
                    check_eq!(db.get(&k), expect, "step {} get {:?}", step, k);
                }
                Cmd::SeekOpen(k) => {
                    let expect = model.range(k.clone()..).next().map(|(k, _)| k.clone());
                    let got = match db.seek(&k, None) {
                        SeekResult::Found { key } => Some(key),
                        SeekResult::NotFound => None,
                    };
                    check_eq!(got, expect, "step {} open-seek {:?}", step, k);
                }
                Cmd::SeekClosed(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let expect = model
                        .range(lo.clone()..hi.clone())
                        .next()
                        .map(|(k, _)| k.clone());
                    let got = match db.seek(&lo, Some(&hi)) {
                        SeekResult::Found { key } => Some(key),
                        SeekResult::NotFound => None,
                    };
                    check_eq!(got, expect, "step {} closed-seek {:?}..{:?}", step, lo, hi);
                }
                Cmd::Flush => { db.flush().unwrap(); }
            }
        }
        Ok(())
    });
}
