//! Re-sealed mutation sweep over the decoders behind `Db::open`.
//!
//! A CRC frame rejects damaged bytes, so bit rot alone never reaches the
//! decoders behind it. This sweep builds a small database per seed (SuRF-
//! Real, SuRF-Hash or Bloom filters by seed), mutates one payload — a
//! manifest transaction, a filter image or a WAL record — by truncation,
//! bit flips or a short overwrite, and re-seals its frame, so the decoder
//! runs on bytes the encoder never wrote. Then:
//!
//! * `Db::open` returns `Ok` or a typed error, never panics;
//! * an opened database serves gets, `scan_from` and `seek` (and takes a
//!   flush) without panicking;
//! * one manifest-edit decode or `decode_filter_image` call requests no
//!   single allocation above [`ALLOC_FACTOR`] × its input + [`ALLOC_SLACK`].
//!
//! Seeds come from `MEMTREE_FAULT_SEEDS` (default `0..32`); replay seed
//! `n` with `MEMTREE_FAULT_SEEDS=n..n+1`. Run it in the debug profile:
//! release arithmetic wraps where debug panics.

use crate::db::{Db, DbOptions, FilterKind};
use crate::disk::SimDisk;
use crate::manifest::Edit;
use crate::sstable::SsTable;
use crate::wal::{decode_frames, decode_single, decode_single_ref, encode_frame, encode_single};
use memtree_alloc_probe::measure;
use memtree_common::check::{seed_range, Gen};
use memtree_common::codec::Reader;
use memtree_common::error::Result;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Cases per seed for each payload kind.
const MANIFEST_CASES: usize = 20;
const FILTER_CASES: usize = 20;
const WAL_CASES: usize = 10;

/// A decode's largest single allocation may be this many times its
/// input, plus [`ALLOC_SLACK`] bytes for an error message: a manifest
/// edit keeps a 24-byte `Vec` per block fence, and every block costs the
/// record at least 8 bytes.
const ALLOC_FACTOR: usize = 4;
const ALLOC_SLACK: usize = 256;

/// A database with flushed tables at two levels, filter images, and a
/// WAL holding records no flush has covered yet.
fn build(seed: u64) -> (Arc<SimDisk>, DbOptions, Vec<Vec<u8>>, Vec<u32>) {
    let filter = match seed % 3 {
        0 => FilterKind::SurfReal(4),
        1 => FilterKind::SurfHash(4),
        _ => FilterKind::Bloom(10.0),
    };
    let opts = DbOptions {
        memtable_bytes: 2 << 10,
        block_size: 512,
        l0_tables: 2,
        filter,
        ..DbOptions::default()
    };
    let mut g = Gen::new(seed);
    let mut db = Db::new(opts.clone());
    let mut keys: Vec<Vec<u8>> = (0..400).map(|_| g.bytes_vec(4..14)).collect();
    keys.sort();
    keys.dedup();
    for (i, k) in keys.iter().enumerate() {
        if i % 11 == 5 {
            db.delete(k).unwrap();
        } else {
            db.put(k, &g.bytes_vec(4..24)).unwrap();
        }
    }
    db.sync().unwrap();
    assert!(
        db.level_sizes().iter().filter(|&&n| n > 0).count() >= 2,
        "seed {seed}: one level"
    );
    let filters = db.filter_block_ids();
    (db.disk_handle(), opts, keys, filters)
}

/// Truncates, flips bits in, or overwrites a short run of `p`.
fn mutate(p: &mut Vec<u8>, g: &mut Gen) {
    match (g.range(0..3), p.len()) {
        (0, len) | (_, len @ 0) => p.truncate(g.range(0..len.max(1))),
        (1, len) => {
            for _ in 0..g.range(1..4) {
                p[g.range(0..len)] ^= 1 << g.range(0..8);
            }
        }
        (_, len) => {
            let at = g.range(0..len);
            let fill = *g.pick(&[None, Some(0x00), Some(0xff)]);
            for b in p.iter_mut().skip(at).take(g.range(1..9)) {
                *b = fill.unwrap_or(g.u64() as u8);
            }
        }
    }
}

/// Opens `disk`; a database that opens must serve every read kind.
/// Returns whether it opened.
fn open_and_read(disk: SimDisk, opts: &DbOptions, keys: &[Vec<u8>], what: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(mut db) = Db::open(Arc::new(disk), opts.clone()) else {
            return false;
        };
        for k in keys.iter().step_by(7) {
            db.get(k);
            db.seek(k, None);
            db.scan_from(k, keys.last().map(Vec::as_slice), 8);
        }
        db.scan_from(b"", None, usize::MAX);
        let _ = db.flush();
        true
    }));
    outcome.unwrap_or_else(|_| panic!("{what} panicked (message above)"))
}

/// The frames of `log`, with record `i`'s payload replaced by `payload`.
fn resealed(log: &[u8], i: usize, payload: &[u8]) -> Vec<u8> {
    let frames = decode_frames(log, "sweep").unwrap();
    assert!(!frames.torn);
    let mut out = Vec::new();
    for (j, &(seq, p)) in frames.records.iter().enumerate() {
        out.extend_from_slice(&encode_frame(seq, if j == i { payload } else { p }));
    }
    out
}

fn assert_bounded(largest: usize, input: usize, what: &str) {
    assert!(
        largest <= ALLOC_FACTOR * input + ALLOC_SLACK,
        "{what}: one allocation of {largest} B for {input} B of input"
    );
}

#[test]
fn resealed_manifest_filter_and_wal_mutations_are_typed() {
    let mut opened = [0usize; 2];
    for seed in seed_range() {
        let (disk, opts, keys, filters) = build(seed);
        let mut g = Gen::new(seed ^ 0x5eed);
        let manifest =
            String::from_utf8(decode_single(&disk.read_file("CURRENT"), "t").unwrap()).unwrap();
        let log = disk.read_file(&manifest);
        let txns = decode_frames(&log, "t").unwrap().records.len();
        for case in 0..MANIFEST_CASES {
            let i = g.range(0..txns);
            let mut p = decode_frames(&log, "t").unwrap().records[i].1.to_vec();
            mutate(&mut p, &mut g);
            let what = format!("seed {seed} manifest case {case} (txn {i})");
            let ((), _, largest) = measure(|| {
                let mut r = Reader::new(&p);
                while r.remaining() > 0 && Edit::decode(&mut r).is_ok() {}
            });
            assert_bounded(largest, p.len(), &what);
            let fork = disk.fork();
            fork.write_file_atomic(&manifest, &resealed(&log, i, &p))
                .unwrap();
            fork.sync();
            opened[usize::from(open_and_read(fork, &opts, &keys, &what))] += 1;
        }
        for case in 0..FILTER_CASES {
            let id = *g.pick(&filters);
            let mut p = decode_single_ref(&disk.read(id).unwrap(), "t")
                .unwrap()
                .to_vec();
            mutate(&mut p, &mut g);
            let frame = encode_single(&p);
            let what = format!("seed {seed} filter case {case} (block {id})");
            let (_, _, largest) = measure(|| SsTable::decode_filter_image(&frame).map(drop));
            assert_bounded(largest, frame.len(), &what);
            let fork = disk.fork();
            fork.write_at(id, Arc::from(frame)).unwrap();
            fork.sync();
            opened[usize::from(open_and_read(fork, &opts, &keys, &what))] += 1;
        }
        let wal = disk.read_file("wal");
        let records = decode_frames(&wal, "t").unwrap().records.len();
        assert!(records > 0, "seed {seed}: every record flushed");
        for case in 0..WAL_CASES {
            let i = g.range(0..records);
            let mut p = decode_frames(&wal, "t").unwrap().records[i].1.to_vec();
            mutate(&mut p, &mut g);
            let fork = disk.fork();
            fork.write_file_atomic("wal", &resealed(&wal, i, &p))
                .unwrap();
            fork.sync();
            let what = format!("seed {seed} wal case {case} (record {i})");
            opened[usize::from(open_and_read(fork, &opts, &keys, &what))] += 1;
        }
    }
    // A sweep whose every case opened, or none did, tests one branch.
    assert!(
        seed_range().is_empty() || opened.iter().all(|&n| n > 0),
        "outcomes {opened:?}"
    );
}

/// The manifest decode the sweep measures is the one `Manifest::open`
/// runs: a whole transaction decodes to its edits.
#[test]
fn an_unmutated_manifest_decodes_within_the_bound() -> Result<()> {
    let (disk, ..) = build(0);
    let manifest = String::from_utf8(decode_single(&disk.read_file("CURRENT"), "t")?).unwrap();
    let log = disk.read_file(&manifest);
    for (_, p) in decode_frames(&log, "t")?.records {
        let (edits, _, largest) = measure(|| {
            let mut r = Reader::new(p);
            let mut n = 0;
            while r.remaining() > 0 {
                Edit::decode(&mut r)?;
                n += 1;
            }
            Ok::<_, memtree_common::error::MemtreeError>(n)
        });
        assert!(edits? > 0);
        assert_bounded(largest, p.len(), "clean transaction");
    }
    Ok(())
}
