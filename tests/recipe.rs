//! End-to-end recipe tests spanning crates: D-to-S conversions feed
//! hybrids, HOPE wraps hybrids, SuRF guards LSM levels — the full pipeline
//! the thesis proposes, composed.

use memtree::hope::{Hope, HopeIndex, Scheme};
use memtree::lsm::{Db, DbOptions, FilterKind};
use memtree::prelude::*;
use memtree::trees::*;
use memtree::workload::keys;
use memtree::workload::ycsb::{Mix, Op, OpGenerator};

#[test]
fn dynamic_to_static_to_hybrid_roundtrip() {
    // Build each dynamic tree, convert to its compact form, verify, then
    // run the same content through the hybrid and verify again.
    let key_set = keys::sorted_unique(keys::email_keys(20_000, 5));
    let entries: Vec<(Vec<u8>, u64)> = key_set
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u64))
        .collect();

    macro_rules! check_pair {
        ($dyn_ty:ty, $static_ty:ty, $hybrid_ty:ty) => {{
            let mut d: $dyn_ty = Default::default();
            for (k, v) in &entries {
                assert!(d.insert(k, *v));
            }
            let s = <$static_ty>::build(&entries);
            assert!(s.mem_usage() < d.mem_usage(), "static must be smaller");
            let mut h: $hybrid_ty = Default::default();
            for (k, v) in &entries {
                assert!(h.insert(k, *v));
            }
            for (k, v) in entries.iter().step_by(61) {
                assert_eq!(d.get(k), Some(*v));
                assert_eq!(s.get(k), Some(*v));
                assert_eq!(h.get(k), Some(*v));
            }
        }};
    }
    check_pair!(BPlusTree, CompactBTree, HybridBTree);
    check_pair!(SkipList, CompactSkipList, HybridSkipList);
    check_pair!(Art, CompactArt, HybridArt);
    check_pair!(Masstree, CompactMasstree, HybridMasstree);
}

#[test]
fn hope_wrapped_hybrid_survives_ycsb() {
    let key_set = keys::sorted_unique(keys::url_keys(10_000, 9));
    let sample: Vec<Vec<u8>> = key_set.iter().step_by(50).cloned().collect();
    let hope = Hope::train_keys(Scheme::ThreeGrams, &sample, 1 << 14);
    let mut index = HopeIndex::new(HybridBTree::new(), hope);
    let mut reference = BPlusTree::new();
    for (i, k) in key_set.iter().enumerate() {
        assert!(index.insert(k, i as u64));
        reference.insert(k, i as u64);
    }
    // Run a YCSB-A-style mixed phase and compare every outcome.
    let mut gen = OpGenerator::new(Mix::A, key_set.len(), 3);
    let extra = keys::sorted_unique(keys::url_keys(12_000, 10));
    let mut inserted_extra = 0usize;
    for step in 0..5000 {
        match gen.next() {
            Op::Read(i) => {
                assert_eq!(
                    index.get(&key_set[i]),
                    reference.get(&key_set[i]),
                    "step {step}"
                );
            }
            Op::Update(i) => {
                let v = step as u64 + 1_000_000;
                assert_eq!(
                    index.update(&key_set[i], v),
                    reference.update(&key_set[i], v)
                );
            }
            Op::Insert(_) => {
                let k = &extra[inserted_extra % extra.len()];
                inserted_extra += 1;
                assert_eq!(index.insert(k, 1), reference.insert(k, 1));
            }
            Op::Scan(i, n) => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                index.scan(&key_set[i], n, &mut a);
                reference.scan(&key_set[i], n, &mut b);
                assert_eq!(a, b, "step {step} scan");
            }
        }
    }
    assert_eq!(index.len(), reference.len());
}

#[test]
fn surf_guards_lsm_with_zero_false_negatives() {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 16 << 10,
        filter: FilterKind::SurfReal(8),
        ..Default::default()
    });
    let key_set = keys::sorted_unique(keys::email_keys(5000, 21));
    for (i, k) in key_set.iter().enumerate() {
        db.put(k, &(i as u64).to_le_bytes()).unwrap();
    }
    db.flush().unwrap();
    // Every stored key must be retrievable despite filters at every level.
    for (i, k) in key_set.iter().enumerate() {
        assert_eq!(
            db.get(k),
            Some((i as u64).to_le_bytes().to_vec()),
            "lost {i}"
        );
    }
    // Seeks across the whole key space return exactly the successor.
    for i in (0..key_set.len() - 1).step_by(97) {
        let probe = memtree::common::key::successor(&key_set[i]);
        let key = db
            .seek(&probe, None)
            .unwrap_or_else(|| panic!("seek after {i} found nothing"));
        assert_eq!(key, key_set[i + 1], "seek after {i}");
    }
}

#[test]
fn fst_is_smallest_faithful_index() {
    // The chapter-3 claim in miniature: FST beats the compact trees on
    // space while staying exact.
    let key_set = keys::sorted_unique(keys::rand_u64_keys(50_000, 3));
    let entries: Vec<(Vec<u8>, u64)> = key_set
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u64))
        .collect();
    let fst = Fst::build(&entries);
    let compact_art = CompactArt::build(&entries);
    let compact_btree = CompactBTree::build(&entries);
    // FST stores structure succinctly; exclude the (identical) value
    // arrays from the comparison.
    let value_bytes = entries.len() * 8;
    let fst_struct = fst.mem_usage() - value_bytes;
    assert!(
        fst_struct < compact_art.mem_usage() - value_bytes,
        "fst {} vs c-art {}",
        fst_struct,
        compact_art.mem_usage() - value_bytes
    );
    assert!(fst_struct < compact_btree.mem_usage() - value_bytes);
    for (k, v) in entries.iter().step_by(173) {
        assert_eq!(fst.get(k), Some(*v));
    }
}
