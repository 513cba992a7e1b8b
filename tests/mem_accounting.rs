//! Reported memory is the heap a structure holds. Each structure is built
//! under a counting allocator, and the live heap bytes the build leaves
//! behind must equal its `mem_usage()` / `size_bytes()`, so no per-key
//! array can be resident without being counted.
//!
//! `cargo test --release --test mem_accounting -- --nocapture` prints the
//! resident bytes per key of each structure.

use memtree::common::hash::splitmix64;
use memtree::fst::TxTrie;
use memtree::prelude::*;
use memtree::surf::SuffixConfig as SC;
use memtree_alloc_probe::retained;

const KEYS: usize = 200_000;

/// Allowed gap between live and reported bytes: 64 B plus 0.1 %.
fn assert_accounted(name: &str, n: usize, live: isize, reported: usize) {
    let reported = reported as isize;
    let slack = 64 + reported / 1000;
    eprintln!(
        "{name:<12} resident {:>6.2} B/key  reported {:>6.2} B/key",
        live as f64 / n as f64,
        reported as f64 / n as f64
    );
    assert!(
        (live - reported).abs() <= slack,
        "{name}: holds {live} B of heap but reports {reported} B"
    );
}

#[test]
fn built_structures_hold_exactly_what_they_report() {
    let mut state = 7u64;
    let mut ints: Vec<u64> = (0..KEYS).map(|_| splitmix64(&mut state)).collect();
    ints.sort_unstable();
    ints.dedup();
    let entries: Vec<(Vec<u8>, u64)> = ints.iter().map(|&k| (encode_u64(k).to_vec(), k)).collect();
    let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
    let n = keys.len();

    let (fst, live) = retained(|| Fst::build(&entries));
    assert_accounted("Fst", n, live, fst.mem_usage());
    let (tx, live) = retained(|| TxTrie::build(&entries));
    assert_accounted("TxTrie", n, live, tx.mem_usage());
    let (bloom, live) = retained(|| BloomFilter::new(&keys, 10.0));
    assert_accounted("Bloom(10)", n, live, bloom.size_bytes());
    for config in [SC::None, SC::Hash(8), SC::Real(8), SC::Mixed(4, 4)] {
        let (surf, live) = retained(|| Surf::new(&keys, config));
        assert_accounted(&format!("{config:?}"), n, live, surf.size_bytes());
    }
}
