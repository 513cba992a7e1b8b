//! Randomized cross-checks of FST navigation against a sorted-vector
//! reference model, across all encoding configurations.

use memtree_common::hash::splitmix64;
use memtree_common::traits::{StaticIndex, Value};
use memtree_fst::{Fst, LoudsTrie, TrieOpts};

fn random_keys(n: usize, seed: u64, alpha: u64, max_len: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut keys: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            let len = (splitmix64(&mut state) % max_len) as usize;
            (0..len)
                .map(|_| (splitmix64(&mut state) % alpha) as u8 + b'a')
                .collect()
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

fn configs() -> Vec<TrieOpts> {
    vec![
        TrieOpts::default(),
        TrieOpts::baseline(),
        TrieOpts {
            r_ratio: Some(0),
            ..TrieOpts::default()
        },
        TrieOpts {
            r_ratio: Some(4),
            simd_labels: false,
            ..TrieOpts::default()
        },
        TrieOpts {
            r_ratio: None,
            select_opt: false,
            ..TrieOpts::default()
        },
    ]
}

#[test]
fn lower_bound_iteration_matches_reference() {
    let keys = random_keys(4000, 99, 3, 14); // small alphabet => prefix keys abound
    let entries: Vec<(Vec<u8>, Value)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as Value))
        .collect();
    let mut probes = random_keys(300, 7, 3, 14);
    probes.extend(keys.iter().step_by(41).cloned()); // exact hits too
    for opts in configs() {
        let f = Fst::build_with(&entries, opts);
        for probe in &probes {
            let expect: Vec<Value> = entries
                .iter()
                .filter(|(k, _)| k >= probe)
                .take(8)
                .map(|(_, v)| *v)
                .collect();
            let mut got = Vec::new();
            f.scan(probe, 8, &mut got);
            assert_eq!(got, expect, "probe {probe:?} opts {opts:?}");
        }
    }
}

#[test]
fn count_before_matches_reference() {
    let keys = random_keys(3000, 123, 4, 12);
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let probes = random_keys(200, 55, 4, 12);
    for opts in configs() {
        let (trie, _) = LoudsTrie::build(&refs, opts);
        for probe in probes.iter().chain(keys.iter().step_by(31)) {
            let it = trie.lower_bound(probe);
            let expect = keys.partition_point(|k| k < probe);
            let got = trie.count_before(&it);
            assert_eq!(got, expect, "probe {probe:?} opts {opts:?}");
        }
        // End-of-trie iterator counts everything.
        let mut it = trie.lower_bound(keys.last().unwrap());
        it.next();
        assert!(!it.valid());
        assert_eq!(trie.count_before(&it), keys.len());
    }
}

#[test]
fn full_iteration_every_config() {
    let keys = random_keys(2500, 31, 5, 10);
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    for opts in configs() {
        let (trie, _) = LoudsTrie::build(&refs, opts);
        let mut it = trie.lower_bound(&[]);
        let mut got = Vec::new();
        while it.valid() {
            got.push(it.key().to_vec());
            it.next();
        }
        assert_eq!(got, keys, "opts {opts:?}");
    }
}

#[test]
fn truncated_trie_has_no_false_negatives() {
    let keys = random_keys(3000, 77, 6, 16);
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let (trie, _) = LoudsTrie::build(
        &refs,
        TrieOpts {
            truncate: true,
            ..TrieOpts::default()
        },
    );
    // Every stored key must be reported found (candidates allowed for
    // non-members, never misses for members).
    for k in &keys {
        assert!(
            matches!(trie.lookup(k), memtree_fst::LookupResult::Found { .. }),
            "false negative for {k:?}"
        );
    }
}

#[test]
fn truncated_lower_bound_never_overshoots() {
    // The truncated trie's lower_bound must return a key position at or
    // before the true lower bound (one-sided error for range queries).
    let keys = random_keys(2000, 13, 4, 12);
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let (trie, _) = LoudsTrie::build(
        &refs,
        TrieOpts {
            truncate: true,
            ..TrieOpts::default()
        },
    );
    let probes = random_keys(300, 17, 4, 12);
    for probe in &probes {
        let it = trie.lower_bound(probe);
        let true_lb = keys.partition_point(|k| k < probe);
        if it.valid() {
            let got = trie.count_before(&it);
            assert!(
                got <= true_lb,
                "lower_bound overshot: got index {got}, true {true_lb}, probe {probe:?}"
            );
        } else {
            // Saying "nothing >= probe" must be correct.
            assert_eq!(true_lb, keys.len(), "false empty for {probe:?}");
        }
    }
}

#[test]
fn fst_count_range_is_exact() {
    let keys = random_keys(3000, 41, 4, 12);
    let entries: Vec<(Vec<u8>, Value)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as Value))
        .collect();
    let f = Fst::build(&entries);
    let probes = random_keys(120, 5, 4, 12);
    for a in probes.iter().step_by(3) {
        for b in probes.iter().step_by(7) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let truth = keys.partition_point(|k| k < hi) - keys.partition_point(|k| k < lo);
            assert_eq!(f.count_range(lo, hi), truth, "[{lo:?}, {hi:?})");
        }
    }
    assert_eq!(f.count_range(b"zzz", b"a"), 0);
}
