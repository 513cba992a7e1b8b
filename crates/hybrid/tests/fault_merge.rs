//! Differential fault-injection tests for the dual-stage merge: YCSB-style
//! op streams run against a `BTreeMap` reference model while merge fault
//! points fire at random. Invariants, across every seed:
//!
//! * no operation panics;
//! * every read returns exactly what the model holds;
//! * a failed merge leaves the index fully readable (crash consistency);
//! * once faults clear, merges succeed and nothing was lost.

use memtree_common::check::Gen;
use memtree_common::error::MemtreeError;
use memtree_hybrid::{HybridBTree, MergeTrigger};
use memtree_common::traits::OrderedIndex;
use std::collections::BTreeMap;

const MERGE_POINTS: [&str; 3] = [
    "hybrid.merge.prepare",
    "hybrid.merge.build",
    "hybrid.merge.swap",
];

fn key(g: &mut Gen) -> Vec<u8> {
    g.bytes_from(b"abcd", 1..8)
}

/// One YCSB-ish differential run with every merge point armed at 35 %;
/// returns an error string on divergence.
fn run_differential(seed: u64, ops: usize) -> Result<(), String> {
    let mut g = Gen::new(seed);
    // Tiny byte trigger so merges fire constantly and fault points get
    // plenty of evaluations.
    let mut h = HybridBTree::with_config(MergeTrigger::ConstantBytes(2048), true);
    h.faults().enable(seed);
    for p in MERGE_POINTS {
        h.faults().arm(p, 0.35, None);
    }
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for step in 0..ops {
        match g.range(0..10) {
            // 40% insert, 20% read, 20% update, 10% remove, 10% scan —
            // write-heavy to stress merging.
            0..=3 => {
                let k = key(&mut g);
                let v = g.u64();
                let expect = !model.contains_key(&k);
                if expect {
                    model.insert(k.clone(), v);
                }
                if h.insert(&k, v) != expect {
                    return Err(format!("seed {seed} step {step}: insert {k:?} diverged"));
                }
            }
            4 | 5 => {
                let k = key(&mut g);
                if h.get(&k) != model.get(&k).copied() {
                    return Err(format!("seed {seed} step {step}: get {k:?} diverged"));
                }
            }
            6 | 7 => {
                let k = key(&mut g);
                let v = g.u64();
                let expect = model.contains_key(&k);
                if expect {
                    model.insert(k.clone(), v);
                }
                if h.update(&k, v) != expect {
                    return Err(format!("seed {seed} step {step}: update {k:?} diverged"));
                }
            }
            8 => {
                let k = key(&mut g);
                let expect = model.remove(&k).is_some();
                if h.remove(&k) != expect {
                    return Err(format!("seed {seed} step {step}: remove {k:?} diverged"));
                }
            }
            _ => {
                let k = key(&mut g);
                let n = g.range(1..16);
                let expect: Vec<u64> = model.range(k.clone()..).take(n).map(|(_, v)| *v).collect();
                let mut got = Vec::new();
                h.scan(&k, n, &mut got);
                if got != expect {
                    return Err(format!("seed {seed} step {step}: scan {k:?} diverged"));
                }
            }
        }
        if h.len() != model.len() {
            return Err(format!(
                "seed {seed} step {step}: len {} != model {}",
                h.len(),
                model.len()
            ));
        }
        // Occasionally force a merge mid-stream; failure is acceptable,
        // divergence is not.
        if step % 257 == 256 {
            let _ = h.force_merge();
        }
    }
    // Faults off: the index must merge cleanly and still match the model.
    h.faults().disable();
    h.force_merge().map_err(|e| format!("seed {seed}: final merge failed clean: {e}"))?;
    for (k, v) in &model {
        if h.get(k) != Some(*v) {
            return Err(format!("seed {seed}: post-merge lost {k:?}"));
        }
    }
    Ok(())
}

#[test]
fn differential_under_injected_merge_faults_32_seeds() {
    for seed in 0..32u64 {
        if let Err(msg) = run_differential(seed, 1500) {
            panic!("{msg}");
        }
    }
}

#[test]
fn failed_merge_leaves_index_intact() {
    let mut h = HybridBTree::with_config(MergeTrigger::Manual, true);
    for i in 0..3000u64 {
        h.insert(&i.to_be_bytes(), i);
    }
    h.force_merge().unwrap();
    for i in 3000..4000u64 {
        h.insert(&i.to_be_bytes(), i);
    }
    let before: Vec<(Vec<u8>, u64)> = {
        let mut v = Vec::new();
        h.for_each_sorted(&mut |k, val| v.push((k.to_vec(), val)));
        v
    };
    let (dyn_before, stat_before) = (h.dynamic_len(), h.static_len());

    // Fail at every stage of the merge, including right before the swap.
    for point in MERGE_POINTS {
        h.faults().enable(77);
        h.faults().arm(point, 1.0, None);
        match h.force_merge() {
            Err(MemtreeError::Injected { point: p }) => assert_eq!(p, point),
            other => panic!("expected injected failure at {point}, got {other:?}"),
        }
        h.faults().disable();
        // Stage shape untouched, every key still readable, order intact.
        assert_eq!(h.dynamic_len(), dyn_before, "{point} disturbed the dynamic stage");
        assert_eq!(h.static_len(), stat_before, "{point} disturbed the static stage");
        let mut after = Vec::new();
        h.for_each_sorted(&mut |k, val| after.push((k.to_vec(), val)));
        assert_eq!(after, before, "{point} changed visible contents");
        for i in (0..4000u64).step_by(97) {
            assert_eq!(h.get(&i.to_be_bytes()), Some(i), "{point} lost key {i}");
        }
    }
    assert_eq!(h.merge_stats().failed_merges, MERGE_POINTS.len() as u64);

    // And with faults gone, the merge lands.
    h.force_merge().unwrap();
    assert_eq!(h.dynamic_len(), 0);
    assert_eq!(h.static_len(), 4000);
}

#[test]
fn merge_retry_recovers_from_transient_faults() {
    let mut h = HybridBTree::with_config(MergeTrigger::Manual, false);
    h.faults().enable(5);
    h.faults().arm("hybrid.merge.prepare", 1.0, Some(2)); // fail twice, then heal
    for i in 0..500u64 {
        h.insert(&i.to_be_bytes(), i);
    }
    h.merge_with_retry(3).unwrap();
    let stats = h.merge_stats();
    assert_eq!(stats.merges, 1);
    assert_eq!(stats.failed_merges, 2);
    assert_eq!(stats.merge_retries, 2);
    assert_eq!(h.static_len(), 500);
}

#[test]
fn merge_retry_gives_up_after_budgeted_attempts() {
    let mut h = HybridBTree::with_config(MergeTrigger::Manual, false);
    h.faults().enable(6);
    h.faults().arm("hybrid.merge.build", 1.0, None); // permanent failure
    for i in 0..500u64 {
        h.insert(&i.to_be_bytes(), i);
    }
    match h.merge_with_retry(3) {
        Err(MemtreeError::MergeFailed { attempts: 3 }) => {}
        other => panic!("expected MergeFailed after 3 attempts, got {other:?}"),
    }
    assert_eq!(h.merge_stats().failed_merges, 3);
    // Still fully readable and writable.
    for i in (0..500u64).step_by(13) {
        assert_eq!(h.get(&i.to_be_bytes()), Some(i));
    }
    assert!(h.insert(&9999u64.to_be_bytes(), 1));
}
