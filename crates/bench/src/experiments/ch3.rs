//! Chapter 3 experiments: FST vs pointer trees, vs other succinct tries,
//! optimization ablation, and the Dense/Sparse R-sweep.

use crate::{header, mb, ns_per_op, time, Scale};
use memtree_art::{Art, CompactArt};
use memtree_btree::BPlusTree;
use memtree_common::traits::{OrderedIndex, StaticIndex};
use memtree_fst::{Fst, PdtLite, TrieOpts, TxTrie};
use memtree_workload::keys;
use memtree_workload::zipf::Zipfian;

fn entries_of(keyset: &[Vec<u8>]) -> Vec<(Vec<u8>, u64)> {
    let mut s = keyset.to_vec();
    s.sort();
    s.dedup();
    s.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect()
}

fn point_ns<F: Fn(&[u8]) -> bool>(keyset: &[Vec<u8>], n_ops: usize, get: F) -> f64 {
    let mut z = Zipfian::new(keyset.len(), 3);
    let picks: Vec<usize> = (0..n_ops).map(|_| z.next_scrambled()).collect();
    let mut hits = 0usize;
    let d = time(|| {
        for &i in &picks {
            if get(&keyset[i]) {
                hits += 1;
            }
        }
    });
    assert_eq!(hits, n_ops);
    ns_per_op(n_ops, d)
}

fn range_ns<F: Fn(&[u8], usize) -> usize>(keyset: &[Vec<u8>], n_ops: usize, scan: F) -> f64 {
    let mut z = Zipfian::new(keyset.len(), 5);
    let picks: Vec<usize> = (0..n_ops).map(|_| z.next_scrambled()).collect();
    let mut got = 0usize;
    let d = time(|| {
        for &i in &picks {
            got += scan(&keyset[i], 50);
        }
    });
    assert!(got > 0);
    ns_per_op(n_ops, d)
}

/// Figure 3.4: FST vs B+tree / ART / C-ART on point + range queries.
pub fn fig3_4(scale: Scale) {
    header("fig3_4", "FST vs pointer-based indexes");
    println!(
        "{:<10} {:<8} {:>12} {:>12} {:>10}",
        "keys", "index", "point ns/op", "range ns/op", "MB"
    );
    for (kname, keyset) in [
        ("rand-int", keys::rand_u64_keys(scale.n_keys, 1)),
        ("email", keys::email_keys(scale.n_keys / 2, 2)),
    ] {
        let entries = entries_of(&keyset);

        if kname == "rand-int" {
            let mut bt = BPlusTree::new();
            for (k, v) in &entries {
                bt.insert(k, *v);
            }
            let p = point_ns(&keyset, scale.n_ops, |k| bt.get(k).is_some());
            let r = range_ns(&keyset, scale.n_ops / 10, |k, n| {
                let mut out = Vec::new();
                bt.scan(k, n, &mut out)
            });
            println!("{:<10} {:<8} {:>12.0} {:>12.0} {:>10.1}", kname, "B+tree", p, r, mb(bt.mem_usage()));
        }

        let mut art = Art::new();
        for (k, v) in &entries {
            art.insert(k, *v);
        }
        let p = point_ns(&keyset, scale.n_ops, |k| art.get(k).is_some());
        let r = range_ns(&keyset, scale.n_ops / 10, |k, n| {
            let mut out = Vec::new();
            art.scan(k, n, &mut out)
        });
        println!("{:<10} {:<8} {:>12.0} {:>12.0} {:>10.1}", kname, "ART", p, r, mb(art.mem_usage()));

        let cart = CompactArt::build(&entries);
        let p = point_ns(&keyset, scale.n_ops, |k| cart.get(k).is_some());
        let r = range_ns(&keyset, scale.n_ops / 10, |k, n| {
            let mut out = Vec::new();
            cart.scan(k, n, &mut out)
        });
        println!("{:<10} {:<8} {:>12.0} {:>12.0} {:>10.1}", kname, "C-ART", p, r, mb(cart.mem_usage()));

        let fst = Fst::build(&entries);
        let p = point_ns(&keyset, scale.n_ops, |k| fst.get(k).is_some());
        let r = range_ns(&keyset, scale.n_ops / 10, |k, n| {
            let mut out = Vec::new();
            fst.scan(k, n, &mut out)
        });
        println!("{:<10} {:<8} {:>12.0} {:>12.0} {:>10.1}", kname, "FST", p, r, mb(fst.mem_usage()));
    }
    println!("(paper: FST matches ART speed at a fraction of the memory — lowest P*S cost)");
}

/// Figure 3.5: FST vs TxTrie (plain LOUDS-Sparse) vs PDT-style baseline.
pub fn fig3_5(scale: Scale) {
    header("fig3_5", "FST vs other succinct tries (complete keys, point queries)");
    println!(
        "{:<10} {:<8} {:>12} {:>10} {:>10}",
        "keys", "trie", "point ns/op", "MB", "speedup"
    );
    for (kname, keyset) in [
        ("rand-int", keys::rand_u64_keys(scale.n_keys, 1)),
        ("email", keys::email_keys(scale.n_keys / 2, 2)),
    ] {
        let entries = entries_of(&keyset);
        let fst = Fst::build(&entries);
        let tx = TxTrie::build(&entries);
        let pdt = PdtLite::build(&entries);
        let f = point_ns(&keyset, scale.n_ops, |k| fst.get(k).is_some());
        let t = point_ns(&keyset, scale.n_ops, |k| tx.get(k).is_some());
        let p = point_ns(&keyset, scale.n_ops, |k| pdt.get(k).is_some());
        println!("{:<10} {:<8} {:>12.0} {:>10.1} {:>10}", kname, "FST", f, mb(fst.mem_usage()), "1.0x");
        println!("{:<10} {:<8} {:>12.0} {:>10.1} {:>9.1}x", kname, "tx-trie", t, mb(tx.mem_usage()), t / f);
        println!("{:<10} {:<8} {:>12.0} {:>10.1} {:>9.1}x", kname, "PDT", p, mb(pdt.mem_usage()), p / f);
    }
    println!("(paper: FST is 6-15x faster than tx-trie, 4-8x faster than PDT, and smaller;");
    println!(" the PDT gap shrinks on emails thanks to path decomposition)");
}

/// Figure 3.6: cumulative optimization breakdown.
pub fn fig3_6(scale: Scale) {
    header("fig3_6", "FST performance breakdown (cumulative optimizations)");
    let steps: Vec<(&str, TrieOpts)> = vec![
        ("baseline (sparse+poppy)", TrieOpts::baseline()),
        (
            "+LOUDS-Dense",
            TrieOpts {
                r_ratio: Some(64),
                ..TrieOpts::baseline()
            },
        ),
        (
            "+rank-opt",
            TrieOpts {
                r_ratio: Some(64),
                rank_opt: true,
                ..TrieOpts::baseline()
            },
        ),
        (
            "+select-opt",
            TrieOpts {
                r_ratio: Some(64),
                rank_opt: true,
                select_opt: true,
                ..TrieOpts::baseline()
            },
        ),
        (
            "+SIMD-search (SWAR)",
            TrieOpts {
                prefetch: false,
                ..TrieOpts::default()
            },
        ),
        ("+prefetching", TrieOpts::default()),
    ];
    println!("{:<26} {:>14} {:>14}", "configuration", "int ns/op", "email ns/op");
    let ints = keys::rand_u64_keys(scale.n_keys, 1);
    let emails = keys::email_keys(scale.n_keys / 2, 2);
    let int_entries = entries_of(&ints);
    let email_entries = entries_of(&emails);
    for (name, opts) in steps {
        let fi = Fst::build_with(&int_entries, opts);
        let fe = Fst::build_with(&email_entries, opts);
        let pi = point_ns(&ints, scale.n_ops, |k| fi.get(k).is_some());
        let pe = point_ns(&emails, scale.n_ops, |k| fe.get(k).is_some());
        println!("{:<26} {:>14.0} {:>14.0}", name, pi, pe);
    }
    println!("(prefetch is a real _mm_prefetch on x86_64, a no-op elsewhere)");
}

/// Figure 3.7: performance/memory as LOUDS-Dense levels grow (R sweep).
pub fn fig3_7(scale: Scale) {
    header("fig3_7", "Dense/Sparse trade-off: sweep of size ratio R");
    println!(
        "{:<12} {:>14} {:>10} {:>14} {:>10}",
        "R", "int ns/op", "int MB", "email ns/op", "email MB"
    );
    let ints = keys::rand_u64_keys(scale.n_keys, 1);
    let emails = keys::email_keys(scale.n_keys / 2, 2);
    let int_entries = entries_of(&ints);
    let email_entries = entries_of(&emails);
    let sweep: Vec<(String, Option<usize>)> = vec![
        ("sparse-only".into(), None),
        ("1024".into(), Some(1024)),
        ("256".into(), Some(256)),
        ("64 (default)".into(), Some(64)),
        ("16".into(), Some(16)),
        ("4".into(), Some(4)),
        ("1".into(), Some(1)),
        ("all-dense".into(), Some(0)),
    ];
    for (label, r) in sweep {
        let opts = TrieOpts {
            r_ratio: r,
            ..TrieOpts::default()
        };
        let fi = Fst::build_with(&int_entries, opts);
        let fe = Fst::build_with(&email_entries, opts);
        let pi = point_ns(&ints, scale.n_ops, |k| fi.get(k).is_some());
        let pe = point_ns(&emails, scale.n_ops, |k| fe.get(k).is_some());
        println!(
            "{:<12} {:>14.0} {:>10.1} {:>14.0} {:>10.1}",
            label,
            pi,
            mb(fi.mem_usage()),
            pe,
            mb(fe.mem_usage())
        );
    }
    println!("(paper: more dense levels -> up to 3x faster; memory grows for emails but");
    println!(" *shrinks* for random ints, whose top-level fanouts exceed 51)");
    println!("(R is a floor: the builder keeps more dense levels while each one makes the");
    println!(" trie smaller, so large-R rows read at the size optimum)");
}
