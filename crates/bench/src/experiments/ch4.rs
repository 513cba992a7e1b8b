//! Chapter 4 experiments: SuRF microbenchmarks, ARF comparison, and the
//! LSM (RocksDB-style) system evaluation.

use crate::{header, mops, time, Scale};
use memtree_common::key::{decode_u64, encode_u64, prefix_successor};
use memtree_common::traits::{PointFilter, RangeFilter};
use memtree_filters::{Arf, BloomFilter};
use memtree_lsm::{Db, DbOptions, FilterKind};
use memtree_surf::{SuffixConfig, Surf};
use memtree_workload::zipf::Zipfian;
use memtree_workload::{keys, timeseries};
use std::time::Duration;

/// Builds the standard microbenchmark setup: a filter over half the keys,
/// queries drawn Zipf-style from the full set (≈50% members).
struct Setup {
    members: Vec<Vec<u8>>,
    queries: Vec<Vec<u8>>,
    is_int: bool,
}

fn setup(kind: &str, scale: Scale) -> Setup {
    let all = match kind {
        "rand-int" => keys::sorted_unique(keys::rand_u64_keys(scale.n_keys, 3)),
        _ => keys::sorted_unique(keys::email_keys(scale.n_keys / 2, 4)),
    };
    let members: Vec<Vec<u8>> = all.iter().step_by(2).cloned().collect();
    let mut z = Zipfian::new(all.len(), 17);
    let queries: Vec<Vec<u8>> = (0..scale.n_ops).map(|_| all[z.next_scrambled()].clone()).collect();
    Setup {
        members,
        queries,
        is_int: kind == "rand-int",
    }
}

fn range_of(q: &[u8], is_int: bool) -> (Vec<u8>, Vec<u8>) {
    if is_int {
        let k = decode_u64(q);
        (
            encode_u64(k.wrapping_add(1 << 37)).to_vec(),
            encode_u64(k.wrapping_add(1 << 38)).to_vec(),
        )
    } else {
        (
            q.to_vec(),
            prefix_successor(q).unwrap_or_else(|| vec![0xFF; 16]),
        )
    }
}

fn truth_point(members: &[Vec<u8>], q: &[u8]) -> bool {
    members.binary_search_by(|k| k.as_slice().cmp(q)).is_ok()
}

fn truth_range(members: &[Vec<u8>], lo: &[u8], hi: &[u8]) -> bool {
    let i = members.partition_point(|k| k.as_slice() < lo);
    i < members.len() && members[i].as_slice() < hi
}

/// Figure 4.4: FPR of SuRF variants vs same-size Bloom filters.
pub fn fig4_4(scale: Scale) {
    header("fig4_4", "false positive rate vs suffix bits (point & range)");
    for kind in ["rand-int", "email"] {
        let s = setup(kind, scale);
        println!("--- {kind} ({} members) ---", s.members.len());
        println!(
            "{:<16} {:>8} {:>12} {:>12} {:>12}",
            "filter", "bits/key", "point FPR%", "range FPR%", "mixed FPR%"
        );
        let configs: Vec<(String, SuffixConfig)> = vec![
            ("SuRF-Base".into(), SuffixConfig::None),
            ("SuRF-Hash4".into(), SuffixConfig::Hash(4)),
            ("SuRF-Hash8".into(), SuffixConfig::Hash(8)),
            ("SuRF-Real4".into(), SuffixConfig::Real(4)),
            ("SuRF-Real8".into(), SuffixConfig::Real(8)),
            ("SuRF-Mixed4+4".into(), SuffixConfig::Mixed(4, 4)),
        ];
        for (name, cfg) in configs {
            let surf = Surf::from_keys(&s.members, cfg);
            let (pf, rf, mf) = fprs(&surf, &s);
            println!(
                "{:<16} {:>8.1} {:>12.3} {:>12.3} {:>12.3}",
                name,
                surf.bits_per_key(),
                pf * 100.0,
                rf * 100.0,
                mf * 100.0
            );
        }
        for bpk in [10.0, 14.0] {
            let bloom = BloomFilter::from_keys(&s.members, bpk);
            let mut fp = 0usize;
            let mut neg = 0usize;
            for q in &s.queries {
                if !truth_point(&s.members, q) {
                    neg += 1;
                    if bloom.may_contain(q) {
                        fp += 1;
                    }
                }
            }
            println!(
                "{:<16} {:>8.1} {:>12.3} {:>12} {:>12}",
                format!("Bloom{}", bpk as u32),
                bloom.bits_per_key(),
                100.0 * fp as f64 / neg.max(1) as f64,
                "n/a",
                "n/a"
            );
        }
    }
    println!("(paper: Bloom wins on points at equal size; only SuRF answers ranges;");
    println!(" real suffixes help ranges, hash suffixes help points)");
}

fn fprs(surf: &Surf, s: &Setup) -> (f64, f64, f64) {
    let (mut pfp, mut pneg) = (0usize, 0usize);
    let (mut rfp, mut rneg) = (0usize, 0usize);
    let (mut mfp, mut mneg) = (0usize, 0usize);
    for (i, q) in s.queries.iter().enumerate() {
        if !truth_point(&s.members, q) {
            pneg += 1;
            if surf.may_contain(q) {
                pfp += 1;
            }
        }
        let (lo, hi) = range_of(q, s.is_int);
        if !truth_range(&s.members, &lo, &hi) {
            rneg += 1;
            if surf.may_contain_range(&lo, &hi) {
                rfp += 1;
            }
        }
        // Mixed: alternate point and range.
        if i % 2 == 0 {
            if !truth_point(&s.members, q) {
                mneg += 1;
                if surf.may_contain(q) {
                    mfp += 1;
                }
            }
        } else if !truth_range(&s.members, &lo, &hi) {
            mneg += 1;
            if surf.may_contain_range(&lo, &hi) {
                mfp += 1;
            }
        }
    }
    (
        pfp as f64 / pneg.max(1) as f64,
        rfp as f64 / rneg.max(1) as f64,
        mfp as f64 / mneg.max(1) as f64,
    )
}

/// Figure 4.5: filter throughput.
pub fn fig4_5(scale: Scale) {
    header("fig4_5", "filter throughput (Mops/s)");
    for kind in ["rand-int", "email"] {
        let s = setup(kind, scale);
        println!("--- {kind} ---");
        println!("{:<16} {:>10} {:>10} {:>10}", "filter", "point", "range", "count");
        for (name, cfg) in [
            ("SuRF-Base", SuffixConfig::None),
            ("SuRF-Hash4", SuffixConfig::Hash(4)),
            ("SuRF-Real4", SuffixConfig::Real(4)),
        ] {
            let surf = Surf::from_keys(&s.members, cfg);
            let mut acc = 0usize;
            let dp = time(|| {
                for q in &s.queries {
                    acc += usize::from(surf.may_contain(q));
                }
            });
            let dr = time(|| {
                for q in &s.queries {
                    let (lo, hi) = range_of(q, s.is_int);
                    acc += usize::from(surf.may_contain_range(&lo, &hi));
                }
            });
            let dc = time(|| {
                for pair in s.queries.chunks(2).take(s.queries.len() / 4) {
                    if pair.len() == 2 {
                        let (lo, hi) = if pair[0] <= pair[1] {
                            (&pair[0], &pair[1])
                        } else {
                            (&pair[1], &pair[0])
                        };
                        acc += surf.count(lo, hi);
                    }
                }
            });
            std::hint::black_box(acc);
            println!(
                "{:<16} {:>10.2} {:>10.2} {:>10.2}",
                name,
                mops(s.queries.len(), dp),
                mops(s.queries.len(), dr),
                mops(s.queries.len() / 4, dc)
            );
        }
        let bloom = BloomFilter::from_keys(&s.members, 14.0);
        let mut acc = 0usize;
        let dp = time(|| {
            for q in &s.queries {
                acc += usize::from(bloom.may_contain(q));
            }
        });
        std::hint::black_box(acc);
        println!(
            "{:<16} {:>10.2} {:>10} {:>10}",
            "Bloom14",
            mops(s.queries.len(), dp),
            "n/a",
            "n/a"
        );
    }
    println!("(paper: SuRF within ~2x of Bloom on int points, slower on emails; only");
    println!(" SuRF serves ranges/counts)");
}

/// Figure 4.6: build time.
pub fn fig4_6(scale: Scale) {
    header("fig4_6", "filter build time");
    for kind in ["rand-int", "email"] {
        let s = setup(kind, scale);
        print!("{kind:<10}");
        for (name, cfg) in [
            ("SuRF-Base", SuffixConfig::None),
            ("SuRF-Real8", SuffixConfig::Real(8)),
        ] {
            let d = time(|| {
                std::hint::black_box(Surf::from_keys(&s.members, cfg));
            });
            print!("  {name}: {:.0} ms", d.as_secs_f64() * 1e3);
        }
        for bpk in [10.0, 14.0] {
            let d = time(|| {
                std::hint::black_box(BloomFilter::from_keys(&s.members, bpk));
            });
            print!("  Bloom{}: {:.0} ms", bpk as u32, d.as_secs_f64() * 1e3);
        }
        println!();
    }
    println!("(paper: SuRF builds faster — one sequential scan vs k random writes/key)");
}

/// Figure 4.7: point-query scalability with threads.
pub fn fig4_7(scale: Scale) {
    header("fig4_7", "SuRF point-query scalability (lock-free reads)");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("(host has {cores} core(s) — scaling flattens at that point)");
    let s = setup("rand-int", scale);
    let surf = Surf::from_keys(&s.members, SuffixConfig::Real(4));
    println!("{:>8} {:>14} {:>10}", "threads", "total Mops/s", "speedup");
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let per = s.queries.len() / threads;
        let d = time(|| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let chunk = &s.queries[t * per..(t + 1) * per];
                    let surf = &surf;
                    scope.spawn(move || {
                        let mut acc = 0usize;
                        for q in chunk {
                            acc += usize::from(surf.may_contain(q));
                        }
                        std::hint::black_box(acc);
                    });
                }
            });
        });
        let tput = mops(per * threads, d);
        if threads == 1 {
            base = tput;
        }
        println!("{:>8} {:>14.2} {:>9.1}x", threads, tput, tput / base);
    }
    println!("(paper: near-perfect scaling — SuRF is read-only and lock-free)");
}

/// Table 4.1: ARF vs SuRF on 64-bit integer range filtering.
pub fn table4_1(scale: Scale) {
    header("table4_1", "ARF vs SuRF (~50%-empty ranges, half the keys stored)");
    // Range-filter accuracy depends on truncation depth, which needs key
    // density: keep at least 1M keys even in quick mode.
    let n = scale.n_keys.max(1_000_000);
    let all: Vec<u64> = {
        let mut v: Vec<u64> = keys::rand_u64_keys(n, 31)
            .iter()
            .map(|k| decode_u64(k))
            .collect();
        v.sort_unstable();
        v
    };
    let members: Vec<u64> = all.iter().step_by(2).copied().collect();
    let member_keys: Vec<Vec<u8>> = members.iter().map(|&k| encode_u64(k).to_vec()).collect();
    let bits_per_key = 14usize;

    // Queries: Zipf over the full set. The paper's 2^40 range gives ~50%
    // empty results at 10M keys; scale the range to our key density so the
    // empty fraction matches: P(hit) = 1 - e^{-R*members/2^64} = 0.5.
    let range = ((u64::MAX / all.len() as u64) as f64 * 1.39) as u64;
    let mut z = Zipfian::new(all.len(), 3);
    let queries: Vec<(u64, u64)> = (0..scale.n_ops)
        .map(|_| {
            let base = all[z.next_scrambled()];
            (base, base.saturating_add(range))
        })
        .collect();
    let truth = |lo: u64, hi: u64| {
        let i = members.partition_point(|&k| k < lo);
        i < members.len() && members[i] <= hi
    };

    // ARF: build + train on 20% of the queries.
    let train_n = queries.len() / 5;
    let build_train = time(|| {
        let mut arf = Arf::new(members.clone(), bits_per_key * members.len());
        for &(lo, hi) in &queries[..train_n] {
            arf.train(lo, hi, truth(lo, hi));
        }
        arf.freeze();
        std::hint::black_box(&arf);
    });
    let mut arf = Arf::new(members.clone(), bits_per_key * members.len());
    let train_mem = arf.size_bytes();
    for &(lo, hi) in &queries[..train_n] {
        arf.train(lo, hi, truth(lo, hi));
    }
    arf.freeze();
    let eval = &queries[train_n..];
    let mut fp = 0usize;
    let mut neg = 0usize;
    let d_arf = time(|| {
        for &(lo, hi) in eval {
            let maybe = arf.may_contain_range_u64(lo, hi);
            if !truth(lo, hi) {
                neg += 1;
                if maybe {
                    fp += 1;
                }
            }
        }
    });
    let arf_fpr = 100.0 * fp as f64 / neg.max(1) as f64;

    // SuRF sized to the same bits/key.
    let build_surf = time(|| {
        std::hint::black_box(Surf::from_keys(&member_keys, SuffixConfig::Real(4)));
    });
    let surf = Surf::from_keys(&member_keys, SuffixConfig::Real(4));
    let mut fp = 0usize;
    let mut neg = 0usize;
    let d_surf = time(|| {
        for &(lo, hi) in eval {
            let maybe = surf.may_contain_range(&encode_u64(lo), &encode_u64(hi.saturating_add(1)));
            if !truth(lo, hi) {
                neg += 1;
                if maybe {
                    fp += 1;
                }
            }
        }
    });
    let surf_fpr = 100.0 * fp as f64 / neg.max(1) as f64;

    println!("{:<28} {:>12} {:>12}", "", "ARF", "SuRF");
    println!("{:<28} {:>12} {:>12.1}", "bits per key", bits_per_key, surf.bits_per_key());
    println!(
        "{:<28} {:>12.2} {:>12.2}",
        "range query Mops/s",
        mops(eval.len(), d_arf),
        mops(eval.len(), d_surf)
    );
    println!("{:<28} {:>12.2} {:>12.2}", "false positive rate %", arf_fpr, surf_fpr);
    println!(
        "{:<28} {:>12.0} {:>12.0}",
        "build(+train) time ms",
        build_train.as_secs_f64() * 1e3,
        build_surf.as_secs_f64() * 1e3
    );
    println!(
        "{:<28} {:>12.1} {:>12.1}",
        "peak build memory MB",
        crate::mb(train_mem),
        crate::mb(surf.size_bytes())
    );
    println!("(paper: SuRF 20x faster, 12x more accurate, 98x faster to build; our ARF");
    println!(" builds lazily so its build-memory gap is smaller — see DESIGN.md)");
}

/// Aggregate event spacing (ns): one event per λ across *all* sensors —
/// exactly the paper's λ = 10^5 ns (§4.4).
const LAMBDA_AGG: u64 = 100_000;

fn build_lsm(filter: FilterKind, scale: Scale, latency: Duration) -> (Db, Vec<[u8; 16]>) {
    let sensors = 200;
    let lambda_per_sensor = LAMBDA_AGG * sensors;
    let duration = scale.n_keys as u64 * LAMBDA_AGG;
    let events = timeseries::sensor_events(sensors, lambda_per_sensor, duration, 13);
    let mut db = Db::new(DbOptions {
        memtable_bytes: 128 << 10,
        filter,
        cache_blocks: 256,
        io_read_latency: latency,
        ..Default::default()
    });
    let value = vec![b'v'; 64];
    let mut keys = Vec::with_capacity(events.len());
    for e in &events {
        db.put(&e.key(), &value).unwrap();
        keys.push(e.key());
    }
    db.flush().unwrap();
    db.reset_io_stats();
    (db, keys)
}

/// Figure 4.8: LSM point queries and open seeks under each filter.
pub fn fig4_8(scale: Scale) {
    header("fig4_8", "LSM point & open-seek queries by filter (time-series data)");
    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>10}",
        "filter", "point ops/s", "IO/op", "o-seek ops/s", "IO/op"
    );
    let latency = Duration::from_micros(20);
    for (name, filter) in [
        ("none", FilterKind::None),
        ("Bloom14", FilterKind::Bloom(14.0)),
        ("SuRF-Hash4", FilterKind::SurfHash(4)),
        ("SuRF-Real4", FilterKind::SurfReal(4)),
    ] {
        let filtered = filter != FilterKind::None;
        let (db, stored) = build_lsm(filter, scale, latency);
        let q = scale.n_ops / 20;
        // Point queries on random keys *inside* the populated time range —
        // almost all absent, but covered by SSTable ranges so filters are
        // actually consulted.
        let max_ts = u64::from_be_bytes(stored.last().unwrap()[..8].try_into().unwrap());
        let mut state = 5u64;
        let dp = time(|| {
            for _ in 0..q {
                let ts = memtree_common::hash::splitmix64(&mut state) % max_ts;
                let sensor = memtree_common::hash::splitmix64(&mut state) % 200;
                let mut k = [0u8; 16];
                k[..8].copy_from_slice(&ts.to_be_bytes());
                k[8..].copy_from_slice(&sensor.to_be_bytes());
                std::hint::black_box(db.get(&k));
            }
        });
        let point_io = db.io_stats().block_reads;
        db.reset_io_stats();
        // Open seeks from random timestamps.
        let ds = time(|| {
            for i in 0..q {
                let k = stored[(i * 7919) % stored.len()];
                std::hint::black_box(db.seek(&k, None));
            }
        });
        let seek_io = db.io_stats().block_reads;
        let (point_io, seek_io) = (point_io as f64 / q as f64, seek_io as f64 / q as f64);
        println!(
            "{:<12} {:>12.0} {:>10.3} {:>12.0} {:>10.3}",
            name,
            q as f64 / dp.as_secs_f64(),
            point_io,
            q as f64 / ds.as_secs_f64(),
            seek_io
        );
        // The host-independent columns are the claims: a filter answers
        // almost every absent point read in memory, and an open seek
        // reads about one block whatever the filter.
        assert!(!filtered || point_io <= 0.05, "{name}: point IO/op {point_io:.3} > 0.05");
        assert!((0.9..=1.1).contains(&seek_io), "{name}: open-seek IO/op {seek_io:.3}");
    }
    println!("(paper: filters cut point I/O; open seeks need >=1 I/O so SuRF gives ~1.5x)");
}

/// Figure 4.9: closed seeks, sweeping the fraction of empty results.
pub fn fig4_9(scale: Scale) {
    header("fig4_9", "LSM closed-seek queries vs %-empty (range size from e^{-R/lambda})");
    println!(
        "{:<10} {:<12} {:>12} {:>10}",
        "%empty", "filter", "ops/s", "IO/op"
    );
    let latency = Duration::from_micros(20);
    let lambda = LAMBDA_AGG as f64;
    // Block reads per %-empty: none, Bloom14, SuRF-Real4.
    let mut reads: Vec<[u64; 3]> = Vec::new();
    for pct_empty in [10f64, 50.0, 90.0, 99.0] {
        let mut row = [0u64; 3];
        // P(empty) = e^{-R/lambda}  =>  R = lambda * ln(1/P_empty).
        let range_ns = (lambda * (1.0 / (pct_empty / 100.0)).ln()).max(10.0) as u64;
        for (i, (name, filter)) in [
            ("none", FilterKind::None),
            ("Bloom14", FilterKind::Bloom(14.0)),
            ("SuRF-Real4", FilterKind::SurfReal(4)),
        ]
        .into_iter()
        .enumerate()
        {
            let (db, stored) = build_lsm(filter, scale, latency);
            let q = scale.n_ops / 20;
            let mut state = 3u64;
            let max_ts = u64::from_be_bytes(stored.last().unwrap()[..8].try_into().unwrap());
            let mut found = 0usize;
            let d = time(|| {
                for _ in 0..q {
                    let base = memtree_common::hash::splitmix64(&mut state) % max_ts;
                    let mut lo = [0u8; 16];
                    lo[..8].copy_from_slice(&base.to_be_bytes());
                    let mut hi = [0u8; 16];
                    hi[..8].copy_from_slice(&(base + range_ns).to_be_bytes());
                    if db.seek(&lo, Some(&hi)).is_some() {
                        found += 1;
                    }
                }
            });
            let io = db.io_stats().block_reads;
            row[i] = io;
            println!(
                "{:<10.0} {:<12} {:>12.0} {:>10.3}   (hit rate {:.0}%)",
                pct_empty,
                name,
                q as f64 / d.as_secs_f64(),
                io as f64 / q as f64,
                100.0 * found as f64 / q as f64
            );
        }
        reads.push(row);
    }
    println!("(paper: SuRF's advantage grows with %-empty, up to 5x at 99%)");
    // The host-independent claims: a Bloom filter cannot answer a range
    // question, so it reads exactly what no filter reads; SuRF reads less
    // the emptier the ranges, at most a third of that at 99 % empty.
    for row in &reads {
        assert_eq!(row[0], row[1], "Bloom14 and none read differently: {reads:?}");
    }
    let falling = reads.windows(2).all(|w| w[1][2] < w[0][2]);
    assert!(falling, "SuRF-Real4 reads do not fall with %-empty: {reads:?}");
    let last = reads[reads.len() - 1];
    assert!(3 * last[2] <= last[0], "SuRF-Real4 at 99% empty: {reads:?}");
}

/// Figure 4.11: the adversarial worst-case dataset.
pub fn fig4_11(scale: Scale) {
    header("fig4_11", "SuRF worst-case dataset (Figure 4.10 construction)");
    println!(
        "{:<12} {:>12} {:>10} {:>16}",
        "dataset", "Mops point", "bits/key", "size vs raw keys"
    );
    let sets: Vec<(&str, Vec<Vec<u8>>)> = vec![
        ("worst-case", {
            let mut prefix_len = 3;
            while 2 * 4usize.pow(prefix_len as u32 + 1) <= scale.n_keys / 8 {
                prefix_len += 1;
            }
            keys::sorted_unique(keys::surf_worst_case(prefix_len, 58, 7))
        }),
        ("rand-int", keys::sorted_unique(keys::rand_u64_keys(scale.n_keys / 4, 1))),
        ("email", keys::sorted_unique(keys::email_keys(scale.n_keys / 4, 2))),
    ];
    let mut bits = Vec::new();
    for (name, keyset) in sets {
        let surf = Surf::from_keys(&keyset, SuffixConfig::None);
        let mut z = Zipfian::new(keyset.len(), 7);
        let picks: Vec<usize> = (0..scale.n_ops / 2).map(|_| z.next_scrambled()).collect();
        let mut acc = 0usize;
        let d = time(|| {
            for &i in &picks {
                acc += usize::from(surf.may_contain(&keyset[i]));
            }
        });
        std::hint::black_box(acc);
        let raw: usize = keyset.iter().map(|k| k.len()).sum();
        println!(
            "{:<12} {:>12.2} {:>10.1} {:>15.1}%",
            name,
            mops(picks.len(), d),
            surf.bits_per_key(),
            100.0 * surf.size_bytes() as f64 / raw as f64
        );
        bits.push(surf.bits_per_key());
    }
    println!("(paper: the worst case forces 64-level traversals and ~64% of raw size —");
    println!(" near the information-theoretic lower bound for range filters)");
    // Sizes are host-independent. Picking the dense levels by size must
    // grow no trie: the worst case stays at the 328.9 bits/key the §3.4
    // R rule alone gave (at --quick; 328.5 at full scale), within 0.1 %
    // for allocation rounding, and rand-int stays below the rule's 11.8
    // (11.2 at --quick, 10.9 at full scale).
    let (worst, ints) = (bits[0], bits[1]);
    assert!(worst <= 328.9 * 1.001, "worst-case SuRF grew: {worst:.1} bits/key");
    assert!(ints < 11.8, "rand-int SuRF: {ints:.1} bits/key, not below 11.8");
}
