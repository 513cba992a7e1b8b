//! Hot-path kernel and FST batched-lookup benchmark.
//!
//! Three layers of ablation, written to `BENCH_hotpath.json`:
//!
//! 1. **Kernels** — in-word select (scalar byte-stepping vs SWAR broadword
//!    vs runtime-dispatched PDEP), `rank1` with the one-popcount `B = 64`
//!    fast path vs `B = 512` blocks, byte-label search (scalar vs SWAR
//!    vs runtime-dispatched SSE2), the rank/select Pareto sweep, and
//!    select over sparse ones (sampled scan vs rank-block skip vs rank
//!    binary search).
//! 2. **FST point lookups** — `TrieOpts::baseline()` (all §3.6
//!    optimizations off) vs `TrieOpts::default()` (vectorized), plus
//!    `Fst::get_batch` (level-synchronous descent) against the per-key
//!    `get` loop at several batch sizes.
//! 3. **Thread scaling** — N reader threads over one shared static FST.
//!
//! Every variant is cross-checked against its scalar baseline before being
//! timed; a mismatch panics. `--smoke` runs tiny inputs (CI) and writes
//! into `target/` so the checkout stays clean. `--out PATH` overrides the
//! output path.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_hotpath`

use memtree_bench::harness::{best_of, kernel_meta, BenchArgs, Json};
use memtree_bench::mops;
use memtree_common::hash::splitmix64;
use memtree_common::traits::{StaticIndex, Value};
use memtree_fst::{Fst, TrieOpts};
use memtree_succinct::{
    find_byte, find_byte_scalar, find_byte_swar, popcount_words, popcount_words_scalar,
    popcount_words_swar, select_in_word, select_in_word_scalar, select_in_word_swar, BitVector,
    RankSupport, SelectSupport,
};
use memtree_workload::keys;
use std::sync::Arc;

struct Config {
    n_keys: usize,
    n_reads: usize,
    kernel_iters: usize,
    runs: usize,
    threads: Vec<usize>,
    smoke: bool,
}

impl Config {
    fn new(smoke: bool) -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        if smoke {
            Config {
                n_keys: 20_000,
                n_reads: 20_000,
                kernel_iters: 100_000,
                runs: 1,
                threads: if hw > 1 { vec![1, 2] } else { vec![1] },
                smoke,
            }
        } else {
            Config {
                n_keys: 1_000_000,
                n_reads: 400_000,
                kernel_iters: 4_000_000,
                runs: 3,
                threads: [1usize, 2, 4, 8].iter().copied().filter(|&t| t <= hw).collect(),
                smoke,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-checks: every vectorized variant must agree with its scalar
// baseline on the exact inputs the timing loops use. Panic on mismatch —
// a wrong kernel must never produce a benchmark number.
// ---------------------------------------------------------------------------

fn crosscheck_kernels(words: &[u64], haystacks: &[Vec<u8>]) {
    for &w in words {
        for k in 1..=65u32 {
            let expect = select_in_word_scalar(w, k);
            assert_eq!(select_in_word_swar(w, k), expect, "swar select w={w:#x} k={k}");
            assert_eq!(select_in_word(w, k), expect, "dispatch select w={w:#x} k={k}");
        }
    }
    for hay in haystacks {
        for needle in [0u8, b'a', b'q', 0xFF] {
            let expect = find_byte_scalar(hay, needle);
            assert_eq!(find_byte_swar(hay, needle), expect, "swar find len={}", hay.len());
            assert_eq!(find_byte(hay, needle), expect, "dispatch find len={}", hay.len());
        }
    }
    for len in [0usize, 1, 2, 7, 8, 16, 31, 32, 64] {
        let w = &words[..len.min(words.len())];
        let expect = popcount_words_scalar(w);
        assert_eq!(popcount_words_swar(w), expect, "swar popcount len={len}");
        assert_eq!(popcount_words(w), expect, "dispatch popcount len={len}");
    }
    println!("kernel cross-check passed ({} words, {} haystacks)", words.len(), haystacks.len());
}

// ---------------------------------------------------------------------------
// Layer 1: kernel ablations
// ---------------------------------------------------------------------------

fn bench_kernels(cfg: &Config, doc: &mut Json) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let words: Vec<u64> = (0..4096).map(|_| splitmix64(&mut state)).collect();
    let ks: Vec<u32> = words
        .iter()
        .map(|&w| 1 + (splitmix64(&mut state) % w.count_ones().max(1) as u64) as u32)
        .collect();
    // Label-node-shaped haystacks (sparse nodes are mostly < 64 labels).
    let haystacks: Vec<Vec<u8>> = (0..1024)
        .map(|_| {
            let len = 4 + (splitmix64(&mut state) % 60) as usize;
            (0..len).map(|_| (splitmix64(&mut state) % 26) as u8 + b'a').collect()
        })
        .collect();
    crosscheck_kernels(&words[..256], &haystacks[..128]);

    let iters = cfg.kernel_iters;
    let n = words.len();
    let run_select = |f: &dyn Fn(u64, u32) -> u32| {
        best_of(cfg.runs, || {
            let mut acc = 0u64;
            for i in 0..iters {
                let j = i % n;
                acc = acc.wrapping_add(f(words[j], ks[j]) as u64);
            }
            std::hint::black_box(acc);
        })
    };
    let select_scalar = mops(iters, run_select(&select_in_word_scalar));
    let select_swar = mops(iters, run_select(&select_in_word_swar));
    let select_dispatch = mops(iters, run_select(&select_in_word));

    // rank1: same bit vector, wide blocks vs the B=64 one-popcount path.
    let bits: BitVector = (0..1 << 20).map(|_| splitmix64(&mut state) & 1 == 1).collect();
    let r64 = RankSupport::new(&bits, 64);
    let r512 = RankSupport::new(&bits, 512);
    let positions: Vec<usize> =
        (0..65536).map(|_| (splitmix64(&mut state) % bits.len() as u64) as usize).collect();
    let np = positions.len();
    let run_rank = |r: &RankSupport| {
        best_of(cfg.runs, || {
            let mut acc = 0usize;
            for i in 0..iters {
                acc = acc.wrapping_add(r.rank1(&bits, positions[i % np]));
            }
            std::hint::black_box(acc);
        })
    };
    let rank_b512 = mops(iters, run_rank(&r512));
    let rank_b64 = mops(iters, run_rank(&r64));

    let nh = haystacks.len();
    let run_find = |f: &dyn Fn(&[u8], u8) -> Option<usize>| {
        best_of(cfg.runs, || {
            let mut acc = 0usize;
            for i in 0..iters {
                let hay = &haystacks[i % nh];
                let needle = (i % 26) as u8 + b'a';
                acc = acc.wrapping_add(f(hay, needle).unwrap_or(64));
            }
            std::hint::black_box(acc);
        })
    };
    let find_scalar = mops(iters, run_find(&find_byte_scalar));
    let find_swar = mops(iters, run_find(&find_byte_swar));
    let find_dispatch = mops(iters, run_find(&find_byte));

    // popcount_words over rank-block-shaped slices (8 words = 512 bits).
    let pop_iters = iters / 4;
    let run_pop = |f: &dyn Fn(&[u64]) -> u32| {
        best_of(cfg.runs, || {
            let mut acc = 0u64;
            for i in 0..pop_iters {
                let j = (i * 8) % (n - 8);
                acc = acc.wrapping_add(f(&words[j..j + 8]) as u64);
            }
            std::hint::black_box(acc);
        })
    };
    let pop_scalar = mops(pop_iters, run_pop(&popcount_words_scalar));
    let pop_swar = mops(pop_iters, run_pop(&popcount_words_swar));
    let pop_dispatch = mops(pop_iters, run_pop(&popcount_words));

    println!("select_in_word   scalar {select_scalar:.0}  swar {select_swar:.0}  dispatch {select_dispatch:.0} Mops/s");
    println!("rank1            B=512  {rank_b512:.0}  B=64 {rank_b64:.0} Mops/s");
    println!("find_byte        scalar {find_scalar:.0}  swar {find_swar:.0}  dispatch {find_dispatch:.0} Mops/s");
    println!("popcount_words8  scalar {pop_scalar:.0}  swar {pop_swar:.0}  dispatch {pop_dispatch:.0} Mops/s");
    let tiers = |j: &mut Json, key: &str, scalar: f64, swar: f64, dispatch: f64| {
        j.obj(key, |j| {
            j.num("scalar", scalar, 1);
            j.num("swar", swar, 1);
            j.num("dispatch", dispatch, 1);
        });
    };
    tiers(doc, "select_in_word", select_scalar, select_swar, select_dispatch);
    doc.obj("rank1", |j| {
        j.num("b512", rank_b512, 1);
        j.num("b64_fast_path", rank_b64, 1);
    });
    tiers(doc, "find_byte", find_scalar, find_swar, find_dispatch);
    tiers(doc, "popcount_words8", pop_scalar, pop_swar, pop_dispatch);
}

// ---------------------------------------------------------------------------
// Rank/select configuration sweep — the space-time Pareto frontier
// (basic-block size × select sampling rate) instead of two hardcoded
// layouts. `bits_per_key` prices the support structures (rank LUT + select
// LUT) per set bit; rates are measured on the same bit vector.
// ---------------------------------------------------------------------------

/// Writes one row per configuration and returns how many there were.
fn bench_rank_select_pareto(cfg: &Config, doc: &mut Json) -> usize {
    const BLOCK_BITS: [usize; 5] = [64, 128, 256, 512, 1024];
    const SAMPLES: [usize; 3] = [16, 64, 256];
    let nbits: usize = if cfg.smoke { 1 << 16 } else { 1 << 22 };
    let mut state = 0xABCD_EF01_2345_6789u64;
    // S-LOUDS-like density: roughly every other bit set.
    let bv: BitVector = (0..nbits).map(|_| splitmix64(&mut state) & 1 == 1).collect();
    // Naive reference: sorted positions of set bits — rank is a partition
    // point, select is an array index.
    let positions: Vec<usize> = (0..nbits).filter(|&i| bv.get(i)).collect();
    let ones = positions.len();
    let nq = 65_536usize;
    let qpos: Vec<usize> = (0..nq).map(|_| (splitmix64(&mut state) % nbits as u64) as usize).collect();
    let qsel: Vec<usize> = (0..nq).map(|_| 1 + (splitmix64(&mut state) % ones as u64) as usize).collect();
    let iters = (cfg.kernel_iters / 4).max(nq);

    let selects: Vec<SelectSupport> =
        SAMPLES.iter().map(|&s| SelectSupport::new(&bv, s)).collect();
    // Cross-check every support against the naive reference before timing.
    for (si, sel) in selects.iter().enumerate() {
        assert_eq!(sel.ones(), ones);
        for &i in qsel.iter().take(512) {
            assert_eq!(sel.select1(&bv, i), positions[i - 1], "select sample {}", SAMPLES[si]);
        }
    }
    let select_mops: Vec<f64> = selects
        .iter()
        .map(|sel| {
            mops(
                iters,
                best_of(cfg.runs, || {
                    let mut acc = 0usize;
                    for i in 0..iters {
                        acc = acc.wrapping_add(sel.select1(&bv, qsel[i % nq]));
                    }
                    std::hint::black_box(acc);
                }),
            )
        })
        .collect();

    let mut points = 0;
    for &block_bits in &BLOCK_BITS {
        let rank = RankSupport::new(&bv, block_bits);
        for &p in qpos.iter().take(512) {
            assert_eq!(
                rank.rank1(&bv, p),
                positions.partition_point(|&q| q <= p),
                "rank block {block_bits}"
            );
        }
        let rank_mops = mops(
            iters,
            best_of(cfg.runs, || {
                let mut acc = 0usize;
                for i in 0..iters {
                    acc = acc.wrapping_add(rank.rank1(&bv, qpos[i % nq]));
                }
                std::hint::black_box(acc);
            }),
        );
        for (si, &sample) in SAMPLES.iter().enumerate() {
            let sel = &selects[si];
            let mixed_mops = mops(
                iters,
                best_of(cfg.runs, || {
                    let mut acc = 0usize;
                    for i in 0..iters {
                        let j = i % nq;
                        acc = acc.wrapping_add(if i & 1 == 0 {
                            rank.rank1(&bv, qpos[j])
                        } else {
                            sel.select1(&bv, qsel[j])
                        });
                    }
                    std::hint::black_box(acc);
                }),
            );
            let bits_per_key =
                ((rank.mem_usage() + sel.mem_usage()) as f64 * 8.0) / ones as f64;
            println!(
                "pareto B={block_bits:<4} S={sample:<3}  {bits_per_key:.3} bits/key  rank {rank_mops:.1}  select {:.1}  mixed {mixed_mops:.1} Mops/s",
                select_mops[si]
            );
            doc.item(|j| {
                j.int("block_bits", block_bits);
                j.int("sample", sample);
                j.num("bits_per_key", bits_per_key, 4);
                j.num("rank_mops", rank_mops, 3);
                j.num("select_mops", select_mops[si], 3);
                j.num("mixed_mops", mixed_mops, 3);
            });
            points += 1;
        }
    }
    points
}

/// Best-of Mops of `select` over `qsel`, `iters` queries.
fn select_mops(cfg: &Config, iters: usize, qsel: &[usize], select: impl Fn(usize) -> usize) -> f64 {
    mops(
        iters,
        best_of(cfg.runs, || {
            let mut acc = 0usize;
            for i in 0..iters {
                acc = acc.wrapping_add(select(qsel[i % qsel.len()]));
            }
            std::hint::black_box(acc);
        }),
    )
}

/// Select over ones 100–2 000 bits apart, as on a LOUDS-Sparse level of
/// wide nodes, three ways: the sampled scan (`select1`), the sample plus a
/// skip through the 512-bit rank blocks (`select1_ranked`, what
/// LOUDS-Sparse runs) and the rank binary search (`select1_via_rank`, the
/// `select_opt = false` ablation). Every one of the vector's ones is
/// cross-checked against naive select first, in whichever kernel tier
/// the process runs.
fn bench_sparse_select(cfg: &Config, doc: &mut Json) {
    let nbits: usize = if cfg.smoke { 1 << 20 } else { 1 << 24 };
    let mut state = 0x5A5E_1EC7_0000_0001u64;
    let mut positions = Vec::new();
    let mut pos = 0usize;
    loop {
        pos += 100 + (splitmix64(&mut state) % 1901) as usize;
        if pos >= nbits {
            break;
        }
        positions.push(pos);
    }
    let mut bv: BitVector = (0..nbits).map(|_| false).collect();
    for &p in &positions {
        bv.set(p);
    }
    let sel = SelectSupport::new(&bv, 64);
    let rank = RankSupport::new(&bv, 512);
    let ones = positions.len();
    for (i, &want) in positions.iter().enumerate() {
        assert_eq!(sel.select1(&bv, i + 1), want, "sparse select1({})", i + 1);
        assert_eq!(
            sel.select1_ranked(&bv, &rank, i + 1),
            want,
            "sparse select1_ranked({})",
            i + 1
        );
        assert_eq!(
            SelectSupport::select1_via_rank(&bv, &rank, i + 1),
            want,
            "sparse via rank({})",
            i + 1
        );
    }
    let qsel: Vec<usize> = (0..65_536)
        .map(|_| 1 + (splitmix64(&mut state) % ones as u64) as usize)
        .collect();
    let iters = (cfg.kernel_iters / 4).max(qsel.len());
    let scan = select_mops(cfg, iters, &qsel, |i| sel.select1(&bv, i));
    let ranked = select_mops(cfg, iters, &qsel, |i| sel.select1_ranked(&bv, &rank, i));
    let via_rank = select_mops(cfg, iters, &qsel, |i| {
        SelectSupport::select1_via_rank(&bv, &rank, i)
    });
    println!(
        "sparse select ({ones} ones, 100-2000 bits apart): sampled scan {scan:.1}  rank-block skip {ranked:.1}  rank binary search {via_rank:.1} Mops/s"
    );
    doc.int("nbits", nbits);
    doc.int("ones", ones);
    doc.str("gap_bits", "100-2000");
    doc.num("sampled_scan_mops", scan, 3);
    doc.num("sampled_rank_skip_mops", ranked, 3);
    doc.num("rank_binary_search_mops", via_rank, 3);
}

// ---------------------------------------------------------------------------
// Layer 2: FST point lookups (scalar vs vectorized) and batched lookup
// ---------------------------------------------------------------------------

fn probe_set(entries: &[(Vec<u8>, Value)], n_reads: usize, seed: u64) -> Vec<Vec<u8>> {
    // Half hits (uniform over entries), half misses (perturbed keys).
    let mut state = seed;
    (0..n_reads)
        .map(|i| {
            let pick = (splitmix64(&mut state) % entries.len() as u64) as usize;
            let mut k = entries[pick].0.clone();
            if i % 2 == 1 {
                let last = k.len() - 1;
                k[last] ^= 0x55;
            }
            k
        })
        .collect()
}

/// Returns the vectorized / scalar-baseline speed-up.
fn bench_point_lookup(cfg: &Config, entries: &[(Vec<u8>, Value)], doc: &mut Json) -> f64 {
    let scalar = Fst::build_with(entries, TrieOpts::baseline());
    let vector = Fst::build_with(entries, TrieOpts::default());
    let probes = probe_set(entries, cfg.n_reads, 7);
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    // Differential check before timing: both builds must agree everywhere.
    for k in &refs {
        assert_eq!(scalar.get(k), vector.get(k), "baseline/vectorized disagree");
    }
    let t_scalar = best_of(cfg.runs, || {
        let hits = refs.iter().filter(|k| scalar.get(k).is_some()).count();
        std::hint::black_box(hits);
    });
    let t_vector = best_of(cfg.runs, || {
        let hits = refs.iter().filter(|k| vector.get(k).is_some()).count();
        std::hint::black_box(hits);
    });
    let (scalar_mops, vector_mops) = (mops(refs.len(), t_scalar), mops(refs.len(), t_vector));
    let speedup = vector_mops / scalar_mops;
    println!(
        "fst point get    scalar {scalar_mops:.2}  vectorized {vector_mops:.2} Mops/s  ({speedup:.2}x)"
    );
    doc.num("scalar_baseline", scalar_mops, 3);
    doc.num("vectorized", vector_mops, 3);
    doc.num("speedup", speedup, 3);
    speedup
}

/// One row per batch size of `Fst::get_batch` against the per-key `get`
/// loop. Returns the batched / per-key speed-up of each row.
fn bench_get_batch(cfg: &Config, fst: &Fst, refs: &[&[u8]], doc: &mut Json) -> Vec<f64> {
    // Correctness first: batched answers must equal the per-key loop.
    let expect: Vec<Option<Value>> = refs.iter().map(|k| fst.get(k)).collect();
    let mut speedups = Vec::new();
    for batch in [16usize, 64, 256] {
        let mut got = Vec::with_capacity(refs.len());
        for c in refs.chunks(batch) {
            fst.get_batch(c, &mut got);
        }
        assert_eq!(got, expect, "fst get_batch mismatch at batch {batch}");
        let t_loop = best_of(cfg.runs, || {
            let mut out: Vec<Option<Value>> = Vec::with_capacity(refs.len());
            for k in refs {
                out.push(fst.get(k));
            }
            std::hint::black_box(out.len());
        });
        let t_batch = best_of(cfg.runs, || {
            let mut out: Vec<Option<Value>> = Vec::with_capacity(refs.len());
            for c in refs.chunks(batch) {
                fst.get_batch(c, &mut out);
            }
            std::hint::black_box(out.len());
        });
        let (per_key, batched) = (mops(refs.len(), t_loop), mops(refs.len(), t_batch));
        println!(
            "fst get_batch    batch {batch:>3}  per-key {per_key:.2}  batched {batched:.2} Mops/s  ({:.2}x)",
            batched / per_key
        );
        doc.item(|j| {
            j.int("batch", batch);
            j.num("per_key", per_key, 3);
            j.num("batched", batched, 3);
            j.num("speedup", batched / per_key, 3);
        });
        speedups.push(batched / per_key);
    }
    speedups
}

// ---------------------------------------------------------------------------
// Layer 3: multi-threaded readers over one shared static stage
// ---------------------------------------------------------------------------

fn bench_threads(cfg: &Config, fst: &Arc<Fst>, probes: &Arc<Vec<Vec<u8>>>, doc: &mut Json) {
    for &t in &cfg.threads {
        let d = best_of(cfg.runs, || {
            let handles: Vec<_> = (0..t)
                .map(|tid| {
                    let fst = Arc::clone(fst);
                    let probes = Arc::clone(probes);
                    std::thread::spawn(move || {
                        // Each thread probes the full set, offset so threads
                        // never march in lockstep over the same lines.
                        let n = probes.len();
                        let mut hits = 0usize;
                        let mut batch: Vec<&[u8]> = Vec::with_capacity(64);
                        let mut results = Vec::with_capacity(64);
                        let mut i = tid * n / t.max(1);
                        for _ in 0..(n / 64) {
                            batch.clear();
                            for _ in 0..64 {
                                batch.push(probes[i % n].as_slice());
                                i += 1;
                            }
                            results.clear();
                            fst.get_batch(&batch, &mut results);
                            hits += results.iter().flatten().count();
                        }
                        std::hint::black_box(hits)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let total_ops = (probes.len() / 64) * 64 * t;
        let rate = mops(total_ops, d);
        println!("threads {t:>2}       {rate:.2} Mops/s aggregate (batched shared-FST readers)");
        doc.item(|j| {
            j.int("threads", t);
            j.num("mops", rate, 3);
        });
    }
}

fn main() {
    let args = BenchArgs::from_env("hotpath");
    let cfg = Config::new(args.smoke);
    let entries: Vec<(Vec<u8>, Value)> =
        keys::sorted_unique(keys::rand_u64_keys(cfg.n_keys, 1))
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64))
            .collect();

    let mut j = Json::default();
    j.obj("meta", |j| {
        j.int("n_keys", cfg.n_keys);
        j.int("n_reads", cfg.n_reads);
        j.int("runs", cfg.runs);
        j.bool("smoke", cfg.smoke);
        kernel_meta(j);
        j.str("note", "hot-path kernel ablations + FST batched lookup; all rates in Mops/s");
    });
    j.obj("kernels", |j| bench_kernels(&cfg, j));
    let pareto_points = j.arr("rank_select_pareto", |j| bench_rank_select_pareto(&cfg, j));
    j.obj("select_sparse", |j| bench_sparse_select(&cfg, j));
    let speedup = j.obj("fst_point_lookup", |j| bench_point_lookup(&cfg, &entries, j));

    // FST's batched lookup against its per-key loop, then thread scaling
    // over the same shared Arc<Fst> and probe set.
    let shared = Arc::new(Fst::build_with(&entries, TrieOpts::default()));
    let probes = probe_set(&entries, cfg.n_reads.min(200_000), 11);
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    let speedups = j.arr("fst_get_batch", |j| {
        bench_get_batch(&cfg, &shared, &refs, j)
    });
    let shared_probes = Arc::new(probes.clone());
    j.arr("thread_scaling", |j| bench_threads(&cfg, &shared, &shared_probes, j));

    // ---- acceptance gates ----
    // The Pareto sweep must cover the promised configuration grid (every
    // run, including smoke — a schema guarantee, not a performance one;
    // the writer has already refused any measurement that is not finite).
    assert!(pareto_points >= 6, "rank_select_pareto needs >= 6 points, got {pareto_points}");

    // Full runs only; smoke is correctness-only.
    if !cfg.smoke {
        assert!(
            speedup >= 1.3,
            "vectorized FST point lookup only {speedup:.2}x over scalar baseline (need >= 1.3x)"
        );
        // The batched lookup is kept only because it wins: it must beat
        // the per-key loop at every batch size.
        assert!(
            speedups.iter().all(|&s| s > 1.0),
            "Fst::get_batch must beat the per-key get loop at every batch size \
             (speed-ups {speedups:.2?} at batch 16/64/256)"
        );
    }

    j.write_checked(
        &args.out,
        &[
            "meta", "kernel_mode", "crc_kernel", "kernels", "popcount_words8",
            "rank_select_pareto", "block_bits", "sample", "bits_per_key", "mixed_mops",
            "fst_point_lookup", "fst_get_batch", "thread_scaling",
        ],
    );
}
