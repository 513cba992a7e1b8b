//! Robustness-cost benchmark, written to `BENCH_faults.json`.
//!
//! Four questions, all on exact production paths:
//!
//! 1. **What does checksummed block framing cost?** Static-stage (merge)
//!    build and uncached point reads through `CompressedBTree` with the
//!    CRC32C frame on vs off, plus the raw codec. The unframed variants
//!    exist only here; every production block stays framed.
//! 2. **How fast does scrub verify a database?** `Db::scrub` walks every
//!    manifest-live block plus the WAL and manifest; reported as GB/s of
//!    block data verified. Gate: an undamaged database scrubs fully clean.
//! 3. **What do degraded reads cost?** The same zipfian point-read
//!    workload against a healthy Bloom-filtered database and against the
//!    same database after latent corruption forced one table filterless —
//!    the read tax of graceful degradation.
//! 4. **Is `Enospc` recovery clean?** Fill to a capacity limit, verify the
//!    typed error, verify failing flushes leak nothing across attempts,
//!    then lift the limit and time the retry to success.
//!
//! Run from the repo root: `cargo run -p memtree-bench --release --bin
//! bench_faults` (`--smoke` for the CI-sized run, `--out PATH` to write
//! the JSON elsewhere).

use memtree_bench::harness::{best_of, kernel_meta, BenchArgs, Json};
use memtree_bench::{mops, time};
use memtree_btree::CompressedBTree;
use memtree_common::key::encode_u64;
use memtree_common::traits::{OrderedIndex, StaticIndex, Value};
use memtree_compress::{compress, decode_block, decompress, encode_block};
use memtree_hybrid::{HybridCompressedBTree, MergeTrigger};
use memtree_lsm::{Db, DbOptions, FilterKind};
use memtree_workload::keys;
use memtree_workload::zipf::Zipfian;
use std::time::Duration;

const RUNS: usize = 3;

struct Config {
    n_keys: usize,     // CRC-tax sections
    lsm_keys: usize,   // scrub / degraded / enospc sections
    n_reads: usize,
    smoke: bool,
}

fn entries(n: usize) -> Vec<(Vec<u8>, Value)> {
    keys::sorted_unique(keys::rand_u64_keys(n, 1))
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u64))
        .collect()
}

fn pct_overhead(on: f64, off: f64) -> f64 {
    (off / on - 1.0) * 100.0
}

/// `"key": { "on_<unit>": …, "off_<unit>": …, "overhead_pct": … }`.
fn tax_pair(j: &mut Json, key: &str, unit: &str, on: f64, off: f64, decimals: usize) {
    j.obj(key, |j| {
        j.num(&format!("on_{unit}"), on, decimals);
        j.num(&format!("off_{unit}"), off, decimals);
        j.num("overhead_pct", pct_overhead(on, off), 2);
    });
}

/// The checksum tax on the static-stage build, uncached point reads and
/// the raw codec. Returns the two budgeted taxes: (codec decode, read).
fn bench_crc_tax(cfg: &Config, j: &mut Json) -> (f64, f64) {
    let e = entries(cfg.n_keys);

    // Merge throughput: rebuilding the static stage IS the hybrid merge's
    // dominant cost; build it framed (production) and unframed (baseline).
    // One untimed build first so the allocator and page cache are warm for
    // whichever variant is measured first.
    std::hint::black_box(CompressedBTree::build(&e));
    let framed_build = best_of(RUNS, || {
        std::hint::black_box(CompressedBTree::build(&e));
    });
    let unframed_build = best_of(RUNS, || {
        std::hint::black_box(CompressedBTree::build_unframed(&e));
    });
    let build_on = mops(cfg.n_keys, framed_build);
    let build_off = mops(cfg.n_keys, unframed_build);
    println!(
        "merge build      checksums on {build_on:.2} Mkeys/s   off {build_off:.2} Mkeys/s   tax {:.1}%",
        pct_overhead(build_on, build_off)
    );
    tax_pair(j, "merge_build", "mkeys_per_s", build_on, build_off, 3);

    // Uncached point reads: cache capacity 0 forces a block decode (and
    // frame validation when on) for every lookup — the worst-case read tax.
    let mut framed = CompressedBTree::build(&e);
    framed.set_cache_blocks(0);
    let mut unframed = CompressedBTree::build_unframed(&e);
    unframed.set_cache_blocks(0);
    let mut z = Zipfian::new(cfg.n_keys, 5);
    let picks: Vec<usize> = (0..cfg.n_reads).map(|_| z.next_scrambled()).collect();
    let read_framed = best_of(RUNS, || {
        let s: u64 = picks.iter().map(|&i| framed.get(&e[i].0).unwrap()).sum();
        std::hint::black_box(s);
    });
    let read_unframed = best_of(RUNS, || {
        let s: u64 = picks.iter().map(|&i| unframed.get(&e[i].0).unwrap()).sum();
        std::hint::black_box(s);
    });
    let read_on = mops(cfg.n_reads, read_framed);
    let read_off = mops(cfg.n_reads, read_unframed);
    println!(
        "uncached get     checksums on {read_on:.2} Mops/s    off {read_off:.2} Mops/s    tax {:.1}%",
        pct_overhead(read_on, read_off)
    );
    tax_pair(j, "uncached_point_get", "mops_per_s", read_on, read_off, 3);

    // Raw codec: frame+CRC vs bare LZ block, over many distinct leaf-sized
    // images (distinct inputs keep the pure calls inside the timing loop).
    let leaves: Vec<Vec<u8>> = e
        .chunks(4096)
        .take(64)
        .map(|c| c.iter().flat_map(|(k, _)| k.clone()).collect())
        .collect();
    let total_raw: usize = leaves.iter().map(Vec::len).sum();
    let enc_framed = best_of(RUNS, || {
        for leaf in &leaves {
            std::hint::black_box(encode_block(leaf));
        }
    });
    let enc_raw = best_of(RUNS, || {
        for leaf in &leaves {
            std::hint::black_box(compress(leaf));
        }
    });
    let blocks: Vec<Vec<u8>> = leaves.iter().map(|l| encode_block(l)).collect();
    let raw_blocks: Vec<Vec<u8>> = leaves.iter().map(|l| compress(l)).collect();
    let dec_framed = best_of(RUNS, || {
        for b in &blocks {
            std::hint::black_box(decode_block(b).unwrap());
        }
    });
    let dec_raw = best_of(RUNS, || {
        for b in &raw_blocks {
            std::hint::black_box(decompress(b).unwrap());
        }
    });
    let mbs = |d: Duration| total_raw as f64 / d.as_secs_f64() / 1e6;
    let (enc_on, enc_off) = (mbs(enc_framed), mbs(enc_raw));
    let (dec_on, dec_off) = (mbs(dec_framed), mbs(dec_raw));
    println!(
        "codec encode     checksums on {enc_on:.0} MB/s      off {enc_off:.0} MB/s      tax {:.1}%",
        pct_overhead(enc_on, enc_off)
    );
    println!(
        "codec decode     checksums on {dec_on:.0} MB/s      off {dec_off:.0} MB/s      tax {:.1}%",
        pct_overhead(dec_on, dec_off)
    );
    tax_pair(j, "codec_encode", "mb_per_s", enc_on, enc_off, 1);
    tax_pair(j, "codec_decode", "mb_per_s", dec_on, dec_off, 1);

    // End-to-end hybrid merge on the compressed static stage (checksums on
    // is the only production path; recorded for trend tracking).
    let merge = best_of(RUNS, || {
        let mut h = HybridCompressedBTree::with_config(MergeTrigger::Manual, false);
        for (k, v) in &e {
            h.insert(k, *v);
        }
        h.force_merge().unwrap();
        std::hint::black_box(h.static_len());
    });
    let merge_mkeys = mops(cfg.n_keys, merge);
    println!("hybrid merge e2e checksums on {merge_mkeys:.2} Mkeys/s (insert+merge, production path)");
    j.obj("hybrid_merge_end_to_end", |j| j.num("on_mkeys_per_s", merge_mkeys, 3));

    (pct_overhead(dec_on, dec_off), pct_overhead(read_on, read_off))
}

fn key_of(i: u64) -> [u8; 8] {
    encode_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) // scattered inserts
}

const VALUE: &[u8] = b"ten-bytes!";

fn lsm_opts(filter: FilterKind) -> DbOptions {
    DbOptions {
        memtable_bytes: 64 << 10,
        filter,
        ..Default::default()
    }
}

fn build_lsm(n: usize, filter: FilterKind) -> Db {
    let mut db = Db::new(lsm_opts(filter));
    for i in 0..n as u64 {
        db.put(&key_of(i), VALUE).unwrap();
    }
    db.flush().unwrap();
    db
}

/// Scrub throughput over an undamaged database. Gate: fully clean.
fn bench_scrub(cfg: &Config, j: &mut Json) {
    let mut db = build_lsm(cfg.lsm_keys, FilterKind::None);
    let mut report = None;
    let elapsed = time(|| {
        report = Some(db.scrub().expect("scrub of a healthy database"));
    });
    let report = report.unwrap();
    assert!(
        report.is_clean(),
        "scrub of an undamaged database must be clean: {report:?}"
    );
    assert!(report.blocks_scanned > 0, "scrub scanned nothing");
    let gb_per_s = report.bytes_scanned as f64 / elapsed.as_secs_f64() / 1e9;
    let ms = elapsed.as_secs_f64() * 1e3;
    println!(
        "scrub            {gb_per_s:.3} GB/s  ({} blocks, {} bytes, {ms:.2} ms, clean)",
        report.blocks_scanned, report.bytes_scanned
    );
    j.num("scrub_gb_per_s", gb_per_s, 4);
    j.obj("scrub_detail", |j| {
        j.int("blocks_scanned", report.blocks_scanned);
        j.int("bytes_scanned", report.bytes_scanned);
        j.num("elapsed_ms", ms, 3);
        j.bool("clean", true);
    });
}

/// Point-read throughput healthy vs with one table forced filterless by
/// latent corruption — the price of graceful degradation.
fn bench_degraded_reads(cfg: &Config, j: &mut Json) {
    let db = build_lsm(cfg.lsm_keys, FilterKind::Bloom(14.0));
    let disk = db.close().expect("clean close");
    let mut z = Zipfian::new(cfg.lsm_keys, 7);
    let picks: Vec<u64> = (0..cfg.n_reads).map(|_| z.next_scrambled() as u64).collect();

    let db = Db::open(disk.clone(), lsm_opts(FilterKind::Bloom(14.0))).expect("healthy reopen");
    assert_eq!(db.open_report().degraded_tables, 0, "healthy database opened degraded");
    let filter_images = db.filter_block_ids();
    let healthy = best_of(RUNS, || {
        let mut hits = 0usize;
        for &i in &picks {
            hits += usize::from(db.get(&key_of(i)).is_some());
        }
        std::hint::black_box(hits);
    });
    drop(db);

    // Latent corruption that defeats the whole filter-recovery ladder:
    // rot every persisted filter image (so reopen must fall back to
    // rebuilding from data blocks) plus one data block (so at least one
    // rebuild fails). That table is quarantined and runs filterless —
    // a partial filter would lie.
    for &img in &filter_images {
        disk.bitrot_block(img, 42).expect("bitrot filter image");
    }
    let victim = (0..disk.block_slots() as u32)
        .find(|&id| disk.is_live(id) && !filter_images.contains(&id))
        .expect("no live data blocks");
    disk.bitrot_block(victim, 42).expect("bitrot");
    let db = Db::open(disk, lsm_opts(FilterKind::Bloom(14.0))).expect("degraded reopen");
    assert!(db.open_report().degraded_tables > 0, "corruption did not degrade any table");
    let degraded = best_of(RUNS, || {
        let mut hits = 0usize;
        for &i in &picks {
            hits += usize::from(db.get(&key_of(i)).is_some());
        }
        std::hint::black_box(hits);
    });

    let (healthy_mops, degraded_mops) = (mops(cfg.n_reads, healthy), mops(cfg.n_reads, degraded));
    let tax_pct = pct_overhead(healthy_mops, degraded_mops).abs();
    let degraded_tables = db.open_report().degraded_tables;
    println!(
        "degraded reads   healthy {healthy_mops:.3} Mops/s   degraded {degraded_mops:.3} Mops/s   tax {tax_pct:.1}%  ({degraded_tables} table filterless)"
    );
    j.num("degraded_read_tax_pct", tax_pct, 2);
    j.obj("degraded_read_detail", |j| {
        j.num("healthy_mops_per_s", healthy_mops, 3);
        j.num("degraded_mops_per_s", degraded_mops, 3);
        j.int("degraded_tables", degraded_tables);
    });
}

/// Capacity exhaustion: typed error, leak-free failed flushes, timed
/// recovery after the limit lifts.
fn bench_enospc_recovery(cfg: &Config, j: &mut Json) {
    let mut db = build_lsm(cfg.lsm_keys / 4, FilterKind::None);
    let disk = db.disk_handle();
    disk.set_capacity_bytes(Some(disk.used_bytes() + 256));
    let mut typed = false;
    let mut i = (cfg.lsm_keys / 4) as u64;
    while !typed {
        i += 1;
        match db.put(&key_of(i), VALUE) {
            Ok(_) => {}
            Err(memtree_common::error::MemtreeError::Enospc { .. }) => typed = true,
            Err(e) => panic!("expected Enospc, got {e:?}"),
        }
    }
    // Failed flushes must release their partial blocks: space usage is
    // identical across attempts.
    let _ = db.flush();
    let used_a = disk.used_bytes();
    let _ = db.flush();
    let leak_free = disk.used_bytes() == used_a;
    assert!(leak_free, "failing flushes leak disk space");

    disk.set_capacity_bytes(None);
    let elapsed = time(|| {
        db.flush().expect("flush after capacity lift");
    });
    // Spot-check: nothing acknowledged was lost across the outage.
    for j in (0..i).step_by((i as usize / 64).max(1)) {
        assert_eq!(db.get(&key_of(j)).as_deref(), Some(VALUE), "record {j} lost to Enospc");
    }
    let recovery_ms = elapsed.as_secs_f64() * 1e3;
    println!("enospc           typed error, leak-free retries, recovery {recovery_ms:.2} ms after lift");
    j.obj("enospc_recovery", |j| {
        j.bool("typed_error", typed);
        j.bool("leak_free_retries", leak_free);
        j.num("recovery_ms", recovery_ms, 3);
    });
}

/// Perf budgets for the checksum tax, enforced only on full (non-smoke)
/// runs with the hardware CRC kernel active: smoke sizes are noise-bound
/// and the scalar lane intentionally pays the portable-kernel price.
fn enforce_budgets(cfg: &Config, (dec_pct, read_pct): (f64, f64)) {
    if cfg.smoke || memtree_common::crc::active_kernel() != "sse4.2-3way" {
        println!(
            "budgets          skipped (smoke={} kernel={}); decode tax {dec_pct:.1}%, read tax {read_pct:.1}%",
            cfg.smoke,
            memtree_common::crc::active_kernel()
        );
        return;
    }
    assert!(
        dec_pct <= 150.0,
        "codec_decode.overhead_pct budget blown: {dec_pct:.1}% > 150% \
         (fused verify+decode with the sse4.2-3way kernel should keep the \
         checksum tax within 2.5x of the bare codec)"
    );
    assert!(
        read_pct <= 40.0,
        "uncached_point_get.overhead_pct budget blown: {read_pct:.1}% > 40%"
    );
    println!("budgets          decode tax {dec_pct:.1}% <= 150%, uncached read tax {read_pct:.1}% <= 40%");
}

fn main() {
    let args = BenchArgs::from_env("faults");
    let smoke = args.smoke;
    let cfg = Config {
        n_keys: if smoke { 100_000 } else { 1_000_000 },
        lsm_keys: if smoke { 20_000 } else { 120_000 },
        n_reads: if smoke { 40_000 } else { 200_000 },
        smoke,
    };
    let mut j = Json::default();
    j.obj("meta", |j| {
        j.int("n_keys", cfg.n_keys);
        j.int("lsm_keys", cfg.lsm_keys);
        j.int("n_reads", cfg.n_reads);
        j.int("runs", RUNS);
        j.bool("smoke", cfg.smoke);
        kernel_meta(j);
        j.str("note", "robustness costs: CRC32C framing tax, scrub throughput, degraded-read tax, Enospc recovery; overhead_pct = (off/on - 1) * 100");
    });
    let taxes = bench_crc_tax(&cfg, &mut j);
    bench_scrub(&cfg, &mut j);
    bench_degraded_reads(&cfg, &mut j);
    bench_enospc_recovery(&cfg, &mut j);
    enforce_budgets(&cfg, taxes);
    j.write_checked(
        &args.out,
        &[
            "meta", "n_keys", "smoke", "kernel_mode", "crc_kernel", "merge_build",
            "uncached_point_get", "codec_encode", "codec_decode", "hybrid_merge_end_to_end",
            "scrub_gb_per_s", "scrub_detail", "blocks_scanned", "bytes_scanned",
            "degraded_read_tax_pct", "degraded_read_detail", "degraded_tables",
            "enospc_recovery", "typed_error", "leak_free_retries", "recovery_ms",
        ],
    );
}
