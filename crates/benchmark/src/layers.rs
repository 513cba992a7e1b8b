//! The lanes of the traced run: each layer below the serving layer driven
//! alone, single-threaded, on the run's own key set, through its public
//! functions only. Every lane hangs its spans under one root span.

use crate::keys::{KeySet, Stamp, ABSENT_BASE, ENTRY_BYTES, LOADER};
use crate::ops::{Op, OpStream};
use crate::spec::{db_options, Profile, Workload, BLOCK_SIZE, CLIENTS, MEMTABLE_BYTES, SHARDS};
use crate::trace::Tracer;
use memtree_common::crc::crc32c;
use memtree_common::error::{MemtreeError, Result};
use memtree_common::hash::{hash64, splitmix64};
use memtree_common::traits::{OrderedIndex, StaticIndex};
use memtree_fst::Fst;
use memtree_lsm::{Db, DbOptions, SimDisk, StallConfig};
use memtree_skiplist::SkipList;
use memtree_succinct::{BitVector, RankSupport, SelectSupport};
use memtree_surf::{SuffixConfig, Surf};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Kernel probes are timed in batches of this many calls.
const BATCH: usize = 256;
/// Point reads replayed against the engine-lane `Db`.
const ENGINE_GETS: usize = 20_000;

/// Counts and ratios the lanes measure (the `_ns` figures are spans).
pub type Gauges = BTreeMap<&'static str, f64>;

fn wrong(what: &str) -> MemtreeError {
    MemtreeError::corruption("benchmark-lane", what.to_string())
}

/// `index_filter_mem ÷ table_entries` of one single-writer `Db` holding
/// the whole key set under the workload's options, flushed and fully
/// compacted: the memory the paper's structures cost per key.
pub fn index_bytes_per_key(workload: &Workload, keys: &KeySet) -> Result<f64> {
    let mut db = Db::new(DbOptions {
        wal_group_commit: usize::MAX,
        ..db_options(workload)
    });
    for idx in 0..keys.loaded() as u64 {
        db.put(
            &keys.key(idx),
            &keys.value(Stamp {
                idx,
                writer: LOADER,
                version: 0,
            }),
        )?;
    }
    db.flush()?;
    Ok(db.index_filter_mem() as f64 / db.table_entries().max(1) as f64)
}

/// The engine lane: one `Db` with shard 0's keys and a shard's options.
/// Times `put` (WAL append + MemTable, no per-put sync), `flush`,
/// `compact_debt` steps and the `snapshot()` a worker republishes every
/// 256 writes; then replays the workload's point reads for the filter and
/// cache counters only `Db` exposes.
pub fn engine_lane(
    workload: &Workload,
    keys: &KeySet,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Gauges,
) -> Result<()> {
    let base = db_options(workload);
    let opts = DbOptions {
        wal_group_commit: usize::MAX,
        compact_on_flush: false,
        stall: StallConfig::serving(base.l0_tables, base.memtable_bytes),
        ..base
    };
    let mut db = Db::open(Arc::new(SimDisk::new(opts.io_read_latency)), opts)?;
    let on_shard0 = |key: &[u8]| hash64(key).is_multiple_of(SHARDS as u64);
    let root = tr.open("lane.engine", 0);
    let drain = |db: &mut Db, tr: &mut Tracer| -> Result<()> {
        tr.time("lsm.flush", root, 1, || db.flush())?;
        loop {
            let t0 = tr.now();
            if !db.compact_debt()? {
                return Ok(());
            }
            let t1 = tr.now();
            tr.record("lsm.compact_step", root, t0, t1, 1);
        }
    };
    let mut puts = 0usize;
    for idx in 0..keys.loaded() as u64 {
        let key = keys.key(idx);
        if !on_shard0(&key) {
            continue;
        }
        // Flush explicitly just before `put` would, so that no put span
        // hides a flush.
        if db.stats().memtable_bytes + ENTRY_BYTES + 1 >= MEMTABLE_BYTES {
            drain(&mut db, tr)?;
        }
        let value = keys.value(Stamp {
            idx,
            writer: LOADER,
            version: 0,
        });
        tr.time("lsm.put", root, 1, || db.put(&key, &value))?;
        puts += 1;
        if puts.is_multiple_of(256) {
            tr.time("lsm.snapshot", root, 1, || drop(black_box(db.snapshot())));
        }
    }
    drain(&mut db, tr)?;
    tr.close(root);

    db.reset_filter_stats();
    let (hits0, misses0) = db.cache_stats();
    let mut stream = OpStream::new(workload, keys.loaded(), seed, 0, CLIENTS);
    let mut gets = 0usize;
    for _ in 0..ENGINE_GETS * 8 {
        if let Op::Get(idx) = stream.next() {
            let key = keys.key(idx);
            if on_shard0(&key) {
                if db.get(&key).is_some() != (idx < ABSENT_BASE) {
                    return Err(wrong("engine-lane get disagrees with the key set"));
                }
                gets += 1;
                if gets == ENGINE_GETS {
                    break;
                }
            }
        }
    }
    let f = db.filter_stats();
    let (hits, misses) = db.cache_stats();
    let (hits, misses) = (hits - hits0, misses - misses0);
    let per_get = |n: u64| {
        if gets == 0 {
            0.0
        } else {
            n as f64 / gets as f64
        }
    };
    out.insert("lsm.filter_passes_per_get", per_get(f.probe_passes));
    out.insert("lsm.filter_keys_per_get", per_get(f.keys_probed));
    out.insert(
        "lsm.cache_hit_rate",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    Ok(())
}

/// Times `f` over `items` in spans of [`BATCH`] calls under `root`.
fn batched<T>(tr: &mut Tracer, name: &'static str, root: u32, items: &[T], mut f: impl FnMut(&T)) {
    for chunk in items.chunks(BATCH) {
        tr.time(name, root, chunk.len() as u32, || {
            chunk.iter().for_each(&mut f)
        });
    }
}

/// The kernel lanes: `Surf`, `Fst`, rank/select, `SkipList` and `crc32c`
/// on `profile.probe_keys` keys of the run's key set.
pub fn kernel_lanes(
    profile: &Profile,
    keys: &KeySet,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Gauges,
) -> Result<()> {
    let n = profile.probe_keys.min(keys.loaded());
    let present: Vec<[u8; 16]> = (0..n as u64).map(|i| keys.key(i)).collect();
    let mut sorted = present.clone();
    sorted.sort_unstable();
    let absent: Vec<[u8; 16]> = (0..n as u64).map(|i| keys.key(ABSENT_BASE + i)).collect();

    // SuRF-Real(8), the filter every SSTable of the run carries.
    let root = tr.open("lane.surf", 0);
    let refs: Vec<&[u8]> = sorted.iter().map(|k| &k[..]).collect();
    let surf = tr.time("surf.build", root, n as u32, || {
        Surf::new(&refs, SuffixConfig::Real(8))
    });
    let mut lost = 0usize;
    batched(tr, "surf.lookup_hit", root, &present, |k| {
        lost += usize::from(!surf.lookup(k))
    });
    let mut passed = 0usize;
    batched(tr, "surf.lookup_miss", root, &absent, |k| {
        passed += usize::from(surf.lookup(k))
    });
    batched(tr, "surf.move_to_next", root, &absent, |k| {
        drop(black_box(surf.move_to_next(k)))
    });
    tr.close(root);
    if lost > 0 {
        return Err(wrong("SuRF answered no for a stored key"));
    }
    out.insert("surf.fpr", passed as f64 / n as f64);
    out.insert("surf.bits_per_key", surf.bits_per_key());

    // The FST over complete keys.
    let root = tr.open("lane.fst", 0);
    let entries: Vec<(Vec<u8>, u64)> = sorted
        .iter()
        .enumerate()
        .map(|(i, k)| (k.to_vec(), i as u64))
        .collect();
    let fst = tr.time("fst.build", root, n as u32, || Fst::build(&entries));
    let mut bad = 0usize;
    batched(tr, "fst.get", root, &present, |k| {
        bad += usize::from(fst.get(k).is_none())
    });
    batched(tr, "fst.get_miss", root, &absent, |k| {
        bad += usize::from(fst.get(k).is_some())
    });
    batched(tr, "fst.lower_bound", root, &absent, |k| {
        let it = fst.iter_from(k);
        bad += usize::from(it.valid() && it.key() < &k[..]);
    });
    tr.close(root);
    if bad > 0 {
        return Err(wrong("FST returned a wrong answer"));
    }
    out.insert(
        "fst.bits_per_key",
        fst.trie().mem_usage() as f64 * 8.0 / n as f64,
    );

    // rank / select with the trie's own parameters (512-bit rank blocks,
    // one select sample per 64 ones) on a seeded half-dense bit vector.
    let root = tr.open("lane.succinct", 0);
    let mut rng = seed ^ 0x5ca1_ab1e;
    let bits = n * 64;
    let words: Vec<u64> = (0..n).map(|_| splitmix64(&mut rng)).collect();
    let bv = BitVector::from_words(words, bits).ok_or_else(|| wrong("bit vector shape"))?;
    let rank = RankSupport::new(&bv, 512);
    let select = SelectSupport::new(&bv, 64);
    let positions: Vec<usize> = (0..n)
        .map(|_| (splitmix64(&mut rng) % bits as u64) as usize)
        .collect();
    let ordinals: Vec<usize> = (0..n)
        .map(|_| (splitmix64(&mut rng) % select.ones() as u64) as usize)
        .collect();
    batched(tr, "succinct.rank", root, &positions, |&p| {
        black_box(rank.rank1(&bv, p));
    });
    batched(tr, "succinct.select", root, &ordinals, |&i| {
        black_box(select.select1(&bv, i));
    });
    tr.close(root);

    // The MemTable's skip list, keys arriving in random order.
    let root = tr.open("lane.skiplist", 0);
    let mut list = SkipList::new();
    let mut dup = 0usize;
    let numbered: Vec<(usize, [u8; 16])> = present.iter().copied().enumerate().collect();
    batched(tr, "skiplist.insert", root, &numbered, |(i, k)| {
        dup += usize::from(!list.insert(k, *i as u64))
    });
    let mut missing = 0usize;
    batched(tr, "skiplist.get", root, &numbered, |(i, k)| {
        missing += usize::from(list.get(k) != Some(*i as u64))
    });
    tr.close(root);
    if dup + missing > 0 {
        return Err(wrong("skip list lost or duplicated a key"));
    }

    // The block checksum, on one block-sized buffer.
    let root = tr.open("lane.common", 0);
    let block: Vec<u8> = (0..BLOCK_SIZE)
        .map(|_| splitmix64(&mut rng) as u8)
        .collect();
    let rounds = vec![(); 4096];
    batched(tr, "common.crc32c_4k", root, &rounds, |_| {
        black_box(crc32c(black_box(&block)));
    });
    tr.close(root);
    Ok(())
}

/// The device lane, on the database's own `SimDisk`: reads of live block
/// ids, appends to a scratch file, and a `sync` after each of a few
/// appends (what the committer pays per batch).
pub fn disk_lane(disk: &SimDisk, tr: &mut Tracer) -> Result<()> {
    const SCRATCH: &str = "benchmark-scratch";
    let root = tr.open("lane.disk", 0);
    let live: Vec<u32> = (0..disk.block_slots() as u32)
        .filter(|&id| disk.is_live(id))
        .take(4096)
        .collect();
    let mut unreadable = 0usize;
    batched(tr, "disk.read", root, &live, |&id| {
        unreadable += usize::from(disk.read(id).is_err())
    });
    let record = [0x5au8; ENTRY_BYTES];
    let mut refused = 0usize;
    batched(tr, "disk.append", root, &[(); 4096], |_| {
        refused += usize::from(disk.append(SCRATCH, &record).is_err())
    });
    for _ in 0..256 {
        refused += usize::from(disk.append(SCRATCH, &record).is_err());
        tr.time("disk.sync", root, 1, || disk.sync());
    }
    disk.remove_file(SCRATCH);
    disk.sync();
    tr.close(root);
    if unreadable + refused > 0 {
        return Err(wrong("the device refused a probe"));
    }
    Ok(())
}
