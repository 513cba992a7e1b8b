//! Differential oracle for the sharded serving layer.
//!
//! Three suites, all against a single-threaded `BTreeMap` model:
//!
//! 1. **Seeded differential storm** (32 seeds): a writer drives a random
//!    put/delete stream through `ShardedDb` and the model while reader
//!    threads hammer the snapshot path concurrently — tiny memtables
//!    force flushes and compactions *under* those readers. Every seed
//!    quiesces with a barrier and checks full get/scan equality, then
//!    either closes gracefully or crashes (torn unsynced state) and
//!    checks again after recovery: acknowledged writes are durable by
//!    construction (acks follow the group-commit sync), so recovery must
//!    reproduce the model exactly.
//! 2. **Reader invariants**: concurrent readers only ever observe values
//!    the writer actually wrote for that key, and per-key versions never
//!    move backwards within one reader (snapshot epochs are monotone).
//! 3. **Fault isolation**: `Enospc` on one shard fails the originating
//!    requests with the typed error and nothing else — the sibling shard
//!    keeps accepting durable writes, the starved shard keeps serving
//!    reads and recovers as soon as capacity lifts; transient read
//!    faults heal inside the snapshot read path on every shard.

use memtree_common::error::MemtreeError;
use memtree_common::hash::splitmix64;
use memtree_lsm::DbOptions;
use memtree_serve::{ServeOptions, ShardedDb};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const KEYS: usize = 64;

fn key(seed: u64, ki: usize) -> Vec<u8> {
    format!("s{seed}-key-{ki:03}").into_bytes()
}

fn value(seed: u64, ki: usize, ver: u64) -> Vec<u8> {
    format!("{seed}:{ki}:{ver}").into_bytes()
}

/// Parses a value written by this test back into `(seed, ki, ver)`.
fn parse_value(v: &[u8]) -> (u64, usize, u64) {
    let s = std::str::from_utf8(v).expect("utf8 value");
    let mut it = s.split(':');
    let seed = it.next().unwrap().parse().unwrap();
    let ki = it.next().unwrap().parse().unwrap();
    let ver = it.next().unwrap().parse().unwrap();
    (seed, ki, ver)
}

fn small_opts(shards: usize) -> ServeOptions {
    ServeOptions {
        shards,
        db: DbOptions {
            memtable_bytes: 2 << 10, // many flushes + compactions per seed
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    }
}

/// One seed of the storm: random put/delete stream vs the model with
/// readers attached, quiesce, equality, then close-or-crash + reopen and
/// equality again.
fn run_seed(seed: u64, crash: bool) {
    let sdb = Arc::new(ShardedDb::new(small_opts(2 + (seed % 3) as usize)));
    let model_after = {
        let stop = Arc::new(AtomicBool::new(false));
        // The highest version the writer has *started* writing, per key,
        // packed into one atomic word each. Readers must never see a
        // version above it (values come only from the writer) and must
        // never see a key's version go backwards.
        let written: Arc<Vec<AtomicU64>> =
            Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let sdb = Arc::clone(&sdb);
                let stop = Arc::clone(&stop);
                let written = Arc::clone(&written);
                std::thread::spawn(move || {
                    let mut state = seed ^ (r as u64).wrapping_mul(0x9e37_79b9);
                    let mut last_seen = vec![0u64; KEYS];
                    while !stop.load(Ordering::Relaxed) {
                        let ki = (splitmix64(&mut state) % KEYS as u64) as usize;
                        if let Some(v) = sdb.get(&key(seed, ki)) {
                            let (vs, vk, ver) = parse_value(&v);
                            assert_eq!((vs, vk), (seed, ki), "foreign value for key {ki}");
                            let max = written[ki].load(Ordering::Acquire);
                            assert!(ver <= max, "reader saw unwritten version {ver} > {max}");
                            assert!(
                                ver >= last_seen[ki],
                                "key {ki} went backwards: {ver} < {}",
                                last_seen[ki]
                            );
                            last_seen[ki] = ver;
                        }
                    }
                })
            })
            .collect();

        let mut model: BTreeMap<usize, Option<u64>> = BTreeMap::new();
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut next_ver = 1u64;
        for _ in 0..250 {
            let ki = (splitmix64(&mut state) % KEYS as u64) as usize;
            if splitmix64(&mut state).is_multiple_of(5) {
                sdb.delete(&key(seed, ki)).unwrap();
                model.insert(ki, None);
            } else {
                let ver = next_ver;
                next_ver += 1;
                written[ki].store(ver, Ordering::Release);
                sdb.put(&key(seed, ki), &value(seed, ki, ver)).unwrap();
                model.insert(ki, Some(ver));
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        model
    };

    let sdb = Arc::try_unwrap(sdb).ok().expect("readers joined");
    sdb.barrier().unwrap();
    check_equal(&sdb, seed, &model_after, "post-quiesce");

    let disk = if crash {
        sdb.crash(Some(seed))
    } else {
        sdb.close().unwrap()
    };
    let reopened = ShardedDb::open(disk, small_opts(9)).expect("reopen");
    assert_eq!(reopened.shards(), 2 + (seed % 3) as usize, "persisted shard count");
    check_equal(&reopened, seed, &model_after, if crash { "post-crash" } else { "post-close" });
    reopened.close().unwrap();
}

/// Every acknowledged write is durable (a write answers only after the
/// group-commit sync that covers it), so both graceful close and crash
/// recovery must reproduce the model exactly: point gets per key, and
/// the merged scan against the model's live entries.
fn check_equal(sdb: &ShardedDb, seed: u64, model: &BTreeMap<usize, Option<u64>>, when: &str) {
    for ki in 0..KEYS {
        let want = model.get(&ki).cloned().flatten().map(|ver| value(seed, ki, ver));
        assert_eq!(sdb.get(&key(seed, ki)), want, "{when}: seed {seed} key {ki}");
    }
    let lo = format!("s{seed}-key-").into_bytes();
    let hi = format!("s{seed}-key-~").into_bytes();
    let got = sdb.scan(&lo, Some(&hi), 10_000);
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .filter_map(|(&ki, v)| v.map(|ver| (key(seed, ki), value(seed, ki, ver))))
        .collect();
    assert_eq!(got, want, "{when}: seed {seed} scan mismatch");
    // Short scans from every fifth key, live or deleted: the lazy merge
    // stops after `limit` rows whichever shard holds them.
    for start in (0..KEYS).step_by(5) {
        let from = key(seed, start);
        for limit in [1, 7] {
            let want: Vec<_> = want
                .iter()
                .filter(|(k, _)| *k >= from)
                .take(limit)
                .cloned()
                .collect();
            assert_eq!(
                sdb.scan(&from, Some(&hi), limit),
                want,
                "{when}: seed {seed} scan from {start}"
            );
        }
    }
}

#[test]
fn differential_storm_close_and_crash_32_seeds() {
    for seed in 0..32u64 {
        // Even seeds close gracefully; odd seeds crash with a torn tail.
        run_seed(seed, seed % 2 == 1);
    }
}

/// Finds a key owned by `shard` with the given tag.
fn key_on_shard(sdb: &ShardedDb, shard: usize, tag: &str) -> Vec<u8> {
    (0..10_000u32)
        .map(|i| format!("{tag}-{i}").into_bytes())
        .find(|k| sdb.shard_of(k) == shard)
        .expect("no key hashes to shard")
}

#[test]
fn enospc_on_one_shard_is_isolated_and_recoverable() {
    let sdb = ShardedDb::new(small_opts(2));
    let disk = sdb.disk_handle();
    let victim_keys: Vec<Vec<u8>> =
        (0..64).map(|i| key_on_shard(&sdb, 0, &format!("victim{i}"))).collect();
    let healthy_keys: Vec<Vec<u8>> =
        (0..8).map(|i| key_on_shard(&sdb, 1, &format!("healthy{i}"))).collect();

    // Fill shard 0 close to its flush threshold (incompressible values,
    // so the flushed blocks cannot shrink under the clamp), then cap
    // capacity so the triggered flush cannot fit while the small WAL
    // appends leading up to it still can.
    let fat: Vec<u8> = {
        let mut state = 0xfa7u64;
        (0..96).map(|_| splitmix64(&mut state) as u8).collect()
    };
    for k in victim_keys.iter().take(16) {
        sdb.put(k, &fat).unwrap();
    }
    disk.set_capacity_bytes(Some(disk.used_bytes() + 1024));

    // Keep writing to shard 0 until its triggered flush hits the wall.
    // The failing request gets the *typed* error; the shard survives.
    let mut typed = false;
    let mut acked_victims: Vec<usize> = Vec::new();
    'outer: for round in 0..64 {
        for (i, k) in victim_keys.iter().enumerate() {
            match sdb.put(k, &fat) {
                Ok(_) => acked_victims.push(i),
                Err(MemtreeError::Enospc { .. }) => {
                    typed = true;
                    break 'outer;
                }
                Err(e) => panic!("round {round}: expected Enospc, got {e:?}"),
            }
        }
    }
    assert!(typed, "capacity clamp never produced a typed Enospc");

    // The starved shard still answers reads (not wedged) ...
    assert_eq!(
        sdb.get_fresh(&victim_keys[*acked_victims.last().unwrap()]).unwrap().as_deref(),
        Some(fat.as_slice())
    );
    // ... and the sibling shard still takes durable writes.
    for k in &healthy_keys {
        sdb.put(k, b"alive").unwrap();
    }

    // Lift the limit: the victim shard recovers without a reopen.
    disk.set_capacity_bytes(None);
    for k in victim_keys.iter().take(8) {
        sdb.put(k, b"recovered").unwrap();
    }
    sdb.flush_all().unwrap();
    sdb.barrier().unwrap();

    // Oracle: everything acknowledged (on either shard) is present.
    for k in victim_keys.iter().take(8) {
        assert_eq!(sdb.get(k).as_deref(), Some(&b"recovered"[..]));
    }
    for k in &healthy_keys {
        assert_eq!(sdb.get(k).as_deref(), Some(&b"alive"[..]));
    }
    // And it all survives a reopen.
    let reopened = ShardedDb::open(sdb.close().unwrap(), small_opts(2)).unwrap();
    for k in &healthy_keys {
        assert_eq!(reopened.get(k).as_deref(), Some(&b"alive"[..]));
    }
    reopened.close().unwrap();
}

#[test]
fn transient_read_faults_heal_on_every_shard() {
    let sdb = ShardedDb::new(ServeOptions {
        shards: 2,
        db: DbOptions {
            memtable_bytes: 1 << 10,
            cache_blocks: 0, // every snapshot read goes to the disk
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    });
    let disk = sdb.disk_handle();
    disk.faults().enable(7);
    let mut keys = Vec::new();
    for i in 0..200u32 {
        let k = format!("tr-{i:04}").into_bytes();
        sdb.put(&k, format!("v{i}").as_bytes()).unwrap();
        keys.push(k);
    }
    sdb.flush_all().unwrap();
    sdb.barrier().unwrap();

    // Every third disk read fails transiently; the snapshot read path
    // retries with backoff and must still produce every value on both
    // shards, without wedging either worker.
    disk.faults().arm("lsm.disk.read_transient", 0.34, None);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            sdb.get(k).as_deref(),
            Some(format!("v{i}").as_bytes()),
            "transient faults must heal for key {i}"
        );
    }
    disk.faults().disable();
    sdb.close().unwrap();
}
