//! Overload gates for the serving layer: write-stall bands, admission
//! shedding, and a slow-I/O storm.
//!
//! Each test drives a fixed, seeded load and asserts only on counters and
//! on the disk's virtual clock, never on wall-clock time, so the outcome
//! does not depend on how the host schedules the client threads.

use memtree_common::hash::splitmix64;
use memtree_lsm::{DbOptions, SlowIo, StallConfig};
use memtree_serve::{ServeOptions, ShardedDb};

const CLIENTS: usize = 8;

fn key(i: usize) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("base-{i:08}-payload").into_bytes()
}

/// Bands armed tighter than the compaction trigger force typed
/// `Backpressure` / `Stalled` rejections that the serve layer retries
/// (with debt drains) until every write lands.
#[test]
fn stall_bands_reject_then_every_write_lands() {
    const WRITES: usize = 600;
    let sdb = ShardedDb::new(ServeOptions {
        shards: 2,
        db: DbOptions {
            memtable_bytes: 2 << 10,
            ..DbOptions::default()
        },
        // The memtable stop band sits *below* the flush threshold, so the
        // gate is scheduling-independent: nothing drains a memtable except
        // the write path or an explicit flush, so every crossing of the
        // band must reject a write with a typed `Stalled` that the serve
        // layer relieves (flush), retries, and lands. The L0 band at 1 run
        // additionally converts compaction lag into `Backpressure` that
        // the relief's compact_debt drains.
        stall: Some(StallConfig {
            slowdown_l0_runs: 1,
            stop_l0_runs: 4,
            slowdown_memtable_bytes: 1 << 10,
            stop_memtable_bytes: 1 << 10,
        }),
        retry_attempts: 64,
        ..ServeOptions::default()
    });
    let per_client = WRITES / CLIENTS;
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let sdb = &sdb;
            s.spawn(move || {
                for i in (t * per_client)..((t + 1) * per_client) {
                    sdb.put(&key(i), &value(i))
                        .unwrap_or_else(|e| panic!("write {i} exhausted retries: {e:?}"));
                }
            });
        }
    });
    sdb.barrier().unwrap();
    let stats = sdb.stats();
    let db_stats = sdb.shard_db_stats().unwrap();
    let rejections: u64 =
        db_stats.iter().map(|s| s.backpressure_rejections + s.stall_rejections).sum();
    assert!(rejections > 0, "bands this tight must reject at least once ({db_stats:?})");
    assert!(stats.overload_retries > 0, "rejected writes must have been retried ({stats:?})");
    for i in (0..WRITES).step_by(97) {
        assert_eq!(sdb.get(&key(i)), Some(value(i)), "acked write {i} lost under backpressure");
    }
    sdb.close().unwrap();
}

/// More clients than queue slots under a seeded slow-I/O storm: some
/// requests must be shed at admission, and the queue depth must stay
/// bounded (shedding, not buffering, absorbs the overload).
#[test]
fn oversubscribed_queue_sheds_with_bounded_depth() {
    const QUEUE_DEPTH: usize = 2;
    const PER_CLIENT: usize = 300;
    let sdb = ShardedDb::new(ServeOptions {
        shards: 2,
        queue_depth: QUEUE_DEPTH,
        retry_attempts: 64,
        db: DbOptions {
            memtable_bytes: 4 << 10,
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    });
    sdb.disk_handle().set_slow_io(Some(SlowIo::storm(0xBEEF)));
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let sdb = &sdb;
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let k = format!("shed{t}-{i:06}").into_bytes();
                    sdb.put(&k, b"overload-payload")
                        .unwrap_or_else(|e| panic!("write {t}/{i} exhausted retries: {e:?}"));
                }
            });
        }
    });
    let stats = sdb.stats();
    assert!(
        stats.shed > 0,
        "{CLIENTS} clients against {QUEUE_DEPTH} queue slots must shed ({stats:?})"
    );
    let bound = QUEUE_DEPTH + CLIENTS;
    assert!(
        stats.max_queue_depth <= bound,
        "queue depth {} exceeded bound {bound}: admission control leaked",
        stats.max_queue_depth
    );
    sdb.disk_handle().set_slow_io(None);
    sdb.close().unwrap();
}

/// Tail latency under a slow-I/O storm, measured on the virtual disk
/// clock (the same clock deadlines run on): the storm must actually have
/// delayed I/O, and p99 must come out finite.
#[test]
fn slow_io_storm_keeps_a_finite_virtual_p99() {
    const LOADED: usize = 1_000;
    const OPS: usize = 400;
    let sdb = ShardedDb::new(ServeOptions {
        shards: 2,
        db: DbOptions {
            memtable_bytes: 64 << 10,
            cache_blocks: 16,
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    });
    for i in 0..LOADED {
        sdb.put(&key(i), &value(i)).unwrap();
    }
    sdb.flush_all().unwrap();
    sdb.barrier().unwrap();
    let disk = sdb.disk_handle();
    let delay_before = disk.stats().slow_io_delay_us;
    disk.set_slow_io(Some(SlowIo::storm(0x570a)));
    let mut lat = Vec::with_capacity(OPS);
    let mut state = 0x5eed_u64;
    for i in 0..OPS {
        let k = key((splitmix64(&mut state) % LOADED as u64) as usize);
        let t0 = disk.now_us();
        if i % 4 == 0 {
            sdb.put(&k, b"storm-overwrite-payload").unwrap();
        } else {
            sdb.get_fresh(&k).unwrap();
        }
        lat.push(disk.now_us().saturating_sub(t0));
    }
    let delayed = disk.stats().slow_io_delay_us - delay_before;
    assert!(delayed > 0, "the storm never delayed an I/O");
    disk.set_slow_io(None);
    lat.sort_unstable();
    let p99 = lat[(lat.len() - 1) * 99 / 100];
    assert!(p99 < 60_000_000, "p99 {p99} virtual us is not a finite tail: requests wedged");
    sdb.close().unwrap();
}
