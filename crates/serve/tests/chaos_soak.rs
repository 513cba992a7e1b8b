//! Chaos soak for the serving layer: seeded storms that combine every
//! recoverable fault class at once, under concurrent YCSB-shaped load,
//! against a per-writer model.
//!
//! Each seed runs phases of mixed faults — slow-I/O burst storms (both
//! the seeded latency profile and the armed `lsm.disk.slow_io` point),
//! transient read faults, corrupt read returns (bit rot on the wire; the
//! stored block is intact so read-repair heals), temporary ENOSPC
//! windows, and injected shard panics — while writer threads drive
//! put/delete/get/scan traffic and a snapshot reader hammers the lock-free
//! read path.
//!
//! The oracle is acknowledgement-based, so it is sound under any thread
//! interleaving and any fault timing:
//!
//! * An **acknowledged** write (`Ok`) pins its key to exactly that value
//!   until the next operation on the key. Zero acked-write loss, ever —
//!   including across a torn crash + reopen, because acks follow the
//!   group-commit sync.
//! * A **failed** write leaves the key with a *set* of acceptable values
//!   (the op may or may not have landed before the error — e.g. an ack
//!   lost to a shard panic after the WAL append).
//! * Every error must be **typed and expected**: overload rejections,
//!   deadline misses, transient I/O, ENOSPC, injected faults, or a
//!   serve-layer supervision transition. Anything else fails the seed.
//! * A watchdog fails the seed if the op stream stops making progress
//!   (deadlock / livelock detector) — the stall bands and deadline paths
//!   must reject, never block unboundedly.
//!
//! Seeds come from `MEMTREE_FAULT_SEEDS` (`"lo..hi"`, default `0..32`)
//! so CI can shard the range across jobs.

use memtree_common::check::seed_range;
use memtree_common::error::MemtreeError;
use memtree_common::hash::splitmix64;
use memtree_lsm::{DbOptions, SlowIo};
use memtree_serve::{ServeOptions, ShardedDb};
use memtree_workload::ycsb::{Dist, Mix, Op, OpGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 2;
const OPS_PER_WRITER: usize = 300;
const KEYS_PER_WRITER: usize = 48;
const PHASES: usize = 6;

fn soak_opts(seed: u64) -> ServeOptions {
    ServeOptions {
        shards: 2 + (seed % 3) as usize,
        db: DbOptions {
            memtable_bytes: 2 << 10, // constant flush pressure
            cache_blocks: 8,         // most reads touch the (faulty) disk
            ..DbOptions::default()
        },
        queue_depth: 64,
        // Generous virtual budget: slow-I/O storms advance the clock by
        // hundreds of µs per op, so tight budgets would turn every op
        // into a deadline miss instead of exercising the full path. A
        // fraction still expires under the worst bursts — also valid.
        deadline_us: 2_000_000,
        retry_attempts: 24,
        // Restarts are the point of the storm; never poison.
        max_restarts: u64::MAX,
        ..ServeOptions::default()
    }
}

fn key(writer: usize, ki: usize) -> Vec<u8> {
    format!("w{writer}-key-{ki:04}").into_bytes()
}

/// Acceptable states for one key: `Ok` acks collapse the set to the new
/// value; failed ops add the attempted outcome without removing what was
/// there (the op may or may not have landed).
type Acceptable = BTreeMap<usize, Vec<Option<Vec<u8>>>>;

fn record_ok(model: &mut Acceptable, ki: usize, v: Option<Vec<u8>>) {
    model.insert(ki, vec![v]);
}

fn record_uncertain(model: &mut Acceptable, ki: usize, v: Option<Vec<u8>>) {
    let entry = model.entry(ki).or_insert_with(|| vec![None]);
    if !entry.contains(&v) {
        entry.push(v);
    }
}

/// Every error the storm is allowed to produce. Anything outside this
/// list (or an untyped panic reaching the writer) fails the seed.
fn assert_expected(seed: u64, e: &MemtreeError) {
    let ok = matches!(
        e,
        MemtreeError::Backpressure { .. }
            | MemtreeError::Stalled { .. }
            | MemtreeError::DeadlineExceeded { .. }
            | MemtreeError::TransientIo { .. }
            | MemtreeError::Enospc { .. }
            | MemtreeError::Injected { .. }
    ) || matches!(e, MemtreeError::Corruption { context, .. } if *context == "serve");
    assert!(ok, "seed {seed}: unexpected error class during storm: {e:?}");
}

/// One writer's YCSB-shaped stream over its own key range (disjoint
/// between writers, so each can keep an exact local model).
fn writer_loop(
    sdb: &ShardedDb,
    seed: u64,
    writer: usize,
    ops_done: &AtomicU64,
) -> Acceptable {
    let mut model: Acceptable = BTreeMap::new();
    let mut gen = OpGenerator::with_dist(
        Mix::A,
        KEYS_PER_WRITER,
        seed ^ (writer as u64).wrapping_mul(0x9e37_79b9),
        Dist::Uniform,
    );
    let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ writer as u64 | 1;
    let mut ver = 0u64;
    for _ in 0..OPS_PER_WRITER {
        let op = gen.next();
        let ki = match op {
            Op::Read(i) | Op::Update(i) | Op::Scan(i, _) => i % KEYS_PER_WRITER,
            Op::Insert(i) => i % KEYS_PER_WRITER,
        };
        let k = key(writer, ki);
        match op {
            Op::Update(_) | Op::Insert(_) => {
                // One in six mutations is a delete, so tombstones ride
                // through every fault class too.
                if splitmix64(&mut state).is_multiple_of(6) {
                    match sdb.delete(&k) {
                        Ok(_) => record_ok(&mut model, ki, None),
                        Err(e) => {
                            assert_expected(seed, &e);
                            record_uncertain(&mut model, ki, None);
                        }
                    }
                } else {
                    ver += 1;
                    let v = format!("w{writer}:{ki}:{ver}").into_bytes();
                    match sdb.put(&k, &v) {
                        Ok(_) => record_ok(&mut model, ki, Some(v)),
                        Err(e) => {
                            assert_expected(seed, &e);
                            record_uncertain(&mut model, ki, Some(v));
                        }
                    }
                }
            }
            Op::Read(_) => {
                // Locked-shard read: the value (or error) must be typed;
                // content is checked at quiesce.
                if let Err(e) = sdb.get_fresh(&k) {
                    assert_expected(seed, &e);
                }
            }
            Op::Scan(_, len) => {
                let _ = sdb.scan(&k, None, len.min(16));
            }
        }
        ops_done.fetch_add(1, Ordering::Relaxed);
    }
    model
}

/// Reconfigures the fault cocktail for one phase of the storm. All
/// classes are recoverable by construction: stored bytes stay intact,
/// capacity windows end, storms pass, and panicked shards reopen.
fn arm_phase(disk: &memtree_lsm::SimDisk, seed: u64, phase: usize) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase as u64;
    let roll = splitmix64(&mut s);
    // Slow I/O: alternate between a seeded storm profile and calm.
    if roll.is_multiple_of(2) {
        disk.set_slow_io(Some(SlowIo::storm(seed ^ phase as u64)));
        disk.faults().arm("lsm.disk.slow_io", 0.2, Some(200));
    } else {
        disk.set_slow_io(None);
        disk.faults().disarm("lsm.disk.slow_io");
    }
    // Transient reads and wire-level bit rot, throttled by budgets.
    disk.faults().arm("lsm.disk.read_transient", 0.10, Some(150));
    disk.faults().arm("lsm.disk.read_corrupt", 0.05, Some(40));
    // A temporary ENOSPC window roughly every third phase.
    if roll.is_multiple_of(3) {
        disk.set_capacity_bytes(Some(disk.used_bytes() + 6 * 1024));
    } else {
        disk.set_capacity_bytes(None);
    }
    // Shard panics in half the phases (budgeted, so the reopen path
    // runs a handful of times per seed, not constantly).
    if roll % 2 == 1 {
        disk.faults().arm("serve.worker.panic", 0.01, Some(2));
    } else {
        disk.faults().disarm("serve.worker.panic");
    }
}

fn disarm_all(disk: &memtree_lsm::SimDisk) {
    disk.set_slow_io(None);
    disk.set_capacity_bytes(None);
    for p in [
        "lsm.disk.slow_io",
        "lsm.disk.read_transient",
        "lsm.disk.read_corrupt",
        "serve.worker.panic",
    ] {
        disk.faults().disarm(p);
    }
}

/// Verifies one writer's model against the quiesced snapshot state.
fn check_model(sdb: &ShardedDb, seed: u64, writer: usize, model: &Acceptable, when: &str) {
    for (&ki, acceptable) in model {
        let got = sdb.get(&key(writer, ki));
        let got_ref = got.as_deref().map(|v| v.to_vec());
        assert!(
            acceptable.contains(&got_ref),
            "seed {seed} {when}: writer {writer} key {ki}: got {:?}, acceptable {:?}",
            got_ref.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
            acceptable
                .iter()
                .map(|o| o.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()))
                .collect::<Vec<_>>(),
        );
        // Zero acked-write loss: a singleton set means the last op on
        // this key was acknowledged, so equality is exact.
        if acceptable.len() == 1 {
            assert_eq!(
                got_ref, acceptable[0],
                "seed {seed} {when}: acked write lost on writer {writer} key {ki}"
            );
        }
    }
}

/// Quiesce after the storm: a shard may still be mid-reopen, so retry
/// the barrier for a bounded wall-clock window.
fn settle(sdb: &ShardedDb, seed: u64) {
    for _ in 0..500 {
        if sdb.barrier().is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("seed {seed}: serving layer never quiesced after the storm");
}

fn run_seed(seed: u64) {
    let sdb = Arc::new(ShardedDb::new(soak_opts(seed)));
    let disk = sdb.disk_handle();
    disk.faults().enable(seed);

    let ops_done = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Watchdog: the op stream (plus the disk's virtual clock, which
    // moves whenever retries back off) must keep advancing. A minute of
    // wall time with zero progress means a deadlock — fail loudly
    // instead of hanging CI.
    let watchdog = {
        let ops_done = Arc::clone(&ops_done);
        let stop = Arc::clone(&stop);
        let disk = Arc::clone(&disk);
        std::thread::spawn(move || {
            let mut last = (0u64, 0u64);
            let mut stuck = 0u32;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let now = (ops_done.load(Ordering::Relaxed), disk.now_us());
                if now == last {
                    stuck += 1;
                    assert!(
                        stuck < 600,
                        "seed {seed}: no progress for 60s at {now:?} — deadlock"
                    );
                } else {
                    stuck = 0;
                    last = now;
                }
            }
        })
    };

    // Snapshot reader: hammers the lock-free path through every fault
    // phase; it must never panic and never wedge.
    let reader = {
        let sdb = Arc::clone(&sdb);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut state = seed | 1;
            while !stop.load(Ordering::Relaxed) {
                let w = (splitmix64(&mut state) % WRITERS as u64) as usize;
                let ki = (splitmix64(&mut state) % KEYS_PER_WRITER as u64) as usize;
                let _ = sdb.get(&key(w, ki));
                if splitmix64(&mut state).is_multiple_of(16) {
                    let _ = sdb.scan(&key(w, 0), None, 8);
                }
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let sdb = Arc::clone(&sdb);
            let ops_done = Arc::clone(&ops_done);
            std::thread::spawn(move || writer_loop(&sdb, seed, w, &ops_done))
        })
        .collect();

    // Drive the storm phases off writer progress.
    let total = (WRITERS * OPS_PER_WRITER) as u64;
    let mut phase = 0usize;
    while phase < PHASES {
        let due = total * (phase as u64) / PHASES as u64;
        if ops_done.load(Ordering::Relaxed) >= due {
            arm_phase(&disk, seed, phase);
            phase += 1;
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let models: Vec<Acceptable> = writers
        .into_iter()
        .map(|w| w.join().expect("writer panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader panicked");

    // Calm the disk, let restarts finish, and quiesce.
    disarm_all(&disk);
    settle(&sdb, seed);
    // Online scrub: every quarantine in this storm came from wire-level
    // rot (the stored bytes are intact), so scrub must lift them all and
    // report zero acknowledged data at risk.
    let reports = sdb
        .scrub_all()
        .unwrap_or_else(|e| panic!("seed {seed}: scrub failed: {e:?}"));
    for (shard, r) in reports.iter().enumerate() {
        assert!(
            r.lost_ranges.is_empty(),
            "seed {seed}: shard {shard} scrub reports acked data at risk: {:?}",
            r.lost_ranges
        );
    }
    for (w, model) in models.iter().enumerate() {
        check_model(&sdb, seed, w, model, "after storm");
    }
    let stats = sdb.stats();
    assert_eq!(stats.poisoned_shards, 0, "seed {seed}: {stats:?}");

    stop.store(true, Ordering::Relaxed);
    let sdb = Arc::try_unwrap(sdb).ok().expect("sole owner");
    if seed.is_multiple_of(2) {
        // Graceful close + reopen: everything survives verbatim.
        let disk = sdb.close().unwrap_or_else(|e| panic!("seed {seed}: close failed: {e:?}"));
        let reopened = ShardedDb::open(disk, soak_opts(seed)).expect("reopen");
        for (w, model) in models.iter().enumerate() {
            check_model(&reopened, seed, w, model, "after close+reopen");
        }
        reopened.close().unwrap();
    } else {
        // Torn crash + recovery: acked writes survive by construction
        // (acks follow the group-commit sync); failed ops stay inside
        // their acceptable sets.
        let disk = sdb.crash(Some(seed));
        let reopened = ShardedDb::open(disk, soak_opts(seed)).expect("crash recovery");
        for (w, model) in models.iter().enumerate() {
            check_model(&reopened, seed, w, model, "after crash+recovery");
        }
        reopened.close().unwrap();
    }
    let _ = watchdog.join();
}

#[test]
fn chaos_soak_combined_fault_storms() {
    let seeds = seed_range();
    assert!(!seeds.is_empty(), "empty MEMTREE_FAULT_SEEDS range");
    for seed in seeds {
        run_seed(seed);
    }
}
