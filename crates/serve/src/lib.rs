//! Concurrent sharded serving layer (`Shard<N>`) over the LSM engine.
//!
//! [`ShardedDb`] hash-partitions the key space across `N` independent
//! [`Db`] instances that share one [`SimDisk`]. Every operation runs on
//! the calling thread under its shard's lock — the `Db` itself stays
//! single-writer (`Send` but not `Sync`, its hot-path bookkeeping is
//! `Cell`/`RefCell`) — and the one thread the layer starts is the
//! compactor:
//!
//! * **Reads never block behind writers.** Every write republishes an
//!   immutable [`DbSnapshot`] into a [`SnapshotCell`] before it answers.
//!   [`ShardedDb::get`] and [`ShardedDb::scan`] run entirely on these
//!   snapshots; the only shared mutable state they touch is the striped
//!   block cache.
//! * **Writes on the caller.** A put or delete applies its write under
//!   the shard's lock, draws a ticket from the shared group commit,
//!   publishes a snapshot, releases the lock, and only then commits. An
//!   uncontended put makes no thread hand-off.
//! * **Cross-shard group commit.** Unless another writer's sync already
//!   covers its ticket, a writer issues *one* `disk.sync()` covering
//!   every ticket drawn so far, on any shard: one sync barrier is
//!   amortized over every writer of every shard that appended meanwhile —
//!   the multi-shard generalization of single-`Db` group commit. A
//!   writer yields the CPU once before it syncs, so a writer that is
//!   ready to run can append and join the sync: the simulated sync never
//!   blocks, and without the yield, writers sharing a CPU would each
//!   sync alone.
//! * **The compactor.** A locked section that leaves work for
//!   [`Db::compact_debt`] (compaction debt, or level 0 at the slowdown
//!   band) wakes the background compactor, which takes one step per lock
//!   hold, round robin over the flagged shards, until none has work; then
//!   it sleeps.
//! * **Fault isolation.** A typed error on one shard (`Enospc`, a failed
//!   flush) fails *that write* and nothing else: the other writers of its
//!   shard and every sibling shard never see the error.
//!
//! # Overload survival
//!
//! The serving layer is built to *degrade with bounded, typed behavior*
//! instead of blocking or dying when the disk slows down or debt piles
//! up:
//!
//! * **Deadlines.** Every request carries a [`Deadline`] in virtual disk
//!   time. A write whose deadline expires while it waits for its shard is
//!   cancelled with a typed
//!   [`DeadlineExceeded`](MemtreeError::DeadlineExceeded) before it
//!   reaches the WAL; work that already reached the WAL (in-flight
//!   durable work) is never cancelled.
//! * **Admission control.** A request is shed *before* it enters its
//!   shard when the shard already holds [`ServeOptions::queue_depth`]
//!   callers (puts, deletes and fresh reads, running or waiting for its
//!   lock) or when the estimated wait (`depth × est_service_us`) exceeds
//!   the request's remaining deadline budget. Shedding is typed
//!   ([`Backpressure`](MemtreeError::Backpressure)) and counted in
//!   [`ServeStats::shed`].
//! * **Backpressure retries.** The engine's write-stall bands reject
//!   writes with typed `Backpressure`/`Stalled` errors (never an
//!   unbounded block). The serving layer retries those with a jittered,
//!   deterministic backoff that advances the disk's virtual clock by the
//!   engine's `suggested_wait_us`, after the rejected writer relieved
//!   the shard (a flush and one [`Db::compact_debt`] step).
//! * **Panic recovery.** A panic inside a shard's locked section is
//!   caught on the thread it happened on. That thread drops the unwound
//!   `Db` and, still holding the lock, reopens the shard through the
//!   ordinary [`Db::open`] crash-recovery path (the shared disk state is
//!   intact — only unacknowledged writes are lost, and their callers
//!   retry). A shard that keeps dying is **poisoned** after
//!   [`ServeOptions::max_restarts`] reopens: further requests fail fast
//!   with a typed corruption error instead of looping forever.
//! * **Graceful drain.** [`ShardedDb::close`] stops the compactor,
//!   flushes and closes every shard, and reports the first typed error.
//!
//! Shards share the disk through per-shard file namespaces (`s0-wal`,
//! `s1-manifest-3`, …); block-level orphan GC is disabled per shard (one
//! shard must not free its siblings' blocks) and the cross-shard
//! [`gc_orphans`] runs once after every shard is open. The shard count is
//! persisted in a small meta file so a reopen re-partitions identically.

#![warn(missing_docs)]

use memtree_common::error::{MemtreeError, Result};
use memtree_common::hash::hash64;
use memtree_common::SnapshotCell;
use memtree_faults::Backoff;
use memtree_lsm::{
    gc_orphans, Db, DbOptions, DbSnapshot, DbStats, ScanCursor, ScrubReport, SimDisk, StallConfig,
    SCAN_RESERVE_ROWS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// File on the shared disk recording the shard count (decimal ASCII), so
/// a reopen partitions keys exactly as the writer did.
const META_FILE: &str = "serve-meta";

/// The answer to an operation a caught panic interrupted: the shard was
/// reopened, and the operation (put, delete and fresh get are all
/// idempotent) is retried.
const LOST: MemtreeError = MemtreeError::TransientIo { context: "serve-ack-lost" };

/// Configuration for a [`ShardedDb`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Number of shards. A reopen of an existing disk uses the persisted
    /// count and ignores this field.
    pub shards: usize,
    /// Per-shard engine options. `namespace`, `wal_group_commit`,
    /// `compact_on_flush`, and `stall` are overridden by the serving
    /// layer (namespaced files, which also hand orphan-block GC to the
    /// cross-shard pass; cross-shard group commit; compactor-paced
    /// compaction; serving stall bands).
    pub db: DbOptions,
    /// Most callers admitted into one shard at once; admission sheds
    /// past it.
    pub queue_depth: usize,
    /// Default per-request deadline budget in virtual microseconds
    /// ([`SimDisk::now_us`]). `u64::MAX` disables deadlines. Per-call
    /// overrides: [`ShardedDb::put_with_deadline`] and friends.
    pub deadline_us: u64,
    /// Estimated per-request service time (virtual µs) used by admission
    /// control to translate queue depth into expected wait.
    pub est_service_us: u64,
    /// Total attempts (first try + retries) a request makes against
    /// typed overload rejections and panic recoveries before the error
    /// is returned to the caller.
    pub retry_attempts: u32,
    /// A shard that panics is reopened at most this many times; after
    /// that the shard is poisoned and fails fast.
    pub max_restarts: u64,
    /// Write-stall bands for each shard. `None` derives
    /// [`StallConfig::serving`] from the engine options' L0 trigger and
    /// MemTable threshold.
    pub stall: Option<StallConfig>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            shards: 4,
            db: DbOptions::default(),
            queue_depth: 256,
            deadline_us: u64::MAX,
            est_service_us: 50,
            retry_attempts: 8,
            max_restarts: 3,
            stall: None,
        }
    }
}

/// A request deadline in virtual disk time ([`SimDisk::now_us`]).
///
/// Carried on every operation. Expiry cancels **waiting** work only — a
/// write already applied (its WAL frame exists) is in-flight durable
/// work and is never cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at_us: u64,
    budget_us: u64,
}

impl Deadline {
    /// No deadline: the request waits as long as it takes.
    pub fn none() -> Self {
        Self { at_us: u64::MAX, budget_us: u64::MAX }
    }

    /// A deadline `budget_us` virtual microseconds from the disk's
    /// current clock.
    pub fn within(disk: &SimDisk, budget_us: u64) -> Self {
        Self {
            at_us: disk.now_us().saturating_add(budget_us),
            budget_us,
        }
    }

    /// True once the disk clock has reached the deadline.
    pub fn expired(&self, disk: &SimDisk) -> bool {
        self.at_us != u64::MAX && disk.now_us() >= self.at_us
    }

    /// Virtual microseconds left before expiry (saturating).
    pub fn remaining_us(&self, disk: &SimDisk) -> u64 {
        self.at_us.saturating_sub(disk.now_us())
    }

    /// The total budget this deadline was created with.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    fn exceeded(&self) -> MemtreeError {
        MemtreeError::DeadlineExceeded { budget_us: self.budget_us }
    }
}

/// Overload and supervision counters for the whole serving layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests rejected by admission control (shard full, or estimated
    /// wait over the deadline budget) before they entered the shard.
    pub shed: u64,
    /// Requests cancelled because their deadline expired while waiting
    /// (or before admission).
    pub deadline_misses: u64,
    /// Retries driven by typed `Backpressure`/`Stalled` rejections.
    pub overload_retries: u64,
    /// Retries of an operation a caught panic interrupted.
    pub transient_retries: u64,
    /// Shard reopens after a caught panic.
    pub worker_restarts: u64,
    /// Shards poisoned after exhausting their restart budget.
    pub poisoned_shards: u64,
    /// Most callers any shard has held at once (admission-time sample).
    pub max_queue_depth: usize,
}

#[derive(Default)]
struct Counters {
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    overload_retries: AtomicU64,
    transient_retries: AtomicU64,
}

/// One shard: its `Db` behind the lock every operation on it takes, and
/// its published read snapshot.
struct Shard {
    /// `None` once the shard is poisoned or shut down.
    db: Mutex<Option<Db>>,
    snap: SnapshotCell<DbSnapshot>,
    /// Callers inside this shard: incremented at admission, decremented
    /// when the call returns.
    depth: AtomicUsize,
    /// Deepest admission-time depth sample.
    max_depth: AtomicUsize,
    /// Reopens after a caught panic.
    restarts: AtomicU64,
    /// Set when the restart budget is exhausted: fail fast.
    poisoned: AtomicBool,
    /// Set when a locked section left work for [`Db::compact_debt`] or a
    /// compactor step did work; the compactor clears it before its step.
    debt: AtomicBool,
}

/// Locks `m`, recovering the guard from a poisoned lock: every lock here
/// guards state that stays valid if its holder unwinds.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fail-fast answer of a poisoned shard.
fn poisoned(shard: usize) -> MemtreeError {
    MemtreeError::corruption(
        "serve",
        format!("shard {shard} is poisoned (restart budget exhausted)"),
    )
}

/// The cross-shard group commit every writer shares: one `disk.sync()`
/// covers the appends of every shard that drew a ticket before it.
///
/// A writer draws a ticket only after its appends are on the disk, so a
/// sync issued after reading the ticket counter covers every ticket up
/// to the value read — whichever shard issued it.
#[derive(Default)]
struct GroupCommit {
    /// Tickets drawn so far.
    tickets: AtomicU64,
    /// Every ticket up to this one is covered by a completed sync.
    synced: Mutex<u64>,
}

impl GroupCommit {
    /// Draws a ticket. Call it only once the appends it stands for are on
    /// the disk.
    fn ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Makes every append that finished before `ticket` was drawn
    /// durable, with a sync of its own only if no other shard's sync
    /// already covers it. Calls `disk.sync()` directly, not
    /// [`Db::sync`], so the serving path evaluates no WAL fail point.
    fn sync_through(&self, disk: &SimDisk, ticket: u64) {
        // A device sync blocks its caller and frees the CPU; the simulated
        // one does not. Yield the CPU once instead, so a writer that is
        // ready to run appends and draws its ticket first and this sync
        // covers it too. With nothing else runnable the yield returns at
        // once.
        std::thread::yield_now();
        // A holder that panicked leaves a valid lower bound behind: the
        // value is written only after `disk.sync()` returned.
        let mut synced = lock(&self.synced);
        if *synced < ticket {
            let upto = self.tickets.load(Ordering::SeqCst);
            disk.sync();
            *synced = upto;
        }
    }

    /// [`GroupCommit::sync_through`] a ticket drawn now.
    #[cfg(test)]
    fn sync(&self, disk: &SimDisk) {
        self.sync_through(disk, self.ticket());
    }
}

/// What the callers and the compactor share.
struct Inner {
    shards: Vec<Shard>,
    disk: Arc<SimDisk>,
    group: GroupCommit,
    counters: Counters,
    opts: ServeOptions,
    /// The stall bands every shard runs with.
    stall: StallConfig,
    /// The compactor's stop flag, and the condvar that wakes it.
    compactor: (Mutex<bool>, Condvar),
}

/// A hash-partitioned serving layer over `N` LSM shards.
///
/// Writes run on the caller's thread under the owning shard's lock and
/// return once the cross-shard group commit made them durable. Reads
/// are served from per-shard immutable snapshots without ever blocking
/// behind writers. See the module docs for the full architecture and the
/// overload model.
pub struct ShardedDb {
    inner: Arc<Inner>,
    /// `None` once shut down.
    compactor: Option<JoinHandle<()>>,
}

/// The engine options a shard runs with: namespaced files (so GC is
/// left to the cross-shard pass), syncing left to the group commit,
/// compactor-paced compaction, and the serving stall bands.
fn shard_opts(base: &DbOptions, stall: StallConfig, shard: usize) -> DbOptions {
    DbOptions {
        // A namespaced Db skips the orphan-block GC at open; `open` runs
        // the cross-shard `gc_orphans` once every shard is open.
        namespace: format!("s{shard}-"),
        // The group commit owns syncing; appends must never sync.
        wal_group_commit: usize::MAX,
        // Compaction is paced by the compactor and overload relief, so a
        // flush never hides an unbounded merge.
        compact_on_flush: false,
        stall,
        ..base.clone()
    }
}

/// The shard index of a file in a shard namespace (`s<i>-…`).
fn shard_of_file(name: &str) -> Option<usize> {
    name.strip_prefix('s')?.split_once('-')?.0.parse().ok()
}

impl ShardedDb {
    /// Opens a sharded database on a fresh simulated disk.
    pub fn new(opts: ServeOptions) -> Self {
        let disk = Arc::new(SimDisk::new(opts.db.io_read_latency));
        Self::open(disk, opts).expect("fresh sharded open cannot fail")
    }

    /// Opens (or recovers) every shard from `disk`, runs the cross-shard
    /// orphan GC, and starts one thread, the compactor. On a disk that
    /// already holds a sharded database the persisted shard count wins
    /// over `opts.shards`; a count that is unreadable or disagrees with
    /// the shard namespaces on the disk is [`MemtreeError::Corruption`]
    /// with context `"serve-meta"`.
    pub fn open(disk: Arc<SimDisk>, opts: ServeOptions) -> Result<Self> {
        let n = Self::shard_count(&disk, opts.shards)?;
        let stall = opts
            .stall
            .unwrap_or_else(|| StallConfig::serving(opts.db.l0_tables, opts.db.memtable_bytes));
        let mut dbs = Vec::with_capacity(n);
        for i in 0..n {
            dbs.push(Db::open(Arc::clone(&disk), shard_opts(&opts.db, stall, i))?);
        }
        gc_orphans(&disk, &dbs.iter().collect::<Vec<_>>())?;
        let shards = dbs
            .into_iter()
            .map(|db| Shard {
                snap: SnapshotCell::new(db.snapshot()),
                debt: AtomicBool::new(db.compaction_pending()),
                db: Mutex::new(Some(db)),
                depth: AtomicUsize::new(0),
                max_depth: AtomicUsize::new(0),
                restarts: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
            })
            .collect();
        let inner = Arc::new(Inner {
            shards,
            disk,
            group: GroupCommit::default(),
            counters: Counters::default(),
            opts,
            stall,
            compactor: Default::default(),
        });
        let compactor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("memtree-compactor".into())
                .spawn(move || inner.compact())
                .expect("spawn compactor")
        };
        Ok(Self { inner, compactor: Some(compactor) })
    }

    /// The shard count this disk was partitioned with. A disk with no
    /// meta file and no shard namespace is fresh and records `requested`.
    /// Anything else must carry a readable positive count whose shards
    /// `0..n` are exactly the namespaces present (none yet is fine: the
    /// first open wrote the count and stopped before any shard): guessing
    /// a count re-partitions the keyspace and silently hides acknowledged
    /// keys, so a mismatch is a typed corruption and the file is left
    /// as found.
    fn shard_count(disk: &SimDisk, requested: usize) -> Result<usize> {
        let present: std::collections::BTreeSet<usize> =
            disk.file_names().iter().filter_map(|f| shard_of_file(f)).collect();
        let raw = disk.read_file(META_FILE);
        if raw.is_empty() && present.is_empty() {
            let n = requested.max(1);
            disk.write_file_atomic(META_FILE, n.to_string().as_bytes())?;
            disk.sync();
            return Ok(n);
        }
        let n = std::str::from_utf8(&raw)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| {
                MemtreeError::corruption(
                    "serve-meta",
                    format!("shard count unreadable: {:?}", String::from_utf8_lossy(&raw)),
                )
            })?;
        if !present.is_empty() && !present.iter().copied().eq(0..n) {
            return Err(MemtreeError::corruption(
                "serve-meta",
                format!("records {n} shards but the disk holds shard namespaces {present:?}"),
            ));
        }
        Ok(n)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shared simulated disk.
    pub fn disk_handle(&self) -> Arc<SimDisk> {
        Arc::clone(&self.inner.disk)
    }

    /// Which shard owns `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (hash64(key) % self.inner.shards.len() as u64) as usize
    }

    /// The default deadline for an operation: [`ServeOptions::deadline_us`]
    /// from now, or [`Deadline::none`] when deadlines are disabled.
    pub fn deadline(&self) -> Deadline {
        if self.inner.opts.deadline_us == u64::MAX {
            Deadline::none()
        } else {
            Deadline::within(&self.inner.disk, self.inner.opts.deadline_us)
        }
    }

    /// Overload and supervision counters.
    pub fn stats(&self) -> ServeStats {
        let (counters, shards) = (&self.inner.counters, &self.inner.shards);
        ServeStats {
            shed: counters.shed.load(Ordering::Relaxed),
            deadline_misses: counters.deadline_misses.load(Ordering::Relaxed),
            overload_retries: counters.overload_retries.load(Ordering::Relaxed),
            transient_retries: counters.transient_retries.load(Ordering::Relaxed),
            worker_restarts: shards.iter().map(|s| s.restarts.load(Ordering::Relaxed)).sum(),
            poisoned_shards: shards
                .iter()
                .filter(|s| s.poisoned.load(Ordering::Relaxed))
                .count() as u64,
            max_queue_depth: shards
                .iter()
                .map(|s| s.max_depth.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Inserts or overwrites `key`, returning its WAL sequence number on
    /// the owning shard. Returns once the cross-shard group commit has
    /// made the write durable. Typed overload rejections are retried with
    /// jittered backoff up to [`ServeOptions::retry_attempts`] times under
    /// the default [`ShardedDb::deadline`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64> {
        self.put_with_deadline(key, value, self.deadline())
    }

    /// [`ShardedDb::put`] under an explicit deadline.
    pub fn put_with_deadline(&self, key: &[u8], value: &[u8], deadline: Deadline) -> Result<u64> {
        let shard = self.shard_of(key);
        self.request(shard, deadline, hash64(key), || {
            self.inner.write(shard, key, Some(value), deadline)
        })
    }

    /// Deletes `key` (durable tombstone), with `put`'s ack semantics.
    pub fn delete(&self, key: &[u8]) -> Result<u64> {
        self.delete_with_deadline(key, self.deadline())
    }

    /// [`ShardedDb::delete`] under an explicit deadline.
    pub fn delete_with_deadline(&self, key: &[u8], deadline: Deadline) -> Result<u64> {
        let shard = self.shard_of(key);
        self.request(shard, deadline, hash64(key), || {
            self.inner.write(shard, key, None, deadline)
        })
    }

    /// Snapshot point read: never blocks behind writers; sees every write
    /// up to the owning shard's last published snapshot. Keeps serving
    /// (possibly stale) reads even from a poisoned shard.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.shards[self.shard_of(key)].snap.load().get(key)
    }

    /// Read-your-writes point read under the owning shard's lock: sees
    /// every write the shard has applied, published or not.
    pub fn get_fresh(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_fresh_with_deadline(key, self.deadline())
    }

    /// [`ShardedDb::get_fresh`] under an explicit deadline.
    pub fn get_fresh_with_deadline(
        &self,
        key: &[u8],
        deadline: Deadline,
    ) -> Result<Option<Vec<u8>>> {
        let shard = self.shard_of(key);
        self.request(shard, deadline, hash64(key), || {
            self.inner.locked(shard, |db| Ok(db.get(key)))
        })
    }

    /// One admitted call into `shard` with deadline enforcement and
    /// retries.
    ///
    /// Retried errors: `Backpressure`/`Stalled` (after a jittered
    /// virtual-clock wait of roughly the engine's suggestion) and
    /// [`LOST`] — safe because put/delete/get are idempotent. Everything
    /// else returns immediately.
    fn request<T>(
        &self,
        shard: usize,
        deadline: Deadline,
        salt: u64,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let (slot, opts) = (&self.inner.shards[shard], &self.inner.opts);
        let mut last: Option<MemtreeError> = None;
        for attempt in 0..opts.retry_attempts.max(1) {
            if slot.poisoned.load(Ordering::Relaxed) {
                return Err(poisoned(shard));
            }
            if deadline.expired(&self.inner.disk) {
                self.inner.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                return Err(deadline.exceeded());
            }
            if let Some(err) = &last {
                self.backoff(err, salt, attempt);
            }
            // Admission control: shed before entering when the shard is
            // full or the expected wait cannot fit the deadline budget.
            let depth = slot.depth.load(Ordering::Relaxed);
            let est_wait = (depth as u64).saturating_mul(opts.est_service_us);
            if depth >= opts.queue_depth || est_wait > deadline.remaining_us(&self.inner.disk) {
                self.inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                last = Some(MemtreeError::Backpressure {
                    suggested_wait_us: est_wait.max(opts.est_service_us),
                });
                continue;
            }
            let d = slot.depth.fetch_add(1, Ordering::Relaxed) + 1;
            slot.max_depth.fetch_max(d, Ordering::Relaxed);
            let out = op();
            slot.depth.fetch_sub(1, Ordering::Relaxed);
            match out {
                Ok(v) => return Ok(v),
                Err(e) if e.is_overload() => {
                    self.inner.counters.overload_retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Err(e) if e == LOST => {
                    self.inner.counters.transient_retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(MemtreeError::TransientIo { context: "serve-retries-exhausted" }))
    }

    /// Deterministic jittered backoff: advance the virtual clock by the
    /// engine's suggested wait (plus up to 50% keyed jitter so
    /// synchronized retries fan out), and yield a bounded slice of real
    /// time so the compactor can drain debt.
    fn backoff(&self, err: &MemtreeError, salt: u64, attempt: u32) {
        let est = self.inner.opts.est_service_us.max(1);
        let base = match err {
            MemtreeError::Backpressure { suggested_wait_us } => (*suggested_wait_us).max(1),
            MemtreeError::Stalled { .. } => est * 4,
            _ => est,
        };
        let jitter = hash64(&salt.wrapping_add(attempt as u64).to_le_bytes()) % (base / 2 + 1);
        self.inner.disk.advance_clock(base + jitter);
        std::thread::sleep(Duration::from_micros(50u64 << attempt.min(6)));
    }

    /// Merged cross-shard range scan over the current snapshots: up to
    /// `limit` live entries with `lk <= key` (`< hk` when bounded), in
    /// global key order.
    ///
    /// One lazy merge over one [`ScanCursor`] per shard: a shard reads a
    /// block only when its smallest unread key is the merge's next, and
    /// only the rows returned are copied out — the scan reads the rows it
    /// returns, not `limit` rows from every shard.
    pub fn scan(&self, lk: &[u8], hk: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let snaps = self.shard_snapshots();
        let mut cursors: Vec<ScanCursor<'_>> = snaps.iter().map(|s| s.cursor(lk, hk)).collect();
        let mut out = Vec::with_capacity(limit.min(SCAN_RESERVE_ROWS));
        while out.len() < limit {
            // Shards partition the key space, so their keys never tie:
            // the shard with the smallest bound goes next.
            let mut next: Option<(usize, &[u8], bool)> = None;
            for (s, cursor) in cursors.iter_mut().enumerate() {
                if let Some((k, known)) = cursor.bound() {
                    if next.is_none_or(|(_, b, _)| k < b) {
                        next = Some((s, k, known));
                    }
                }
            }
            let Some((s, _, known)) = next else { break };
            // A bound that is not yet a known row is read first and the
            // shards compared again: its key may turn out deleted.
            let cursor = &mut cursors[s];
            if let (true, Some((k, v))) = (known, cursor.peek()) {
                out.push((k.to_vec(), v.to_vec()));
                cursor.advance();
            }
        }
        out
    }

    /// The current published snapshot of each shard (index = shard id).
    pub fn shard_snapshots(&self) -> Vec<Arc<DbSnapshot>> {
        self.inner.shards.iter().map(|s| s.snap.load()).collect()
    }

    /// Runs `f` under every shard's lock in turn (index = shard id),
    /// stopping at the first error.
    fn each_shard<T>(&self, f: impl Fn(&Shard, &mut Db) -> Result<T>) -> Result<Vec<T>> {
        let inner = &self.inner;
        (0..inner.shards.len())
            .map(|i| inner.locked(i, |db| f(&inner.shards[i], db)))
            .collect()
    }

    /// Online scrub & repair on every shard (index = shard id): verifies
    /// every live block, rewrites what a clean re-read or cache copy can
    /// save, and lifts quarantines that validate — then republishes the
    /// shard's snapshot so rescued data is immediately visible. Each
    /// report lists the repairs and every key range left at risk.
    pub fn scrub_all(&self) -> Result<Vec<ScrubReport>> {
        self.each_shard(|shard, db| {
            let report = db.scrub();
            shard.snap.swap(Arc::new(db.snapshot()));
            report
        })
    }

    /// Samples every shard's engine debt/overload counters
    /// (index = shard id).
    pub fn shard_db_stats(&self) -> Result<Vec<DbStats>> {
        self.each_shard(|_, db| Ok(db.stats()))
    }

    /// Republishes every shard's snapshot. Every acknowledged write is
    /// already visible to [`ShardedDb::get`]/[`ShardedDb::scan`] (its
    /// write published before answering), and so is every compactor
    /// step (it publishes the merge it made); this also shows what an
    /// explicit flush or scrub changed since. Returns each shard's
    /// snapshot epoch after the republish.
    pub fn barrier(&self) -> Result<Vec<u64>> {
        self.each_shard(|shard, db| Ok(shard.snap.swap(Arc::new(db.snapshot()))))
    }

    /// Forces a MemTable flush on every shard. The first shard error is
    /// returned, but every shard is asked to flush regardless.
    pub fn flush_all(&self) -> Result<()> {
        let mut first_err = None;
        for i in 0..self.shards() {
            if let Err(e) = self.inner.locked(i, |db| db.flush().map(drop)) {
                first_err = first_err.or(Some(e));
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Graceful shutdown: stops the compactor, flushes and closes every
    /// shard, and returns the shared disk for reopening. The first typed
    /// error any shard reports (a poisoned shard is one) is returned.
    pub fn close(mut self) -> Result<Arc<SimDisk>> {
        self.shutdown(false)?;
        Ok(Arc::clone(&self.inner.disk))
    }

    /// Simulated power loss: every shard's database is dropped without
    /// closing (no final flush, no sync), then the disk drops all
    /// unsynced state. Returns the disk for crash-recovery reopening.
    pub fn crash(mut self, tear_seed: Option<u64>) -> Arc<SimDisk> {
        let _ = self.shutdown(true);
        let disk = Arc::clone(&self.inner.disk);
        disk.crash(tear_seed);
        disk
    }

    /// Stops and joins the compactor, then takes every shard's `Db` and
    /// closes it (`die` drops it instead). Does nothing a second time.
    fn shutdown(&mut self, die: bool) -> Result<()> {
        let Some(compactor) = self.compactor.take() else { return Ok(()) };
        let (stop, wake) = &self.inner.compactor;
        *lock(stop) = true;
        wake.notify_one();
        let joined = compactor.join();
        let mut first_err =
            joined.err().map(|_| MemtreeError::corruption("serve", "the compactor panicked"));
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let closed = match lock(&shard.db).take() {
                Some(db) if die => {
                    drop(db);
                    Ok(())
                }
                Some(db) => db.close().map(drop),
                None => Err(poisoned(i)),
            };
            first_err = first_err.or(closed.err());
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        // A plain drop (no close/crash) still stops the compactor and
        // closes every shard.
        let _ = self.shutdown(false);
    }
}

impl Inner {
    /// Runs `f` on shard `i`'s `Db` under the shard's lock, on the calling
    /// thread, and flags the shard for the compactor if a successful `f`
    /// left work for [`Db::compact_debt`]. A panic in `f` is caught here:
    /// [`Inner::recover`] reopens the shard under the same lock and the
    /// caller gets [`LOST`].
    fn locked<T>(&self, i: usize, f: impl FnOnce(&mut Db) -> Result<T>) -> Result<T> {
        let shard = &self.shards[i];
        let mut guard = lock(&shard.db);
        let Some(db) = guard.as_mut() else { return Err(poisoned(i)) };
        let out = catch_unwind(AssertUnwindSafe(|| {
            if self.disk.faults().should_fail("serve.worker.panic") {
                panic!("injected: serve.worker.panic (shard {i})");
            }
            f(&mut *db)
        }));
        match out {
            Ok(out) => {
                if out.is_ok() && db.compaction_pending() {
                    self.flag_debt(i);
                }
                out
            }
            Err(_) => {
                self.recover(i, &mut guard);
                Err(LOST)
            }
        }
    }

    /// Flags shard `i` for the compactor, waking it unless the flag was
    /// already up.
    fn flag_debt(&self, i: usize) {
        if !self.shards[i].debt.swap(true, Ordering::SeqCst) {
            let _stop = lock(&self.compactor.0);
            self.compactor.1.notify_one();
        }
    }

    /// Reopens shard `i` after a panic unwound through its `Db`, on the
    /// thread that caught it and under the lock it holds: the unwound
    /// `Db` is dropped and ordinary crash recovery ([`Db::open`]) rebuilds
    /// the shard from the shared disk with every WAL-appended write.
    /// Transient disk faults during the reopen retry on a bounded
    /// backoff. Past [`ServeOptions::max_restarts`] reopens, or when the
    /// reopen fails, the shard is poisoned and stays empty.
    fn recover(&self, i: usize, db: &mut Option<Db>) {
        *db = None;
        let shard = &self.shards[i];
        if shard.restarts.fetch_add(1, Ordering::SeqCst) >= self.opts.max_restarts {
            shard.poisoned.store(true, Ordering::SeqCst);
            return;
        }
        let opts = shard_opts(&self.opts.db, self.stall, i);
        let mut backoff = Backoff::new(8);
        loop {
            match Db::open(Arc::clone(&self.disk), opts.clone()) {
                Ok(reopened) => {
                    // The recovered state is a superset of the last
                    // published snapshot.
                    shard.snap.swap(Arc::new(reopened.snapshot()));
                    *db = Some(reopened);
                    return;
                }
                Err(e) if backoff.retry(&e) => {}
                Err(_) => {
                    shard.poisoned.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    /// One write (`value` `None` deletes) to shard `i`: applied under the
    /// shard's lock with a group-commit ticket drawn and a snapshot
    /// published, then made durable outside the lock.
    fn write(&self, i: usize, key: &[u8], value: Option<&[u8]>, deadline: Deadline) -> Result<u64> {
        let shard = &self.shards[i];
        let mut ticket = 0;
        let applied = self.locked(i, |db| {
            let seq = self.apply(db, key, value, deadline)?;
            // Drawn before the publish, so a sync another writer starts
            // meanwhile covers this write too.
            ticket = self.group.ticket();
            shard.snap.swap(Arc::new(db.snapshot()));
            Ok(seq)
        });
        if applied.is_ok() {
            self.group.sync_through(&self.disk, ticket);
        }
        applied
    }

    /// Applies one write unless its deadline passed while it waited; an
    /// overload rejection relieves the shard before it is answered.
    fn apply(
        &self,
        db: &mut Db,
        key: &[u8],
        value: Option<&[u8]>,
        deadline: Deadline,
    ) -> Result<u64> {
        if deadline.expired(&self.disk) {
            self.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
            return Err(deadline.exceeded());
        }
        let applied = match value {
            Some(value) => db.put(key, value),
            None => db.delete(key),
        };
        relieve_overload(db, &applied);
        applied
    }

    /// The compactor's loop: one [`Db::compact_debt`] step per lock hold,
    /// round robin over the flagged shards (a step that did work flags its
    /// shard again), sleeping while none is flagged. A step that merged
    /// publishes the shard's new snapshot, so readers of a shard that
    /// takes no more writes stop probing the merged-away tables, and then
    /// releases those tables' blocks once no reader holds them.
    fn compact(&self) {
        let (stop, wake) = &self.compactor;
        let n = self.shards.len();
        let mut next = 0;
        loop {
            let i = {
                let mut stopped = lock(stop);
                loop {
                    if *stopped {
                        return;
                    }
                    let flagged = (next..next + n)
                        .map(|k| k % n)
                        .find(|&i| self.shards[i].debt.load(Ordering::SeqCst));
                    if let Some(i) = flagged {
                        break i;
                    }
                    stopped = wake.wait(stopped).unwrap_or_else(PoisonError::into_inner);
                }
            };
            next = i + 1;
            self.shards[i].debt.store(false, Ordering::SeqCst);
            let step = self.locked(i, |db| {
                let merged = db.compact_debt()?;
                if merged {
                    self.shards[i].snap.swap(Arc::new(db.snapshot()));
                    db.reap_graveyard()?;
                }
                Ok(merged)
            });
            if let Ok(true) = step {
                self.flag_debt(i);
            }
        }
    }
}

/// After a typed overload rejection, relieve the shard before the caller
/// backs off and retries: a stalled engine gets a flush attempt plus a
/// compaction step, a slowed-down one gets a compaction step. Relief
/// errors are deliberately dropped — the rejection itself is what the
/// caller sees, and flush/compaction surface their own typed errors on
/// the next direct call.
fn relieve_overload(db: &mut Db, applied: &Result<u64>) {
    match applied {
        Err(MemtreeError::Stalled { .. }) => {
            let _ = db.flush();
            let _ = db.compact_debt();
        }
        Err(MemtreeError::Backpressure { .. }) => {
            let _ = db.compact_debt();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_db_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ShardedDb>();
    }

    #[test]
    fn writes_route_and_reads_see_them_after_barrier() {
        let sdb = ShardedDb::new(ServeOptions { shards: 3, ..ServeOptions::default() });
        for i in 0..500u32 {
            let k = format!("key-{i:05}");
            sdb.put(k.as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        sdb.barrier().unwrap();
        for i in 0..500u32 {
            let k = format!("key-{i:05}");
            assert_eq!(
                sdb.get(k.as_bytes()).as_deref(),
                Some(format!("val-{i}").as_bytes()),
                "{k}"
            );
        }
        // Fresh reads bypass snapshot lag entirely.
        sdb.put(b"late", b"v").unwrap();
        assert_eq!(sdb.get_fresh(b"late").unwrap().as_deref(), Some(&b"v"[..]));
        // Cross-shard scan comes back in global key order.
        let all = sdb.scan(b"key-", Some(b"key-~"), usize::MAX);
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
        let disk = sdb.close().unwrap();
        // Reopen recovers everything, with the persisted shard count.
        let reopened =
            ShardedDb::open(disk, ServeOptions { shards: 9, ..ServeOptions::default() })
                .unwrap();
        assert_eq!(reopened.shards(), 3, "persisted shard count must win");
        for i in (0..500u32).step_by(11) {
            let k = format!("key-{i:05}");
            assert_eq!(
                reopened.get(k.as_bytes()).as_deref(),
                Some(format!("val-{i}").as_bytes())
            );
        }
        reopened.close().unwrap();
    }

    /// A served scan reads what each shard reads when asked for only its
    /// own share of the rows: the cross-shard merge reads nothing past the
    /// rows it returns. The counts are pinned; asking every shard for
    /// `limit` rows, as the merge did before it was lazy, read 7, 12 and 6
    /// blocks for the three non-empty scans below.
    #[test]
    fn scan_reads_only_the_blocks_of_the_rows_it_returns() {
        let sdb = ShardedDb::new(ServeOptions {
            shards: 2,
            db: DbOptions {
                cache_blocks: 0,
                ..DbOptions::default()
            },
            ..ServeOptions::default()
        });
        // Three interleaved flushes per shard, below the L0 trigger: no
        // compaction reads behind the counts taken here.
        for round in 0..3u32 {
            for i in (round..3000).step_by(3) {
                sdb.put(format!("key-{i:05}").as_bytes(), &[7u8; 100])
                    .unwrap();
            }
            sdb.flush_all().unwrap();
        }
        sdb.barrier().unwrap();
        let reads = |scan: &dyn Fn()| {
            let before = sdb.inner.disk.stats().block_reads;
            scan();
            sdb.inner.disk.stats().block_reads - before
        };
        let snaps = sdb.shard_snapshots();
        for (start, limit, want) in [(0, 0, 0), (100, 50, 6), (1234, 100, 10), (2950, 100, 6)] {
            let lo = format!("key-{start:05}");
            let lo = lo.as_bytes();
            let rows = sdb.scan(lo, None, limit);
            assert_eq!(rows.len(), limit.min(3000 - start));
            let own_share: u64 = (0..2)
                .map(|s| {
                    let n = rows.iter().filter(|(k, _)| sdb.shard_of(k) == s).count();
                    reads(&|| drop(snaps[s].scan_from(lo, None, n)))
                })
                .sum();
            let served = reads(&|| drop(sdb.scan(lo, None, limit)));
            assert_eq!(
                (served, own_share),
                (want, want),
                "scan of {limit} from {start}"
            );
        }
    }

    /// 200 acked keys on 2 shards, closed cleanly.
    fn closed_two_shard_disk() -> Arc<SimDisk> {
        let sdb = ShardedDb::new(ServeOptions { shards: 2, ..ServeOptions::default() });
        for i in 0..200u32 {
            sdb.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        sdb.close().unwrap()
    }

    /// `open` must refuse `meta` with a typed error and leave it as found;
    /// with the writer's count back in place every acked key reads back.
    fn assert_meta_refused(meta: &[u8], requested: usize) {
        let disk = closed_two_shard_disk();
        disk.write_file_atomic(META_FILE, meta).unwrap();
        disk.sync();
        let opts = ServeOptions { shards: requested, ..ServeOptions::default() };
        match ShardedDb::open(Arc::clone(&disk), opts.clone()) {
            Err(MemtreeError::Corruption { context: "serve-meta", .. }) => {}
            Err(e) => panic!("expected serve-meta corruption, got {e:?}"),
            Ok(db) => panic!("opened {} shards over a 2-shard disk", db.shards()),
        }
        assert_eq!(disk.read_file(META_FILE), meta, "a refused open must not rewrite the file");
        disk.write_file_atomic(META_FILE, b"2").unwrap();
        disk.sync();
        let reopened = ShardedDb::open(disk, opts).unwrap();
        for i in 0..200u32 {
            let k = format!("key-{i:05}");
            assert_eq!(reopened.get(k.as_bytes()).as_deref(), Some(&b"v"[..]), "{k}");
        }
        reopened.close().unwrap();
    }

    #[test]
    fn shard_count_disagreeing_with_the_disk_fails_open() {
        assert_meta_refused(b"3", 2); // one flipped bit of "2"
    }

    #[test]
    fn unparsable_shard_count_fails_open() {
        assert_meta_refused(b"\xffgarbage", 5);
        assert_meta_refused(b"", 2); // shard namespaces without a count
    }

    #[test]
    fn deletes_are_visible_and_durable() {
        let sdb = ShardedDb::new(ServeOptions { shards: 2, ..ServeOptions::default() });
        for i in 0..100u32 {
            sdb.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in (0..100u32).step_by(2) {
            sdb.delete(format!("k{i}").as_bytes()).unwrap();
        }
        sdb.barrier().unwrap();
        for i in 0..100u32 {
            let got = sdb.get(format!("k{i}").as_bytes());
            if i % 2 == 0 {
                assert_eq!(got, None, "k{i} should be deleted");
            } else {
                assert_eq!(got.as_deref(), Some(&b"v"[..]));
            }
        }
        let disk = sdb.close().unwrap();
        let reopened = ShardedDb::open(disk, ServeOptions::default()).unwrap();
        for i in 0..100u32 {
            let got = reopened.get(format!("k{i}").as_bytes());
            if i % 2 == 0 {
                assert_eq!(got, None, "k{i} deleted state must survive reopen");
            } else {
                assert_eq!(got.as_deref(), Some(&b"v"[..]));
            }
        }
        reopened.close().unwrap();
    }

    #[test]
    fn group_commit_batches_syncs_across_shards() {
        let sdb = ShardedDb::new(ServeOptions { shards: 4, ..ServeOptions::default() });
        let sdb = Arc::new(sdb);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let sdb = Arc::clone(&sdb);
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        sdb.put(format!("t{t}-k{i}").as_bytes(), b"v").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let stats = sdb.disk_handle().stats();
        assert!(
            stats.syncs < 1000,
            "1000 concurrent durable writes should group-commit well below \
             one sync each, saw {} syncs",
            stats.syncs
        );
        Arc::try_unwrap(sdb).ok().expect("sole owner").close().unwrap();
    }

    /// The ticket protocol, without timing. In each contended round the
    /// test holds the group-commit lock until all four threads have
    /// appended a record to their own file and drawn a ticket, so exactly
    /// one of them syncs for all four. Then each file gets one commit on
    /// its own, which no other sync covers. Every acked record survives a
    /// crash; the one appended after the last commit does not.
    #[test]
    fn group_commit_tickets_make_every_acked_append_durable() {
        const THREADS: usize = 4;
        const ROUNDS: u32 = 50;
        let disk = Arc::new(SimDisk::new(Duration::ZERO));
        let group = Arc::new(GroupCommit::default());
        let start = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let done = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (disk, group) = (Arc::clone(&disk), Arc::clone(&group));
                let (start, done) = (Arc::clone(&start), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    for r in 0..ROUNDS {
                        start.wait();
                        disk.append(&format!("t{t}"), &r.to_le_bytes()).unwrap();
                        group.sync(&disk);
                        acked.push(r);
                        done.wait();
                    }
                    acked
                })
            })
            .collect();
        for round in 1..=ROUNDS as u64 {
            let held = group.synced.lock().unwrap();
            start.wait();
            while group.tickets.load(Ordering::SeqCst) < round * THREADS as u64 {
                std::thread::yield_now();
            }
            drop(held);
            done.wait();
        }
        let mut acked: Vec<Vec<u32>> = threads.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(disk.stats().syncs, ROUNDS as u64, "one sync per round of {THREADS} commits");
        for (t, acked) in acked.iter_mut().enumerate() {
            disk.append(&format!("t{t}"), &ROUNDS.to_le_bytes()).unwrap();
            group.sync(&disk);
            acked.push(ROUNDS);
        }
        let commits = (ROUNDS as u64 + 1) * THREADS as u64;
        let syncs = disk.stats().syncs;
        assert_eq!(syncs, ROUNDS as u64 + THREADS as u64, "a lone commit syncs for itself");
        assert!(syncs < commits);
        for t in 0..THREADS {
            disk.append(&format!("t{t}"), &(ROUNDS + 1).to_le_bytes()).unwrap();
        }
        disk.crash(None);
        for (t, acked) in acked.iter().enumerate() {
            let durable: Vec<u32> = disk
                .read_file(&format!("t{t}"))
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(&durable, acked, "thread {t}: durable records after the crash");
        }
    }

    #[test]
    fn overlong_value_fails_only_its_own_request() {
        let sdb = ShardedDb::new(ServeOptions { shards: 2, ..ServeOptions::default() });
        sdb.put(b"a", b"1").unwrap();
        // Typed, not retried as overload, and acked without reaching the
        // WAL: neither the shard nor the group commit notices.
        let err = sdb.put(b"b", &vec![0x5a; 70_000]).unwrap_err();
        assert_eq!(err, MemtreeError::Allocation { bytes: 70_000 });
        let err = sdb.delete(&vec![0x5a; 70_000]).unwrap_err();
        assert_eq!(err, MemtreeError::Allocation { bytes: 70_000 });
        sdb.put(b"c", b"3").unwrap();
        sdb.flush_all().unwrap();
        sdb.barrier().unwrap();
        assert_eq!(sdb.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(sdb.get(b"b"), None);
        assert_eq!(sdb.get(b"c").as_deref(), Some(&b"3"[..]));
        let stats = sdb.stats();
        assert_eq!((stats.overload_retries, stats.worker_restarts), (0, 0));
        sdb.close().unwrap();
    }

    #[test]
    fn expired_deadline_is_typed_and_cancels_nothing_durable() {
        let sdb = ShardedDb::new(ServeOptions { shards: 2, ..ServeOptions::default() });
        let disk = sdb.disk_handle();
        sdb.put(b"k1", b"v1").unwrap();
        // A deadline already in the past: typed rejection, no side effects.
        let dead = Deadline::within(&disk, 10);
        disk.advance_clock(1_000);
        let err = sdb.put_with_deadline(b"k2", b"v2", dead).unwrap_err();
        assert!(matches!(err, MemtreeError::DeadlineExceeded { budget_us: 10 }));
        let err = sdb.get_fresh_with_deadline(b"k1", dead).unwrap_err();
        assert!(matches!(err, MemtreeError::DeadlineExceeded { .. }));
        assert!(sdb.stats().deadline_misses >= 2);
        // The durable write before the miss is untouched.
        sdb.barrier().unwrap();
        assert_eq!(sdb.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(sdb.get(b"k2"), None, "expired put must not be applied");
        sdb.close().unwrap();
    }

    #[test]
    fn shard_panic_recovers_without_losing_acked_writes() {
        let sdb = ShardedDb::new(ServeOptions {
            shards: 2,
            max_restarts: 64,
            ..ServeOptions::default()
        });
        let disk = sdb.disk_handle();
        disk.faults().enable(0xC0FFEE);
        let mut acked = Vec::new();
        for i in 0..200u32 {
            let k = format!("k{i:04}");
            if sdb.put(k.as_bytes(), b"v").is_ok() {
                acked.push(k);
            }
            if i == 50 || i == 120 {
                // Panic the next locked shard section.
                disk.faults().arm("serve.worker.panic", 1.0, Some(1));
                // Poke both shards so the armed point actually fires.
                let _ = sdb.put(b"poke-a", b"x");
                let _ = sdb.put(b"poke-b", b"x");
            }
        }
        disk.faults().disarm("serve.worker.panic");
        let stats = sdb.stats();
        assert!(stats.worker_restarts >= 1, "no restart happened: {stats:?}");
        assert_eq!(stats.poisoned_shards, 0);
        sdb.barrier().unwrap();
        for k in &acked {
            assert_eq!(
                sdb.get(k.as_bytes()).as_deref(),
                Some(&b"v"[..]),
                "acked write {k} lost after worker restart"
            );
        }
        disk.faults().disable();
        sdb.close().unwrap();

        // Panics landing while acks are pending: four writers on one
        // shard, so a writer dies with others queued on its lock. Every
        // `Ok` survives a torn crash; every `Err` is a typed transient.
        let sdb = Arc::new(ShardedDb::new(ServeOptions {
            shards: 1,
            max_restarts: 64,
            ..ServeOptions::default()
        }));
        let disk = sdb.disk_handle();
        disk.faults().enable(0xC0FFEE);
        disk.faults().arm("serve.worker.panic", 0.05, Some(5));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let sdb = Arc::clone(&sdb);
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    for i in 0..100u32 {
                        let k = format!("w{t}-k{i:03}");
                        match sdb.put(k.as_bytes(), k.as_bytes()) {
                            Ok(_) => acked.push(k),
                            Err(e) => assert!(
                                matches!(e, MemtreeError::TransientIo { .. }),
                                "untyped failure for {k}: {e:?}"
                            ),
                        }
                    }
                    acked
                })
            })
            .collect();
        let acked: Vec<String> = writers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        disk.faults().disable();
        sdb.barrier().unwrap(); // a restart still under way has finished
        let stats = sdb.stats();
        assert!(stats.worker_restarts >= 1, "no restart happened: {stats:?}");
        assert_eq!(stats.poisoned_shards, 0);
        let sdb = Arc::try_unwrap(sdb).ok().expect("sole owner");
        let reopened = ShardedDb::open(sdb.crash(Some(0xC0FFEE)), ServeOptions::default()).unwrap();
        for k in &acked {
            assert_eq!(
                reopened.get(k.as_bytes()).as_deref(),
                Some(k.as_bytes()),
                "acked write {k} lost across a panic and a crash"
            );
        }
        reopened.close().unwrap();
    }

    /// A shard that panics while the disk is full comes back: recovery
    /// needs no free space, so the shard keeps serving reads and fails
    /// writes typed until space returns, instead of being poisoned.
    #[test]
    fn shard_panic_on_a_full_disk_reopens_instead_of_poisoning() {
        // Retries outlast the reopen, so the put's answer comes from
        // the reopened shard.
        let sdb = ShardedDb::new(ServeOptions {
            shards: 1,
            retry_attempts: 64,
            ..ServeOptions::default()
        });
        for i in 0..50u32 {
            sdb.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let disk = sdb.disk_handle();
        disk.set_capacity_bytes(Some(disk.used_bytes()));
        disk.faults().enable(1);
        disk.faults().arm("serve.worker.panic", 1.0, Some(1));
        let err = sdb.put(b"x", b"y").unwrap_err();
        assert!(matches!(err, MemtreeError::Enospc { .. }), "{err:?}");
        let stats = sdb.stats();
        assert_eq!((stats.worker_restarts, stats.poisoned_shards), (1, 0), "{stats:?}");
        assert_eq!(sdb.get(b"k7").as_deref(), Some(&b"v"[..]));
        disk.set_capacity_bytes(None);
        sdb.put(b"x", b"y").unwrap();
        sdb.close().unwrap();
    }

    #[test]
    fn poisoned_shard_fails_fast_and_siblings_keep_serving() {
        let sdb = ShardedDb::new(ServeOptions {
            shards: 2,
            max_restarts: 1,
            retry_attempts: 3,
            ..ServeOptions::default()
        });
        let disk = sdb.disk_handle();
        disk.faults().enable(7);
        // Find one key per shard.
        let mut keys: Vec<Option<String>> = vec![None, None];
        for i in 0.. {
            let k = format!("probe{i}");
            let s = sdb.shard_of(k.as_bytes());
            if keys[s].is_none() {
                keys[s] = Some(k);
            }
            if keys.iter().all(Option::is_some) {
                break;
            }
        }
        let (k0, k1) = (keys[0].take().unwrap(), keys[1].take().unwrap());
        let victim = sdb.shard_of(k0.as_bytes());
        // Exhaust the restart budget: every locked section panics.
        disk.faults().arm("serve.worker.panic", 1.0, None);
        for _ in 0..8 {
            let _ = sdb.put(k0.as_bytes(), b"x");
            if sdb.stats().poisoned_shards > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        disk.faults().disarm("serve.worker.panic");
        // Poisoning happened on the caller that panicked, so this wait
        // returns at once.
        for _ in 0..200 {
            if sdb.stats().poisoned_shards > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = sdb.stats();
        assert_eq!(stats.poisoned_shards, 1, "victim shard must poison: {stats:?}");
        let err = sdb.put(k0.as_bytes(), b"x").unwrap_err();
        assert!(
            matches!(err, MemtreeError::Corruption { .. }),
            "poisoned shard must fail fast with a typed error, got {err:?}"
        );
        // The sibling shard is unaffected.
        assert!(sdb.shard_of(k1.as_bytes()) != victim);
        sdb.put(k1.as_bytes(), b"v").unwrap();
        assert_eq!(sdb.get_fresh(k1.as_bytes()).unwrap().as_deref(), Some(&b"v"[..]));
        disk.faults().disable();
        // Close reports the poisoning as a typed error.
        assert!(sdb.close().is_err());
    }

    #[test]
    fn backpressure_is_retried_transparently_under_debt() {
        // Tiny memtable + a stop band *below* the flush threshold: nothing
        // drains a memtable but the write path, so every band crossing
        // must reject typed, and success proves the retry loop and
        // writer-side relief (flush + debt drain) actually converge —
        // deterministically, independent of thread scheduling.
        let sdb = ShardedDb::new(ServeOptions {
            shards: 1,
            db: DbOptions { memtable_bytes: 2 << 10, ..DbOptions::default() },
            stall: Some(StallConfig {
                slowdown_l0_runs: 1,
                stop_l0_runs: 4,
                slowdown_memtable_bytes: 1 << 10,
                stop_memtable_bytes: 1 << 10,
            }),
            retry_attempts: 64,
            ..ServeOptions::default()
        });
        for i in 0..400u32 {
            let k = format!("key-{i:05}");
            sdb.put(k.as_bytes(), &[0x5A; 64]).unwrap();
        }
        let stats = sdb.stats();
        assert!(
            stats.overload_retries > 0,
            "tight bands should have rejected at least once: {stats:?}"
        );
        let db_stats = sdb.shard_db_stats().unwrap();
        assert!(db_stats[0].backpressure_rejections > 0 || db_stats[0].stall_rejections > 0);
        assert!(db_stats[0].compact_steps > 0, "relief never compacted: {db_stats:?}");
        sdb.barrier().unwrap();
        for i in (0..400u32).step_by(37) {
            let k = format!("key-{i:05}");
            assert_eq!(sdb.get(k.as_bytes()).as_deref(), Some(&[0x5A; 64][..]), "{k}");
        }
        sdb.close().unwrap();
    }

    /// Level 0 at the slowdown band is work for `compact_debt` even when
    /// no level is over its limit: the flush that leaves it there wakes
    /// the compactor, which merges it before any write is rejected.
    #[test]
    fn compactor_merges_level0_at_the_slowdown_band() {
        let db = DbOptions::default();
        let sdb = ShardedDb::new(ServeOptions {
            shards: 1,
            stall: Some(StallConfig {
                slowdown_l0_runs: 1,
                ..StallConfig::serving(db.l0_tables, db.memtable_bytes)
            }),
            db,
            ..ServeOptions::default()
        });
        sdb.put(b"k", b"v").unwrap();
        sdb.flush_all().unwrap();
        let flushed = sdb.shard_db_stats().unwrap()[0];
        assert_eq!(flushed.compaction_debt_bytes, 0, "{flushed:?}");
        let patience = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let stats = sdb.shard_db_stats().unwrap()[0];
            if stats.l0_runs == 0 {
                assert!(stats.compact_steps > 0, "{stats:?}");
                break;
            }
            assert!(std::time::Instant::now() < patience, "level 0 never merged: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sdb.stats().overload_retries, 0);
        sdb.barrier().unwrap();
        assert_eq!(sdb.get(b"k").as_deref(), Some(&b"v"[..]));
        sdb.close().unwrap();
    }

    /// A compactor step publishes the merge it made: a shard whose last
    /// write left level 0 over its limit, and which takes no writes after
    /// it, serves the merged shape once its debt is gone — no barrier.
    #[test]
    fn the_compactor_publishes_its_merges() {
        let db = DbOptions { memtable_bytes: 16 << 10, ..DbOptions::default() };
        let l0_limit = db.l0_tables;
        let sdb = ShardedDb::new(ServeOptions { shards: 1, db, ..ServeOptions::default() });
        let key = |run: usize, i: usize| format!("key-{i:03}-{run}").into_bytes();
        for run in 0..l0_limit {
            for i in 0..50 {
                sdb.put(&key(run, i), &[run as u8; 100]).unwrap();
            }
            sdb.flush_all().unwrap();
        }
        assert_eq!(sdb.shard_db_stats().unwrap()[0].compaction_debt_bytes, 0);
        // The last put fills the MemTable: its flush puts one run too many
        // into level 0, and the snapshot it publishes shows that.
        sdb.put(b"last", &[9u8; 16 << 10]).unwrap();
        let patience = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let stats = sdb.shard_db_stats().unwrap()[0];
            if stats.compaction_debt_bytes == 0 {
                assert!(stats.compact_steps > 0, "{stats:?}");
                break;
            }
            assert!(std::time::Instant::now() < patience, "debt never drained: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        let merged = sdb.inner.locked(0, |db| Ok(db.level_sizes())).unwrap();
        assert_eq!(merged[0], 0, "level 0 merged down");
        assert_eq!(sdb.shard_snapshots()[0].level_sizes(), merged, "the snapshot shows the merge");
        assert_eq!(sdb.get(&key(0, 7)).as_deref(), Some(&[0u8; 100][..]));
        sdb.close().unwrap();
    }

    /// Writers queued on one shard share one sync, without timing. The
    /// test holds the shard's lock while three writers queue behind it,
    /// lets one writer's deadline pass, and releases the lock while it
    /// still holds the group-commit lock: the expired write is refused
    /// before it reaches the WAL, the other two draw their tickets, and
    /// once the group-commit lock is free one sync covers both. Both
    /// survive a crash.
    #[test]
    fn queued_writes_commit_with_one_sync() {
        let sdb = ShardedDb::new(ServeOptions { shards: 2, ..ServeOptions::default() });
        let disk = sdb.disk_handle();
        let keys: Vec<Vec<u8>> = (0..)
            .map(|i| format!("group-{i}").into_bytes())
            .filter(|k| sdb.shard_of(k) == 0)
            .take(3)
            .collect();
        let (shard, group) = (&sdb.inner.shards[0], &sdb.inner.group);
        let (syncs, tickets) = (disk.stats().syncs, group.tickets.load(Ordering::SeqCst));
        let held = shard.db.lock().unwrap();
        let syncing = group.synced.lock().unwrap();
        let (first, second, expired) = std::thread::scope(|s| {
            let first = s.spawn(|| sdb.put(&keys[0], b"v"));
            let second = s.spawn(|| sdb.put(&keys[1], b"v"));
            // Budget enough to pass admission behind two callers.
            let doomed = Deadline::within(&disk, 1_000);
            let (db, key) = (&sdb, &keys[2]);
            let expired = s.spawn(move || db.put_with_deadline(key, b"v", doomed));
            while shard.depth.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            disk.advance_clock(2_000);
            drop(held);
            while group.tickets.load(Ordering::SeqCst) < tickets + 2 {
                std::thread::yield_now();
            }
            drop(syncing);
            (first.join().unwrap(), second.join().unwrap(), expired.join().unwrap())
        });
        assert_eq!(disk.stats().syncs - syncs, 1, "one sync for both writes");
        assert!(
            matches!(expired, Err(MemtreeError::DeadlineExceeded { budget_us: 1_000 })),
            "{expired:?}"
        );
        let (first, second) = (first.unwrap(), second.unwrap());
        assert_ne!(first, second, "each write has its own seq");
        let reopened = ShardedDb::open(sdb.crash(None), ServeOptions::default()).unwrap();
        assert_eq!(reopened.get(&keys[0]).as_deref(), Some(&b"v"[..]));
        assert_eq!(reopened.get(&keys[1]).as_deref(), Some(&b"v"[..]));
        assert_eq!(reopened.get(&keys[2]), None, "the expired write never reached the WAL");
        reopened.close().unwrap();
    }

    /// A panic while the group-commit lock is held poisons it; later
    /// commits carry on, and what they acknowledge is durable.
    #[test]
    fn group_commit_survives_a_poisoned_lock() {
        let disk = Arc::new(SimDisk::new(Duration::ZERO));
        let group = Arc::new(GroupCommit::default());
        let poisoner = Arc::clone(&group);
        let _ = std::thread::spawn(move || {
            let _held = poisoner.synced.lock().unwrap();
            panic!("poisons the group-commit lock");
        })
        .join();
        assert!(group.synced.is_poisoned());
        disk.append("log", b"acked").unwrap();
        group.sync(&disk);
        assert_eq!(disk.stats().syncs, 1);
        disk.crash(None);
        assert_eq!(disk.read_file("log"), b"acked");
    }
}
