//! Concurrent sharded serving layer (`Shard<N>`) over the LSM engine.
//!
//! [`ShardedDb`] hash-partitions the key space across `N` independent
//! [`Db`] instances that share one [`SimDisk`]. Each shard is owned by a
//! dedicated **worker thread** fed over a bounded channel — the `Db`
//! itself stays single-writer (`Send` but not `Sync`, its hot-path
//! bookkeeping is `Cell`/`RefCell`), and all cross-thread coordination
//! happens at the edges:
//!
//! * **Reads never block behind writers.** Every worker republishes an
//!   immutable [`DbSnapshot`] into a [`SnapshotCell`] whenever its queue
//!   drains (and at the latest every [`ServeOptions::publish_every`]
//!   writes). [`ShardedDb::get`] and [`ShardedDb::scan`] run entirely on
//!   these snapshots from the caller's thread; the only shared mutable
//!   state they touch is the striped block cache.
//! * **Cross-shard group commit.** Workers append WAL frames without
//!   syncing and hold the acks. Whenever its queue drains (and at the
//!   latest every [`ServeOptions::publish_every`] writes) a worker
//!   commits its batch itself: it draws a ticket from the shared group
//!   commit, and unless another shard's sync already covers the ticket
//!   it issues *one* `disk.sync()` covering every ticket drawn so far, on
//!   any shard. It then marks its own WAL durable
//!   ([`Db::mark_synced_through`]) and acks each write. A durable put is
//!   two thread hand-offs (client → worker → client), and one sync
//!   barrier is amortized over all shards — the multi-shard
//!   generalization of single-`Db` group commit.
//! * **Fault isolation.** A typed error on one shard (`Enospc`, a failed
//!   flush) fails *that request's* acknowledgement and nothing else: the
//!   worker keeps serving, and sibling shards never see the error.
//!
//! # Overload survival
//!
//! The serving layer is built to *degrade with bounded, typed behavior*
//! instead of blocking or dying when the disk slows down or debt piles
//! up:
//!
//! * **Deadlines.** Every queued request carries a [`Deadline`] in
//!   virtual disk time. A request whose deadline expires while it is
//!   still queued is cancelled with a typed
//!   [`DeadlineExceeded`](MemtreeError::DeadlineExceeded); work that
//!   already reached the WAL (in-flight durable work) is never cancelled.
//! * **Admission control.** A request is shed *before* it enqueues when
//!   the shard's queue is full or when the estimated queue wait
//!   (`depth × est_service_us`) exceeds the request's remaining deadline
//!   budget. Shedding is typed
//!   ([`Backpressure`](MemtreeError::Backpressure)) and counted in
//!   [`ServeStats::shed`].
//! * **Backpressure retries.** The engine's write-stall bands reject
//!   writes with typed `Backpressure`/`Stalled` errors (never an
//!   unbounded block). The serving layer retries those with a jittered,
//!   deterministic backoff that advances the disk's virtual clock by the
//!   engine's `suggested_wait_us`, while the worker drains compaction
//!   debt one [`Db::compact_step`] at a time.
//! * **Supervision.** Worker panics are caught; a supervisor thread
//!   reopens the shard through the ordinary [`Db::open`] crash-recovery
//!   path (the shared disk state is intact — only unacknowledged,
//!   unappended requests are lost) and swaps in a fresh worker. A shard
//!   that keeps dying is **poisoned** after
//!   [`ServeOptions::max_restarts`] restarts: further requests fail fast
//!   with a typed corruption error instead of looping forever.
//! * **Graceful drain.** [`ShardedDb::close`] drains every queue, lets
//!   each worker flush and close its shard, and reports the first typed
//!   error it saw.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// File on the shared disk recording the shard count (decimal ASCII), so
/// a reopen partitions keys exactly as the writer did.
const META_FILE: &str = "serve-meta";

/// Bounded attempts for control-plane sends (flush/barrier/stats) into a
/// momentarily full or restarting shard queue before declaring it wedged.
const CTL_SEND_ATTEMPTS: usize = 2_000;

/// Configuration for a [`ShardedDb`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Number of shards (worker threads). A reopen of an existing disk
    /// uses the persisted count and ignores this field.
    pub shards: usize,
    /// Per-shard engine options. `namespace`, `gc_orphans`,
    /// `wal_group_commit`, `compact_on_flush`, and `stall` are overridden
    /// by the serving layer (namespaced files, cross-shard GC,
    /// cross-shard group commit, worker-paced compaction, serving stall
    /// bands).
    pub db: DbOptions,
    /// Bounded depth of each shard's request queue.
    pub queue_depth: usize,
    /// A worker republishes its read snapshot and group-commits its
    /// pending writes at the latest after this many writes (sooner
    /// whenever its queue drains), so this also bounds a commit batch.
    pub publish_every: usize,
    /// Default per-request deadline budget in virtual microseconds
    /// ([`SimDisk::now_us`]). `u64::MAX` disables deadlines. Per-call
    /// overrides: [`ShardedDb::put_with_deadline`] and friends.
    pub deadline_us: u64,
    /// Estimated per-request service time (virtual µs) used by admission
    /// control to translate queue depth into expected wait.
    pub est_service_us: u64,
    /// Total attempts (first try + retries) a request makes against
    /// typed overload rejections and worker restarts before the error is
    /// returned to the caller.
    pub retry_attempts: u32,
    /// A shard worker that panics is restarted at most this many times;
    /// after that the shard is poisoned and fails fast.
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
            publish_every: 256,
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
/// Carried on every queued operation. Expiry cancels **queued** work only
/// — an operation the worker has already applied (its WAL frame exists)
/// is in-flight durable work and is never cancelled.
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
    /// Requests rejected by admission control (queue full, or estimated
    /// wait over the deadline budget) before they enqueued.
    pub shed: u64,
    /// Requests cancelled because their deadline expired while queued
    /// (or before admission).
    pub deadline_misses: u64,
    /// Retries driven by typed `Backpressure`/`Stalled` rejections.
    pub overload_retries: u64,
    /// Retries driven by a restarting worker (disconnected queue or a
    /// dropped acknowledgement).
    pub transient_retries: u64,
    /// Worker panics recovered by the supervisor.
    pub worker_restarts: u64,
    /// Shards poisoned after exhausting their restart budget.
    pub poisoned_shards: u64,
    /// Deepest any shard queue has been (admission-time sample).
    pub max_queue_depth: usize,
}

#[derive(Default)]
struct Counters {
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    overload_retries: AtomicU64,
    transient_retries: AtomicU64,
}

/// A request to one shard worker. Acks are one-shot rendezvous channels.
enum Request {
    /// Insert/overwrite; acked with the write's WAL seq once durable.
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
        deadline: Deadline,
        ack: SyncSender<Result<u64>>,
    },
    /// Tombstone write; acked like `Put`.
    Delete {
        key: Vec<u8>,
        deadline: Deadline,
        ack: SyncSender<Result<u64>>,
    },
    /// Read-your-writes point read through the owning worker.
    Get {
        key: Vec<u8>,
        deadline: Deadline,
        ack: SyncSender<Result<Option<Vec<u8>>>>,
    },
    /// Force a MemTable flush on this shard.
    Flush { ack: SyncSender<Result<()>> },
    /// Publish a fresh snapshot, then ack (read-visibility barrier).
    Barrier { ack: SyncSender<u64> },
    /// Sample this shard's engine debt/overload counters.
    Stats { ack: SyncSender<DbStats> },
    /// Online scrub & repair, republishing the snapshot afterwards.
    Scrub { ack: SyncSender<Result<ScrubReport>> },
    /// Drop the database without closing it (simulated power loss).
    Die,
}

/// Supervision events. Workers report their own panic (caught by the
/// spawn wrapper); `Stop` ends the supervisor, which then reaps every
/// worker and returns the first typed error it saw.
enum SupMsg {
    Down(usize),
    Stop,
}

/// Per-shard shared state. The request sender lives behind an `RwLock`
/// so the supervisor can swap in a fresh channel when it restarts the
/// worker; every send uses `try_send`, so no sender ever blocks while
/// holding the read lock.
struct Slot {
    tx: RwLock<SyncSender<Request>>,
    snap: SnapshotCell<DbSnapshot>,
    /// Client-tracked queue depth (incremented at admission, decremented
    /// by the worker at dequeue).
    depth: AtomicUsize,
    /// Deepest admission-time depth sample.
    max_depth: AtomicUsize,
    /// Supervisor restarts of this shard's worker.
    restarts: AtomicU64,
    /// Set when the restart budget is exhausted: fail fast, never queue.
    poisoned: AtomicBool,
}

impl Slot {
    fn sub_depth(&self) {
        // Saturating: a restart resets depth to zero while senders may
        // still be in flight, so a plain decrement could underflow.
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
    }
}

/// The cross-shard group commit every worker shares: one `disk.sync()`
/// covers the appends of every shard that drew a ticket before it.
///
/// A worker draws a ticket only after its appends are on the disk, so a
/// sync issued after reading the ticket counter covers every ticket up
/// to the value read — whichever shard issued it.
#[derive(Default)]
struct GroupCommit {
    /// Tickets drawn so far.
    tickets: AtomicU64,
    /// Every ticket up to this one is covered by a completed sync.
    synced: Mutex<u64>,
}

/// Acks a worker owes for writes it has applied but not yet committed:
/// each caller's channel with its write's WAL seq, in seq order.
type PendingAcks = Vec<(SyncSender<Result<u64>>, u64)>;

impl GroupCommit {
    /// Makes every append that finished before this call durable, with a
    /// sync of its own only if no other shard's sync already covers it.
    fn sync(&self, disk: &SimDisk) {
        let ticket = self.tickets.fetch_add(1, Ordering::SeqCst) + 1;
        let mut synced = self
            .synced
            .lock()
            .expect("group-commit lock: a worker panicked in a sync");
        if *synced < ticket {
            let upto = self.tickets.load(Ordering::SeqCst);
            disk.sync();
            *synced = upto;
        }
    }

    /// Commits a worker's pending writes: one group sync, then the WAL's
    /// durable mark, then each caller's ack with its own seq. Calls
    /// `disk.sync()` directly, not [`Db::sync`], so the serving path
    /// evaluates no WAL fail point.
    fn commit(&self, disk: &SimDisk, db: &mut Db, pending: &mut PendingAcks) {
        let Some(&(_, high)) = pending.last() else { return };
        self.sync(disk);
        db.mark_synced_through(high);
        for (ack, seq) in pending.drain(..) {
            let _ = ack.send(Ok(seq));
        }
    }
}

/// A hash-partitioned, multi-threaded serving layer over `N` LSM shards.
///
/// Writes route to the owning shard's worker and block until its
/// cross-shard group commit makes them durable. Reads are served from
/// per-shard immutable snapshots without ever blocking behind writers.
/// See the module docs for the full architecture and the overload model.
pub struct ShardedDb {
    slots: Vec<Arc<Slot>>,
    supervisor_tx: Option<SyncSender<SupMsg>>,
    supervisor: Option<JoinHandle<Result<()>>>,
    disk: Arc<SimDisk>,
    counters: Arc<Counters>,
    closing: Arc<AtomicBool>,
    opts: ServeOptions,
}

/// The engine options a shard runs with: namespaced files, cross-shard
/// GC, syncing left to the group commit, worker-paced compaction, and the
/// serving stall bands.
fn shard_opts(base: &DbOptions, stall: StallConfig, shard: usize) -> DbOptions {
    DbOptions {
        namespace: format!("s{shard}-"),
        gc_orphans: false,
        // The group commit owns syncing; appends must never sync.
        wal_group_commit: usize::MAX,
        // Compaction is paced by the worker (idle steps + overload
        // relief) so a flush never hides an unbounded merge.
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
    /// orphan GC, and starts N + 1 threads: one worker per shard, which
    /// also group-commits and acks that shard's writes, and the
    /// supervisor. On a disk that already holds a sharded database the
    /// persisted shard count wins over `opts.shards`; a count that is
    /// unreadable or disagrees with the shard namespaces on the disk is
    /// [`MemtreeError::Corruption`] with context `"serve-meta"`.
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

        let counters = Arc::new(Counters::default());
        let closing = Arc::new(AtomicBool::new(false));
        let group = Arc::new(GroupCommit::default());
        let (sup_tx, sup_rx) = sync_channel::<SupMsg>(n + 2);
        let mut slots = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for (i, db) in dbs.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Request>(opts.queue_depth);
            let slot = Arc::new(Slot {
                tx: RwLock::new(tx),
                snap: SnapshotCell::new(db.snapshot()),
                depth: AtomicUsize::new(0),
                max_depth: AtomicUsize::new(0),
                restarts: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
            });
            workers.push(Some(spawn_worker(
                db,
                i,
                rx,
                Arc::clone(&group),
                Arc::clone(&slot),
                opts.publish_every.max(1),
                Arc::clone(&disk),
                Arc::clone(&counters),
                sup_tx.clone(),
            )));
            slots.push(slot);
        }
        let supervisor = {
            let ctx = SupervisorCtx {
                disk: Arc::clone(&disk),
                slots: slots.clone(),
                group,
                base: opts.db.clone(),
                stall,
                queue_depth: opts.queue_depth,
                publish_every: opts.publish_every.max(1),
                max_restarts: opts.max_restarts,
                closing: Arc::clone(&closing),
                counters: Arc::clone(&counters),
            };
            let sup_tx = sup_tx.clone();
            std::thread::Builder::new()
                .name("memtree-supervisor".into())
                .spawn(move || supervisor(sup_rx, sup_tx, ctx, workers))
                .expect("spawn supervisor")
        };
        Ok(Self {
            slots,
            supervisor_tx: Some(sup_tx),
            supervisor: Some(supervisor),
            disk,
            counters,
            closing,
            opts,
        })
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
        self.slots.len()
    }

    /// The shared simulated disk.
    pub fn disk_handle(&self) -> Arc<SimDisk> {
        Arc::clone(&self.disk)
    }

    /// Which shard owns `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (hash64(key) % self.slots.len() as u64) as usize
    }

    /// The default deadline for an operation: [`ServeOptions::deadline_us`]
    /// from now, or [`Deadline::none`] when deadlines are disabled.
    pub fn deadline(&self) -> Deadline {
        if self.opts.deadline_us == u64::MAX {
            Deadline::none()
        } else {
            Deadline::within(&self.disk, self.opts.deadline_us)
        }
    }

    /// Overload and supervision counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shed: self.counters.shed.load(Ordering::Relaxed),
            deadline_misses: self.counters.deadline_misses.load(Ordering::Relaxed),
            overload_retries: self.counters.overload_retries.load(Ordering::Relaxed),
            transient_retries: self.counters.transient_retries.load(Ordering::Relaxed),
            worker_restarts: self
                .slots
                .iter()
                .map(|s| s.restarts.load(Ordering::Relaxed))
                .sum(),
            poisoned_shards: self
                .slots
                .iter()
                .filter(|s| s.poisoned.load(Ordering::Relaxed))
                .count() as u64,
            max_queue_depth: self
                .slots
                .iter()
                .map(|s| s.max_depth.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Inserts or overwrites `key`, returning its WAL sequence number on
    /// the owning shard. Blocks until the owning worker's cross-shard
    /// group commit has made the write durable. Typed overload rejections
    /// are retried with jittered backoff up to
    /// [`ServeOptions::retry_attempts`] times under the default
    /// [`ShardedDb::deadline`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64> {
        self.put_with_deadline(key, value, self.deadline())
    }

    /// [`ShardedDb::put`] under an explicit deadline.
    pub fn put_with_deadline(&self, key: &[u8], value: &[u8], deadline: Deadline) -> Result<u64> {
        self.request(self.shard_of(key), deadline, hash64(key), |ack| Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
            deadline,
            ack,
        })
    }

    /// Deletes `key` (durable tombstone), with `put`'s ack semantics.
    pub fn delete(&self, key: &[u8]) -> Result<u64> {
        self.delete_with_deadline(key, self.deadline())
    }

    /// [`ShardedDb::delete`] under an explicit deadline.
    pub fn delete_with_deadline(&self, key: &[u8], deadline: Deadline) -> Result<u64> {
        self.request(self.shard_of(key), deadline, hash64(key), |ack| Request::Delete {
            key: key.to_vec(),
            deadline,
            ack,
        })
    }

    /// Snapshot point read: never blocks behind writers; sees every write
    /// up to the owning shard's last published snapshot. Keeps serving
    /// (possibly stale) reads even while the shard's worker is down.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.slots[self.shard_of(key)].snap.load().get(key)
    }

    /// Read-your-writes point read routed through the owning worker: sees
    /// every write that worker has applied, published or not.
    pub fn get_fresh(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_fresh_with_deadline(key, self.deadline())
    }

    /// [`ShardedDb::get_fresh`] under an explicit deadline.
    pub fn get_fresh_with_deadline(
        &self,
        key: &[u8],
        deadline: Deadline,
    ) -> Result<Option<Vec<u8>>> {
        self.request(self.shard_of(key), deadline, hash64(key), |ack| Request::Get {
            key: key.to_vec(),
            deadline,
            ack,
        })
    }

    /// One queued round trip with admission control, deadline
    /// enforcement, and typed-overload retries.
    ///
    /// Retried errors: `Backpressure`/`Stalled` (after a jittered
    /// virtual-clock wait of roughly the engine's suggestion) and a
    /// restarting worker (disconnected queue or dropped ack — safe
    /// because put/delete/get are idempotent). Everything else returns
    /// immediately.
    fn request<T>(
        &self,
        shard: usize,
        deadline: Deadline,
        salt: u64,
        mut make: impl FnMut(SyncSender<Result<T>>) -> Request,
    ) -> Result<T> {
        let slot = &self.slots[shard];
        let mut last: Option<MemtreeError> = None;
        for attempt in 0..self.opts.retry_attempts.max(1) {
            if slot.poisoned.load(Ordering::Relaxed) {
                return Err(MemtreeError::corruption(
                    "serve",
                    format!("shard {shard} is poisoned (restart budget exhausted)"),
                ));
            }
            if deadline.expired(&self.disk) {
                self.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                return Err(deadline.exceeded());
            }
            if let Some(err) = &last {
                self.backoff(err, salt, attempt);
            }
            // Admission control: shed before enqueueing when the queue is
            // full or the expected wait cannot fit the deadline budget.
            let depth = slot.depth.load(Ordering::Relaxed);
            let est_wait = (depth as u64).saturating_mul(self.opts.est_service_us);
            if depth >= self.opts.queue_depth || est_wait > deadline.remaining_us(&self.disk) {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                last = Some(MemtreeError::Backpressure {
                    suggested_wait_us: est_wait.max(self.opts.est_service_us),
                });
                continue;
            }
            let (ack, rx) = sync_channel(1);
            let d = slot.depth.fetch_add(1, Ordering::Relaxed) + 1;
            slot.max_depth.fetch_max(d, Ordering::Relaxed);
            match slot.tx.read().expect("slot lock").try_send(make(ack)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    slot.sub_depth();
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    last = Some(MemtreeError::Backpressure {
                        suggested_wait_us: est_wait.max(self.opts.est_service_us),
                    });
                    continue;
                }
                Err(TrySendError::Disconnected(_)) => {
                    slot.sub_depth();
                    self.counters.transient_retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(MemtreeError::TransientIo { context: "serve-worker-restarting" });
                    continue;
                }
            }
            match rx.recv() {
                Ok(Ok(v)) => return Ok(v),
                Ok(Err(e)) if e.is_overload() => {
                    self.counters.overload_retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Ok(Err(e)) => return Err(e),
                // The worker restarted with our request in flight; the
                // op is idempotent, so re-submit.
                Err(_) => {
                    self.counters.transient_retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(MemtreeError::TransientIo { context: "serve-ack-lost" });
                }
            }
        }
        Err(last.unwrap_or(MemtreeError::TransientIo { context: "serve-retries-exhausted" }))
    }

    /// Deterministic jittered backoff: advance the virtual clock by the
    /// engine's suggested wait (plus up to 50% keyed jitter so
    /// synchronized retries fan out), and yield a bounded slice of real
    /// time so a restarting worker can come back.
    fn backoff(&self, err: &MemtreeError, salt: u64, attempt: u32) {
        let base = match err {
            MemtreeError::Backpressure { suggested_wait_us } => (*suggested_wait_us).max(1),
            MemtreeError::Stalled { .. } => self.opts.est_service_us.max(1) * 4,
            _ => self.opts.est_service_us.max(1),
        };
        let jitter = hash64(&salt.wrapping_add(attempt as u64).to_le_bytes()) % (base / 2 + 1);
        self.disk.advance_clock(base + jitter);
        std::thread::sleep(Duration::from_micros(50u64 << attempt.min(6)));
    }

    /// Bounded control-plane send (flush/barrier/stats): retries a full
    /// or restarting queue for a while, then reports the shard wedged.
    fn send_ctl(&self, shard: usize, req: Request) -> Result<()> {
        let slot = &self.slots[shard];
        let mut req = req;
        for _ in 0..CTL_SEND_ATTEMPTS {
            if slot.poisoned.load(Ordering::Relaxed) {
                break;
            }
            slot.depth.fetch_add(1, Ordering::Relaxed);
            match slot.tx.read().expect("slot lock").try_send(req) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(r)) | Err(TrySendError::Disconnected(r)) => {
                    slot.sub_depth();
                    req = r;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        Err(MemtreeError::corruption(
            "serve",
            format!("shard {shard} queue is wedged or poisoned"),
        ))
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
        self.slots.iter().map(|s| s.snap.load()).collect()
    }

    /// Online scrub & repair on every shard (index = shard id): verifies
    /// every live block, rewrites what a clean re-read or cache copy can
    /// save, and lifts quarantines that validate — then republishes the
    /// shard's snapshot so rescued data is immediately visible. Each
    /// report lists the repairs and every key range left at risk.
    pub fn scrub_all(&self) -> Result<Vec<ScrubReport>> {
        let mut rxs = Vec::with_capacity(self.slots.len());
        for shard in 0..self.slots.len() {
            let (ack, rx) = sync_channel(1);
            self.send_ctl(shard, Request::Scrub { ack })?;
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| MemtreeError::corruption("serve", "worker gone"))?
            })
            .collect()
    }

    /// Samples every shard's engine debt/overload counters
    /// (index = shard id).
    pub fn shard_db_stats(&self) -> Result<Vec<DbStats>> {
        let mut rxs = Vec::with_capacity(self.slots.len());
        for shard in 0..self.slots.len() {
            let (ack, rx) = sync_channel(1);
            self.send_ctl(shard, Request::Stats { ack })?;
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| MemtreeError::corruption("serve", "worker gone"))
            })
            .collect()
    }

    /// Read-visibility barrier: every write acknowledged before this call
    /// is visible to subsequent [`ShardedDb::get`]/[`ShardedDb::scan`].
    /// Returns each shard's snapshot epoch after the republish.
    pub fn barrier(&self) -> Result<Vec<u64>> {
        let mut rxs = Vec::with_capacity(self.slots.len());
        for shard in 0..self.slots.len() {
            let (ack, rx) = sync_channel(1);
            self.send_ctl(shard, Request::Barrier { ack })?;
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| MemtreeError::corruption("serve", "worker gone"))
            })
            .collect()
    }

    /// Forces a MemTable flush on every shard. The first shard error is
    /// returned, but every shard is asked to flush regardless.
    pub fn flush_all(&self) -> Result<()> {
        let mut rxs = Vec::with_capacity(self.slots.len());
        let mut first_err = None;
        for shard in 0..self.slots.len() {
            let (ack, rx) = sync_channel(1);
            match self.send_ctl(shard, Request::Flush { ack }) {
                Ok(()) => rxs.push(rx),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        for rx in rxs {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err
                        .or_else(|| Some(MemtreeError::corruption("serve", "worker gone")))
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Graceful shutdown: drains every queue, flushes and closes every
    /// shard, and returns the shared disk for reopening. The first typed
    /// error seen by any worker (or an unrecovered panic) is returned.
    pub fn close(mut self) -> Result<Arc<SimDisk>> {
        self.shutdown(false);
        let disk = Arc::clone(&self.disk);
        match self.supervisor.take() {
            Some(h) => match h.join() {
                Ok(Ok(())) => Ok(disk),
                Ok(Err(e)) => Err(e),
                Err(_) => Err(MemtreeError::corruption("serve", "supervisor panicked")),
            },
            None => Ok(disk),
        }
    }

    /// Simulated power loss: every worker abandons its database without
    /// closing (no final flush, no sync), then the disk drops all
    /// unsynced state. Returns the disk for crash-recovery reopening.
    pub fn crash(mut self, tear_seed: Option<u64>) -> Arc<SimDisk> {
        self.shutdown(true);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let disk = Arc::clone(&self.disk);
        disk.crash(tear_seed);
        disk
    }

    /// Tells every worker to exit (`die` skips the graceful close) and
    /// stops the supervisor, which reaps the workers.
    fn shutdown(&mut self, die: bool) {
        self.closing.store(true, Ordering::SeqCst);
        if die {
            for slot in &self.slots {
                let _ = slot.tx.read().expect("slot lock").send(Request::Die);
            }
        }
        // Drop the real senders (the slots hold the only durable clones)
        // so each worker drains its queue and exits.
        for slot in &self.slots {
            let (closed_tx, _) = sync_channel(1);
            *slot.tx.write().expect("slot lock") = closed_tx;
        }
        if let Some(tx) = self.supervisor_tx.take() {
            let _ = tx.send(SupMsg::Stop);
        }
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        // A plain drop (no close/crash) must still stop the threads;
        // `shutdown` is idempotent through the `take()`.
        if self.supervisor_tx.is_some() {
            self.shutdown(false);
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Everything the supervisor needs to rebuild a shard.
struct SupervisorCtx {
    disk: Arc<SimDisk>,
    slots: Vec<Arc<Slot>>,
    group: Arc<GroupCommit>,
    base: DbOptions,
    stall: StallConfig,
    queue_depth: usize,
    publish_every: usize,
    max_restarts: u64,
    closing: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

/// Spawns one shard worker with a panic trap: a panic reports
/// `SupMsg::Down` so the supervisor can rebuild the shard, and surfaces
/// as a typed corruption error if it is never recovered.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    db: Db,
    shard: usize,
    rx: Receiver<Request>,
    group: Arc<GroupCommit>,
    slot: Arc<Slot>,
    publish_every: usize,
    disk: Arc<SimDisk>,
    counters: Arc<Counters>,
    sup_tx: SyncSender<SupMsg>,
) -> JoinHandle<Result<()>> {
    std::thread::Builder::new()
        .name(format!("memtree-shard-{shard}"))
        .spawn(move || {
            let trapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shard_worker(db, shard, rx, &group, slot, publish_every, disk, counters)
            }));
            match trapped {
                Ok(res) => res,
                Err(_) => {
                    let _ = sup_tx.send(SupMsg::Down(shard));
                    Err(MemtreeError::corruption(
                        "serve",
                        format!("shard {shard} worker panicked"),
                    ))
                }
            }
        })
        .expect("spawn shard worker")
}

/// The supervisor: restart panicked workers through `Db::open` recovery
/// until their restart budget runs out, then poison the shard. On
/// `Stop`, reap every worker and return the first typed error.
fn supervisor(
    rx: Receiver<SupMsg>,
    sup_tx: SyncSender<SupMsg>,
    ctx: SupervisorCtx,
    mut workers: Vec<Option<JoinHandle<Result<()>>>>,
) -> Result<()> {
    let mut first_err: Option<MemtreeError> = None;
    let poison = |slot: &Slot| {
        slot.poisoned.store(true, Ordering::SeqCst);
        // Swap in a closed sender so queued and future requests fail
        // fast instead of waiting on a worker that will never come.
        let (closed_tx, _) = sync_channel(1);
        *slot.tx.write().expect("slot lock") = closed_tx;
    };
    while let Ok(msg) = rx.recv() {
        let i = match msg {
            SupMsg::Stop => break,
            SupMsg::Down(i) => i,
        };
        // Reap the panicked worker; its typed "panicked" marker only
        // matters if the shard is never recovered.
        if let Some(h) = workers[i].take() {
            let _ = h.join();
        }
        if ctx.closing.load(Ordering::SeqCst) {
            continue;
        }
        let restarts = ctx.slots[i].restarts.fetch_add(1, Ordering::SeqCst) + 1;
        if restarts > ctx.max_restarts {
            poison(&ctx.slots[i]);
            first_err = first_err.or_else(|| {
                Some(MemtreeError::corruption(
                    "serve",
                    format!("shard {i} poisoned after {} restarts", restarts - 1),
                ))
            });
            continue;
        }
        // The panicked worker's Db unwound with it, but the shared disk
        // is intact: ordinary crash recovery rebuilds the shard with
        // every WAL-appended write. Transient disk faults during the
        // reopen retry on a bounded backoff.
        let opts = shard_opts(&ctx.base, ctx.stall, i);
        let mut backoff = Backoff::new(8);
        let reopened = loop {
            match Db::open(Arc::clone(&ctx.disk), opts.clone()) {
                Ok(db) => break Ok(db),
                Err(e) => {
                    if !backoff.retry(&e) {
                        break Err(e);
                    }
                }
            }
        };
        match reopened {
            Ok(db) => {
                // Restore read availability first (the recovered state is
                // a superset of the last published snapshot), then swap
                // in the fresh queue and worker.
                ctx.slots[i].snap.swap(Arc::new(db.snapshot()));
                let (tx, wrx) = sync_channel(ctx.queue_depth);
                *ctx.slots[i].tx.write().expect("slot lock") = tx;
                ctx.slots[i].depth.store(0, Ordering::SeqCst);
                workers[i] = Some(spawn_worker(
                    db,
                    i,
                    wrx,
                    Arc::clone(&ctx.group),
                    Arc::clone(&ctx.slots[i]),
                    ctx.publish_every,
                    Arc::clone(&ctx.disk),
                    Arc::clone(&ctx.counters),
                    sup_tx.clone(),
                ));
            }
            Err(e) => {
                poison(&ctx.slots[i]);
                first_err = first_err.or(Some(e));
            }
        }
    }
    for h in &mut workers {
        if let Some(h) = h.take() {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err
                        .or_else(|| Some(MemtreeError::corruption("serve", "worker panicked")))
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// One shard's event loop: apply writes, group-commit and ack them,
/// republish snapshots when idle or due, drain compaction debt during
/// idle moments and after overload rejections, and never let one
/// request's typed error take the worker down.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    mut db: Db,
    shard: usize,
    rx: Receiver<Request>,
    group: &GroupCommit,
    slot: Arc<Slot>,
    publish_every: usize,
    disk: Arc<SimDisk>,
    counters: Arc<Counters>,
) -> Result<()> {
    let mut dirty = 0usize;
    let mut pending = PendingAcks::new();
    let mut die = false;
    loop {
        // Drain eagerly; on a momentarily-empty queue publish and commit
        // so readers and writers hear back whenever the shard is idle,
        // and use the lull to retire one level of compaction debt.
        let msg = match rx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                publish_and_commit(&mut db, &slot, group, &disk, &mut dirty, &mut pending);
                let _ = db.compact_debt();
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        if !matches!(msg, Request::Die) {
            // Client-sent requests were admission-counted.
            slot.sub_depth();
        }
        if disk.faults().should_fail("serve.worker.panic") {
            panic!("injected: serve.worker.panic (shard {shard})");
        }
        match msg {
            Request::Put { deadline, ack, .. } | Request::Delete { deadline, ack, .. }
                if deadline.expired(&disk) =>
            {
                counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                let _ = ack.send(Err(deadline.exceeded()));
            }
            Request::Put { key, value, ack, .. } => {
                let applied = db.put(&key, &value);
                stage_write(&mut db, applied, ack, &mut pending);
                dirty += 1;
            }
            Request::Delete { key, ack, .. } => {
                let applied = db.delete(&key);
                stage_write(&mut db, applied, ack, &mut pending);
                dirty += 1;
            }
            Request::Get { key, deadline, ack } => {
                let reply = if deadline.expired(&disk) {
                    counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    Err(deadline.exceeded())
                } else {
                    Ok(db.get(&key))
                };
                let _ = ack.send(reply);
            }
            Request::Flush { ack } => {
                let _ = ack.send(db.flush().map(|_| ()));
                dirty += 1;
            }
            Request::Barrier { ack } => {
                let epoch = slot.snap.swap(Arc::new(db.snapshot()));
                dirty = 0;
                let _ = ack.send(epoch);
            }
            Request::Stats { ack } => {
                let _ = ack.send(db.stats());
            }
            Request::Scrub { ack } => {
                let report = db.scrub();
                // Republish immediately: a lifted quarantine changes what
                // the snapshot serves, and callers scrub precisely to get
                // rescued data back into view.
                slot.snap.swap(Arc::new(db.snapshot()));
                dirty = 0;
                let _ = ack.send(report);
            }
            Request::Die => {
                die = true;
                break;
            }
        }
        if dirty >= publish_every {
            publish_and_commit(&mut db, &slot, group, &disk, &mut dirty, &mut pending);
        }
    }
    if die {
        // Simulated power loss: drop the Db as-is — no flush, no sync —
        // and the pending acks unsent, since nothing made them durable.
        drop(db);
        return Ok(());
    }
    slot.snap.swap(Arc::new(db.snapshot()));
    group.commit(&disk, &mut db, &mut pending);
    db.close().map(|_| ())
}

/// Republishes the snapshot if anything changed since the last one, then
/// group-commits the pending writes and acks their callers — publishing
/// first, so a write is already visible to snapshot readers when its
/// caller hears back.
fn publish_and_commit(
    db: &mut Db,
    slot: &Slot,
    group: &GroupCommit,
    disk: &SimDisk,
    dirty: &mut usize,
    pending: &mut PendingAcks,
) {
    if *dirty > 0 {
        slot.snap.swap(Arc::new(db.snapshot()));
        *dirty = 0;
    }
    group.commit(disk, db, pending);
}

/// After a typed overload rejection, spend the worker's turn draining
/// debt so the caller's backoff-retry finds a healthier shard: a stalled
/// engine gets a flush attempt plus a compaction step, a slowed-down one
/// gets a compaction step. Relief errors are deliberately dropped — the
/// rejection itself is what the caller sees, and flush/compaction
/// surface their own typed errors on the next direct call.
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

/// A write's worker-side second half: an appended write waits in
/// `pending` for the next group commit; a typed error acks the
/// originating request at once and touches nothing else.
fn stage_write(
    db: &mut Db,
    applied: Result<u64>,
    ack: SyncSender<Result<u64>>,
    pending: &mut PendingAcks,
) {
    relieve_overload(db, &applied);
    match applied {
        Ok(seq) => pending.push((ack, seq)),
        Err(e) => {
            let _ = ack.send(Err(e));
        }
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
            let before = sdb.disk.stats().block_reads;
            scan();
            sdb.disk.stats().block_reads - before
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
        // WAL: neither the worker nor the group commit notices.
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
    fn worker_panic_recovers_without_losing_acked_writes() {
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
                // Kill the next worker that dequeues anything.
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
        // shard, so the worker dies with a commit batch in hand. Every
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

    /// A worker that dies while the disk is full comes back: recovery
    /// needs no free space, so the shard keeps serving reads and fails
    /// writes typed until space returns, instead of being poisoned.
    #[test]
    fn worker_panic_on_a_full_disk_restarts_instead_of_poisoning() {
        // Retries outlast the restart, so the put's answer comes from
        // the reopened worker.
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
        // Exhaust the restart budget: every dequeue panics.
        disk.faults().arm("serve.worker.panic", 1.0, None);
        for _ in 0..8 {
            let _ = sdb.put(k0.as_bytes(), b"x");
            if sdb.stats().poisoned_shards > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        disk.faults().disarm("serve.worker.panic");
        // Wait for the supervisor to finish poisoning.
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
        // worker-side relief (flush + debt drain) actually converge —
        // deterministically, independent of worker/client scheduling.
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
}
