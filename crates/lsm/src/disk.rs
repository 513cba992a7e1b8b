//! The simulated block device: I/O accounting plus a power-loss model and
//! three seeded latent-fault classes.
//!
//! Two storage namespaces share one device, mirroring how an LSM engine
//! splits its on-disk footprint:
//!
//! * a **block store** (`reserve`/`write_at`/`write`/`read`/`release`)
//!   holding SSTable data blocks, addressed by id and allocated in
//!   extents (see below);
//! * a small **file namespace** (`append`/`write_file_atomic`/
//!   `truncate_file`/`remove_file`/`read_file`) holding the WAL, MANIFEST
//!   files, and the CURRENT pointer.
//!
//! Every mutation first lands in a volatile **write buffer** and becomes
//! durable only at [`SimDisk::sync`]. [`SimDisk::crash`] models power loss:
//! all unsynced writes are dropped, and optionally the *last* in-flight
//! write is **torn** — a seeded prefix of it reaches the platter. Torn
//! block writes and torn appends surface as short/CRC-invalid frames to the
//! recovery path; `write_file_atomic` models `rename(2)` and is never torn
//! (it applies fully or not at all), which is exactly the primitive the
//! manifest's CURRENT swap needs.
//!
//! ## Concurrency
//!
//! The device is `Send + Sync`: all namespace state lives behind one
//! mutex (each call is one atomic step, like a single-queue-depth NVMe
//! simulator), counters are lock-free atomics. Multiple `Db` shards can
//! therefore share one disk — which is what makes cross-shard group
//! commit meaningful: one `sync()` barrier persists every shard's
//! buffered WAL appends at once, and one `crash()` loses power for all of
//! them atomically.
//!
//! ## Fault classes beyond power loss
//!
//! * **Latent corruption** ([`SimDisk::bitrot_block`] /
//!   [`SimDisk::bitrot_file`]): a seeded bit flip in *durable* content —
//!   damage that lands after a successful `sync`, which CRC framing detects
//!   only at the next read. `Db::scrub` exists to find it proactively.
//! * **Transient read errors** (the `lsm.disk.read_transient` fail point):
//!   the read fails with a typed [`MemtreeError::TransientIo`] but the
//!   stored bytes are intact — a retry can succeed. Readers must heal these
//!   via retry, never quarantine on them.
//! * **Capacity** ([`SimDisk::set_capacity_bytes`]): block writes, appends,
//!   and atomic replaces that would push total usage past the limit are
//!   rejected with a typed [`MemtreeError::Enospc`] *before* buffering
//!   anything, so a failed write never leaves partial state.
//! * **Slow I/O** ([`SimDisk::set_slow_io`] and the `lsm.disk.slow_io`
//!   fail point): *late* data, the fault class overload survival needs.
//!   Every device op advances a monotone **virtual clock** (microseconds)
//!   by at least one tick; a [`SlowIo`] profile adds seeded per-op jitter,
//!   periodic burst storms, and one permanently-slow block region, and an
//!   armed `lsm.disk.slow_io` point adds a fixed storm delay per firing.
//!   Delays are charged to the virtual clock only — deterministic and
//!   free of wall-clock flakiness — and [`SimDisk::now_us`] is the time
//!   base the serving layer's request deadlines measure against.
//!
//! Reads are served through the buffer (like the OS page cache), so a
//! process that never crashes observes its own unsynced writes.
//!
//! ## Extents
//!
//! Block ids are handed out as extents: [`SimDisk::reserve`] takes `n`
//! consecutive ids at once, and [`SimDisk::write_at`] fills them one
//! block at a time, so an SSTable's blocks sit at `base..base + n` and its
//! block index computes each id instead of storing it. A single-block
//! [`SimDisk::write`] is an extent of one. The free ids are kept as
//! coalesced ranges: a release merges its id with the free ranges on
//! either side, and a reservation takes the smallest free range that
//! holds it (the lowest such on a tie), or appends new slots when none
//! does. Both cost O(log free ranges) under the device lock. A free range
//! that reaches the last slot is trimmed off instead of kept.
//!
//! ## Fail points
//!
//! The named fail points of the LSM engine belong to this device: each
//! `SimDisk` owns one [`Faults`] registry ([`SimDisk::faults`]), and every
//! `lsm.*` point — the four `lsm.disk.*` points below plus the WAL,
//! manifest, table-build, flush, compaction and scrub points the engine
//! evaluates on the disk it is writing — and the serving layer's
//! `serve.worker.panic` fire from it. Arming a point on one disk never
//! touches another, so tests running side by side cannot trip each other.

use memtree_common::error::{MemtreeError, Result};
use memtree_faults::{Backoff, Faults};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Running I/O counters. `read_repairs` / `quarantined_blocks` /
/// `transient_retries` are maintained by the [`Db`](crate::Db) read paths
/// and merged into this struct by [`Db::io_stats`](crate::Db::io_stats);
/// the raw device reports them as zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Block reads served by the device (block-cache misses).
    pub block_reads: u64,
    /// Blocks written by flushes and compactions.
    pub block_writes: u64,
    /// Append/replace calls against the file namespace (WAL + manifest).
    pub file_appends: u64,
    /// Bytes handed to the file namespace by those calls.
    pub file_bytes_written: u64,
    /// `sync()` barriers issued.
    pub syncs: u64,
    /// Block decodes that failed once and succeeded on a re-read.
    pub read_repairs: u64,
    /// Blocks quarantined after failing validation twice.
    pub quarantined_blocks: u64,
    /// Reads retried after a transient I/O fault (healed, not quarantined).
    pub transient_retries: u64,
    /// Virtual microseconds of injected slow-I/O delay charged so far
    /// (jitter + bursts + slow region + armed `lsm.disk.slow_io` storms).
    pub slow_io_delay_us: u64,
}

/// A seeded latency profile for the device (see the module docs). All
/// delays are *virtual* microseconds charged to [`SimDisk::now_us`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowIo {
    /// Seed for the per-op jitter draw.
    pub seed: u64,
    /// Upper bound of the uniform per-op jitter (`0..=base_us`).
    pub base_us: u64,
    /// Every `burst_every` device ops a burst storm starts (0 = never).
    pub burst_every: u64,
    /// Ops a burst lasts once started.
    pub burst_len: u64,
    /// Extra delay per op while a burst is active.
    pub burst_us: u64,
    /// A permanently slow block-id range `[lo, hi)` (media defect /
    /// remapped zone); reads and writes touching it pay `region_us` extra.
    pub slow_region: Option<(u32, u32)>,
    /// Extra delay for ops touching `slow_region`.
    pub region_us: u64,
}

impl SlowIo {
    /// A storm-heavy profile used by the chaos soak: steady small jitter
    /// plus a hard burst every 64 ops and one slow region at the front of
    /// the block space.
    pub fn storm(seed: u64) -> Self {
        Self {
            seed,
            base_us: 20,
            burst_every: 64,
            burst_len: 12,
            burst_us: 400,
            slow_region: Some((0, 8)),
            region_us: 150,
        }
    }
}

/// Live slow-I/O state: the profile plus the op counter driving bursts.
#[derive(Debug)]
struct SlowState {
    cfg: SlowIo,
    ops: u64,
}

/// A buffered, not-yet-durable mutation. Order within the buffer is the
/// order writes were issued; `crash` can tear the last one.
#[derive(Debug, Clone)]
enum PendingOp {
    Block { id: u32, data: Arc<[u8]> },
    Append { file: String, data: Vec<u8> },
    /// Whole-file replace, atomic like `rename(2)`: applied fully or not
    /// at all, never torn.
    Replace { file: String, data: Vec<u8> },
    /// Truncation to `len` bytes; atomic (metadata-only in a real FS).
    Truncate { file: String, len: usize },
    /// File removal (`unlink(2)`); atomic at crash.
    Remove { file: String },
}

/// The free block ids as maximal ranges: no two ranges touch, because a
/// release merges its id with the ranges on either side.
#[derive(Debug, Default, Clone)]
struct FreeRanges {
    /// Start → length.
    by_start: BTreeMap<u32, u32>,
    /// `(length, start)`, for the smallest range that holds an extent.
    by_len: BTreeSet<(u32, u32)>,
}

impl FreeRanges {
    fn insert(&mut self, start: u32, len: u32) {
        self.by_start.insert(start, len);
        self.by_len.insert((len, start));
    }

    fn remove(&mut self, start: u32, len: u32) {
        self.by_start.remove(&start);
        self.by_len.remove(&(len, start));
    }

    /// Takes `n` ids from the smallest free range that holds them (the
    /// lowest such on a tie) and returns the first; `None` when no range
    /// is that long.
    fn take(&mut self, n: u32) -> Option<u32> {
        let &(len, start) = self.by_len.range((n, 0)..).next()?;
        self.remove(start, len);
        if len > n {
            self.insert(start + n, len - n);
        }
        Some(start)
    }

    /// Frees the `n` ids from `base`, merged with the free ranges that
    /// end at `base` and start right after the last of them, and returns
    /// the merged range.
    fn give(&mut self, base: u32, n: u32) -> (u32, u32) {
        let (mut start, mut len) = (base, n);
        if let Some((&before, &before_len)) = self.by_start.range(..base).next_back() {
            if before + before_len == base {
                self.remove(before, before_len);
                (start, len) = (before, before_len + n);
            }
        }
        if let Some(&after_len) = self.by_start.get(&(base + n)) {
            self.remove(base + n, after_len);
            len += after_len;
        }
        self.insert(start, len);
        (start, len)
    }
}

/// All namespace state, held under one mutex so each device call is a
/// single atomic step even with many shard threads issuing I/O.
#[derive(Debug, Clone)]
struct DiskState {
    /// Durable block contents (what survives a crash). Shared so a read
    /// takes a reference under the lock and copies outside it.
    blocks: Vec<Arc<[u8]>>,
    /// The content of every unwritten or freed slot, shared.
    empty: Arc<[u8]>,
    /// Allocation state per block slot: true from its reservation until
    /// its release, written or not.
    live: Vec<bool>,
    free: FreeRanges,
    /// Durable file contents.
    files: BTreeMap<String, Vec<u8>>,
    /// The volatile write buffer, in issue order.
    pending: Vec<PendingOp>,
    /// Optional capacity limit; `None` = unbounded.
    capacity: Option<u64>,
}

impl DiskState {
    /// Bytes currently consumed: durable blocks + durable files + the
    /// write buffer.
    fn used_bytes(&self) -> u64 {
        let blocks: usize = self.blocks.iter().map(|b| b.len()).sum();
        let files: usize = self.files.values().map(|f| f.len()).sum();
        let pending: usize = self
            .pending
            .iter()
            .map(|op| match op {
                PendingOp::Block { data, .. } => data.len(),
                PendingOp::Append { data, .. } | PendingOp::Replace { data, .. } => data.len(),
                PendingOp::Truncate { .. } | PendingOp::Remove { .. } => 0,
            })
            .sum();
        (blocks + files + pending) as u64
    }

    /// Rejects a prospective write of `requested` bytes when it would
    /// exceed the capacity limit.
    fn check_capacity(&self, context: &'static str, requested: usize) -> Result<()> {
        if let Some(cap) = self.capacity {
            if self.used_bytes() + requested as u64 > cap {
                return Err(MemtreeError::Enospc { context, requested });
            }
        }
        Ok(())
    }

    /// Reserves `n` consecutive block ids and returns the first: the
    /// smallest free range that holds them, or new slots at the end.
    fn allocate(&mut self, n: u32) -> u32 {
        let base = match self.free.take(n) {
            Some(base) => base,
            None => {
                let base = self.blocks.len();
                let end = base + n as usize;
                self.blocks.resize(end, Arc::clone(&self.empty));
                self.live.resize(end, false);
                base as u32
            }
        };
        self.live[base as usize..(base + n) as usize].fill(true);
        base
    }

    fn apply_durable(&mut self, op: PendingOp) {
        match op {
            PendingOp::Block { id, data } => {
                // The slot may have been released after the write was
                // buffered; releases drop matching ops, so reaching here
                // means the slot is still owned by the writer.
                self.blocks[id as usize] = data;
            }
            PendingOp::Append { file, data } => {
                self.files.entry(file).or_default().extend_from_slice(&data);
            }
            PendingOp::Replace { file, data } => {
                self.files.insert(file, data);
            }
            PendingOp::Truncate { file, len } => {
                if let Some(f) = self.files.get_mut(&file) {
                    f.truncate(len);
                }
            }
            PendingOp::Remove { file } => {
                self.files.remove(&file);
            }
        }
    }

    fn apply_to(content: &mut Vec<u8>, file: &str, op: &PendingOp) {
        match op {
            PendingOp::Append { file: f, data } if f == file => content.extend_from_slice(data),
            PendingOp::Replace { file: f, data } if f == file => *content = data.clone(),
            PendingOp::Truncate { file: f, len } if f == file => content.truncate(*len),
            PendingOp::Remove { file: f } if f == file => content.clear(),
            _ => {}
        }
    }
}

/// An in-memory "disk" of fixed-size blocks and small log files with exact
/// read accounting, an optional per-read latency charge (busy-wait, so
/// short latencies are accurate), and crash/tear semantics for recovery
/// testing. `Send + Sync`: a sharded database's shards share one device.
#[derive(Debug)]
pub struct SimDisk {
    state: Mutex<DiskState>,
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    read_latency: Duration,
    /// Monotone virtual clock in microseconds; every device op ticks it.
    clock_us: AtomicU64,
    /// Accumulated injected slow-I/O delay (subset of `clock_us`).
    slow_delay_us: AtomicU64,
    /// Optional seeded latency profile.
    slow: Mutex<Option<SlowState>>,
    /// `slow` holds a profile: without one, device ops never take its
    /// lock. Written only under that lock.
    slow_set: AtomicBool,
    /// This device's fail points (see the module docs).
    faults: Faults,
}

/// Fixed virtual delay added per firing of the `lsm.disk.slow_io` fail
/// point (a storm armed through the disk's registry, probability- and
/// budget-controlled like every other fault class).
const SLOW_IO_STORM_US: u64 = 800;

impl SimDisk {
    /// Creates a disk charging `read_latency` per block read.
    pub fn new(read_latency: Duration) -> Self {
        Self {
            state: Mutex::new(DiskState {
                blocks: Vec::new(),
                empty: Arc::from(&[][..]),
                live: Vec::new(),
                free: FreeRanges::default(),
                files: BTreeMap::new(),
                pending: Vec::new(),
                capacity: None,
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            read_latency,
            clock_us: AtomicU64::new(0),
            slow_delay_us: AtomicU64::new(0),
            slow: Mutex::new(None),
            slow_set: AtomicBool::new(false),
            faults: Faults::default(),
        }
    }

    /// The fail points owned by this device: every `lsm.*` point and
    /// `serve.worker.panic` evaluate here.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The virtual clock, in microseconds. Monotone; ticks at least once
    /// per device op and absorbs every injected slow-I/O delay. The serve
    /// layer's request deadlines measure against this clock.
    pub fn now_us(&self) -> u64 {
        self.clock_us.load(Ordering::Relaxed)
    }

    /// Advances the virtual clock (callers model waiting — e.g. the serve
    /// layer's backpressure backoff — without real sleeps).
    pub fn advance_clock(&self, us: u64) {
        self.clock_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Installs (or clears) a seeded latency profile. Deterministic: the
    /// same profile over the same op sequence charges the same delays.
    pub fn set_slow_io(&self, profile: Option<SlowIo>) {
        let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        *slow = profile.map(|cfg| SlowState { cfg, ops: 0 });
        self.slow_set.store(slow.is_some(), Ordering::Release);
    }

    /// Charges one device op to the virtual clock: a 1us base tick, the
    /// profile's jitter/burst/region delays for this op, and the armed
    /// `lsm.disk.slow_io` storm delay when that point fires.
    fn charge_op(&self, block: Option<u32>) {
        let mut delay = 0u64;
        if self.slow_set.load(Ordering::Acquire) {
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = slow.as_mut() {
                let i = s.ops;
                s.ops += 1;
                let mut rng = s.cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                delay += memtree_common::hash::splitmix64(&mut rng) % (s.cfg.base_us + 1);
                if s.cfg.burst_every > 0 && i % s.cfg.burst_every < s.cfg.burst_len {
                    delay += s.cfg.burst_us;
                }
                if let (Some((lo, hi)), Some(id)) = (s.cfg.slow_region, block) {
                    if (lo..hi).contains(&id) {
                        delay += s.cfg.region_us;
                    }
                }
            }
        }
        if self.faults.should_fail("lsm.disk.slow_io") {
            delay += SLOW_IO_STORM_US;
        }
        if delay > 0 {
            self.slow_delay_us.fetch_add(delay, Ordering::Relaxed);
        }
        self.clock_us.fetch_add(1 + delay, Ordering::Relaxed);
    }

    /// The state mutex, poison-tolerant: a panicking test thread must not
    /// cascade into every other test sharing the disk.
    fn st(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets (or clears) the capacity limit in bytes. Mutations that would
    /// push [`SimDisk::used_bytes`] past it fail with a typed
    /// [`MemtreeError::Enospc`] before buffering anything.
    pub fn set_capacity_bytes(&self, capacity: Option<u64>) {
        self.st().capacity = capacity;
    }

    /// Bytes currently consumed: durable blocks + durable files + the
    /// write buffer. Buffered replaces count in full alongside the content
    /// they will supersede — a conservative model of the transient double
    /// occupancy a real rename-based replace has.
    pub fn used_bytes(&self) -> u64 {
        self.st().used_bytes()
    }

    /// Reserves `n` (at least 1) consecutive block ids for
    /// [`SimDisk::write_at`] and returns the first. A reserved id is
    /// allocated, so it reads as empty until written and is freed only by
    /// [`SimDisk::release`]. Reserving stores nothing, so it never fails
    /// with `Enospc`; the writes into the extent check the capacity.
    pub fn reserve(&self, n: usize) -> u32 {
        assert!(n > 0, "an extent holds at least one block");
        let n = u32::try_from(n).expect("an extent fits in the block id space");
        self.st().allocate(n)
    }

    /// Writes a block into the buffer at `id`, a reserved id. The content
    /// is readable immediately but durable only after [`SimDisk::sync`].
    /// Fails typed — and buffers nothing — on `Enospc`, an armed
    /// `lsm.disk.write_fault`, or an id that is not allocated.
    pub fn write_at(&self, id: u32, data: Arc<[u8]>) -> Result<()> {
        self.write_block(Some(id), data).map(drop)
    }

    /// Writes a block into the buffer as an extent of one, returning its
    /// id. The content is readable immediately but durable only after
    /// [`SimDisk::sync`]. Fails typed — and allocates nothing — on
    /// `Enospc` or an armed `lsm.disk.write_fault`.
    pub fn write(&self, data: Box<[u8]>) -> Result<u32> {
        self.write_block(None, Arc::from(data))
    }

    /// Buffers `data` at the reserved id `at`, or at a new extent of one,
    /// in one device step.
    fn write_block(&self, at: Option<u32>, data: Arc<[u8]>) -> Result<u32> {
        memtree_faults::fail_point!(self.faults, "lsm.disk.write_fault");
        let mut st = self.st();
        if let Some(id) = at.filter(|&id| !st.live.get(id as usize).copied().unwrap_or(false)) {
            return Err(MemtreeError::corruption(
                "sim-disk",
                format!("write to unreserved block {id}"),
            ));
        }
        st.check_capacity("block-write", data.len())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        let id = at.unwrap_or_else(|| st.allocate(1));
        st.pending.push(PendingOp::Block { id, data });
        drop(st);
        self.charge_op(Some(id));
        Ok(id)
    }

    /// Reads a block (counted, latency-charged) through the write buffer
    /// into a new buffer: [`SimDisk::read_into`] with nothing to reuse.
    pub fn read(&self, id: u32) -> Result<Box<[u8]>> {
        let mut buf = Vec::new();
        self.read_into(id, &mut buf)?;
        Ok(buf.into_boxed_slice())
    }

    /// Reads a block (counted, latency-charged) through the write buffer
    /// into `buf`, replacing its contents and reusing its capacity: a
    /// buffer already as large as the block takes the read without an
    /// allocation. Out-of-range and freed ids return typed errors instead
    /// of panicking — a stale manifest or a buggy caller must degrade one
    /// read, not the process. On any error `buf` is left as it was or
    /// empty, never holding part of a block.
    pub fn read_into(&self, id: u32, buf: &mut Vec<u8>) -> Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.charge_op(Some(id));
        if !self.read_latency.is_zero() {
            let start = std::time::Instant::now();
            while start.elapsed() < self.read_latency {
                std::hint::spin_loop();
            }
        }
        // Transient media fault: the stored bytes are intact; the caller
        // may retry. Evaluated before the copy and before the corrupting
        // fault so the two classes exercise distinct read-path reactions.
        if self.faults.should_fail("lsm.disk.read_transient") {
            return Err(MemtreeError::TransientIo { context: "sim-disk" });
        }
        let st = self.st();
        match st.live.get(id as usize) {
            None => {
                return Err(MemtreeError::corruption(
                    "sim-disk",
                    format!("read of out-of-range block {id}"),
                ))
            }
            Some(false) => {
                return Err(MemtreeError::corruption(
                    "sim-disk",
                    format!("read of freed block {id}"),
                ))
            }
            Some(true) => {}
        }
        // Newest buffered write wins (page-cache semantics). Only the
        // reference is taken under the device lock; the caller's copy —
        // a block-sized `memcpy`, and an allocation when `buf` is too
        // small — is made after it is released, so concurrent readers do
        // not queue behind each other's copies.
        let stored = 'found: {
            for op in st.pending.iter().rev() {
                if let PendingOp::Block { id: bid, data } = op {
                    if *bid == id {
                        break 'found Arc::clone(data);
                    }
                }
            }
            Arc::clone(&st.blocks[id as usize])
        };
        drop(st);
        buf.clear();
        // Exact, so a fresh buffer is exactly the block (`read` boxes it
        // without a reallocation).
        buf.reserve_exact(stored.len());
        buf.extend_from_slice(&stored);
        drop(stored);
        // Injection point for media errors: corrupts this read's copy
        // only (the stored block is untouched), so a retry can succeed —
        // exercises the Db quarantine-and-read-repair path.
        if self.faults.should_fail("lsm.disk.read_corrupt") {
            let n = buf.len();
            if n > 0 {
                buf[n / 2] ^= 0x40;
            }
        }
        Ok(())
    }

    /// [`SimDisk::read_into`] repeated under `backoff` while the fault is
    /// *transient* — the one retry step every block reader shares.
    /// Persistent errors (dead block) return on the first attempt, and a
    /// corrupt copy is the decoder's to find; `backoff.attempts() - 1`
    /// retries were taken.
    pub(crate) fn read_retrying(
        &self,
        id: u32,
        backoff: &mut Backoff,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        loop {
            match self.read_into(id, buf) {
                Err(e) if backoff.retry(&e) => continue,
                done => return done,
            }
        }
    }

    /// Frees a block, written or only reserved (after compaction drops an
    /// SSTable, or a build fails): [`SimDisk::release_extent`] of one.
    pub fn release(&self, id: u32) -> Result<()> {
        self.release_extent(id, 1)
    }

    /// Frees the `n` ids from `base`, written or only reserved, and merges
    /// them into the free ranges: one device step for a whole table. An
    /// id out of range or already free is a typed error, and then nothing
    /// is freed.
    pub fn release_extent(&self, base: u32, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let mut st = self.st();
        let ids = base as usize..base as usize + n;
        let Some(live) = st.live.get(ids.clone()) else {
            return Err(MemtreeError::corruption(
                "sim-disk",
                format!("release of out-of-range blocks {ids:?}"),
            ));
        };
        if let Some(dead) = live.iter().position(|&l| !l) {
            return Err(MemtreeError::corruption(
                "sim-disk",
                format!("double release of block {}", ids.start + dead),
            ));
        }
        st.live[ids.clone()].fill(false);
        let empty = Arc::clone(&st.empty);
        st.blocks[ids.clone()].fill(empty);
        // Drop buffered writes to the freed slots so a later sync cannot
        // resurrect them under a new owner of the ids.
        st.pending.retain(
            |op| !matches!(op, PendingOp::Block { id, .. } if ids.contains(&(*id as usize))),
        );
        // A free range that reaches the last slot is cut off the device,
        // so the slots end at the highest allocated id.
        let (start, len) = st.free.give(base, n as u32);
        if (start + len) as usize == st.blocks.len() {
            st.free.remove(start, len);
            st.blocks.truncate(start as usize);
            st.live.truncate(start as usize);
        }
        Ok(())
    }

    /// Flips one seeded bit of a block's **durable** content — latent
    /// corruption that lands after a successful sync, invisible until the
    /// next read CRC-checks the frame. Errors on dead or empty blocks.
    /// Deterministic: the same `(id, seed)` flips the same bit, so a
    /// second call with the same arguments restores the original bytes.
    pub fn bitrot_block(&self, id: u32, seed: u64) -> Result<()> {
        let mut st = self.st();
        if !st.live.get(id as usize).copied().unwrap_or(false) {
            return Err(MemtreeError::corruption(
                "sim-disk",
                format!("bitrot of dead block {id}"),
            ));
        }
        let mut block = st.blocks[id as usize].to_vec();
        if block.is_empty() {
            return Err(MemtreeError::corruption(
                "sim-disk",
                format!("bitrot of empty (unsynced) block {id}"),
            ));
        }
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bit = memtree_common::hash::splitmix64(&mut s) as usize % (block.len() * 8);
        block[bit / 8] ^= 1 << (bit % 8);
        st.blocks[id as usize] = Arc::from(block);
        Ok(())
    }

    /// Flips one seeded bit of a named file's **durable** content; returns
    /// false when the file is missing or empty (nothing to rot).
    pub fn bitrot_file(&self, file: &str, seed: u64) -> bool {
        let mut st = self.st();
        let Some(content) = st.files.get_mut(file) else { return false };
        if content.is_empty() {
            return false;
        }
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bit = memtree_common::hash::splitmix64(&mut s) as usize % (content.len() * 8);
        content[bit / 8] ^= 1 << (bit % 8);
        true
    }

    /// Appends bytes to a named file's buffered tail. `Enospc` rejects the
    /// whole append before buffering.
    pub fn append(&self, file: &str, data: &[u8]) -> Result<()> {
        let mut st = self.st();
        st.check_capacity("file-append", data.len())?;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        st.pending.push(PendingOp::Append {
            file: file.to_string(),
            data: data.to_vec(),
        });
        drop(st);
        self.charge_op(None);
        Ok(())
    }

    /// Replaces a file's entire content atomically (the `rename(2)`
    /// primitive): after a crash either the old or the new content is
    /// visible, never a mix. `Enospc` rejects it before buffering.
    pub fn write_file_atomic(&self, file: &str, data: &[u8]) -> Result<()> {
        let mut st = self.st();
        st.check_capacity("file-replace", data.len())?;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        st.pending.push(PendingOp::Replace {
            file: file.to_string(),
            data: data.to_vec(),
        });
        drop(st);
        self.charge_op(None);
        Ok(())
    }

    /// Truncates a file to `len` bytes (buffered; atomic at crash).
    /// Truncation only frees space, so it cannot fail with `Enospc`.
    pub fn truncate_file(&self, file: &str, len: usize) {
        self.st().pending.push(PendingOp::Truncate {
            file: file.to_string(),
            len,
        });
    }

    /// Removes a file (buffered `unlink(2)`; atomic at crash). Removing a
    /// missing file is a no-op, like `rm -f`.
    pub fn remove_file(&self, file: &str) {
        self.st().pending.push(PendingOp::Remove {
            file: file.to_string(),
        });
    }

    /// Names of all files visible through the write buffer (durable files
    /// plus buffered creations, minus buffered removals).
    pub fn file_names(&self) -> Vec<String> {
        let st = self.st();
        let mut names: std::collections::BTreeSet<String> = st.files.keys().cloned().collect();
        for op in st.pending.iter() {
            match op {
                PendingOp::Append { file, .. } | PendingOp::Replace { file, .. } => {
                    names.insert(file.clone());
                }
                PendingOp::Remove { file } => {
                    names.remove(file);
                }
                PendingOp::Block { .. } | PendingOp::Truncate { .. } => {}
            }
        }
        names.into_iter().collect()
    }

    /// The file's current content as seen through the write buffer.
    /// Missing files read as empty.
    pub fn read_file(&self, file: &str) -> Vec<u8> {
        let st = self.st();
        let mut content = st.files.get(file).cloned().unwrap_or_default();
        for op in st.pending.iter() {
            DiskState::apply_to(&mut content, file, op);
        }
        content
    }

    /// The file's length as seen through the write buffer.
    pub fn file_len(&self, file: &str) -> usize {
        self.read_file(file).len()
    }

    /// Makes every buffered write durable (the `fsync` barrier).
    pub fn sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.charge_op(None);
        let mut st = self.st();
        let ops = std::mem::take(&mut st.pending);
        for op in ops {
            st.apply_durable(op);
        }
    }

    /// Simulates power loss: every unsynced write is dropped. With
    /// `tear_seed`, the **last** in-flight write is torn instead of
    /// dropped — a seeded prefix of an append or block write reaches
    /// durable storage (atomic replace/truncate/remove ops apply fully or
    /// not at all, `rename` semantics, decided by the seed's low bit).
    ///
    /// Block ids allocated for unsynced writes stay allocated (their
    /// durable content is empty or torn), and so do reserved ids never
    /// written; recovery garbage-collects ids no manifest references.
    pub fn crash(&self, tear_seed: Option<u64>) {
        let mut st = self.st();
        let mut ops = std::mem::take(&mut st.pending);
        let Some(seed) = tear_seed else { return };
        let Some(last) = ops.pop() else { return };
        let mut s = seed;
        let draw = memtree_common::hash::splitmix64(&mut s);
        match last {
            PendingOp::Block { id, data } => {
                let keep = if data.is_empty() { 0 } else { draw as usize % data.len() };
                st.blocks[id as usize] = Arc::from(&data[..keep]);
            }
            PendingOp::Append { file, data } => {
                let keep = if data.is_empty() { 0 } else { draw as usize % data.len() };
                st.files.entry(file).or_default().extend_from_slice(&data[..keep]);
            }
            op @ (PendingOp::Replace { .. } | PendingOp::Truncate { .. } | PendingOp::Remove { .. }) => {
                if draw & 1 == 1 {
                    st.apply_durable(op);
                }
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            block_reads: self.reads.load(Ordering::Relaxed),
            block_writes: self.writes.load(Ordering::Relaxed),
            file_appends: self.appends.load(Ordering::Relaxed),
            file_bytes_written: self.append_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            read_repairs: 0,
            quarantined_blocks: 0,
            transient_retries: 0,
            slow_io_delay_us: self.slow_delay_us.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.appends.store(0, Ordering::Relaxed);
        self.append_bytes.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.slow_delay_us.store(0, Ordering::Relaxed);
    }

    /// Live (allocated) block count.
    pub fn live_blocks(&self) -> usize {
        self.st().live.iter().filter(|&&l| l).count()
    }

    /// Number of block slots: one past the highest allocated id, since
    /// a release that frees the last slots trims them. Recovery iterates
    /// `0..block_slots()` to garbage-collect orphans.
    pub fn block_slots(&self) -> usize {
        self.st().blocks.len()
    }

    /// True when `id` is currently allocated.
    pub fn is_live(&self, id: u32) -> bool {
        self.st().live.get(id as usize).copied().unwrap_or(false)
    }
}

#[cfg(test)]
impl SimDisk {
    /// A device holding this one's blocks, files and write buffer, with
    /// fresh counters, clock and fail points: one built state, reopened
    /// under many mutations.
    pub(crate) fn fork(&self) -> SimDisk {
        let disk = SimDisk::new(self.read_latency);
        *disk.st() = self.st().clone();
        disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_release_roundtrip() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"hello"[..])).unwrap();
        let b = d.write(Box::from(&b"world"[..])).unwrap();
        assert_eq!(&*d.read(a).unwrap(), b"hello");
        assert_eq!(&*d.read(b).unwrap(), b"world");
        assert_eq!(d.stats().block_reads, 2);
        assert_eq!(d.stats().block_writes, 2);
        d.release(a).unwrap();
        let c = d.write(Box::from(&b"again"[..])).unwrap();
        assert_eq!(c, a, "freed slot reused");
        assert_eq!(d.live_blocks(), 2);
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }

    /// The free ranges, start → length.
    fn free_ranges(d: &SimDisk) -> Vec<(u32, u32)> {
        d.st().free.by_start.iter().map(|(&s, &l)| (s, l)).collect()
    }

    /// Reserves `n` ids and fills each with its own id's byte.
    fn extent(d: &SimDisk, n: usize) -> u32 {
        let base = d.reserve(n);
        for id in base..base + n as u32 {
            d.write_at(id, Arc::from(&[id as u8][..])).unwrap();
        }
        base
    }

    #[test]
    fn an_extent_takes_consecutive_ids_and_reads_back_per_block() {
        let d = SimDisk::new(Duration::ZERO);
        assert_eq!(extent(&d, 3), 0);
        let base = d.reserve(4);
        assert_eq!(base, 3);
        d.write_at(5, Arc::from(&b"third"[..])).unwrap();
        assert_eq!(&*d.read(5).unwrap(), b"third");
        assert_eq!(&*d.read(4).unwrap(), b"", "reserved, not yet written");
        assert_eq!(d.live_blocks(), 7, "a reserved id is allocated");
        assert_eq!(d.stats().block_writes, 4, "one write per block, none per reservation");
        assert!(d.write_at(7, Arc::from(&b"x"[..])).is_err(), "past every extent");
        assert_eq!(d.write(Box::from(&b"one"[..])).unwrap(), 7, "an extent of one");
    }

    #[test]
    fn a_freed_range_is_reused_by_the_next_extent_it_holds() {
        let d = SimDisk::new(Duration::ZERO);
        let (a, b, c) = (extent(&d, 2), extent(&d, 5), extent(&d, 3));
        assert_eq!((a, b, c), (0, 2, 7));
        for id in b..b + 5 {
            d.release(id).unwrap();
        }
        assert_eq!(free_ranges(&d), [(2, 5)]);
        assert_eq!(d.reserve(4), 2, "taken from the freed range");
        assert_eq!(free_ranges(&d), [(6, 1)], "the rest stays free");
        assert_eq!(d.write(Box::from(&b"z"[..])).unwrap(), 6);
        assert!(free_ranges(&d).is_empty());
        assert_eq!(d.block_slots(), 10, "nothing appended");
        // Of two ranges that hold an extent, the smaller one serves it.
        for id in [0, 1, 2, 3, 4, 7, 8] {
            d.release(id).unwrap();
        }
        assert_eq!(free_ranges(&d), [(0, 5), (7, 2)]);
        assert_eq!(d.reserve(2), 7);
        assert_eq!(d.reserve(2), 0);
    }

    #[test]
    fn released_neighbours_coalesce_into_one_range() {
        let d = SimDisk::new(Duration::ZERO);
        // Id 8 stays allocated, so no freed range reaches the last slot.
        extent(&d, 9);
        // Out of order: each release merges with the range on either side.
        for id in [1, 3, 2, 6, 5, 4] {
            d.release(id).unwrap();
        }
        assert_eq!(free_ranges(&d), [(1, 6)]);
        d.release(0).unwrap();
        d.release(7).unwrap();
        assert_eq!(free_ranges(&d), [(0, 8)]);
        assert_eq!(d.reserve(8), 0, "the whole coalesced range serves one extent");
        assert_eq!(d.block_slots(), 9);
    }

    /// A freed range that reaches the last slot is cut off the device, so
    /// the slots end at the highest allocated id; a range below it stays
    /// free until the range above it goes.
    #[test]
    fn freeing_the_last_slots_trims_them() {
        let d = SimDisk::new(Duration::ZERO);
        let (a, b) = (extent(&d, 3), extent(&d, 4));
        assert_eq!(d.block_slots(), 7);
        d.release_extent(b, 4).unwrap();
        assert_eq!((d.block_slots(), free_ranges(&d)), (3, vec![]), "shrunk to A's end");
        d.release_extent(a, 3).unwrap();
        assert_eq!((d.block_slots(), free_ranges(&d)), (0, vec![]));
        let (a, b, c) = (extent(&d, 2), extent(&d, 3), extent(&d, 1));
        d.release_extent(b, 3).unwrap();
        assert_eq!((d.block_slots(), free_ranges(&d)), (6, vec![(2, 3)]), "C still holds the end");
        d.release(c).unwrap();
        assert_eq!((d.block_slots(), free_ranges(&d)), (2, vec![]), "B's range went with C");
        assert_eq!(d.reserve(4), 2, "appended at A's end");
        assert_eq!((a, d.live_blocks()), (0, 6));
    }

    #[test]
    fn an_extent_no_free_range_holds_is_appended() {
        let d = SimDisk::new(Duration::ZERO);
        extent(&d, 6);
        for id in [1, 2, 4] {
            d.release(id).unwrap();
        }
        assert_eq!(free_ranges(&d), [(1, 2), (4, 1)]);
        assert_eq!(d.reserve(3), 6, "appended past the last slot");
        assert_eq!(d.block_slots(), 9);
        assert_eq!(free_ranges(&d), [(1, 2), (4, 1)], "the short ranges stay free");
    }

    #[test]
    fn releasing_a_reserved_or_freed_id_twice_is_typed() {
        let d = SimDisk::new(Duration::ZERO);
        let base = d.reserve(2);
        d.release(base).unwrap();
        assert!(d.release(base).is_err(), "double release of a reserved id");
        assert!(d.write_at(base, Arc::from(&b"x"[..])).is_err(), "write to a freed id");
        d.write_at(base + 1, Arc::from(&b"y"[..])).unwrap();
        d.release(base + 1).unwrap();
        assert!(d.release(base + 1).is_err(), "double release of a written id");
        // Both ids freed once, and trimmed off the device with them.
        assert_eq!((free_ranges(&d), d.block_slots()), (vec![], 0));

        // An extent with a free id inside, or past the last slot, frees
        // nothing at all.
        let base = d.reserve(5);
        d.release(base + 2).unwrap();
        assert!(d.release_extent(base, 5).is_err(), "its middle id is free");
        assert!(d.release_extent(base + 3, 9).is_err(), "past the last slot");
        assert_eq!(d.live_blocks(), 4);
        d.release_extent(base, 2).unwrap();
        d.release_extent(base + 3, 2).unwrap();
        assert_eq!((d.live_blocks(), free_ranges(&d), d.block_slots()), (0, vec![], 0));
    }

    /// A write that fails inside an extent — `Enospc` or an armed write
    /// fault — buffers nothing, and releasing the extent leaves no
    /// reserved or live id: the extent is trimmed off the device.
    #[test]
    fn a_failed_write_mid_extent_leaves_nothing_once_the_extent_is_released() {
        for fault in [false, true] {
            let d = SimDisk::new(Duration::ZERO);
            let base = d.reserve(4);
            d.write_at(base, Arc::from(&[1u8; 8][..])).unwrap();
            d.write_at(base + 1, Arc::from(&[2u8; 8][..])).unwrap();
            let used = d.used_bytes();
            let err = if fault {
                d.faults().enable(1);
                d.faults().arm("lsm.disk.write_fault", 1.0, Some(1));
                d.write_at(base + 2, Arc::from(&[3u8; 8][..])).unwrap_err()
            } else {
                d.set_capacity_bytes(Some(20));
                d.write_at(base + 2, Arc::from(&[3u8; 8][..])).unwrap_err()
            };
            assert_eq!(matches!(err, MemtreeError::Enospc { .. }), !fault, "{err:?}");
            assert_eq!(d.used_bytes(), used, "the failed write buffered nothing");
            d.release_extent(base, 4).unwrap();
            assert_eq!((d.live_blocks(), d.used_bytes()), (0, 0));
            assert_eq!((free_ranges(&d), d.block_slots()), (vec![], 0));
            d.sync();
            assert_eq!(d.used_bytes(), 0, "a sync resurrects no released write");
        }
    }

    /// Power loss during an extent's writes: every block but the last
    /// buffered one is dropped, and the seed tears that one.
    #[test]
    fn a_crash_tears_only_the_extents_last_buffered_block() {
        for seed in 0..16u64 {
            let d = SimDisk::new(Duration::ZERO);
            let base = d.reserve(4);
            d.write_at(base, Arc::from(&b"synced"[..])).unwrap();
            d.sync();
            for (i, fill) in [(1, b'B'), (2, b'C'), (3, b'D')] {
                d.write_at(base + i, Arc::from(&[fill; 64][..])).unwrap();
            }
            d.crash(Some(seed));
            assert_eq!(&*d.read(base).unwrap(), b"synced");
            assert_eq!(&*d.read(base + 1).unwrap(), b"", "seed {seed}");
            assert_eq!(&*d.read(base + 2).unwrap(), b"", "seed {seed}");
            let torn = d.read(base + 3).unwrap();
            assert!(torn.len() < 64 && torn.iter().all(|&c| c == b'D'), "seed {seed}");
            assert_eq!(d.live_blocks(), 4, "the extent stays allocated for recovery's GC");
        }
    }

    #[test]
    fn typed_errors_for_bad_block_ids() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"x"[..])).unwrap();
        assert!(d.read(99).is_err(), "out-of-range read");
        assert!(d.release(99).is_err(), "out-of-range release");
        d.release(a).unwrap();
        assert!(d.release(a).is_err(), "double release");
        assert!(d.read(a).is_err(), "read of freed block");
    }

    #[test]
    fn crash_drops_unsynced_block_writes() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"durable"[..])).unwrap();
        d.sync();
        let b = d.write(Box::from(&b"volatile"[..])).unwrap();
        assert_eq!(&*d.read(b).unwrap(), b"volatile", "buffer readable pre-crash");
        d.crash(None);
        assert_eq!(&*d.read(a).unwrap(), b"durable");
        assert_eq!(&*d.read(b).unwrap(), b"", "unsynced write lost");
    }

    #[test]
    fn crash_tears_last_append_at_seeded_offset() {
        for seed in 0..64u64 {
            let d = SimDisk::new(Duration::ZERO);
            d.append("wal", b"AAAA").unwrap();
            d.sync();
            d.append("wal", b"BBBBBBBB").unwrap();
            d.crash(Some(seed));
            let f = d.read_file("wal");
            assert!(f.starts_with(b"AAAA"), "synced prefix intact");
            assert!(f.len() < 12, "torn append keeps a strict prefix: {f:?}");
            assert!(f[4..].iter().all(|&c| c == b'B'));
        }
    }

    #[test]
    fn atomic_replace_never_tears() {
        for seed in 0..32u64 {
            let d = SimDisk::new(Duration::ZERO);
            d.write_file_atomic("CURRENT", b"manifest-1").unwrap();
            d.sync();
            d.write_file_atomic("CURRENT", b"manifest-2").unwrap();
            d.crash(Some(seed));
            let f = d.read_file("CURRENT");
            assert!(
                f == b"manifest-1" || f == b"manifest-2",
                "replace must be atomic, got {f:?}"
            );
        }
    }

    #[test]
    fn files_append_truncate_roundtrip() {
        let d = SimDisk::new(Duration::ZERO);
        d.append("log", b"one").unwrap();
        d.append("log", b"two").unwrap();
        assert_eq!(d.read_file("log"), b"onetwo", "buffered view");
        d.sync();
        d.truncate_file("log", 3);
        assert_eq!(d.read_file("log"), b"one");
        d.crash(None); // unsynced truncate dropped
        assert_eq!(d.read_file("log"), b"onetwo");
        assert_eq!(d.read_file("missing"), b"");
    }

    #[test]
    fn remove_file_and_file_names_track_the_buffer() {
        let d = SimDisk::new(Duration::ZERO);
        d.append("a", b"1").unwrap();
        d.append("b", b"2").unwrap();
        d.sync();
        d.remove_file("a");
        assert_eq!(d.file_names(), vec!["b".to_string()], "buffered removal visible");
        assert_eq!(d.read_file("a"), b"", "removed file reads as empty");
        d.crash(None); // unsynced removal dropped
        assert_eq!(d.file_names(), vec!["a".to_string(), "b".to_string()]);
        d.remove_file("a");
        d.sync();
        assert_eq!(d.file_names(), vec!["b".to_string()], "durable removal");
        d.remove_file("missing"); // no-op, like rm -f
        d.sync();
    }

    #[test]
    fn capacity_limit_yields_typed_enospc_without_partial_state() {
        let d = SimDisk::new(Duration::ZERO);
        d.set_capacity_bytes(Some(10));
        let a = d.write(Box::from(&b"12345678"[..])).unwrap();
        let before = d.used_bytes();
        match d.write(Box::from(&b"xxx"[..])) {
            Err(MemtreeError::Enospc { requested, .. }) => assert_eq!(requested, 3),
            other => panic!("expected Enospc, got {other:?}"),
        }
        assert_eq!(d.used_bytes(), before, "failed write buffered nothing");
        assert!(matches!(
            d.append("wal", b"abc"),
            Err(MemtreeError::Enospc { .. })
        ));
        assert!(matches!(
            d.write_file_atomic("CURRENT", b"abc"),
            Err(MemtreeError::Enospc { .. })
        ));
        // Freeing space makes the same writes succeed.
        d.sync();
        d.release(a).unwrap();
        d.write(Box::from(&b"xxx"[..])).unwrap();
        d.append("wal", b"abc").unwrap();
        d.set_capacity_bytes(None);
        d.write(Box::from(&vec![0u8; 1 << 16][..])).unwrap();
    }

    #[test]
    fn bitrot_flips_exactly_one_durable_bit_and_is_self_inverse() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&[0u8; 64][..])).unwrap();
        d.sync();
        d.bitrot_block(a, 42).unwrap();
        let rotten = d.read(a).unwrap();
        assert_eq!(
            rotten.iter().map(|b| b.count_ones()).sum::<u32>(),
            1,
            "exactly one bit flipped"
        );
        d.bitrot_block(a, 42).unwrap();
        assert_eq!(&*d.read(a).unwrap(), &[0u8; 64][..], "same seed restores");
        // Unsynced blocks have no durable content to rot.
        let b = d.write(Box::from(&b"fresh"[..])).unwrap();
        assert!(d.bitrot_block(b, 1).is_err());
        d.release(a).unwrap();
        assert!(d.bitrot_block(a, 1).is_err(), "dead block");

        d.append("f", b"\0\0\0\0").unwrap();
        assert!(!d.bitrot_file("f", 3), "unsynced file content is not durable");
        d.sync();
        assert!(d.bitrot_file("f", 3));
        let rotten = d.read_file("f");
        assert_eq!(rotten.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert!(d.bitrot_file("f", 3), "self-inverse for files too");
        assert_eq!(d.read_file("f"), b"\0\0\0\0");
        assert!(!d.bitrot_file("missing", 1));
    }

    #[test]
    fn transient_read_fault_is_typed_and_heals_on_retry() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"payload"[..])).unwrap();
        d.sync();
        d.faults().enable(5);
        d.faults().arm("lsm.disk.read_transient", 1.0, Some(1));
        match d.read(a) {
            Err(e) => assert!(e.is_transient(), "typed transient, got {e:?}"),
            Ok(_) => panic!("armed transient fault must fire"),
        }
        assert_eq!(&*d.read(a).unwrap(), b"payload", "retry heals");
    }

    /// Two disks, one process: a point armed on one device never fires on
    /// another, and the armed device counts only its own reads.
    #[test]
    fn fail_points_belong_to_their_disk() {
        let (a, b) = (SimDisk::new(Duration::ZERO), SimDisk::new(Duration::ZERO));
        let (block_a, block_b) = (
            a.write(Box::from(&b"disk-a"[..])).unwrap(),
            b.write(Box::from(&b"disk-b"[..])).unwrap(),
        );
        a.faults().enable(1);
        a.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..1000 {
                    assert_eq!(&*b.read(block_b).unwrap(), b"disk-b", "A's fault hit B");
                }
            });
            start.wait();
            for _ in 0..1000 {
                assert_ne!(&*a.read(block_a).unwrap(), b"disk-a", "armed read must corrupt");
            }
        });
        assert_eq!(a.faults().trips("lsm.disk.read_corrupt"), 1000, "A counts A's reads only");
        assert_eq!(b.faults().trips("lsm.disk.read_corrupt"), 0);
    }

    #[test]
    fn virtual_clock_ticks_every_op_and_slow_io_is_deterministic() {
        let run = |profile: Option<SlowIo>| {
            let d = SimDisk::new(Duration::ZERO);
            d.set_slow_io(profile);
            let mut ids = Vec::new();
            for i in 0..100u8 {
                ids.push(d.write(Box::from(&[i][..])).unwrap());
                d.append("wal", &[i]).unwrap();
            }
            d.sync();
            for &id in &ids {
                d.read(id).unwrap();
            }
            (d.now_us(), d.stats().slow_io_delay_us)
        };
        let (clock, delay) = run(None);
        assert_eq!(delay, 0, "no profile, no injected delay");
        assert_eq!(clock, 301, "100 writes + 100 appends + 1 sync + 100 reads, 1us each");

        let profile = SlowIo::storm(7);
        let (slow_clock, slow_delay) = run(Some(profile));
        assert!(slow_delay > 0, "storm profile must charge delay");
        assert_eq!(slow_clock, 301 + slow_delay, "all delay lands on the clock");
        assert_eq!(run(Some(profile)), (slow_clock, slow_delay), "seeded = reproducible");
        // A different seed draws different jitter.
        assert_ne!(run(Some(SlowIo::storm(8))).1, slow_delay);
    }

    #[test]
    fn slow_region_charges_only_region_blocks() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"in-region"[..])).unwrap();
        for _ in 0..8 {
            d.write(Box::from(&b"filler"[..])).unwrap();
        }
        let b = d.write(Box::from(&b"outside"[..])).unwrap();
        d.sync();
        d.set_slow_io(Some(SlowIo {
            seed: 1,
            base_us: 0,
            burst_every: 0,
            burst_len: 0,
            burst_us: 0,
            slow_region: Some((0, 8)),
            region_us: 500,
        }));
        let before = d.stats().slow_io_delay_us;
        d.read(b).unwrap();
        assert_eq!(d.stats().slow_io_delay_us, before, "outside region: free");
        d.read(a).unwrap();
        assert_eq!(d.stats().slow_io_delay_us, before + 500, "region read pays");
    }

    #[test]
    fn slow_io_fail_point_adds_storm_delay() {
        let d = SimDisk::new(Duration::ZERO);
        let a = d.write(Box::from(&b"x"[..])).unwrap();
        d.sync();
        d.faults().enable(3);
        d.faults().arm("lsm.disk.slow_io", 1.0, Some(2));
        let t0 = d.now_us();
        d.read(a).unwrap();
        assert!(d.now_us() >= t0 + SLOW_IO_STORM_US, "armed point slows the read");
        d.faults().disable();
        let t1 = d.now_us();
        d.read(a).unwrap();
        assert!(d.now_us() < t1 + SLOW_IO_STORM_US, "disarmed point is fast");
        assert!(d.stats().slow_io_delay_us >= SLOW_IO_STORM_US);
        d.advance_clock(1000);
        assert!(d.now_us() >= t1 + 1000);
    }

    #[test]
    fn shared_disk_is_send_sync_across_threads() {
        use std::sync::Arc;
        let d = Arc::new(SimDisk::new(Duration::ZERO));
        let ids: Vec<_> = (0..4)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..32u8 {
                        ids.push((d.write(Box::from(&[t as u8, i][..])).unwrap(), [t as u8, i]));
                        d.append(&format!("wal-{t}"), &[t as u8, i]).unwrap();
                    }
                    d.sync();
                    ids
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Every thread's blocks survived with its own bytes: allocation
        // under the state mutex never handed two writers one slot.
        for (id, want) in ids {
            assert_eq!(&*d.read(id).unwrap(), &want[..]);
        }
        assert_eq!(d.live_blocks(), 128);
        for t in 0..4 {
            assert_eq!(d.read_file(&format!("wal-{t}")).len(), 64);
        }
    }
}
