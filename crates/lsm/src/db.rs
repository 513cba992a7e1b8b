//! The LSM database: options and stats, open/recovery, the write path
//! (put, flush, stall bands) and the compaction driver over a MemTable +
//! leveled SSTables + block cache, with a full crash-recovery stack (WAL +
//! manifest + power-loss-aware disk). The Figure 4.3 query paths live in
//! [`crate::read`]; the read methods here delegate to it.
//!
//! ## Durability protocol
//!
//! * `put` appends a CRC-framed record to the WAL *before* touching the
//!   MemTable; the record is **acknowledged** once a group commit syncs it
//!   ([`Db::last_synced_seq`]).
//! * `flush` writes the MemTable as an L0 SSTable, syncs the data blocks,
//!   then publishes `AddTable + FlushSeq` as one manifest transaction.
//!   Only after that commit point is the WAL's high-water mark reset — a
//!   crash between the two replays from the old mark and loses nothing.
//! * compaction builds its outputs aside, syncs them, then swaps victims
//!   for outputs in a single manifest transaction before releasing any old
//!   block. A torn transaction drops the whole swap.
//! * [`Db::open`] replays CURRENT → manifest → WAL, garbage-collects
//!   blocks no table references, rebuilds filters, and verifies level
//!   invariants. The crash oracle (`tests/crash_oracle.rs`) drives every
//!   `fail_point!` below through crash + reopen across seeds.

use crate::cache::BlockCache;
use crate::compaction::CompactionConfig;
use crate::disk::{IoStats, SimDisk};
use crate::manifest::{Edit, Manifest, Version};
use crate::memtable::{self, MemTable};
use crate::merge::merge_tables;
use crate::read::{Handle, ReadView};
use crate::run::{Run, MAX_ENTRY_BYTES};
use crate::snapshot::TableSet;
use crate::sstable::{SsTable, TableMemStats};
use crate::wal::{wal_file_name, Wal, WalStats};
use memtree_common::error::{MemtreeError, Result};
use memtree_faults::{fail_point, Backoff};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Which filter each SSTable carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// No filter (fence indexes only).
    None,
    /// Bloom filter at the given bits per key.
    Bloom(f64),
    /// SuRF with hashed suffix bits.
    SurfHash(u8),
    /// SuRF with real suffix bits.
    SurfReal(u8),
    /// SuRF with hashed + real suffix bits.
    SurfMixed(u8, u8),
}

/// Engine configuration (defaults scaled from RocksDB's).
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Flush the MemTable when it reaches this many bytes.
    pub memtable_bytes: usize,
    /// Target data-block size.
    pub block_size: usize,
    /// Compact level 0 when it accumulates this many SSTables.
    pub l0_tables: usize,
    /// Max tables at level 1 under leveled compaction; level `L` holds
    /// `fanout` × level `L-1` (tiered levels hold `tiers_per_level` runs).
    pub l1_tables: usize,
    /// Per-table filter.
    pub filter: FilterKind,
    /// Block-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Simulated latency charged per block read (used by [`Db::new`] when
    /// it creates the disk; [`Db::open`] inherits the given disk's).
    pub io_read_latency: Duration,
    /// Group commit: sync the WAL once every this many puts (1 = every
    /// put is acknowledged immediately; larger values amortize the sync
    /// barrier and risk only the unsynced suffix).
    pub wal_group_commit: usize,
    /// File-name namespace prefix for this database's WAL, CURRENT, and
    /// manifest files (`""` = the classic standalone names). Lets several
    /// databases — e.g. the shards of a sharded serving layer — share one
    /// [`SimDisk`] without clobbering each other's metadata.
    ///
    /// The namespace also decides who garbage-collects unreferenced disk
    /// blocks. A database with the empty namespace owns its disk and
    /// frees them at open; a namespaced one leaves that to its owner (one
    /// shard must not free blocks its siblings reference), which runs the
    /// cross-database [`gc_orphans`](crate::gc_orphans) once every
    /// database on the disk is open.
    pub namespace: String,
    /// Compaction policy shaping the levels. Persisted in the manifest at
    /// creation; on reopen the *persisted* policy wins (the on-disk level
    /// shape was built by it), and this field is updated to match —
    /// [`Db::open_report`] records the override when the two disagree.
    pub compaction: CompactionConfig,
    /// Write-stall triggers (RocksDB-style slowdown/stop bands over L0 run
    /// count and MemTable bytes). Disabled by default: an unconfigured
    /// database never rejects a write for debt.
    pub stall: StallConfig,
    /// Run compaction synchronously at the end of every flush (`true`,
    /// the classic behaviour) or leave flushed runs as compaction *debt*
    /// drained by explicit [`Db::compact_debt`] calls (`false` — the
    /// serving layer's model, where debt is what the stall bands measure).
    pub compact_on_flush: bool,
}

/// Write-stall triggers. A write finding the engine at or past a
/// *slowdown* trigger is rejected with a typed
/// [`Backpressure`](memtree_common::error::MemtreeError::Backpressure)
/// (after one bounded compaction step of relief); at or past a *stop*
/// trigger it is rejected with a typed
/// [`Stalled`](memtree_common::error::MemtreeError::Stalled). Neither band
/// ever blocks the caller — the delay is surfaced, not slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// Slowdown when L0 holds at least this many runs.
    pub slowdown_l0_runs: usize,
    /// Stop when L0 holds at least this many runs.
    pub stop_l0_runs: usize,
    /// Slowdown when the MemTable holds at least this many bytes (it can
    /// only exceed [`DbOptions::memtable_bytes`] while flushes are
    /// failing, so this band catches a flush-starved engine).
    pub slowdown_memtable_bytes: usize,
    /// Stop when the MemTable holds at least this many bytes.
    pub stop_memtable_bytes: usize,
}

impl StallConfig {
    /// No triggers: writes are never rejected for debt.
    pub const fn disabled() -> Self {
        Self {
            slowdown_l0_runs: usize::MAX,
            stop_l0_runs: usize::MAX,
            slowdown_memtable_bytes: usize::MAX,
            stop_memtable_bytes: usize::MAX,
        }
    }

    /// Bands scaled for a serving shard: slowdown at `2 × l0_tables` L0
    /// runs (debt twice the compaction trigger), stop at `4 ×`, and the
    /// byte bands at `4 ×` / `8 ×` the MemTable flush threshold.
    pub fn serving(l0_tables: usize, memtable_bytes: usize) -> Self {
        Self {
            slowdown_l0_runs: l0_tables.saturating_mul(2).max(2),
            stop_l0_runs: l0_tables.saturating_mul(4).max(4),
            slowdown_memtable_bytes: memtable_bytes.saturating_mul(4),
            stop_memtable_bytes: memtable_bytes.saturating_mul(8),
        }
    }
}

impl Default for StallConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            memtable_bytes: 256 << 10,
            block_size: 4096,
            l0_tables: 4,
            l1_tables: 4,
            filter: FilterKind::None,
            cache_blocks: 64,
            io_read_latency: Duration::ZERO,
            wal_group_commit: 1,
            namespace: String::new(),
            compaction: CompactionConfig::default(),
            stall: StallConfig::disabled(),
            compact_on_flush: true,
        }
    }
}

/// Debt and overload counters exposed by [`Db::stats`]: what the stall
/// bands measure and what they rejected. The serving layer samples this to
/// drive admission control and its `stall` bench section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Runs currently at level 0.
    pub l0_runs: usize,
    /// Bytes buffered in the MemTable.
    pub memtable_bytes: usize,
    /// Approximate bytes in runs beyond every level's policy limit — the
    /// work outstanding before the engine is back in shape.
    pub compaction_debt_bytes: usize,
    /// Writes rejected with `Backpressure` (slowdown band).
    pub backpressure_rejections: u64,
    /// Writes rejected with `Stalled` (stop band, after bounded relief).
    pub stall_rejections: u64,
    /// Bounded compaction steps executed: [`Db::compact_debt`] calls that
    /// merged, the relief steps the bands run before rejecting, and each
    /// merge of a compaction run at the end of a flush.
    pub compact_steps: u64,
}

/// Point-filter probe counters of the writer's reads. Only tables that
/// actually carry a filter count. Every pass probes one key, so
/// `probe_passes == keys_probed`; both fields stay because the serving
/// benchmark reports `probe_passes` per get (`lsm.filter_passes_per_get`)
/// next to `keys_probed`, and that benchmark is held fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Filter probes started (one per `may_contain` call).
    pub probe_passes: u64,
    /// Keys answered across all probes.
    pub keys_probed: u64,
}

/// What one [`Db::flush`] did — previously the flush was observably a
/// silent no-op from the outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// MemTable entries written into the new L0 table.
    pub entries: usize,
    /// WAL bytes reclaimed by the (post-manifest-commit) high-water reset.
    pub wal_bytes_truncated: u64,
    /// Data blocks the new table occupies.
    pub blocks_written: usize,
}

/// The LSM key-value store.
///
/// `Db` is `Send` (a sharded database keeps each shard's behind a lock
/// that any caller may take) but not `Sync` — its hot-path bookkeeping
/// stays in `Cell`/`RefCell`. Concurrent readers go through
/// [`Db::snapshot`]: an immutable, `Send + Sync` view backed by
/// `Arc`-shared tables, disk, and block cache.
pub struct Db {
    pub(crate) opts: DbOptions,
    pub(crate) disk: Arc<SimDisk>,
    /// The MemTable; [`Db::snapshot`] publishes a frozen copy of it.
    pub(crate) mem: MemTable,
    /// Key + value + 1 bytes per write since the last flush, overwrites
    /// included: what the flush threshold and the stall bands read.
    pub(crate) mem_bytes: usize,
    /// `levels` + `quarantined` as snapshots share them; dropped whenever
    /// either changes ([`Db::tables_changed`]) and rebuilt by the next
    /// snapshot.
    table_set: RefCell<Option<Arc<TableSet>>>,
    /// `levels[0]` newest-last; levels ≥ 1 key-ordered and disjoint.
    /// Tables are `Arc`-shared with snapshots, which keep reading a
    /// retired table until they drop it.
    pub(crate) levels: Vec<Vec<Arc<SsTable>>>,
    pub(crate) cache: Arc<BlockCache>,
    /// Retired tables still held by outstanding snapshots: their blocks
    /// are released only once the last snapshot drops the `Arc` (reaped at
    /// the next flush / close).
    graveyard: Vec<Arc<SsTable>>,
    pub(crate) next_table_id: u64,
    pub(crate) filter_stats: Cell<FilterStats>,
    wal: Wal,
    /// `RefCell` so the `&self` read path can persist quarantine edits.
    pub(crate) manifest: RefCell<Manifest>,
    /// WAL records at or below this seq are covered by flushed tables.
    pub(crate) flushed_seq: u64,
    /// Block decodes that failed once and succeeded on re-read.
    pub(crate) read_repairs: Cell<u64>,
    /// `(table id, block index)` pairs that failed validation persistently;
    /// their entries are unreachable until scrub repairs or drops them.
    /// Mirrored in the manifest so reopen skips known-bad blocks.
    pub(crate) quarantined: RefCell<HashSet<(u64, u32)>>,
    /// Reads that hit a transient fault and were retried.
    pub(crate) transient_retries: Cell<u64>,
    /// Writes rejected by the slowdown band since open.
    backpressure_rejections: u64,
    /// Writes rejected by the stop band since open.
    stall_rejections: u64,
    /// Bounded compaction steps executed since open.
    compact_steps: u64,
    /// What [`Db::open`] observed while recovering (see [`OpenReport`]).
    open_report: OpenReport,
}

/// What [`Db::open`] observed while recovering, kept for the caller to
/// inspect via [`Db::open_report`]. Recovery itself never fails on any of
/// these — they are notes, not errors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// `Some((requested, persisted))` when the options asked for a
    /// compaction policy different from the manifest's persisted one. The
    /// persisted policy won (the on-disk level shape was built by it);
    /// switching a policy on reopen is unsupported — rebuild through a
    /// fresh database to change policy.
    pub policy_overridden: Option<(CompactionConfig, CompactionConfig)>,
    /// WAL records replayed past the flushed high-water mark.
    pub wal_records_replayed: u64,
    /// Filters restored from persisted images (O(1) reads per table).
    pub filters_loaded: u64,
    /// Filters rebuilt from data blocks (no or corrupt image).
    pub filters_rebuilt: u64,
    /// Persisted filter images that failed validation.
    pub filter_images_corrupt: u64,
    /// Tables left filterless because blocks were unreadable/quarantined.
    pub degraded_tables: u64,
}

impl Db {
    /// Opens an empty database on a fresh simulated disk.
    pub fn new(opts: DbOptions) -> Self {
        let disk = Arc::new(SimDisk::new(opts.io_read_latency));
        Self::open(disk, opts).expect("fresh database open cannot fail")
    }

    /// Opens (or recovers) a database from `disk`: reads CURRENT and the
    /// manifest it names, reconstructs the level structure, garbage-
    /// collects unreferenced blocks (only with the empty
    /// [`DbOptions::namespace`]), rebuilds filters, replays the WAL past
    /// the flushed high-water mark, and rotates the manifest to a fresh
    /// snapshot.
    pub fn open(disk: Arc<SimDisk>, opts: DbOptions) -> Result<Self> {
        let mut opts = opts;
        let (mut manifest, mut version, fresh) = Manifest::open(&disk, &opts.namespace)?;
        // Policy resolution: the manifest's persisted policy wins — the
        // on-disk level shape was built by it, and opening tiered levels
        // with leveled read paths would assume a disjointness that does
        // not hold. A fresh database records its options' policy now, so
        // every later open agrees.
        let requested = opts.compaction;
        let config = version.policy.unwrap_or(opts.compaction);
        let policy_overridden = (config != requested).then_some((requested, config));
        opts.compaction = config;
        if fresh {
            manifest.append(&disk, &[Edit::Policy(config)])?;
        }
        version.policy = Some(config);
        let mut levels: Vec<Vec<SsTable>> = Vec::new();
        for (depth, metas) in version.levels.iter().enumerate() {
            // Overlapping runs keep the manifest's age order (newest last).
            let mut level: Vec<SsTable> =
                metas.iter().map(|m| SsTable::from_meta(m.clone())).collect();
            config.order(depth, &mut level);
            levels.push(level);
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        // Garbage-collect blocks no table references: torn table builds
        // and compactions that crashed before their manifest transaction
        // leave allocated-but-unpublished blocks behind (data and filter-
        // image blocks alike). A namespaced open skips this (another
        // database's tables also reference this disk); its owner runs the
        // cross-database [`gc_orphans`] once every database is open.
        if opts.namespace.is_empty() {
            release_unreferenced(&disk, levels.iter().flatten())?;
        }
        // Filter recovery, fastest path first:
        //
        // 1. **Persisted image** — one block read per table restores the
        //    filter in O(tables) total I/O. A table with quarantined data
        //    blocks may still load its image: the image indexes *every*
        //    key (the quarantined ones included), so it is over-complete —
        //    worst case a false positive on a lost key, never a false
        //    negative.
        // 2. **Rebuild from keys** — tables without an image (built
        //    filterless under a different configuration) or with a
        //    corrupt image re-read their data blocks, the O(data) path.
        // 3. **Degrade to filterless** — a rebuild that hits unreadable or
        //    quarantined blocks leaves the table whole-table filterless (a
        //    partial filter would answer false negatives). Freshly
        //    discovered bad blocks are quarantined into the rotation
        //    snapshot below. Wrong answers are impossible in every case.
        let mut degraded = 0u64;
        let mut loaded = 0u64;
        let mut rebuilt = 0u64;
        let mut images_corrupt = 0u64;
        if !matches!(opts.filter, FilterKind::None) {
            for table in levels.iter_mut().flatten() {
                match table.load_persisted_filter(&disk, &opts.filter) {
                    Ok(true) => {
                        loaded += 1;
                        continue;
                    }
                    Ok(false) => {}
                    Err(_) => images_corrupt += 1,
                }
                let mut runs: Vec<Run> = Vec::with_capacity(table.index.len());
                let mut table_degraded = false;
                for (bi, b) in table.index.block_ids().enumerate() {
                    if version.quarantined.contains(&(table.id, bi as u32)) {
                        table_degraded = true;
                        continue;
                    }
                    let mut frame = Vec::new();
                    let raw = disk.read_retrying(b, &mut Backoff::new(4), &mut frame);
                    match raw.and_then(|()| Run::from_frame(frame)) {
                        Ok(blk) => runs.push(blk),
                        Err(e) => {
                            if !e.is_transient() {
                                version.quarantined.insert((table.id, bi as u32));
                            }
                            table_degraded = true;
                        }
                    }
                }
                if table_degraded {
                    degraded += 1;
                } else {
                    let keys: Vec<&[u8]> =
                        runs.iter().flat_map(|r| r.iter().map(|(k, _)| k)).collect();
                    // Each block is sorted; a manifest that lists them out
                    // of key order describes no table a flush wrote.
                    if !keys.windows(2).all(|w| w[0] < w[1]) {
                        let detail =
                            format!("table {} lists its blocks out of key order", table.id);
                        return Err(MemtreeError::corruption("manifest", detail));
                    }
                    table.attach_filter(&keys, &opts.filter);
                    rebuilt += 1;
                }
            }
        }
        let (wal, records) = Wal::replay(&disk, version.flushed_seq, &wal_file_name(&opts.namespace))?;
        let mut db = Self {
            cache: Arc::new(BlockCache::new(opts.cache_blocks)),
            opts,
            mem: MemTable::default(),
            mem_bytes: 0,
            table_set: RefCell::new(None),
            // Filters were attached above, while the tables were still
            // uniquely owned; from here on they are immutable and shared.
            levels: levels
                .into_iter()
                .map(|lvl| lvl.into_iter().map(Arc::new).collect())
                .collect(),
            graveyard: Vec::new(),
            next_table_id: version.next_table_id,
            filter_stats: Cell::new(FilterStats::default()),
            wal,
            manifest: RefCell::new(manifest),
            flushed_seq: version.flushed_seq,
            read_repairs: Cell::new(0),
            quarantined: RefCell::new(version.quarantined.iter().copied().collect()),
            transient_retries: Cell::new(0),
            backpressure_rejections: 0,
            stall_rejections: 0,
            compact_steps: 0,
            open_report: OpenReport {
                policy_overridden,
                wal_records_replayed: records.len() as u64,
                filters_loaded: loaded,
                filters_rebuilt: rebuilt,
                filter_images_corrupt: images_corrupt,
                degraded_tables: degraded,
            },
            disk,
        };
        let mut last_applied = version.flushed_seq;
        for r in &records {
            // `Wal::replay` already enforces monotonic seqs; re-checking
            // here keeps the recovered-prefix guarantee local to `open`.
            if r.seq <= last_applied {
                return Err(MemtreeError::corruption(
                    "wal-replay",
                    format!("record seq {} at or below applied seq {last_applied}", r.seq),
                ));
            }
            last_applied = r.seq;
            db.apply_write(&r.key, r.value.as_deref());
        }
        if !fresh {
            // Rotation only compacts the manifest log. On a full disk it
            // fails before CURRENT moves, the old manifest stays the live
            // one, and the database opens without it: a full disk must
            // fail writes, not recovery.
            match db.manifest.borrow_mut().rotate(&db.disk, &version) {
                Ok(()) | Err(MemtreeError::Enospc { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        db.check_invariants()?;
        Ok(db)
    }

    /// Flushes, syncs, and hands back the disk — the clean-shutdown path.
    /// Reopening after `close` replays zero WAL records.
    pub fn close(mut self) -> Result<Arc<SimDisk>> {
        self.flush()?;
        self.reap_graveyard()?;
        // Any table still pinned by an outstanding snapshot keeps its
        // blocks; reopen's orphan GC reclaims them once nothing durable
        // references them.
        self.disk.sync();
        Ok(Arc::clone(&self.disk))
    }

    /// A handle to the underlying disk (for crash simulation and
    /// reopening; the disk outlives the `Db`).
    pub fn disk_handle(&self) -> Arc<SimDisk> {
        Arc::clone(&self.disk)
    }

    /// Retires a table that left the live version: evicts its cached
    /// blocks, then releases its disk blocks — unless a snapshot still
    /// holds the table, in which case the release is parked in the
    /// graveyard until the last reader drops the `Arc`.
    fn retire_table(&mut self, table: Arc<SsTable>) -> Result<()> {
        self.cache.invalidate_table(table.id);
        if Arc::strong_count(&table) == 1 {
            table.release(&self.disk)?;
        } else {
            self.graveyard.push(table);
        }
        Ok(())
    }

    /// Releases the blocks of retired tables no snapshot holds anymore
    /// (flush and close do this too). Parked blocks are never reused while
    /// parked (they stay allocated), so a late release can never free
    /// another table's block.
    pub fn reap_graveyard(&mut self) -> Result<()> {
        let mut keep = Vec::new();
        for t in std::mem::take(&mut self.graveyard) {
            if Arc::strong_count(&t) == 1 {
                t.release(&self.disk)?;
            } else {
                keep.push(t);
            }
        }
        self.graveyard = keep;
        Ok(())
    }

    /// MemTable insert without logging (shared by `put`/`delete` and WAL
    /// replay). `None` writes a delete tombstone.
    fn apply_write(&mut self, key: &[u8], value: Option<&[u8]>) {
        self.mem.insert(key, value);
        self.mem_bytes += key.len() + value.map_or(0, <[u8]>::len) + 1;
    }

    /// Inserts or overwrites `key`, returning the write's sequence number.
    /// The record is durable once [`Db::last_synced_seq`] reaches it.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<u64> {
        self.write(key, Some(value))
    }

    /// Deletes `key`: logs and buffers a tombstone that shadows every
    /// older version until bottom-level compaction drops both. Deleting an
    /// absent key is a (logged) no-op with the same durability guarantee.
    pub fn delete(&mut self, key: &[u8]) -> Result<u64> {
        self.write(key, None)
    }

    /// The stall bands ([`StallConfig`]): checked before a write touches
    /// the WAL, so a rejected write has no side effects at all.
    ///
    /// Stop band: one bounded compaction step of relief, then a typed
    /// [`Stalled`](MemtreeError::Stalled) if the debt still exceeds the
    /// trigger — never an unbounded block. Slowdown band: one relief step
    /// and a typed [`Backpressure`](MemtreeError::Backpressure) whose
    /// suggested wait scales with how deep into the band the engine is.
    /// A relief step's own error is swallowed here (the rejection already
    /// tells the caller to back off); flush/compact surface it typed on
    /// their own paths.
    fn check_pressure(&mut self) -> Result<()> {
        let bands = self.opts.stall;
        let over_stop = |l0: usize, mem: usize| {
            l0 >= bands.stop_l0_runs || mem >= bands.stop_memtable_bytes
        };
        let over_slowdown = |l0: usize, mem: usize| {
            l0 >= bands.slowdown_l0_runs || mem >= bands.slowdown_memtable_bytes
        };
        let (l0, mem) = (self.levels[0].len(), self.mem_bytes);
        if !over_slowdown(l0, mem) {
            return Ok(());
        }
        let _ = self.compact_step();
        let (l0, mem) = (self.levels[0].len(), self.mem_bytes);
        if over_stop(l0, mem) {
            self.stall_rejections += 1;
            return Err(MemtreeError::Stalled { l0_runs: l0, memtable_bytes: mem });
        }
        if over_slowdown(l0, mem) {
            self.backpressure_rejections += 1;
            let depth = (l0 + 1).saturating_sub(bands.slowdown_l0_runs).max(1) as u64;
            return Err(MemtreeError::Backpressure { suggested_wait_us: 100 * depth });
        }
        Ok(())
    }

    fn write(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<u64> {
        // A longer key or value cannot be encoded into a block: reject it
        // here, before the stall bands and the WAL, so the refusal has no
        // side effects (logging and acknowledging it would lose it — and
        // its block neighbours — at the next flush).
        for len in [key.len(), value.map_or(0, <[u8]>::len)] {
            if len > MAX_ENTRY_BYTES {
                return Err(MemtreeError::Allocation { bytes: len });
            }
        }
        self.check_pressure()?;
        let seq = self
            .wal
            .append(&self.disk, key, value, self.opts.wal_group_commit)?;
        self.apply_write(key, value);
        if self.mem_bytes >= self.opts.memtable_bytes {
            // The write itself is already applied and logged; the flush it
            // triggers is best-effort here. Transient faults get a bounded
            // retry; real failures (ENOSPC, injected aborts) propagate
            // typed with the Db still fully serviceable — a later put or
            // explicit `flush` retries the whole flush.
            let mut backoff = Backoff::new(3);
            loop {
                match self.flush() {
                    Ok(_) => break,
                    Err(e) if backoff.retry(&e) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(seq)
    }

    /// Forces every appended WAL record durable (acknowledges the group-
    /// commit tail).
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync(&self.disk)
    }

    /// Flushes the MemTable into a new level-0 SSTable. Returns `None`
    /// when the MemTable was empty, else what the flush did.
    ///
    /// Durability order: data blocks are synced first, then the
    /// `AddTable + FlushSeq` manifest transaction commits, and only then
    /// is the WAL's high-water mark reset — never before.
    pub fn flush(&mut self) -> Result<Option<FlushStats>> {
        self.tables_changed();
        self.reap_graveyard()?;
        if self.mem_bytes == 0 {
            return Ok(None);
        }
        // The WAL tail mirrors the MemTable exactly, so the table covers
        // every record up to the last appended seq.
        let flush_seq = self.wal.appended_seq();
        let runs = self.mem.seal();
        let table = SsTable::build(
            self.next_table_id,
            &self.disk,
            memtable::flushed(&runs),
            self.opts.block_size,
            &self.opts.filter,
        )?;
        // Publish: sync the data blocks, then commit the manifest edit. A
        // failure anywhere before the commit point (injected abort, ENOSPC
        // in the manifest append) releases the built blocks — the Db keeps
        // its previous shape, stays serviceable, and the flush is
        // retryable.
        let committed = (|| -> Result<()> {
            // At this point the data blocks *and* the filter-image block
            // are written but unreferenced — a crash here leaves orphans
            // for recovery's GC, the exact scenario the crash oracle's
            // `lsm.flush.filter_block` point exercises.
            fail_point!(self.disk.faults(), "lsm.flush.filter_block");
            fail_point!(self.disk.faults(), "lsm.flush.sync");
            self.disk.sync();
            self.manifest.borrow_mut().append(
                &self.disk,
                &[Edit::AddTable(table.meta(0)), Edit::FlushSeq { seq: flush_seq }],
            )
        })();
        if let Err(e) = committed {
            let _ = table.release(&self.disk);
            return Err(e);
        }
        // Commit point: the table is durable and referenced. Install it
        // in-memory *before* the WAL reset below — an error there must
        // leave a Db whose levels match the manifest (the stale WAL tail
        // merely replays records the table already shadows).
        self.flushed_seq = flush_seq;
        self.next_table_id += 1;
        let flushed_entries = table.len();
        let blocks_written = table.index.len();
        self.levels[0].push(Arc::new(table));
        // The buffer is empty since the seal above and keeps its capacity.
        self.mem.runs = Default::default();
        self.mem_bytes = 0;
        fail_point!(self.disk.faults(), "lsm.wal.reset");
        let wal_bytes = self.disk.file_len(self.wal.file()) as u64;
        self.disk.truncate_file(self.wal.file(), 0);
        self.disk.sync();
        self.wal.note_reset(wal_bytes);
        let stats = FlushStats {
            entries: flushed_entries,
            wal_bytes_truncated: wal_bytes,
            blocks_written,
        };
        if self.opts.compact_on_flush {
            self.compact()?;
        }
        Ok(Some(stats))
    }

    fn level_limit(&self, level: usize) -> usize {
        let o = &self.opts;
        o.compaction.level_limit(level, o.l0_tables, o.l1_tables)
    }

    /// Approximate bytes in runs beyond every level's policy limit — the
    /// compaction debt outstanding. Only meaningful as a trend; block
    /// counts stand in for exact byte sizes.
    fn compaction_debt_bytes(&self) -> usize {
        let mut debt = 0usize;
        for (level, tables) in self.levels.iter().enumerate() {
            let limit = self.level_limit(level);
            if tables.len() > limit {
                let excess = tables.len() - limit;
                // The first tables are the ones a merge consumes: the
                // oldest runs of an overlapping level, the lowest keys of a
                // disjoint one.
                debt += tables
                    .iter()
                    .take(excess)
                    .map(|t| t.index.len() * self.opts.block_size)
                    .sum::<usize>();
            }
        }
        debt
    }

    /// Debt and overload counters (see [`DbStats`]).
    pub fn stats(&self) -> DbStats {
        DbStats {
            l0_runs: self.levels[0].len(),
            memtable_bytes: self.mem_bytes,
            compaction_debt_bytes: self.compaction_debt_bytes(),
            backpressure_rejections: self.backpressure_rejections,
            stall_rejections: self.stall_rejections,
            compact_steps: self.compact_steps,
        }
    }

    /// What [`Db::open`] observed while recovering this database.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    /// The shallowest level over its policy limit: the structural rule
    /// that the flush-time compaction loop and the stall bands' relief
    /// step follow.
    fn over_limit_level(&self) -> Option<usize> {
        (0..self.levels.len()).find(|&level| self.levels[level].len() > self.level_limit(level))
    }

    /// The level [`Db::compact_debt`] merges next: the shallowest level
    /// over its limit or, when none is, level 0 once it reaches the stall
    /// *slowdown* band. Without the second case, bands tighter than the
    /// compaction trigger would reject writes forever with no level ever
    /// "over limit".
    fn debt_level(&self) -> Option<usize> {
        let l0 = self.levels[0].len();
        let l0_merge = l0 > 0 && l0 >= self.opts.stall.slowdown_l0_runs;
        self.over_limit_level().or(l0_merge.then_some(0))
    }

    /// Whether [`Db::compact_debt`] has a merge to make. The serving
    /// layer asks after every locked section to decide whether to wake its
    /// compactor.
    pub fn compaction_pending(&self) -> bool {
        self.debt_level().is_some()
    }

    /// One bounded unit of compaction: merges the level
    /// [`Db::compaction_pending`] found work at and returns `Ok(true)`, or
    /// returns `Ok(false)` when there is none. This is the drain the
    /// serving layer calls between requests when
    /// [`DbOptions::compact_on_flush`] is off — debt shrinks one step at a
    /// time without ever holding a write hostage to a full compaction run,
    /// and it is what guarantees a backpressure retry can eventually
    /// succeed.
    pub fn compact_debt(&mut self) -> Result<bool> {
        let level = self.debt_level();
        self.compact_level(level)
    }

    /// One merge at the shallowest level over its limit, if any.
    fn compact_step(&mut self) -> Result<bool> {
        let level = self.over_limit_level();
        self.compact_level(level)
    }

    fn compact_level(&mut self, level: Option<usize>) -> Result<bool> {
        let Some(level) = level else { return Ok(false) };
        self.compact_at(level)?;
        self.compact_steps += 1;
        Ok(true)
    }

    /// Policy-driven compaction. Leveled: L0 merges wholesale into L1,
    /// deeper levels move one table at a time into the overlap below.
    /// Tiered: a full level merges into one new run appended below,
    /// rewriting nothing.
    ///
    /// The in-memory level structure is only mutated — and old blocks only
    /// released — after the swap's manifest transaction is durable, so an
    /// error (or crash) at any step leaves the previous version fully
    /// readable. Outputs built before a failed commit are unreferenced
    /// blocks that recovery garbage-collects.
    fn compact(&mut self) -> Result<()> {
        // Shallowest over-limit level first, to a fixpoint: a merge only
        // ever adds runs *below* its level, so this performs the same
        // ascending sequence of merges the old single-pass loop did.
        while self.compact_step()? {}
        Ok(())
    }

    /// One merge at `level`: what [`CompactionConfig::pick`] chooses.
    fn compact_at(&mut self, level: usize) -> Result<()> {
        fail_point!(self.disk.faults(), "lsm.compact.begin");
        self.tables_changed();
        if self.levels.len() == level + 1 {
            self.levels.push(Vec::new());
        }
        let (victims, overlapped) = self.opts.compaction.pick(&self.levels, level);
        let gone: Vec<u64> = victims.iter().chain(&overlapped).map(|t| t.id).collect();
        // Merge newest-first: victims are newer than `overlapped`;
        // within a level, later tables are newer (L0 flush order /
        // tiered run order). The merge borrows every entry straight out
        // of the (cache-shared) block frames held here; nothing is
        // copied until the output blocks are encoded.
        let inputs: Vec<Vec<Arc<Run>>> =
            victims.iter().rev().chain(&overlapped).map(|t| self.read_all(t)).collect::<Result<_>>()?;
        // Tombstones are dropped only once nothing deeper can hold an
        // older version of a merged key — otherwise removing the
        // tombstone would resurrect that older version. "Deeper" is
        // everything at the output level and below that is *not*
        // consumed by this merge: under leveled that reduces to the
        // old `level + 2..` check (unconsumed level+1 tables cannot
        // overlap the merge by disjointness), and under tiered it
        // keeps tombstones alive over the older runs they shadow at
        // the output level. The inputs' first and last keys bound
        // every key merged.
        let blocks = || inputs.iter().flatten().filter(|b| b.len() > 0);
        let first = blocks().map(|b| b.key(0)).min();
        let last = blocks().map(|b| b.key(b.len() - 1)).max();
        let drop_tombstones = first.zip(last).is_some_and(|(min, max)| {
            !self.levels[level + 1..]
                .iter()
                .flatten()
                .any(|t| !gone.contains(&t.id) && t.overlaps(min, max))
        });
        // One run into an overlapping level (the run count is what
        // tiered's level limit bounds), tables of `memtable_bytes / 16`
        // entries each (16 384 for a 256 KiB MemTable) into a disjoint
        // one. If every entry was a dropped tombstone this degenerates
        // to a removal-only transaction. A failure before the manifest
        // commit releases every output built so far: the previous
        // version stays live and the Db stays serviceable.
        let per_table = if self.opts.compaction.disjoint(level + 1) {
            (self.opts.memtable_bytes * 4 / 64).max(64)
        } else {
            usize::MAX
        };
        let mut new_tables: Vec<SsTable> = Vec::new();
        let (first_id, disk, opts) = (self.next_table_id, &*self.disk, &self.opts);
        let committed = (|| -> Result<()> {
            merge_tables(&inputs, drop_tombstones, per_table, first_id, disk, opts, &mut new_tables)?;
            fail_point!(self.disk.faults(), "lsm.compact.sync");
            self.disk.sync();
            let mut edits: Vec<Edit> =
                gone.iter().map(|&id| Edit::RemoveTable { id }).collect();
            for t in &new_tables {
                edits.push(Edit::AddTable(t.meta(level + 1)));
            }
            self.manifest.borrow_mut().append(&self.disk, &edits)
        })();
        if let Err(e) = committed {
            for t in &new_tables {
                let _ = t.release(&self.disk);
            }
            return Err(e);
        }
        // Commit point: swap the in-memory version and free victims.
        // Quarantine entries die with the tables that carried them
        // (the manifest's RemoveTable does the same purge).
        self.next_table_id += new_tables.len() as u64;
        self.quarantined.borrow_mut().retain(|&(t, _)| !gone.contains(&t));
        for lvl in [level, level + 1] {
            self.levels[lvl].retain(|t| !gone.contains(&t.id));
        }
        for t in victims.into_iter().chain(overlapped) {
            self.retire_table(t)?;
        }
        let next = &mut self.levels[level + 1];
        next.extend(new_tables.into_iter().map(Arc::new));
        self.opts.compaction.order(level + 1, next);
        Ok(())
    }

    /// Every readable block of `table`, in key order: a compaction input.
    fn read_all(&self, table: &SsTable) -> Result<Vec<Arc<Run>>> {
        // Compaction I/O is counted as reads too (as in real systems).
        // A quarantined block gets one last read-repair chance here:
        // quarantine can stem from wire-level rot (the stored bytes are
        // intact and a re-read validates), and this merge is the final
        // moment the entries can be rescued before the input table
        // retires and the loss becomes permanent. A block that still
        // fails is skipped — that loss was already reported when the
        // block was quarantined, and insisting on reading it would wedge
        // every future flush behind the same error. Readable blocks come
        // through the cache with transients retried; any other error
        // propagates — a *fresh* failure must not silently drop entries.
        let view = self.view();
        let mut out = Vec::with_capacity(table.index.len());
        for b in 0..table.index.len() {
            if self.quarantined.borrow().contains(&(table.id, b as u32)) {
                if let Ok(d) = view.read_retrying(table, b, 4) {
                    self.quarantined.borrow_mut().remove(&(table.id, b as u32));
                    self.read_repairs.set(self.read_repairs.get() + 1);
                    out.push(d);
                }
                continue;
            }
            // A hit saves a device read; a miss is not inserted, because
            // the input retires with this step and `retire_table` would
            // drop the block again, after it had evicted a live one.
            let d = match self.cache.get(table.id, b) {
                Some(hit) => hit,
                None => view.read_retrying(table, b, 4)?,
            };
            out.push(d);
        }
        Ok(out)
    }

    /// The read path over the live MemTable ([`crate::read`]): every read
    /// method below is a delegation to it.
    pub(crate) fn view(&self) -> ReadView<'_> {
        ReadView {
            mem: &self.mem,
            levels: &self.levels,
            policy: self.opts.compaction,
            disk: &self.disk,
            cache: &self.cache,
            handle: Handle::Writer(self),
        }
    }

    /// Quarantines `(table id, block index)` after the read path found it
    /// unreadable: queries treat it as empty, the quarantine is persisted
    /// through the manifest so reopen skips it, and only scrub (or a
    /// compaction's last re-read) can lift it.
    pub(crate) fn quarantine(&self, (table, block): (u64, u32)) {
        self.quarantined.borrow_mut().insert((table, block));
        self.tables_changed();
        // Best-effort persistence: if the manifest append itself fails the
        // quarantine still holds in memory and reopen rediscovers the bad
        // block.
        let _ = self
            .manifest
            .borrow_mut()
            .append(&self.disk, &[Edit::Quarantine { table, block }]);
    }

    /// Point lookup (Figure 4.3, Get path). The newest version wins: a
    /// tombstone found at any level answers `None` without consulting
    /// older levels.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.view().get(key)
    }

    /// Seek (Figure 4.3): smallest live key `>= lk`, bounded by `hk` when
    /// given — the first row of [`Db::scan_from`]. A closed seek skips
    /// the tables whose SuRF holds no key in `[lk, hk)` without a read.
    pub fn seek(&self, lk: &[u8], hk: Option<&[u8]>) -> Option<Vec<u8>> {
        self.view().seek(lk, hk)
    }

    /// Merged range scan: up to `limit` live `(key, value)` entries with
    /// `lk <= key` (`< hk` when bounded), in key order, newest version
    /// each.
    pub fn scan_from(&self, lk: &[u8], hk: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.view().cursor(lk, hk).collect_rows(limit)
    }

    /// Read-I/O, sync, and degradation statistics (the repair/quarantine
    /// counters are maintained here, not by the raw device).
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            read_repairs: self.read_repairs.get(),
            quarantined_blocks: self.quarantined.borrow().len() as u64,
            transient_retries: self.transient_retries.get(),
            ..self.disk.stats()
        }
    }

    /// Clears I/O counters (between benchmark phases).
    pub fn reset_io_stats(&self) {
        self.disk.reset_stats();
        self.read_repairs.set(0);
        self.transient_retries.set(0);
    }

    /// The compaction configuration actually in force (after manifest
    /// resolution — may differ from the options passed to [`Db::open`]).
    pub fn compaction_config(&self) -> CompactionConfig {
        self.opts.compaction
    }

    /// The live version as the manifest would describe it (used by scrub
    /// to rewrite the manifest after repairs).
    pub(crate) fn current_version(&self) -> Version {
        Version {
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(lvl, level)| level.iter().map(|t| t.meta(lvl)).collect())
                .collect(),
            flushed_seq: self.flushed_seq,
            next_table_id: self.next_table_id,
            quarantined: self.quarantined.borrow().iter().copied().collect(),
            policy: Some(self.opts.compaction),
        }
    }

    /// The level structure and quarantine set as snapshots share them,
    /// rebuilt only after a change to either.
    pub(crate) fn table_set(&self) -> Arc<TableSet> {
        Arc::clone(self.table_set.borrow_mut().get_or_insert_with(|| {
            Arc::new(TableSet {
                levels: self.levels.clone(),
                policy: self.opts.compaction,
                quarantined: self.quarantined.borrow().clone(),
            })
        }))
    }

    /// Every path that changes `levels` or `quarantined` calls this first:
    /// it drops the shared [`TableSet`], so the next snapshot sees the new
    /// shape — and so the table reference counts that
    /// [`Db::retire_table`] and scrub consult are those of real snapshots
    /// only.
    pub(crate) fn tables_changed(&self) {
        self.table_set.borrow_mut().take();
    }

    /// Truncates the WAL to empty and resets its high-water bookkeeping
    /// (scrub's repair for a damaged log that covers no unflushed data).
    pub(crate) fn discard_wal(&mut self) {
        let bytes = self.disk.file_len(self.wal.file()) as u64;
        self.disk.truncate_file(self.wal.file(), 0);
        self.disk.sync();
        self.wal.note_reset(bytes);
    }

    /// This database's WAL file name in the disk namespace.
    pub(crate) fn wal_file(&self) -> String {
        self.wal.file().to_string()
    }

    /// WAL activity counters (appends, group commits, replay outcome).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Highest sequence number applied to this database, durable or not.
    /// After recovery this is exactly the length of the put-history prefix
    /// the database equals.
    pub fn last_seq(&self) -> u64 {
        self.wal.appended_seq().max(self.flushed_seq)
    }

    /// Highest *acknowledged* sequence number: every put at or below it is
    /// guaranteed to survive a crash.
    pub fn last_synced_seq(&self) -> u64 {
        self.wal.synced_seq().max(self.flushed_seq)
    }

    /// Point-filter probe counters for the Get paths.
    pub fn filter_stats(&self) -> FilterStats {
        self.filter_stats.get()
    }

    /// Clears the filter probe counters (between benchmark phases).
    pub fn reset_filter_stats(&self) {
        self.filter_stats.set(FilterStats::default());
    }

    /// (cache hits, cache misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Total SSTables per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.len()).collect()
    }

    /// Device ids of every live persisted filter-image block (diagnostics;
    /// the corruption oracles bit-rot these to prove safe degradation).
    pub fn filter_block_ids(&self) -> Vec<u32> {
        self.levels.iter().flatten().filter_map(|t| t.filter_block).collect()
    }

    /// Structural invariants the recovery oracle re-checks after every
    /// crash + reopen: per-table geometry is coherent, every referenced
    /// block is allocated, and levels ≥ 1 are sorted and disjoint.
    pub fn check_invariants(&self) -> Result<()> {
        let broken = |detail: String| Err(MemtreeError::corruption("lsm-invariant", detail));
        for (lvl, level) in self.levels.iter().enumerate() {
            for t in level {
                if t.index.is_empty() || t.min_key() > t.max_key.as_slice() {
                    return broken(format!("table {}: bad key range", t.id));
                }
                let fence = |i| t.index.separator(i);
                if (1..t.index.len()).any(|i| fence(i - 1) >= fence(i)) {
                    return broken(format!("table {}: fences not strictly increasing", t.id));
                }
                if t.index.block_ids().any(|b| !self.disk.is_live(b)) {
                    return broken(format!("table {}: references freed block", t.id));
                }
            }
            if self.opts.compaction.disjoint(lvl) {
                for w in level.windows(2) {
                    if w[0].max_key.as_slice() >= w[1].min_key() {
                        return broken(format!(
                            "level {lvl}: tables {} and {} overlap",
                            w[0].id, w[1].id
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// In-memory footprint of every table: block indexes, max keys and
    /// filters ([`SsTable::mem_usage`]).
    pub fn index_filter_mem(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|t| t.mem_usage())
            .sum::<usize>()
    }

    /// Every table's footprint by part ([`SsTable::mem_stats`]), level by
    /// level; the totals sum to [`Db::index_filter_mem`].
    pub fn table_mem_stats(&self) -> Vec<TableMemStats> {
        self.levels.iter().flatten().map(|t| t.mem_stats()).collect()
    }

    /// Total entries across all tables (duplicates across levels counted).
    pub fn table_entries(&self) -> usize {
        self.levels.iter().flatten().map(|t| t.len()).sum()
    }
}

/// Cross-database orphan-block GC: releases every live disk block that no
/// table of any of `dbs` references. Databases opened with a non-empty
/// [`DbOptions::namespace`] skip the GC at open (one must not free its
/// siblings' blocks); their owner runs this once, after all are open.
/// Returns the number of blocks freed.
pub fn gc_orphans(disk: &SimDisk, dbs: &[&Db]) -> Result<u64> {
    let tables = dbs
        .iter()
        .flat_map(|db| db.levels.iter().flatten().map(|t| &**t));
    release_unreferenced(disk, tables)
}

/// Releases every live disk block that none of `tables` references (data
/// and filter-image blocks alike). Returns the number of blocks freed.
fn release_unreferenced<'a>(
    disk: &SimDisk,
    tables: impl IntoIterator<Item = &'a SsTable>,
) -> Result<u64> {
    let referenced: HashSet<u32> = tables
        .into_iter()
        .flat_map(|t| t.index.block_ids().chain(t.filter_block))
        .collect();
    let mut freed = 0u64;
    for id in 0..disk.block_slots() as u32 {
        if disk.is_live(id) && !referenced.contains(&id) {
            disk.release(id)?;
            freed += 1;
        }
    }
    Ok(freed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::{BUFFER_KEYS, YOUNG_KEYS};
    use memtree_common::key::encode_u64;
    use memtree_faults::Faults;

    fn db_with(filter: FilterKind, n: u64) -> Db {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 8 << 10,
            filter,
            io_read_latency: Duration::ZERO,
            ..Default::default()
        });
        let mut state = 42u64;
        for _ in 0..n {
            let k = memtree_common::hash::splitmix64(&mut state);
            db.put(&encode_u64(k), &k.to_le_bytes()).unwrap();
        }
        db
    }

    #[test]
    fn put_get_across_levels() {
        for filter in [
            FilterKind::None,
            FilterKind::Bloom(14.0),
            FilterKind::SurfHash(4),
            FilterKind::SurfReal(4),
        ] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..5000u64 {
                db.put(&encode_u64(i * 7), &i.to_le_bytes()).unwrap();
            }
            assert!(db.level_sizes().len() > 1, "{filter:?}: no compaction");
            for i in (0..5000u64).step_by(113) {
                assert_eq!(
                    db.get(&encode_u64(i * 7)),
                    Some(i.to_le_bytes().to_vec()),
                    "{filter:?} get {i}"
                );
                assert_eq!(db.get(&encode_u64(i * 7 + 1)), None);
            }
        }
    }

    #[test]
    fn updates_shadow_older_versions() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 2 << 10,
            ..Default::default()
        });
        for round in 0..5u64 {
            for i in 0..500u64 {
                db.put(&encode_u64(i), &(i + round * 1000).to_le_bytes()).unwrap();
            }
        }
        for i in (0..500u64).step_by(7) {
            assert_eq!(db.get(&encode_u64(i)), Some((i + 4000).to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn seek_open_and_closed() {
        for filter in [FilterKind::None, FilterKind::SurfReal(4)] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..3000u64 {
                db.put(&encode_u64(i * 10), b"v").unwrap();
            }
            // Open seek.
            let key = db
                .seek(&encode_u64(995), None)
                .unwrap_or_else(|| panic!("{filter:?}: open seek missed"));
            assert_eq!(memtree_common::key::decode_u64(&key), 1000, "{filter:?}");
            // Closed seek hit.
            assert!(db.seek(&encode_u64(995), Some(&encode_u64(1005))).is_some());
            // Closed seek in a gap.
            assert_eq!(
                db.seek(&encode_u64(991), Some(&encode_u64(999))),
                None,
                "{filter:?}"
            );
            // Past the end.
            assert_eq!(db.seek(&encode_u64(40_000), None), None);
        }
    }

    #[test]
    fn surf_saves_io_on_empty_closed_seeks() {
        let build = |filter| {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                cache_blocks: 0, // isolate I/O counts
                ..Default::default()
            });
            for i in 0..5000u64 {
                db.put(&encode_u64(i << 20), b"value").unwrap();
            }
            db.flush().unwrap();
            db
        };
        // Through the writer and through a snapshot: one read path.
        let io_for = |db: &Db, snapshot: bool| {
            let snap = db.snapshot();
            db.reset_io_stats();
            let mut state = 7u64;
            for _ in 0..200 {
                let base = (memtree_common::hash::splitmix64(&mut state) % 5000) << 20;
                // Range strictly inside a gap: almost always empty.
                let lo = encode_u64(base + 1000);
                let hi = encode_u64(base + 2000);
                if snapshot {
                    snap.seek(&lo, Some(&hi));
                } else {
                    db.seek(&lo, Some(&hi));
                }
            }
            db.io_stats().block_reads
        };
        let none = build(FilterKind::None);
        // 8 real suffix bits reach the byte where these gap queries differ
        // from the stored keys (4 bits cannot refute them — expected FPR
        // behaviour, not a bug).
        let surf = build(FilterKind::SurfReal(8));
        for snapshot in [false, true] {
            let (io_none, io_surf) = (io_for(&none, snapshot), io_for(&surf, snapshot));
            assert!(
                io_surf * 3 < io_none,
                "SuRF should cut empty-seek I/O (snapshot: {snapshot}): {io_surf} vs {io_none}"
            );
        }
    }

    /// A closed walk asks each table's SuRF before it reads anything: a
    /// closed scan or seek into a gap reads no block, and one whose first
    /// row lies deep in a table starts at that row's block.
    #[test]
    fn closed_cursor_uses_surf_as_a_range_filter() {
        // Three interleaved L0 tables: table `t` holds `x << 16` for every
        // `x ≡ t (mod 3)`. Every key's SuRF prefix is its first six bytes,
        // and 8 real suffix bits refute a range that starts inside a gap.
        let build = |filter, tables: u64| {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 1 << 20, // manual flushes
                l0_tables: 100,          // keep every table in L0
                filter,
                cache_blocks: 0,
                ..Default::default()
            });
            for t in 0..tables {
                for x in (t..3000).step_by(tables as usize) {
                    db.put(&encode_u64(x << 16), &[7u8; 100]).unwrap();
                }
                db.flush().unwrap();
            }
            assert_eq!(db.level_sizes()[0], tables as usize);
            db
        };
        // Closed scans and seeks into gaps, through both handles.
        let gaps = |db: &Db| {
            let snap = db.snapshot();
            db.reset_io_stats();
            for x in (5..3000u64).step_by(97) {
                let (lo, hi) = (encode_u64((x << 16) + 0x100), encode_u64((x << 16) + 0x200));
                assert_eq!(db.seek(&lo, Some(&hi)), None);
                assert_eq!(snap.seek(&lo, Some(&hi)), None);
                assert!(db.scan_from(&lo, Some(&hi), 10).is_empty());
                assert!(snap.scan_from(&lo, Some(&hi), 10).is_empty());
            }
            db.io_stats().block_reads
        };
        let queries = 4 * (5..3000u64).step_by(97).count() as u64;
        assert_eq!(gaps(&build(FilterKind::SurfReal(8), 3)), 0, "SuRF-empty tables read");
        let none = gaps(&build(FilterKind::None, 3));
        assert!(none >= 3 * queries, "{none} reads for {queries} gap queries over 3 tables");

        // One table; a range whose rows lie in its seventh block. The walk
        // reads that block and no other.
        for filter in [FilterKind::None, FilterKind::SurfReal(8)] {
            let db = build(filter, 1);
            let table = Arc::clone(&db.levels[0][0]);
            assert!(table.index.len() > 8, "workload too small");
            let first = memtree_common::key::decode_u64(&table.first_key(&db.disk, 6));
            let lo = encode_u64(first + 0x100);
            let hi = encode_u64(first + (5 << 16) + 0x100);
            db.reset_io_stats();
            let rows = db.scan_from(&lo, Some(&hi), usize::MAX);
            assert_eq!(rows.len(), 5);
            assert_eq!(db.io_stats().block_reads, 1, "{filter:?} scan");
            db.reset_io_stats();
            assert_eq!(db.seek(&lo, Some(&hi)), Some(encode_u64(first + (1 << 16)).to_vec()));
            assert_eq!(db.io_stats().block_reads, 1, "{filter:?} seek");
        }
    }

    /// A SuRF prefix can be a whole stored key that other keys of the
    /// table extend, across many blocks. A closed walk from below it must
    /// still start at that key's block: starting later would skip it, and
    /// a tombstone there would stop shadowing older tables.
    #[test]
    fn closed_cursor_starts_at_a_prefix_keys_block() {
        let ext = |i: u16| [b"a".as_slice(), &i.to_be_bytes()].concat();
        for tombstone in [false, true] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 1 << 20, // manual flushes
                l0_tables: 100,          // keep every table in L0
                filter: FilterKind::SurfReal(8),
                cache_blocks: 0,
                ..Default::default()
            });
            let mut model = std::collections::BTreeMap::new();
            if tombstone {
                // An older table the newer one's tombstone on "a" shadows.
                for key in [b"a".to_vec(), ext(500), b"c".to_vec()] {
                    db.put(&key, b"old").unwrap();
                    model.insert(key, b"old".to_vec());
                }
                db.flush().unwrap();
                db.delete(b"a").unwrap();
                model.remove(b"a".as_slice());
            } else {
                db.put(b"a", &[1u8; 100]).unwrap();
                model.insert(b"a".to_vec(), vec![1u8; 100]);
            }
            for i in 0..200 {
                db.put(&ext(i), &[2u8; 100]).unwrap();
                model.insert(ext(i), vec![2u8; 100]);
            }
            db.flush().unwrap();
            let newest = Arc::clone(db.levels[0].last().unwrap());
            assert!(newest.index.len() > 3, "workload too small");
            let snap = db.snapshot();
            let lows = [b"".to_vec(), b"0".to_vec(), b"a".to_vec(), ext(0), ext(150)];
            let highs = [b"a\x01".to_vec(), ext(100), b"b".to_vec(), b"d".to_vec()];
            for lk in &lows {
                for hk in &highs {
                    let want: Vec<_> = model
                        .range(lk.clone()..)
                        .take_while(|(k, _)| *k < hk)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    let first = want.first().map(|(k, _)| k.clone());
                    let at = format!("tombstone {tombstone}, [{lk:?}, {hk:?})");
                    assert_eq!(db.seek(lk, Some(hk)), first, "seek {at}");
                    assert_eq!(snap.seek(lk, Some(hk)), first, "snapshot seek {at}");
                    assert_eq!(db.scan_from(lk, Some(hk), usize::MAX), want, "scan {at}");
                    let rows = snap.scan_from(lk, Some(hk), usize::MAX);
                    assert_eq!(rows, want, "snapshot scan {at}");
                }
            }
        }
    }

    #[test]
    fn seek_through_a_deleted_run_pins_its_block_reads() {
        // Three L0 tables, no block cache. The oldest holds a run of 30
        // keys that the newest deletes; the middle one holds filler plus
        // one key past the run, alone under a 6-byte SuRF prefix that
        // every key of the run extends. The seek is the scan's first row:
        // one merged walk that steps over the tombstones in order.
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            l0_tables: 100,          // keep all three tables in L0
            filter: FilterKind::SurfReal(8),
            cache_blocks: 0,
            ..Default::default()
        });
        let base = 1u64 << 16;
        let run = base + 100..base + 130;
        for i in (0..1000).chain(run.clone()) {
            db.put(&encode_u64(i), b"old").unwrap();
        }
        db.flush().unwrap();
        for i in (0..1000).chain([base + 200]) {
            db.put(&encode_u64(i), b"mid").unwrap();
        }
        db.flush().unwrap();
        for i in run {
            db.delete(&encode_u64(i)).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.level_sizes()[0], 3);
        db.reset_io_stats();
        assert_eq!(db.seek(&encode_u64(base + 105), None), Some(encode_u64(base + 200).to_vec()));
        // 4 block reads, each block the walk reaches read once: the
        // newest table's tombstones, the two blocks of the oldest table
        // the deleted run spans, and the middle table's block holding the
        // answer.
        assert_eq!(db.io_stats().block_reads, 4);
    }

    #[test]
    fn closed_seek_skips_tables_above_hk() {
        // Regression: tables entirely at/above `hk` used to pay a block
        // fetch during closed seeks.
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // flush manually
            l0_tables: 100,          // keep both tables in L0, uncompacted
            filter: FilterKind::None,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..100u64 {
            db.put(&encode_u64(i), b"low-table").unwrap();
        }
        db.flush().unwrap();
        for i in 1000..1100u64 {
            db.put(&encode_u64(i), b"high-table").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.level_sizes()[0], 2);
        db.reset_io_stats();
        // [200, 300) misses both tables: the low table tops out at 99 and
        // the high table starts at 1000 >= hk.
        assert_eq!(db.seek(&encode_u64(200), Some(&encode_u64(300))), None);
        assert_eq!(
            db.io_stats().block_reads,
            0,
            "closed seek into a gap should touch no blocks"
        );
        // Sanity: the same seek unbounded still finds the high table's min.
        let key = db.seek(&encode_u64(200), None).expect("open seek should find 1000");
        assert_eq!(memtree_common::key::decode_u64(&key), 1000);
    }

    #[test]
    fn bloom_cuts_point_io_on_misses() {
        let io_for = |filter| {
            let db = db_with(filter, 10_000);
            db.reset_io_stats();
            let mut state = 999u64;
            for _ in 0..2000 {
                let k = memtree_common::hash::splitmix64(&mut state) | 1;
                db.get(&encode_u64(k)); // miss with overwhelming probability
            }
            db.io_stats().block_reads
        };
        let none = io_for(FilterKind::None);
        let bloom = io_for(FilterKind::Bloom(14.0));
        assert!(
            bloom * 5 < none,
            "bloom {bloom} reads vs none {none} on misses"
        );
    }

    #[test]
    fn flush_reports_stats() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // flush manually
            ..Default::default()
        });
        assert_eq!(db.flush().unwrap(), None, "empty flush is a visible no-op");
        for i in 0..500u64 {
            db.put(&encode_u64(i), b"flush-stats-value").unwrap();
        }
        let stats = db.flush().unwrap().expect("non-empty flush");
        assert_eq!(stats.entries, 500);
        assert!(stats.blocks_written > 0);
        assert!(
            stats.wal_bytes_truncated > 500 * 8,
            "WAL held at least the keys: {}",
            stats.wal_bytes_truncated
        );
        assert_eq!(db.wal_stats().reset_bytes, stats.wal_bytes_truncated);
    }

    #[test]
    fn clean_reopen_recovers_everything() {
        for filter in [FilterKind::None, FilterKind::Bloom(10.0), FilterKind::SurfReal(6)] {
            let opts = DbOptions {
                memtable_bytes: 2 << 10,
                filter,
                ..Default::default()
            };
            let mut db = Db::new(opts.clone());
            for i in 0..2000u64 {
                db.put(&encode_u64(i * 3), &i.to_le_bytes()).unwrap();
            }
            db.flush().unwrap(); // close() would flush anyway; pin the shape now
            let sizes = db.level_sizes();
            let disk = db.close().unwrap();
            let db = Db::open(disk, opts).unwrap();
            assert_eq!(db.wal_stats().replayed_records, 0, "{filter:?}: clean shutdown");
            assert_eq!(db.level_sizes(), sizes, "{filter:?}: level shape");
            for i in (0..2000u64).step_by(17) {
                assert_eq!(
                    db.get(&encode_u64(i * 3)),
                    Some(i.to_le_bytes().to_vec()),
                    "{filter:?} key {i}"
                );
                assert_eq!(db.get(&encode_u64(i * 3 + 1)), None, "{filter:?}");
            }
        }
    }

    #[test]
    fn crash_without_sync_keeps_acked_prefix() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20, // everything stays in the memtable
            wal_group_commit: 8,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..100u64 {
            db.put(&encode_u64(i), &i.to_le_bytes()).unwrap();
        }
        let acked = db.last_synced_seq();
        assert_eq!(acked, 96, "group commit of 8 acks in batches");
        let disk = db.disk_handle();
        drop(db);
        disk.crash(None);
        let db = Db::open(disk, opts).unwrap();
        let recovered = db.last_seq();
        assert!(recovered >= acked, "acked writes survive");
        for i in 0..recovered {
            assert_eq!(db.get(&encode_u64(i)), Some(i.to_le_bytes().to_vec()));
        }
        for i in recovered..100 {
            assert_eq!(db.get(&encode_u64(i)), None, "lost suffix is clean");
        }
    }

    /// One table, both handles, one ladder: a corrupt *returned copy* is
    /// re-read (the stored bytes are intact); a block that stays
    /// unreadable reads as absent — where a snapshot leaves it at that and
    /// the writer quarantines and persists.
    #[test]
    fn corrupt_read_is_reread_then_degrades_per_handle() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        let snap = db.snapshot();
        let state = |db: &Db| {
            let manifest = db.disk.read_file(db.manifest.borrow().file());
            (db.io_stats().quarantined_blocks, manifest)
        };
        let before = state(&db);
        let faults = db.disk.faults();
        faults.enable(7);
        let reads: [&dyn Fn() -> Option<Vec<u8>>; 2] =
            [&|| snap.get(&encode_u64(0)), &|| db.get(&encode_u64(0))];
        for read in reads {
            faults.arm("lsm.disk.read_corrupt", 1.0, Some(1));
            assert_eq!(read(), Some(b"payload".to_vec()), "one corrupt copy must be re-read");
        }
        assert_eq!(db.io_stats().read_repairs, 1, "the writer counts its repair");
        // One corrupt copy, then a transient storm that outlasts the
        // re-read round's budget: absent for this query on both handles,
        // and — transients never quarantine — nothing else. A point has no
        // "skip the first hit", so pick the seed whose stream spares the
        // first read and fails the next eight — drawn from a scratch
        // registry, so the disk's own trip counts start from zero.
        let storm = "lsm.disk.read_transient";
        let arm_storm = |f: &Faults, seed| {
            f.enable(seed);
            f.arm(storm, 0.9, None);
        };
        let spares_first_only = |seed: &u64| {
            let scratch = Faults::default();
            arm_storm(&scratch, *seed);
            !scratch.should_fail(storm) && (0..8).all(|_| scratch.should_fail(storm))
        };
        let seed = (0..).find(spares_first_only).expect("some seed fits");
        for read in reads {
            arm_storm(faults, seed);
            faults.arm("lsm.disk.read_corrupt", 1.0, Some(1));
            assert_eq!(read(), None, "storm in the re-read round serves the block empty");
            assert_eq!(faults.trips("lsm.disk.read_corrupt"), 1);
            assert_eq!(faults.trips(storm), 8, "the whole re-read budget");
            faults.disable();
            assert_eq!(state(&db), before, "a transient storm quarantined or persisted");
            assert_eq!(read(), Some(b"payload".to_vec()), "and the next query is whole");
        }
        assert_eq!(db.io_stats().read_repairs, 1);
        faults.enable(7);
        // Every copy corrupt: the snapshot answers "absent" and writes nothing.
        faults.arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(snap.get(&encode_u64(0)), None);
        assert_eq!(state(&db), before, "a snapshot read quarantined or persisted something");
        assert_eq!(db.get(&encode_u64(0)), None, "quarantined block reads as absent");
        faults.disable();
        let after = state(&db);
        assert_eq!(after.0, 1);
        assert!(after.1.len() > before.1.len(), "the quarantine edit is in the manifest");
        // After disarming, *other* blocks still serve.
        assert_eq!(db.get(&encode_u64(1999)), Some(b"payload".to_vec()));
    }

    #[test]
    fn compaction_rescues_quarantined_block_when_reread_is_clean() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            l0_tables: 1,
            compact_on_flush: false,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        // Wire-level rot on every read quarantines the first block; the
        // stored bytes underneath are untouched.
        db.disk.faults().enable(7);
        db.disk.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(db.get(&encode_u64(0)), None);
        db.disk.faults().disable();
        assert_eq!(db.io_stats().quarantined_blocks, 1);
        let repairs_before = db.io_stats().read_repairs;
        // Compacting the table re-reads the quarantined block; the clean
        // re-read rescues its entries into the merged output instead of
        // letting the retirement of the input table make the loss
        // permanent.
        for i in 2000..2100u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        assert!(db.compact_step().unwrap(), "L0 must be over its limit");
        let s = db.io_stats();
        assert_eq!(s.quarantined_blocks, 0, "rescued block leaves quarantine");
        assert!(s.read_repairs > repairs_before, "rescue is counted as a read repair");
        assert_eq!(db.get(&encode_u64(0)), Some(b"payload".to_vec()));
        db.check_invariants().unwrap();
    }

    #[test]
    fn delete_shadows_across_levels_and_reopen() {
        let opts = DbOptions {
            memtable_bytes: 2 << 10,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..1500u64 {
            db.put(&encode_u64(i), b"live").unwrap();
        }
        for i in (0..1500u64).step_by(3) {
            db.delete(&encode_u64(i)).unwrap();
        }
        let check = |db: &Db| {
            for i in 0..150u64 {
                let got = db.get(&encode_u64(i));
                if i % 3 == 0 {
                    assert_eq!(got, None, "deleted key {i} resurrected");
                } else {
                    assert_eq!(got, Some(b"live".to_vec()), "live key {i} lost");
                }
            }
            // Tombstone-aware seeks agree with `get`.
            let key = db.seek(&encode_u64(0), None).expect("seek found nothing");
            assert_eq!(memtree_common::key::decode_u64(&key), 1, "key 0 is deleted");
            // A range holding only deleted keys (just key 141, = 3*47).
            assert_eq!(db.seek(&encode_u64(141), Some(&encode_u64(142))), None);
        };
        check(&db);
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts).unwrap();
        check(&db);
    }

    /// A manifest whose `AddTable` records carry each block's full first
    /// key, as builds before separator truncation wrote them, reopens
    /// unchanged (a full first key is a valid separator), and every read
    /// answers as the model does.
    #[test]
    fn manifest_with_full_first_key_fences_reopens() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            block_size: 512,
            l1_tables: 2,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        let mut model = std::collections::BTreeMap::new();
        let mut state = 11u64;
        for _ in 0..3000 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64((r % 1500) << 20);
            if r.is_multiple_of(5) {
                db.delete(&k).unwrap();
                model.remove(&k[..]);
            } else {
                db.put(&k, &r.to_le_bytes()).unwrap();
                model.insert(k.to_vec(), r.to_le_bytes().to_vec());
            }
        }
        db.flush().unwrap();
        assert!(db.level_sizes().len() > 2, "workload never reached L2: {:?}", db.level_sizes());
        let mut version = db.current_version();
        let mut truncated = 0;
        for meta in version.levels.iter_mut().flatten() {
            let table = SsTable::from_meta(meta.clone());
            let full: Vec<Vec<u8>> =
                (0..meta.blocks.len()).map(|b| table.first_key(&db.disk, b)).collect();
            truncated += full.iter().zip(&meta.fences).filter(|(f, s)| f != s).count();
            meta.fences = full;
        }
        assert!(truncated > 0, "no separator was shorter than its block's first key");
        db.manifest.borrow_mut().rotate(&db.disk, &version).unwrap();
        let disk = db.disk_handle();
        drop(db);
        let db = Db::open(disk, opts).unwrap();
        db.check_invariants().unwrap();
        assert_eq!(db.current_version().levels, version.levels, "fences reopen as written");
        let first_in = |lo: &[u8], hi: Option<&[u8]>| {
            let first = model.range(lo.to_vec()..).next().map(|(k, _)| k.clone());
            first.filter(|k| hi.is_none_or(|hi| k.as_slice() < hi))
        };
        for i in 0..1500u64 {
            let (k, gap) = (encode_u64(i << 20), encode_u64((i << 20) + 7));
            assert_eq!(db.get(&k), model.get(&k[..]).cloned(), "get {i}");
            assert_eq!(db.get(&gap), None, "get {i} + 7");
            let hi = encode_u64((i + 40) << 20);
            assert_eq!(db.seek(&gap, None), first_in(&gap, None), "open seek {i}");
            assert_eq!(db.seek(&gap, Some(&hi)), first_in(&gap, Some(&hi)), "closed seek {i}");
            if i % 37 == 0 {
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(gap.to_vec()..hi.to_vec())
                    .take(25)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(db.scan_from(&gap, Some(&hi), 25), want, "scan {i}");
            }
        }
        let all: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(db.scan_from(&[], None, usize::MAX), all, "full scan");
    }

    #[test]
    fn tombstones_are_dropped_at_the_bottom_level() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            l0_tables: 0,            // every flush compacts L0 away
            ..Default::default()
        });
        for i in 0..500u64 {
            db.put(&encode_u64(i), b"v").unwrap();
        }
        db.flush().unwrap();
        assert!(db.table_entries() > 0);
        for i in 0..500u64 {
            db.delete(&encode_u64(i)).unwrap();
        }
        // The tombstones merge straight into the bottom level: with
        // nothing deeper to shadow, both the tombstones and the values
        // they deleted must be gone afterwards — and stay gone.
        db.flush().unwrap();
        assert_eq!(db.table_entries(), 0, "bottom-level merge kept dead entries");
        assert_eq!(db.get(&encode_u64(250)), None, "dropping a tombstone resurrected data");
        assert_eq!(db.seek(&encode_u64(0), None), None);
        assert!(db.scan_from(&encode_u64(0), None, 10).is_empty());
    }

    #[test]
    fn enospc_flush_is_typed_clean_and_retryable() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), &[0x5a; 64]).unwrap();
        }
        let used = db.disk.used_bytes();
        db.disk.set_capacity_bytes(Some(used + 512));
        let err = db.flush().unwrap_err();
        assert!(
            matches!(err, memtree_common::error::MemtreeError::Enospc { .. }),
            "want Enospc, got {err}"
        );
        // The failed flush left no partial state: usage is back where it
        // was and every write is still served (from the memtable).
        assert_eq!(db.disk.used_bytes(), used, "failed flush leaked blocks");
        assert_eq!(db.get(&encode_u64(7)), Some(vec![0x5a; 64]));
        assert_eq!(db.table_entries(), 0);
        // Space frees up: the retried flush succeeds and data lands.
        db.disk.set_capacity_bytes(None);
        db.flush().unwrap().expect("retried flush flushes");
        assert!(db.table_entries() > 0);
        assert_eq!(db.get(&encode_u64(1999)), Some(vec![0x5a; 64]));
    }

    #[test]
    fn open_on_a_full_disk_recovers_and_fails_only_writes() {
        let opts = DbOptions { memtable_bytes: 1 << 20, ..Default::default() };
        let mut db = Db::new(opts.clone());
        for i in 0..200u64 {
            db.put(&encode_u64(i), &[0x5a; 64]).unwrap();
        }
        db.flush().unwrap();
        db.put(&encode_u64(500), b"in the wal").unwrap();
        db.sync().unwrap();
        let disk = db.disk_handle();
        drop(db);
        disk.set_capacity_bytes(Some(disk.used_bytes()));
        // The open-time manifest rotation has no room; recovery goes on.
        let mut db = Db::open(Arc::clone(&disk), opts.clone()).unwrap();
        assert_eq!(db.get(&encode_u64(7)), Some(vec![0x5a; 64]));
        assert_eq!(db.get(&encode_u64(500)).as_deref(), Some(&b"in the wal"[..]));
        let err = db.put(&encode_u64(501), b"x").unwrap_err();
        assert!(matches!(err, MemtreeError::Enospc { .. }), "want Enospc, got {err}");
        disk.set_capacity_bytes(None);
        db.put(&encode_u64(501), b"x").unwrap();
        let db = Db::open(db.close().unwrap(), opts).unwrap();
        assert_eq!(db.get(&encode_u64(500)).as_deref(), Some(&b"in the wal"[..]));
        assert_eq!(db.get(&encode_u64(501)).as_deref(), Some(&b"x"[..]));
    }

    /// Who collects orphan blocks follows from the namespace: a namespaced
    /// `Db` shares its disk and leaves GC to its owner's cross-database
    /// pass; a `Db` with the empty namespace owns its disk and GCs at open.
    #[test]
    fn only_an_unnamespaced_open_collects_orphan_blocks() {
        let opts = |namespace: &str| DbOptions {
            memtable_bytes: 4 << 10,
            namespace: namespace.to_string(),
            ..Default::default()
        };
        let live = |d: &SimDisk| -> Vec<u32> {
            (0..d.block_slots() as u32)
                .filter(|&id| d.is_live(id))
                .collect()
        };
        let fill = |db: &mut Db| {
            for i in 0..300u64 {
                db.put(&encode_u64(i), &i.to_le_bytes()).unwrap();
            }
            db.flush().unwrap();
        };

        // Two namespaced Dbs on one disk, plus a block neither references.
        let disk = Arc::new(SimDisk::new(Duration::ZERO));
        let mut a = Db::open(Arc::clone(&disk), opts("a-")).unwrap();
        let mut b = Db::open(Arc::clone(&disk), opts("b-")).unwrap();
        fill(&mut a);
        fill(&mut b);
        let orphan = disk.write(Box::from(&b"orphan"[..])).unwrap();
        disk.sync();
        let before = live(&disk);
        // Reopening one alone frees nothing: not b's blocks, and not the
        // orphan either, which only the owner's pass may judge.
        let a = Db::open(a.close().unwrap(), opts("a-")).unwrap();
        assert_eq!(live(&disk), before);
        for i in 0..300u64 {
            assert_eq!(a.get(&encode_u64(i)), Some(i.to_le_bytes().to_vec()));
            assert_eq!(b.get(&encode_u64(i)), Some(i.to_le_bytes().to_vec()));
        }
        assert_eq!(gc_orphans(&disk, &[&a, &b]).unwrap(), 1);
        assert!(!disk.is_live(orphan));

        // A standalone Db owns its disk: its reopen frees the orphan.
        let mut db = Db::open(Arc::new(SimDisk::new(Duration::ZERO)), opts("")).unwrap();
        fill(&mut db);
        let disk = db.close().unwrap();
        let orphan = disk.write(Box::from(&b"orphan"[..])).unwrap();
        disk.sync();
        let db = Db::open(Arc::clone(&disk), opts("")).unwrap();
        assert!(!disk.is_live(orphan));
        assert_eq!(db.get(&encode_u64(7)), Some(7u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn reopen_cycles_keep_manifest_file_count_bounded() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            ..Default::default()
        };
        let mut disk = Db::new(opts.clone()).close().unwrap();
        let mut next = 0u64;
        for _cycle in 0..8 {
            let mut db = Db::open(disk, opts.clone()).unwrap();
            for _ in 0..200 {
                db.put(&encode_u64(next), b"cycle-value").unwrap();
                next += 1;
            }
            disk = db.close().unwrap();
            let manifests = disk
                .file_names()
                .into_iter()
                .filter(|f| f.starts_with("manifest-"))
                .count();
            assert!(manifests <= 2, "manifest generations piling up: {manifests}");
        }
        let db = Db::open(disk, opts).unwrap();
        for i in (0..next).step_by(97) {
            assert_eq!(db.get(&encode_u64(i)), Some(b"cycle-value".to_vec()));
        }
    }

    #[test]
    fn quarantine_persists_across_reopen_and_degrades_filters() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        // Persistent corruption on key 0's block: the read path
        // quarantines it and records the quarantine in the manifest.
        db.disk.faults().enable(11);
        db.disk.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(db.get(&encode_u64(0)), None);
        db.disk.faults().disable();
        assert_eq!(db.io_stats().quarantined_blocks, 1);
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts).unwrap();
        // Reopen trusted the persisted quarantine (no read of the bad
        // block) and attached the persisted filter image anyway: the image
        // covers the quarantined keys too, which only means safe false
        // positives — never a wrong miss. No degraded, no rebuild.
        assert_eq!(db.io_stats().quarantined_blocks, 1);
        let report = db.open_report();
        assert_eq!(report.degraded_tables, 0);
        assert_eq!(report.filters_loaded, 1);
        assert_eq!(report.filters_rebuilt, 0);
        assert_eq!(db.get(&encode_u64(0)), None, "quarantined data stays absent");
        assert_eq!(db.get(&encode_u64(1999)), Some(b"payload".to_vec()));
    }

    /// What a block miss costs: nothing, once the cache is full and its
    /// victim unpinned — the device reads into the frame and offset table
    /// of the block the stripe evicted last, inside that block's `Arc`.
    /// A victim a reader still holds stays that reader's, byte for byte,
    /// and the miss after it allocates a frame, an offset table and an
    /// `Arc`, as every miss did before blocks were recycled.
    #[test]
    fn cache_miss_refills_an_unpinned_victim_and_allocates_only_past_a_pinned_one() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 1,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        let table = Arc::clone(&db.levels[0][0]);
        assert!(table.index.len() > 4);
        let frames: Vec<Box<[u8]>> =
            (0..4).map(|b| db.disk.read(table.index.block_id(b)).unwrap()).collect();
        assert!(
            frames.iter().all(|f| f.len() == frames[0].len()),
            "equal-sized entries make equal-sized blocks, so any frame fits any other"
        );
        // The one-slot ring and its index, then the spare: block 0, evicted
        // by block 1 while nothing held it.
        db.view().fetch_block(&table, 0);
        db.view().fetch_block(&table, 1);
        let (two, allocations, _) =
            memtree_alloc_probe::measure(|| db.view().fetch_block(&table, 2));
        assert_eq!(allocations, 0, "block 2 refills evicted block 0's buffers");
        assert_eq!(two.frame(), Some(&*frames[2]), "the frame is the device's, not re-encoded");
        assert!(Arc::ptr_eq(&db.cache.get(table.id, 2).unwrap(), &two));
        assert!(db.cache.get(table.id, 1).is_none(), "one slot: block 1 was evicted");
        // `two` pins the victim of the next miss, which still refills the
        // spare block 1 left behind …
        let (three, allocations, _) =
            memtree_alloc_probe::measure(|| db.view().fetch_block(&table, 3));
        assert_eq!(allocations, 0, "block 3 refills evicted block 1's buffers");
        assert_eq!(three.frame(), Some(&*frames[3]));
        assert_eq!(two.frame(), Some(&*frames[2]), "a pinned victim keeps its bytes");
        // … but leaves no spare behind, so the miss after it allocates.
        let (zero, allocations, largest) =
            memtree_alloc_probe::measure(|| db.view().fetch_block(&table, 0));
        assert_eq!(allocations, 3, "frame copy off the device, offset table, Arc");
        assert_eq!(largest, frames[0].len().max(8 * (zero.len() + 1)));
        assert_eq!(zero.frame(), Some(&*frames[0]));
        assert_eq!(three.frame(), Some(&*frames[3]));
    }

    /// A put with no snapshot allocates for its WAL record and nothing
    /// else: the MemTable's write buffer keeps its capacity across merges,
    /// so only the put that fills it allocates, for the merged young run,
    /// and — about once per `YOUNG_KEYS` keys — for the merged stage too.
    #[test]
    fn put_allocates_only_its_wal_record_and_its_merges() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // no flush
            wal_group_commit: usize::MAX, // syncs only where the test does
            ..Default::default()
        });
        let keys: Vec<_> = (0..(YOUNG_KEYS + 4 * BUFFER_KEYS) as u64).map(encode_u64).collect();
        let (warm, measured) = keys.split_at(2 * BUFFER_KEYS);
        for k in warm {
            db.put(k, &[7u8; 100]).unwrap();
        }
        let mut promotions = 0;
        for k in measured {
            // The sync empties the disk's pending-op list, so each put
            // starts from the same state.
            db.sync().unwrap();
            let stage = Arc::clone(&db.mem.runs[1]);
            let (seq, allocations, _) = memtree_alloc_probe::measure(|| db.put(k, &[7u8; 100]));
            seq.unwrap();
            // WAL payload, WAL frame; the disk's pending append (file
            // name, copy of the frame) and its pending-op list.
            let wal = 5;
            if !Arc::ptr_eq(&stage, &db.mem.runs[1]) {
                promotions += 1;
                assert_eq!(allocations, wal + 6, "young run and stage: bytes, offsets, Arc each");
            } else if db.mem.buffer.len() == 0 {
                assert_eq!(allocations, wal + 3, "the merged young run: bytes, offsets, Arc");
            } else {
                assert_eq!(allocations, wal, "the MemTable insert allocated");
            }
        }
        assert_eq!(promotions, 1, "the young run merged into the stage once");
    }

    /// Regression: `encode_block` used to write `len as u16`, so an
    /// acknowledged 70 000-byte value made its whole block undecodable at
    /// the next flush (quarantined, key reads `None`).
    #[test]
    fn overlong_key_or_value_is_rejected_before_the_wal() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        db.put(b"a", b"1").unwrap();
        let before = (db.wal_stats(), db.last_seq(), db.stats());
        let long = vec![0x5a; 70_000];
        assert_eq!(db.put(b"b", &long), Err(MemtreeError::Allocation { bytes: 70_000 }));
        assert_eq!(db.put(&long, b"v"), Err(MemtreeError::Allocation { bytes: 70_000 }));
        assert_eq!(db.delete(&long), Err(MemtreeError::Allocation { bytes: 70_000 }));
        assert_eq!(
            (db.wal_stats(), db.last_seq(), db.stats()),
            before,
            "a rejected write has no side effects"
        );
        // The limit itself is a legal entry and survives flush + reopen
        // next to its block neighbours.
        let edge = vec![0xa5; crate::run::MAX_ENTRY_BYTES];
        db.put(b"b", &edge).unwrap();
        db.put(b"c", b"3").unwrap();
        db.flush().unwrap();
        let check = |db: &Db| {
            assert_eq!(db.get(b"a").as_deref(), Some(&b"1"[..]));
            assert_eq!(db.get(b"b").as_deref(), Some(&edge[..]));
            assert_eq!(db.get(b"c").as_deref(), Some(&b"3"[..]));
            assert_eq!(db.io_stats().quarantined_blocks, 0);
        };
        check(&db);
        check(&Db::open(db.close().unwrap(), opts).unwrap());
    }

    #[test]
    fn transient_read_faults_heal_without_quarantine() {
        let db = {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 1 << 20,
                cache_blocks: 0,
                ..Default::default()
            });
            for i in 0..2000u64 {
                db.put(&encode_u64(i), b"payload").unwrap();
            }
            db.flush().unwrap();
            db
        };
        db.disk.faults().enable(23);
        db.disk.faults().arm("lsm.disk.read_transient", 0.25, None);
        for i in (0..2000u64).step_by(37) {
            assert_eq!(
                db.get(&encode_u64(i)),
                Some(b"payload".to_vec()),
                "transient fault leaked to a query answer at key {i}"
            );
        }
        let s = db.io_stats();
        assert!(s.transient_retries > 0, "no transient was ever injected");
        assert_eq!(s.quarantined_blocks, 0, "transient faults must never quarantine");
    }

    /// `compaction_pending` is the rule `compact_debt` follows. Stall
    /// bands tighter than the L0 trigger make level 0 at the slowdown
    /// band debt while no level is over its limit, and at random instants
    /// of a seeded write stream, under both policies, the prediction must
    /// match whether the step merged.
    #[test]
    fn compaction_pending_predicts_every_compact_debt_step() {
        for seed in 0..8u64 {
            // Seed parity picks the policy, as in the crash oracle.
            let compaction = if seed.is_multiple_of(2) {
                CompactionConfig::Leveled { fanout: 3 }
            } else {
                CompactionConfig::Tiered { tiers_per_level: 2 }
            };
            let mut db = Db::new(DbOptions {
                memtable_bytes: 2 << 10,
                block_size: 256,
                l0_tables: 4,
                l1_tables: 2,
                compaction,
                stall: StallConfig {
                    slowdown_l0_runs: 2,
                    stop_l0_runs: 6,
                    ..StallConfig::disabled()
                },
                compact_on_flush: false,
                ..Default::default()
            });
            let (mut merged, mut band_only, mut idle) = (0, 0, 0);
            let mut state = seed;
            for _ in 0..3000 {
                let r = memtree_common::hash::splitmix64(&mut state);
                if let Err(e) = db.put(&encode_u64(r % 800), &r.to_le_bytes()) {
                    assert!(e.is_overload(), "{compaction:?} seed {seed}: {e:?}");
                }
                if r.is_multiple_of(5) {
                    let structural = db.over_limit_level().is_some();
                    let p = db.compaction_pending();
                    assert_eq!(db.compact_debt().unwrap(), p, "{compaction:?} seed {seed}");
                    match (p, structural) {
                        (true, true) => merged += 1,
                        (true, false) => band_only += 1,
                        (false, _) => idle += 1,
                    }
                }
            }
            assert!(
                merged > 0 && band_only > 0 && idle > 0,
                "{compaction:?} seed {seed}: {merged} / {band_only} / {idle}"
            );
            db.check_invariants().unwrap();
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::run::EntryRef;
    use memtree_common::check::{prop_check, Gen};
    use memtree_common::key::encode_u64;
    use memtree_common::{check, check_eq};
    use std::collections::BTreeMap;

    fn tiered_opts() -> DbOptions {
        DbOptions {
            memtable_bytes: 2 << 10,
            block_size: 256,
            cache_blocks: 8,
            filter: FilterKind::Bloom(10.0),
            compaction: CompactionConfig::Tiered { tiers_per_level: 3 },
            ..Default::default()
        }
    }

    /// Random puts/overwrites/deletes against an in-memory model, under
    /// tiered compaction, checked through get, seek-walk, snapshot scan,
    /// and a full close/reopen cycle.
    #[test]
    fn tiered_matches_model_across_reopen() {
        let mut db = Db::new(tiered_opts());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut state = 7u64;
        for _ in 0..4000 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64(r % 600);
            if r.is_multiple_of(7) {
                db.delete(&k).unwrap();
                model.remove(&k[..]);
            } else {
                db.put(&k, &r.to_le_bytes()).unwrap();
                model.insert(k.to_vec(), r.to_le_bytes().to_vec());
            }
        }
        db.flush().unwrap();
        assert!(!db.view().policy.disjoint(1), "tiered config must set overlapping reads");
        assert!(
            db.level_sizes().iter().skip(1).any(|&s| s > 1),
            "workload never produced multiple runs per level: {:?}",
            db.level_sizes()
        );
        let check = |db: &Db| {
            for i in 0..600u64 {
                let k = encode_u64(i);
                assert_eq!(db.get(&k), model.get(&k[..]).cloned(), "key {i}");
            }
            // Seek-walk recovers exactly the model's key sequence.
            let mut low: Vec<u8> = Vec::new();
            let mut walked = Vec::new();
            while let Some(key) = db.seek(&low, None) {
                walked.push(key.clone());
                low = memtree_common::key::successor(&key);
            }
            let want: Vec<Vec<u8>> = model.keys().cloned().collect();
            assert_eq!(walked, want, "seek walk diverged from model");
            let scanned = db.snapshot().scan_from(&[], None, usize::MAX);
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scanned, want, "snapshot scan diverged from model");
        };
        check(&db);
        db.check_invariants().unwrap();
        let disk = db.close().unwrap();
        let db = Db::open(disk, tiered_opts()).unwrap();
        check(&db);
        db.check_invariants().unwrap();
    }

    /// The manifest's persisted policy wins over mismatched reopen
    /// options: tiered levels opened with leveled options keep running
    /// tiered (and stay correct).
    #[test]
    fn persisted_policy_wins_over_reopen_options() {
        let mut db = Db::new(tiered_opts());
        for i in 0..3000u64 {
            db.put(&encode_u64(i), &i.to_le_bytes()).unwrap();
        }
        db.flush().unwrap();
        let disk = db.close().unwrap();
        let leveled_opts = DbOptions {
            compaction: CompactionConfig::Leveled { fanout: 10 },
            ..tiered_opts()
        };
        let mut db = Db::open(disk, leveled_opts).unwrap();
        assert_eq!(
            db.compaction_config(),
            CompactionConfig::Tiered { tiers_per_level: 3 },
            "manifest policy must override the options"
        );
        assert!(!db.view().policy.disjoint(1));
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"round-2").unwrap();
        }
        db.flush().unwrap();
        db.check_invariants().unwrap();
        for i in (0..3000u64).step_by(97) {
            let want = if i < 2000 { b"round-2".to_vec() } else { i.to_le_bytes().to_vec() };
            assert_eq!(db.get(&encode_u64(i)), Some(want), "key {i}");
        }
    }

    /// A bit-rotted filter image is detected by its CRC frame and the
    /// open falls back to rebuilding from data blocks: slower, counted,
    /// never wrong, never filterless.
    #[test]
    fn corrupt_filter_image_falls_back_to_rebuild() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        let fb = db.levels[0][0].filter_block.expect("flushed table has a filter image");
        let disk = db.close().unwrap();
        let _ = disk.bitrot_block(fb, 99);
        let db = Db::open(disk, opts).unwrap();
        let report = db.open_report();
        assert_eq!(report.filter_images_corrupt, 1);
        assert_eq!(report.filters_loaded, 0);
        assert_eq!(report.filters_rebuilt, 1);
        assert_eq!(report.degraded_tables, 0, "rebuild succeeded, no degrade");
        for i in (0..2000u64).step_by(61) {
            assert_eq!(db.get(&encode_u64(i)), Some(b"payload".to_vec()));
            assert_eq!(db.get(&encode_u64(i + 100_000)), None);
        }
        // The rebuilt filter actually prunes negative lookups.
        db.reset_io_stats();
        for i in 0..200u64 {
            assert_eq!(db.get(&encode_u64(i + 200_000)), None);
        }
        assert!(
            db.io_stats().block_reads < 20,
            "rebuilt filter is not pruning: {} reads",
            db.io_stats().block_reads
        );
    }

    /// A database whose tables' block ids are scattered, as the allocator
    /// before extents wrote them (one id at a time from a LIFO free list),
    /// reopens with every filter image loaded, every table's ids exactly as
    /// its manifest record lists them, and every read answering as before.
    #[test]
    fn a_database_with_scattered_block_ids_reopens_exactly() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            block_size: 512,
            l1_tables: 2,
            filter: FilterKind::SurfReal(8),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        let mut model = std::collections::BTreeMap::new();
        let mut state = 3u64;
        for _ in 0..3000 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64((r % 1500) << 20);
            db.put(&k, &r.to_le_bytes()).unwrap();
            model.insert(k.to_vec(), r.to_le_bytes().to_vec());
        }
        db.flush().unwrap();
        // Rewrite every data block one id at a time, the tables' last
        // blocks first and interleaved, so no table keeps one extent.
        let mut version = db.current_version();
        let metas: Vec<&mut crate::manifest::TableMeta> = version.levels.iter_mut().flatten().collect();
        let tables = metas.len() as u64;
        assert!(tables > 2, "{tables} tables");
        let most = metas.iter().map(|m| m.blocks.len()).max().unwrap();
        let mut moved: Vec<Vec<u32>> = metas.iter().map(|m| m.blocks.clone()).collect();
        for j in 0..most {
            for (meta, ids) in metas.iter().zip(&mut moved).rev() {
                let Some(b) = meta.blocks.len().checked_sub(j + 1) else { continue };
                ids[b] = db.disk.write(db.disk.read(meta.blocks[b]).unwrap()).unwrap();
            }
        }
        for (meta, ids) in metas.into_iter().zip(moved) {
            for &old in &meta.blocks {
                db.disk.release(old).unwrap();
            }
            assert!(ids.windows(2).any(|w| w[1] != w[0] + 1), "{ids:?} is one extent");
            meta.blocks = ids;
        }
        db.disk.sync();
        db.manifest.borrow_mut().rotate(&db.disk, &version).unwrap();
        let disk = db.disk_handle();
        drop(db);

        let db = Db::open(disk, opts).unwrap();
        db.check_invariants().unwrap();
        let report = db.open_report();
        assert_eq!((report.filters_loaded, report.filters_rebuilt), (tables, 0));
        assert_eq!(db.current_version().levels, version.levels, "ids reopen as written");
        for (table, meta) in db.levels.iter().flatten().zip(version.levels.iter().flatten()) {
            assert_eq!(table.index.block_ids().collect::<Vec<_>>(), meta.blocks);
        }
        for i in 0..1500u64 {
            let k = encode_u64(i << 20);
            assert_eq!(db.get(&k), model.get(&k[..]).cloned(), "get {i}");
        }
        let all: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(db.scan_from(&[], None, usize::MAX), all, "full scan");
    }

    /// An image of an older format version — CRC-valid, so no bit rot — is
    /// not decoded: the open counts it corrupt and rebuilds the filter from
    /// the data blocks, the same rung bit rot takes.
    #[test]
    fn old_version_filter_image_is_rebuilt() {
        use crate::wal::{decode_single_ref, encode_single};
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            filter: FilterKind::SurfReal(8),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        let fb = db.levels[0][0].filter_block.expect("flushed table has a filter image");
        let disk = db.close().unwrap();
        let mut payload = decode_single_ref(&disk.read(fb).unwrap(), "t").unwrap().to_vec();
        assert_eq!(payload[0], crate::sstable::FILTER_IMAGE_VERSION);
        payload[0] = 1;
        disk.release(fb).unwrap();
        let rewritten = disk.write(encode_single(&payload).into_boxed_slice()).unwrap();
        assert_eq!(rewritten, fb, "the freed slot is reused for the patched image");
        disk.sync();
        let db = Db::open(disk, opts).unwrap();
        let report = db.open_report();
        assert_eq!(report.filter_images_corrupt, 1);
        assert_eq!(report.filters_loaded, 0);
        assert_eq!(report.filters_rebuilt, 1);
        assert_eq!(report.degraded_tables, 0);
        for i in 0..2000u64 {
            assert_eq!(db.get(&encode_u64(i)), Some(b"payload".to_vec()), "key {i}");
        }
        db.reset_io_stats();
        for i in 0..200u64 {
            assert_eq!(db.get(&encode_u64(i + 200_000)), None);
        }
        assert!(
            db.io_stats().block_reads < 20,
            "rebuilt filter is not pruning: {} reads",
            db.io_stats().block_reads
        );
    }

    /// Reopen of a persistent-filter database touches O(tables) blocks,
    /// not O(data): one meta read per table plus fixed file overhead.
    #[test]
    fn reopen_with_images_reads_o_tables_blocks() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            block_size: 512,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..20_000u64 {
            db.put(&encode_u64(i), &[0x77; 40]).unwrap();
        }
        db.flush().unwrap();
        let tables: u64 = db.level_sizes().iter().map(|&s| s as u64).sum();
        let data_blocks: u64 = db.levels.iter().flatten().map(|t| t.index.len() as u64).sum();
        assert!(data_blocks > 4 * tables, "workload too small to distinguish");
        let disk = db.close().unwrap();
        disk.reset_stats();
        let db = Db::open(disk, opts).unwrap();
        assert_eq!(db.open_report().filters_loaded, tables);
        assert_eq!(db.open_report().filters_rebuilt, 0);
        let reads = db.io_stats().block_reads;
        assert!(
            reads <= 2 * tables,
            "open read {reads} blocks for {tables} tables (data blocks: {data_blocks})"
        );
    }

    /// One output table as bytes: each block's frame and separator, the
    /// max key, the counts and the filter image.
    #[derive(Debug, PartialEq)]
    struct TableBytes {
        frames: Vec<Box<[u8]>>,
        fences: Vec<Vec<u8>>,
        max_key: Vec<u8>,
        counts: (usize, usize),
        image: Option<Box<[u8]>>,
    }

    impl TableBytes {
        /// What `table` wrote to `disk`.
        fn written(disk: &SimDisk, table: &SsTable) -> Self {
            Self {
                frames: table.index.block_ids().map(|id| disk.read(id).unwrap()).collect(),
                fences: table.index.separators().map(<[u8]>::to_vec).collect(),
                max_key: table.max_key.clone(),
                counts: (table.num_entries, table.num_tombstones),
                image: table.filter_block.map(|id| disk.read(id).unwrap()),
            }
        }

        /// The reference: the two-pass build a table was made by before
        /// the streaming one — cut every block, then encode each.
        fn two_pass(entries: &[EntryRef<'_>], block_size: usize, filter: &FilterKind) -> Self {
            let entry_bytes = |e: &EntryRef<'_>| e.0.len() + e.1.map_or(0, <[u8]>::len) + 5;
            let mut starts = Vec::new();
            let (mut start, mut bytes) = (0usize, 0usize);
            for (i, e) in entries.iter().enumerate() {
                if i == start || bytes + entry_bytes(e) <= block_size {
                    bytes += entry_bytes(e);
                } else {
                    starts.push(start);
                    (start, bytes) = (i, entry_bytes(e));
                }
            }
            starts.push(start);
            starts.push(entries.len());
            let keys: Vec<&[u8]> = entries.iter().map(|&(k, _)| k).collect();
            let fence = |w: &[usize]| match w[0].checked_sub(1) {
                None => entries[0].0.to_vec(),
                // The shortest prefix of the block's first key above the
                // last key of the block before.
                Some(prev) => {
                    let (last, first) = (entries[prev].0, entries[w[0]].0);
                    let lcp = last.iter().zip(first).take_while(|(a, b)| a == b).count();
                    first[..lcp + 1].to_vec()
                }
            };
            Self {
                frames: starts
                    .windows(2)
                    .map(|w| {
                        let mut frame = Vec::new();
                        Run::encode_frame(&entries[w[0]..w[1]], &mut frame).unwrap();
                        frame.into_boxed_slice()
                    })
                    .collect(),
                fences: starts.windows(2).map(fence).collect(),
                max_key: entries[entries.len() - 1].0.to_vec(),
                counts: (entries.len(), entries.iter().filter(|(_, v)| v.is_none()).count()),
                image: SsTable::build_filter(&keys, filter).map(|f| SsTable::encode_filter_image(&f)),
            }
        }
    }

    /// The reference compaction at `level`: every input entry collected,
    /// stable-sorted (newest input first, so `dedup` keeps the newest),
    /// deduplicated, tombstones retained unless nothing deeper overlaps,
    /// and cut into `per_table` chunks. Reads every input block itself, a
    /// quarantined one included. Also returns whether the merge held a
    /// tombstone and whether it dropped them.
    fn sort_and_dedup_compaction(db: &Db, level: usize) -> (Vec<TableBytes>, bool, bool) {
        let (victims, overlapped) = db.opts.compaction.pick(&db.levels, level);
        let gone: Vec<u64> = victims.iter().chain(&overlapped).map(|t| t.id).collect();
        let view = db.view();
        let sources: Vec<Arc<Run>> = victims
            .iter()
            .rev()
            .chain(&overlapped)
            .flat_map(|t| (0..t.index.len()).map(|b| view.read_retrying(t, b, 4).unwrap()))
            .collect();
        let mut entries: Vec<EntryRef<'_>> = sources.iter().flat_map(|b| b.iter()).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|b, a| a.0 == b.0);
        let tombstones = entries.iter().any(|(_, v)| v.is_none());
        let mut dropped = false;
        if let (Some(&(min, _)), Some(&(max, _))) = (entries.first(), entries.last()) {
            let deeper = db.levels[level + 1..]
                .iter()
                .flatten()
                .any(|t| !gone.contains(&t.id) && t.overlaps(min, max));
            if !deeper {
                entries.retain(|(_, v)| v.is_some());
                dropped = true;
            }
        }
        let per_table = if db.opts.compaction.disjoint(level + 1) {
            (db.opts.memtable_bytes * 4 / 64).max(64)
        } else {
            entries.len()
        };
        let (block_size, filter) = (db.opts.block_size, &db.opts.filter);
        let tables = entries
            .chunks(per_table.max(1))
            .map(|chunk| TableBytes::two_pass(chunk, block_size, filter))
            .collect();
        (tables, tombstones, dropped)
    }

    /// Every compaction writes, byte for byte, the tables the collect /
    /// stable-sort / dedup merge and the two-pass build wrote: block
    /// frames, separators, counts and filter images. Random overwrites
    /// and deletes across flushes, under leveled and tiered policies and
    /// every filter kind, reach bottom and non-bottom merges, outputs cut
    /// into several tables, and inputs with a quarantined block that the
    /// merge rescues.
    #[test]
    fn compaction_writes_what_the_sort_and_dedup_merge_wrote() {
        // Tiered, tombstones dropped, tombstones kept, several outputs,
        // a rescued block.
        let mut seen = [0usize; 5];
        prop_check("compaction_vs_sort_and_dedup", 32, |g: &mut Gen| {
            let tiered = g.bool(0.5);
            let filters = [
                FilterKind::None,
                FilterKind::Bloom(10.0),
                FilterKind::SurfHash(4),
                FilterKind::SurfReal(4),
            ];
            let mut db = Db::new(DbOptions {
                memtable_bytes: 2 << 10,
                block_size: 256,
                cache_blocks: 8,
                l0_tables: 2,
                l1_tables: 2,
                filter: *g.pick(&filters),
                compaction: if tiered {
                    CompactionConfig::Tiered { tiers_per_level: 2 }
                } else {
                    CompactionConfig::Leveled { fanout: 2 }
                },
                compact_on_flush: false,
                ..Default::default()
            });
            seen[0] += usize::from(tiered);
            let keys = g.range(100..800);
            for _ in 0..g.range(4..14) {
                // Each flush writes a window of the key space, so inputs
                // span different ranges.
                let lo = g.range(0..keys);
                let hi = g.range(lo + 1..keys + 1);
                for _ in 0..g.range(20..200) {
                    let k = encode_u64(g.range(lo..hi) as u64);
                    if g.bool(0.25) {
                        db.delete(&k).unwrap();
                    } else {
                        db.put(&k, &g.bytes_vec(0..24)).unwrap();
                    }
                }
                db.flush().unwrap();
                while let Some(level) = db.debt_level() {
                    if db.levels.len() == level + 1 {
                        db.levels.push(Vec::new());
                    }
                    let (victims, _) = db.opts.compaction.pick(&db.levels, level);
                    let victim = g.pick(&victims);
                    let rescue = g.bool(0.3);
                    let repairs = db.io_stats().read_repairs;
                    let (want, tombstones, dropped) = sort_and_dedup_compaction(&db, level);
                    if rescue {
                        db.quarantine((victim.id, g.range(0..victim.index.len()) as u32));
                    }
                    let first_new = db.next_table_id;
                    check!(db.compact_debt().map_err(|e| e.to_string())?);
                    let mut outputs: Vec<&Arc<SsTable>> =
                        db.levels[level + 1].iter().filter(|t| t.id >= first_new).collect();
                    outputs.sort_by_key(|t| t.id);
                    let got: Vec<TableBytes> =
                        outputs.iter().map(|t| TableBytes::written(&db.disk, t)).collect();
                    check_eq!(got, want, "level {level}, tiered {tiered}");
                    if rescue {
                        check_eq!(db.io_stats().read_repairs, repairs + 1, "the quarantined block was rescued");
                        check_eq!(db.io_stats().quarantined_blocks, 0);
                    }
                    seen[1] += usize::from(tombstones && dropped);
                    seen[2] += usize::from(tombstones && !dropped);
                    seen[3] += usize::from(want.len() > 1);
                    seen[4] += usize::from(rescue);
                }
            }
            Ok(())
        });
        assert!(seen.iter().all(|&n| n > 0), "tiered / dropped / kept / split / rescued: {seen:?}");
    }
}

#[cfg(test)]
mod diag_tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn seek_visits_every_level() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 8 << 10,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..30_000u64 {
            db.put(&encode_u64(i * 64), b"0123456789012345678901234567890123456789").unwrap();
        }
        db.flush().unwrap();
        let sizes = db.level_sizes();
        assert!(sizes.iter().filter(|&&s| s > 0).count() >= 2, "{sizes:?}");
        db.reset_io_stats();
        let n = 200;
        for i in 0..n {
            let at = i * 9973 % 30_000;
            let want = encode_u64((at + 1) * 64);
            assert_eq!(db.seek(&encode_u64(at * 64 + 1), None), Some(want.to_vec()), "seek {at}");
        }
        // Every level's candidate stands in the merge as its block fence:
        // only the block holding the answer is read (1.03 reads per seek,
        // the extra ones where `lk` falls past the last key of a block).
        let reads = db.io_stats().block_reads;
        assert!(reads <= 206, "{reads} block reads for {n} seeks");
    }
}
