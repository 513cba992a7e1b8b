//! The read path, implemented once: [`ReadView`] borrows everything a read
//! needs — a [`MemTable`], the levels, the device and the block cache —
//! and carries the point read (Figure 4.3's Get path), one ordered walk
//! ([`ScanCursor`]) and the one block-fetch ladder. Every ordered read is
//! that walk: a scan is its rows, a seek is its first row's key, and a
//! closed walk drops the tables whose SuRF holds no key in its range
//! (Figure 4.3's Seek paths). [`Db`] builds a view over its live
//! MemTable, [`DbSnapshot`](crate::DbSnapshot) over its frozen copy — the
//! same three parts, a write buffer over a young run over a static stage,
//! read the same way;
//! every public read method on either is a one-line delegation to this
//! module.
//!
//! The two handles differ in one place, [`Handle`]: what a block that
//! stays unreadable does. The writer keeps score (probe, retry and repair
//! counters), quarantines the block and persists that through the
//! manifest; a snapshot serves the block empty for this view and writes
//! nothing.

use crate::cache::BlockCache;
use crate::compaction::CompactionConfig;
use crate::db::{Db, FilterStats};
use crate::disk::SimDisk;
use crate::memtable::{Buffer, MemTable};
use crate::run::{EntryRef, Run};
use crate::sstable::SsTable;
use memtree_common::error::Result;
use memtree_faults::Backoff;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// Most output rows a scan reserves room for up front (48 KiB of row
/// headers); a longer scan grows from there. Reserving is a steadiness
/// rule more than a saving: an output vector grown by doubling frees a
/// ladder of 0.2–6 KiB chunks on every scan, the allocator splits them
/// for the next scan's rows, and scan latency comes to depend on which
/// fragmentation state the calling thread's heap has fallen into
/// (EXPERIMENTS.md, PR 16).
pub const SCAN_RESERVE_ROWS: usize = 1024;

/// What a block that stays unreadable does, and who keeps score.
#[derive(Clone, Copy)]
pub(crate) enum Handle<'a> {
    /// The single writer: counts filter probes, transient retries and read
    /// repairs, and quarantines through [`Db::quarantine`].
    Writer(&'a Db),
    /// A snapshot: the quarantine set frozen with it; nothing is counted,
    /// quarantined or written.
    Frozen(&'a HashSet<(u64, u32)>),
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// Everything one read borrows. See the module docs.
pub(crate) struct ReadView<'a> {
    pub(crate) mem: &'a MemTable,
    /// `levels[0]` newest-last; deeper levels key-ordered and disjoint, or
    /// (where `policy` says they overlap) age-ordered newest-last runs
    /// that are read newest-first like L0.
    pub(crate) levels: &'a [Vec<Arc<SsTable>>],
    pub(crate) policy: CompactionConfig,
    pub(crate) disk: &'a SimDisk,
    pub(crate) cache: &'a BlockCache,
    pub(crate) handle: Handle<'a>,
}

/// One ordered source feeding a [`ScanCursor`]. Sources are consulted
/// newest-first; on a key tie the newest wins.
enum Source<'a> {
    /// The MemTable's write buffer; newer than its runs.
    Buffer { buffer: &'a Buffer, pos: usize },
    /// One of the MemTable's runs: the young run, then the stage.
    Stage { run: &'a Run, pos: usize },
    /// A walk over one table, or over a disjoint level's tables in order.
    Tables(TableCursor<'a>),
}

/// A table walk that reads a block only when the merge reaches it.
struct TableCursor<'a> {
    /// The table being walked, then (in a disjoint level) the ones after
    /// it; empty once exhausted.
    tables: &'a [Arc<SsTable>],
    /// Index into `tables[0]`'s blocks.
    block: usize,
    /// The scan's low key: the walk starts at the first key `>= from`.
    from: &'a [u8],
    /// The head while `data` is `None`: the block's separator (a lower
    /// bound on its first key) or `from`, whichever is larger. A lower
    /// bound on the real head, known without a read, and unpacked from
    /// the block index once per block.
    bound: &'a [u8],
    /// The fetched block, `None` until the merge needs it.
    data: Option<Arc<Run>>,
    /// Head position in `data`; always in range while `data` is `Some`.
    pos: usize,
}

impl<'a> TableCursor<'a> {
    /// A walk from `tables[0]`'s block `block`, unread.
    fn new(tables: &'a [Arc<SsTable>], block: usize, from: &'a [u8]) -> Self {
        let mut cursor = Self { tables, block, from, bound: from, data: None, pos: 0 };
        cursor.enter_block();
        cursor
    }

    /// Sets the unread head bound of the block the walk now stands at.
    fn enter_block(&mut self) {
        let tables = self.tables;
        if let Some(table) = tables.first() {
            self.bound = table.index.separator(self.block).max(self.from);
        }
    }

    fn key(&self) -> Option<&[u8]> {
        if self.tables.is_empty() {
            return None;
        }
        Some(match &self.data {
            Some(run) => run.key(self.pos),
            None => self.bound,
        })
    }

    /// Fetches the head block and finds the first key `>= from` in it.
    fn load(&mut self, view: &ReadView<'_>) {
        let run = view.fetch_block(&self.tables[0], self.block);
        self.pos = run.lower_bound(self.from);
        self.data = Some(run);
        self.skip_exhausted();
    }

    fn step(&mut self) {
        self.pos += 1;
        self.skip_exhausted();
    }

    /// Moves past an exhausted (or degraded-empty) block to the next one,
    /// unread.
    fn skip_exhausted(&mut self) {
        if self.data.as_ref().is_some_and(|run| self.pos >= run.len()) {
            self.data = None;
            self.pos = 0;
            self.block += 1;
            if self.block == self.tables[0].index.len() {
                self.tables = &self.tables[1..];
                self.block = 0;
            }
            self.enter_block();
        }
    }
}

impl Source<'_> {
    /// The head key: exact, except for an unread block (see
    /// [`TableCursor::bound`]).
    fn key(&self) -> Option<&[u8]> {
        match self {
            Source::Buffer { buffer, pos } => (*pos < buffer.len()).then(|| buffer.key(*pos)),
            Source::Stage { run, pos } => (*pos < run.len()).then(|| run.key(*pos)),
            Source::Tables(c) => c.key(),
        }
    }

    /// The head entry; `None` while its block is unread.
    fn entry(&self) -> Option<EntryRef<'_>> {
        match self {
            Source::Buffer { buffer, pos } => (*pos < buffer.len()).then(|| buffer.entry(*pos)),
            Source::Stage { run, pos } => (*pos < run.len()).then(|| run.entry(*pos)),
            Source::Tables(c) => c.data.as_ref().map(|run| run.entry(c.pos)),
        }
    }

    fn unread(&self) -> bool {
        matches!(self, Source::Tables(c) if c.data.is_none())
    }

    fn step(&mut self) {
        match self {
            Source::Buffer { pos, .. } | Source::Stage { pos, .. } => *pos += 1,
            Source::Tables(c) => c.step(),
        }
    }
}

/// A lazy merged walk over a read view's live entries in `[lk, hk)`, in
/// key order, each the newest version; tombstones are merged away.
///
/// Opening reads nothing. A table's block is read only when the walk's
/// smallest key reaches it — an unread block stands in the merge as its
/// separator, a lower bound on the first key it holds — so a walk reads
/// the blocks that hold the rows it is asked for (and the tombstones
/// among them), not one block per table in range. Past the last row it
/// returns it reads at most one block per table: one whose separator lies
/// at or below that row while its first key lies above.
/// [`ScanCursor::bound`] exposes that read-free lower bound so that a
/// caller merging several cursors (one per shard) reads a cursor's blocks
/// only when its rows are next.
pub struct ScanCursor<'a> {
    view: ReadView<'a>,
    hk: Option<&'a [u8]>,
    sources: Vec<Source<'a>>,
    /// Sources whose head is the smallest key below `hk`, newest first
    /// (`heads[0]` holds the authoritative version); empty until found
    /// again after every step.
    heads: Vec<usize>,
}

impl<'a> ScanCursor<'a> {
    fn find_heads(&mut self) {
        let mut best: Option<&[u8]> = None;
        for (i, s) in self.sources.iter().enumerate() {
            let Some(k) = s.key() else { continue };
            if self.hk.is_some_and(|hk| k >= hk) {
                continue;
            }
            match best.map(|b| k.cmp(b)) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) => self.heads.push(i),
                Some(Ordering::Less) | None => {
                    best = Some(k);
                    self.heads.clear();
                    self.heads.push(i);
                }
            }
        }
    }

    /// Reads until `heads` holds the next live row: fetches the unread
    /// blocks at the smallest key and steps past deleted keys. `false`
    /// once the walk is exhausted.
    fn settle(&mut self) -> bool {
        loop {
            if self.heads.is_empty() {
                self.find_heads();
            }
            let Some(&newest) = self.heads.first() else { return false };
            let mut read = false;
            for &i in &self.heads {
                if let Source::Tables(c) = &mut self.sources[i] {
                    if c.data.is_none() {
                        c.load(&self.view);
                        read = true;
                    }
                }
            }
            if read {
                // The real heads may lie past the separators that stood
                // in for them: choose again.
                self.heads.clear();
            } else if matches!(self.sources[newest].entry(), Some((_, Some(_)))) {
                return true;
            } else {
                self.step_heads(); // a tombstone: the key is deleted
            }
        }
    }

    fn step_heads(&mut self) {
        for &i in &self.heads {
            self.sources[i].step();
        }
        self.heads.clear();
    }

    /// The smallest key the next row can have, found without a block
    /// read, and whether it is the next row's key (`true` once
    /// [`ScanCursor::peek`] has returned that row). `None` once exhausted.
    pub fn bound(&mut self) -> Option<(&[u8], bool)> {
        if self.heads.is_empty() {
            self.find_heads();
        }
        let &newest = self.heads.first()?;
        let known = !self.heads.iter().any(|&i| self.sources[i].unread())
            && matches!(self.sources[newest].entry(), Some((_, Some(_))));
        Some((self.sources[newest].key()?, known))
    }

    /// The next row, reading the blocks it takes to know it; `None` once
    /// the walk is exhausted.
    pub fn peek(&mut self) -> Option<(&[u8], &[u8])> {
        if !self.settle() {
            return None;
        }
        match self.sources[self.heads[0]].entry() {
            Some((k, Some(v))) => Some((k, v)),
            _ => None,
        }
    }

    /// Steps past the row [`ScanCursor::peek`] returns.
    pub fn advance(&mut self) {
        if self.settle() {
            self.step_heads();
        }
    }

    /// Up to `limit` rows, copied out.
    pub(crate) fn collect_rows(mut self, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        // Sized once: a scan's allocations are its output rows plus a
        // constant, never a growth ladder of odd sizes interleaved with
        // them (see `SCAN_RESERVE_ROWS`).
        let mut out = Vec::with_capacity(limit.min(SCAN_RESERVE_ROWS));
        while out.len() < limit {
            let Some((k, v)) = self.peek() else { break };
            out.push((k.to_vec(), v.to_vec()));
            self.advance();
        }
        out
    }
}

impl<'a> ReadView<'a> {
    /// One block read with bounded retry of transient faults only
    /// ([`SimDisk::read_retrying`]), refilled into `into` ([`Run::refill`]);
    /// the writer counts the retries. On an error `into` is empty.
    fn read_block(
        &self,
        table: &SsTable,
        block: usize,
        max_attempts: u32,
        into: &mut Run,
    ) -> Result<()> {
        let mut backoff = Backoff::new(max_attempts);
        let id = table.index.block_id(block);
        let res = into.refill(|buf| self.disk.read_retrying(id, &mut backoff, buf));
        if let Handle::Writer(db) = self.handle {
            bump(&db.transient_retries, u64::from(backoff.attempts() - 1));
        }
        res
    }

    /// [`ReadView::read_block`] into a new block, outside the cache.
    pub(crate) fn read_retrying(
        &self,
        table: &SsTable,
        block: usize,
        max_attempts: u32,
    ) -> Result<Arc<Run>> {
        let mut run = Run::default();
        self.read_block(table, block, max_attempts, &mut run)?;
        Ok(Arc::new(run))
    }

    /// The block-fetch ladder of every query path: the block **cache**; a
    /// **quarantined** block is empty without a read; **transient** read
    /// errors are retried under [`Backoff`] and never quarantine (the
    /// on-disk data is intact — an exhausted budget serves the block empty
    /// for this one query and caches nothing); a **persistent** decode
    /// failure gets one more round (the read repair: a fault on the
    /// returned copy vanishes on re-read); a block that still fails is
    /// **unreadable** — it reads as empty, and [`Handle`] decides what else
    /// happens. Nothing panics.
    ///
    /// A miss reads into the spare block its stripe hands back with the
    /// failed lookup ([`BlockCache::get_or_spare`]) and allocates a new
    /// block only when there is none, so a steady-state miss allocates
    /// nothing. Whatever the read leaves in it — the new block, or nothing
    /// — is what the query gets.
    pub(crate) fn fetch_block(&self, table: &SsTable, block: usize) -> Arc<Run> {
        let spare = match self.cache.get_or_spare(table.id, block) {
            Ok(hit) => return hit,
            Err(spare) => spare,
        };
        let at = (table.id, block as u32);
        let quarantined = match self.handle {
            Handle::Writer(db) => db.quarantined.borrow().contains(&at),
            Handle::Frozen(set) => set.contains(&at),
        };
        if quarantined {
            return Arc::default();
        }
        let mut run = spare.unwrap_or_default();
        let fresh = Arc::get_mut(&mut run).expect("a spare or a new block has no other holder");
        for reread in [false, true] {
            match self.read_block(table, block, 8, fresh) {
                Ok(()) => {
                    if let (true, Handle::Writer(db)) = (reread, self.handle) {
                        bump(&db.read_repairs, 1);
                    }
                    self.cache.insert(table.id, block, Arc::clone(&run));
                    return run;
                }
                Err(e) if e.is_transient() => return run,
                Err(_) => {}
            }
        }
        if let Handle::Writer(db) = self.handle {
            db.quarantine(at);
        }
        run
    }

    /// Accounts one single-key filter probe ([`FilterStats`]).
    fn count_probe(&self) {
        if let Handle::Writer(db) = self.handle {
            let s = db.filter_stats.get();
            db.filter_stats.set(FilterStats {
                probe_passes: s.probe_passes + 1,
                keys_probed: s.keys_probed + 1,
            });
        }
    }

    /// Indexes into `levels[depth]` of the tables that can hold `key` or the
    /// smallest key above it: all of them where ranges overlap (L0, and
    /// every level under tiered compaction; newest last), else the one
    /// table of the disjoint level whose range ends at or after `key`.
    fn tables_at(&self, depth: usize, key: &[u8]) -> Range<usize> {
        let level = &self.levels[depth];
        if !self.policy.disjoint(depth) {
            return 0..level.len();
        }
        let idx = level.partition_point(|t| t.max_key.as_slice() < key);
        idx..level.len().min(idx + 1)
    }

    /// See [`Db::get`].
    pub(crate) fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = self.mem.get(key) {
            return v.map(<[u8]>::to_vec);
        }
        for (depth, level) in self.levels.iter().enumerate() {
            for table in level[self.tables_at(depth, key)].iter().rev() {
                if !table.covers(key) {
                    continue;
                }
                if table.has_filter() {
                    self.count_probe();
                    if !table.filter_may_contain(key) {
                        continue;
                    }
                }
                // A tombstone here answers `None`: the newest version wins.
                if let Some(v) = self.fetch_block(table, table.candidate_block(key)).get(key) {
                    return v.map(<[u8]>::to_vec);
                }
            }
        }
        None
    }

    /// See [`Db::seek`]: the key of the cursor's first row.
    pub(crate) fn seek(self, lk: &'a [u8], hk: Option<&'a [u8]>) -> Option<Vec<u8>> {
        self.cursor(lk, hk).peek().map(|(k, _)| k.to_vec())
    }

    /// A [`ScanCursor`] over the MemTable's three parts and the tables that
    /// can hold keys in `[lk, hk)`.
    ///
    /// A closed cursor uses SuRF as a range filter (Figure 4.3's closed
    /// seek): the first table of each walk is asked for `moveToNext(lk)`,
    /// in memory, before the walk is built. A table whose next stored
    /// prefix is missing or `>= hk` holds no key in `[lk, hk)` and is not
    /// a source; otherwise its walk starts at the block where the prefix
    /// or `lk`, whichever is larger, falls. An open cursor never probes:
    /// every table it walks holds a key `>= lk`, so a probe could only
    /// skip the one block whose tail `lk` falls past, and on the served
    /// scan workload the probe cost more time than that block saved
    /// (EXPERIMENTS.md, "one ordered walk").
    pub(crate) fn cursor(self, lk: &'a [u8], hk: Option<&'a [u8]>) -> ScanCursor<'a> {
        let mut sources: Vec<Source<'a>> =
            Vec::with_capacity(3 + self.levels.iter().map(Vec::len).sum::<usize>());
        let buffer = &self.mem.buffer;
        sources.push(Source::Buffer { buffer, pos: buffer.lower_bound(lk) });
        for run in &self.mem.runs {
            sources.push(Source::Stage { run, pos: run.lower_bound(lk) });
        }
        let in_range = |t: &SsTable| hk.is_none_or(|hk| t.min_key() < hk);
        // The block a walk over `t` starts at; `None` when SuRF rules out
        // every key in `[lk, hk)`. The prefix SuRF returns is a prefix of
        // the first key in range, so neither it nor `lk` lies above that
        // key.
        let start = |t: &SsTable| match (hk, t.surf()) {
            (Some(hk), Some(surf)) => {
                let (it, _fp) = surf.move_to_next(lk);
                let p = it.valid().then(|| it.key()).filter(|p| *p < hk)?;
                Some(t.candidate_block(p.max(lk)))
            }
            _ => Some(t.candidate_block(lk)),
        };
        let mut walk = |tables: &'a [Arc<SsTable>], block| {
            sources.push(Source::Tables(TableCursor::new(tables, block, lk)));
        };
        // Newest first: where ranges overlap, each table is its own source,
        // newest-last reversed; a disjoint level is one walk from the table
        // where `lk` falls, on into the tables after it.
        for (depth, level) in self.levels.iter().enumerate() {
            if !self.policy.disjoint(depth) {
                for table in level.iter().rev() {
                    if table.max_key.as_slice() >= lk && in_range(table) {
                        if let Some(block) = start(table) {
                            walk(std::slice::from_ref(table), block);
                        }
                    }
                }
            } else {
                let tables = &level[level.partition_point(|t| t.max_key.as_slice() < lk)..];
                match tables.first().filter(|t| in_range(t)).map(|t| start(t)) {
                    Some(Some(block)) => walk(tables, block),
                    // The next table starts above `lk`: its first key is
                    // in range exactly when it starts below `hk`.
                    Some(None) if tables.get(1).is_some_and(|t| in_range(t)) => {
                        walk(&tables[1..], 0)
                    }
                    _ => {}
                }
            }
        }
        let heads = Vec::with_capacity(sources.len());
        ScanCursor { view: self, hk, sources, heads }
    }
}
