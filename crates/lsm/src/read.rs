//! The read path, implemented once: [`ReadView`] borrows everything a read
//! needs — a MemTable source, the levels, the device and the block cache —
//! and carries the Figure 4.3 execution paths (Get, Seek), the merged
//! range scan and the one block-fetch ladder. [`Db`] builds a view over
//! its live skip list, [`DbSnapshot`](crate::DbSnapshot) over its frozen
//! runs; every public read method on either is a one-line delegation to
//! this module.
//!
//! The two handles differ in exactly two places:
//!
//! * [`Mem`] — where a MemTable entry comes from;
//! * [`Handle`] — what a block that stays unreadable does. The writer keeps
//!   score (probe, retry and repair counters), quarantines the block and
//!   persists that through the manifest; a snapshot serves the block empty
//!   for this view and writes nothing.

use crate::cache::BlockCache;
use crate::db::{Db, FilterStats};
use crate::disk::SimDisk;
use crate::run::{EntryRef, Run, RunBuilder};
use crate::sstable::SsTable;
use memtree_common::error::Result;
use memtree_common::key::successor;
use memtree_common::traits::OrderedIndex;
use memtree_faults::Backoff;
use memtree_skiplist::SkipList;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// Result of a seek.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeekResult {
    /// Smallest entry `>= lk` (and `< hk` for closed seeks).
    Found {
        /// The entry's key.
        key: Vec<u8>,
    },
    /// No qualifying entry.
    NotFound,
}

/// Most output rows a scan reserves room for up front (48 KiB of row
/// headers); a longer scan grows from there. Reserving is a steadiness
/// rule more than a saving: an output vector grown by doubling frees a
/// ladder of 0.2–6 KiB chunks on every scan, the allocator splits them
/// for the next scan's rows, and scan latency comes to depend on which
/// fragmentation state the calling thread's heap has fallen into
/// (EXPERIMENTS.md, PR 16).
pub const SCAN_RESERVE_ROWS: usize = 1024;

/// One seek's cache of exact table lower bounds: table id → `(lk₀,
/// smallest stored key ≥ lk₀)`. See [`ReadView::seek_candidate`]'s doc for
/// the reuse rule that keeps cached entries exact.
type SeekMemo = HashMap<u64, (Vec<u8>, Option<Vec<u8>>)>;

/// Where a MemTable entry comes from.
#[derive(Clone, Copy)]
pub(crate) enum Mem<'a> {
    /// The writer's live skip list: keys → slots of its value arena
    /// (`None` slots are delete tombstones).
    Live {
        list: &'a SkipList,
        values: &'a [Option<Vec<u8>>],
    },
    /// A snapshot's frozen view: `delta` shadows `base`.
    Frozen { delta: &'a Run, base: &'a Run },
}

impl<'a> Mem<'a> {
    /// `None` = key not buffered; `Some(None)` = tombstoned.
    fn get(&self, key: &[u8]) -> Option<Option<&'a [u8]>> {
        match *self {
            Mem::Live { list, values } => {
                list.get(key).map(|slot| values[slot as usize].as_deref())
            }
            Mem::Frozen { delta, base } => delta.get(key).or_else(|| base.get(key)),
        }
    }

    /// Visits the newest buffered version of every key `>= lk` in key
    /// order, tombstones included, until `f` returns `false`.
    fn range_from(&self, lk: &[u8], mut f: impl FnMut(&[u8], Option<&[u8]>) -> bool) {
        match *self {
            Mem::Live { list, values } => {
                list.range_from(lk, &mut |k, slot| f(k, values[slot as usize].as_deref()))
            }
            Mem::Frozen { delta, base } => {
                let (mut d, mut b) = (delta.lower_bound(lk), base.lower_bound(lk));
                loop {
                    let order = match (d < delta.len(), b < base.len()) {
                        (false, false) => return,
                        (true, false) => Ordering::Less,
                        (false, true) => Ordering::Greater,
                        (true, true) => delta.key(d).cmp(base.key(b)),
                    };
                    let (k, v) = if order == Ordering::Greater {
                        base.entry(b)
                    } else {
                        delta.entry(d)
                    };
                    d += usize::from(order != Ordering::Greater);
                    b += usize::from(order != Ordering::Less);
                    if !f(k, v) {
                        return;
                    }
                }
            }
        }
    }
}

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
    pub(crate) mem: Mem<'a>,
    /// Upper bound on the tombstones `mem` holds.
    pub(crate) mem_tombstones: usize,
    /// `levels[0]` newest-last; levels ≥ 1 key-ordered and disjoint, or —
    /// when `overlapping` (tiered compaction) — age-ordered newest-last
    /// runs that are read newest-first like L0.
    pub(crate) levels: &'a [Vec<Arc<SsTable>>],
    pub(crate) overlapping: bool,
    pub(crate) disk: &'a SimDisk,
    pub(crate) cache: &'a BlockCache,
    pub(crate) handle: Handle<'a>,
}

/// One ordered source feeding the merge in [`ReadView::scan_from`].
/// Sources are consulted newest-first; on a key tie the newest wins.
enum Source<'a> {
    /// One run of the MemTable source.
    Mem { run: &'a Run, pos: usize },
    /// A streaming cursor over one table's blocks.
    Table(TableCursor<'a>),
}

struct TableCursor<'a> {
    table: &'a SsTable,
    /// Index into `table.blocks`.
    block: usize,
    data: Arc<Run>,
    pos: usize,
}

impl TableCursor<'_> {
    /// Moves past exhausted and degraded-empty blocks.
    fn settle(&mut self, view: &ReadView<'_>) {
        while self.pos >= self.data.len() && self.block + 1 < self.table.blocks.len() {
            self.block += 1;
            self.data = view.fetch_block(self.table, self.block);
            self.pos = 0;
        }
    }
}

impl Source<'_> {
    fn peek(&self) -> Option<EntryRef<'_>> {
        let (run, pos) = match self {
            Source::Mem { run, pos } => (*run, *pos),
            Source::Table(c) => (&*c.data, c.pos),
        };
        (pos < run.len()).then(|| run.entry(pos))
    }

    fn advance(&mut self, view: &ReadView<'_>) {
        match self {
            Source::Mem { pos, .. } => *pos += 1,
            Source::Table(c) => {
                c.pos += 1;
                c.settle(view);
            }
        }
    }
}

impl<'a> ReadView<'a> {
    /// One decoded-block read with bounded retry of transient faults only
    /// ([`SimDisk::read_retrying`]); the writer counts the retries.
    pub(crate) fn read_retrying(
        &self,
        table: &SsTable,
        block: usize,
        max_attempts: u32,
    ) -> Result<Arc<Run>> {
        let mut backoff = Backoff::new(max_attempts);
        let raw = self.disk.read_retrying(table.blocks[block], &mut backoff);
        if let Handle::Writer(db) = self.handle {
            bump(&db.transient_retries, u64::from(backoff.attempts() - 1));
        }
        Ok(Arc::new(Run::from_frame(raw?)?))
    }

    /// The block-fetch ladder of every query path: the block **cache**; a
    /// **quarantined** block is empty without a read; **transient** read
    /// errors are retried under [`Backoff`] and never quarantine (the
    /// on-disk data is intact — an exhausted budget serves the block empty
    /// for this one query); a **persistent** decode failure gets one more
    /// round (the read repair: a fault on the returned copy vanishes on
    /// re-read); a block that still fails is **unreadable** — it reads as
    /// empty, and [`Handle`] decides what else happens. Nothing panics.
    pub(crate) fn fetch_block(&self, table: &SsTable, block: usize) -> Arc<Run> {
        if let Some(hit) = self.cache.get(table.id, block) {
            return hit;
        }
        let at = (table.id, block as u32);
        let quarantined = match self.handle {
            Handle::Writer(db) => db.quarantined.borrow().contains(&at),
            Handle::Frozen(set) => set.contains(&at),
        };
        if quarantined {
            return Arc::default();
        }
        for reread in [false, true] {
            match self.read_retrying(table, block, 8) {
                Ok(run) => {
                    if let (true, Handle::Writer(db)) = (reread, self.handle) {
                        bump(&db.read_repairs, 1);
                    }
                    self.cache.insert(table.id, block, Arc::clone(&run));
                    return run;
                }
                Err(e) if e.is_transient() => return Arc::default(),
                Err(_) => {}
            }
        }
        if let Handle::Writer(db) = self.handle {
            db.quarantine(at);
        }
        Arc::default()
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
        if depth == 0 || self.overlapping {
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

    /// See [`Db::seek`].
    ///
    /// Tombstone-aware: the structural candidate (smallest stored entry,
    /// live or deleted) is verified against the merged view and, when it
    /// turns out to be a shadowed delete, the seek restarts past it. The
    /// verification `get` is skipped entirely while the store holds no
    /// tombstones, which keeps the delete-free fast path at its original
    /// I/O cost. The restarts re-query the same tables with a strictly
    /// increasing `lk`, so one [`SeekMemo`] spans them.
    pub(crate) fn seek(&self, lk: &[u8], hk: Option<&[u8]>) -> SeekResult {
        let any_tombstones =
            self.mem_tombstones > 0 || self.levels.iter().flatten().any(|t| t.num_tombstones > 0);
        let mut memo = SeekMemo::new();
        let mut low = lk.to_vec();
        loop {
            let Some(cand) = self.seek_candidate(&low, hk, &mut memo) else {
                return SeekResult::NotFound;
            };
            if !any_tombstones || self.get(&cand).is_some() {
                return SeekResult::Found { key: cand };
            }
            low = successor(&cand);
            if hk.is_some_and(|hk| low.as_slice() >= hk) {
                return SeekResult::NotFound;
            }
        }
    }

    /// Exact smallest key `>= lk` within one table (1–2 block reads),
    /// recorded in `memo`.
    fn table_lower_bound(
        &self,
        table: &SsTable,
        lk: &[u8],
        memo: &mut SeekMemo,
    ) -> Option<Vec<u8>> {
        let k = (table.candidate_block(lk)..table.blocks.len()).find_map(|b| {
            let blk = self.fetch_block(table, b);
            let i = blk.lower_bound(lk);
            (i < blk.len()).then(|| blk.key(i).to_vec())
        });
        memo.insert(table.id, (lk.to_vec(), k.clone()));
        k
    }

    /// The structural part of a seek: smallest *stored* key in `[lk, hk)`
    /// across the MemTable and the tables, tombstones included.
    ///
    /// `memo` caches each table's resolved exact lower bound as
    /// `(lk₀, candidate)`. A cached entry answers a later query at
    /// `lk ≥ lk₀` for free: `candidate` (when `≥ lk`) is still exact
    /// because the table holds no key in `[lk₀, candidate)` ⊇
    /// `[lk, candidate)`, and a `None` candidate means the table holds no
    /// key `≥ lk₀` at all. Entries that can't answer (`lk < lk₀`, or a
    /// candidate now below `lk`) are re-resolved and overwritten, so the
    /// memo is correct for *any* query order; [`ReadView::seek`]'s
    /// increasing restarts are what make it pay.
    fn seek_candidate(&self, lk: &[u8], hk: Option<&[u8]>, memo: &mut SeekMemo) -> Option<Vec<u8>> {
        fn keep_smaller(best: &mut Option<Vec<u8>>, k: Option<Vec<u8>>) {
            if k.is_some() && best.as_ref().is_none_or(|b| k.as_ref() < Some(b)) {
                *best = k;
            }
        }
        // The MemTable candidate is exact and free.
        let mut best: Option<Vec<u8>> = None;
        self.mem.range_from(lk, |k, _| {
            best = Some(k.to_vec());
            false
        });
        // SuRF tables: (candidate prefix from an in-memory `moveToNext`,
        // table), resolved to exact keys below only as far as needed.
        let mut pending: Vec<(Vec<u8>, &SsTable)> = Vec::new();
        for (depth, level) in self.levels.iter().enumerate() {
            for table in &level[self.tables_at(depth, lk)] {
                // A table can serve the seek only if its range intersects
                // [lk, hk): one entirely below has no key >= lk, one
                // entirely at or above `hk` has no key < hk — and, if
                // filterless, would pay a block fetch to say so.
                if table.max_key.as_slice() < lk
                    || hk.is_some_and(|hk| table.min_key.as_slice() >= hk)
                {
                    continue;
                }
                // Memo hit: answers without touching the filter or a block.
                match memo.get(&table.id) {
                    Some((lk0, None)) if lk >= lk0.as_slice() => continue,
                    Some((lk0, Some(c))) if lk >= lk0.as_slice() && c.as_slice() >= lk => {
                        keep_smaller(&mut best, Some(c.clone()));
                        continue;
                    }
                    _ => {}
                }
                match table.surf() {
                    Some(surf) => {
                        let (it, _fp) = surf.move_to_next(lk);
                        // Prune candidates definitely past hk.
                        if it.valid() && hk.is_none_or(|hk| it.key() < hk) {
                            pending.push((it.key().to_vec(), table));
                        }
                    }
                    // No usable range filter: fetch the candidate block.
                    None => keep_smaller(&mut best, self.table_lower_bound(table, lk, memo)),
                }
            }
        }
        // Smallest prefix first, until the best exact key cannot be beaten.
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        for (prefix, table) in pending {
            // A prefix >= the best exact key cannot yield a smaller key...
            // unless it is a prefix of `best` (its extension could be
            // smaller), so only prune on strictly-greater non-prefixes.
            if best.as_ref().is_some_and(|b| prefix >= *b && !b.starts_with(&prefix)) {
                break;
            }
            keep_smaller(&mut best, self.table_lower_bound(table, lk, memo));
        }
        best.filter(|k| hk.is_none_or(|hk| k.as_slice() < hk))
    }

    /// The MemTable from `lk` up to `hk` or its `limit`-th live entry as
    /// one sorted run, tombstones included.
    pub(crate) fn mem_run(&self, lk: &[u8], hk: Option<&[u8]>, limit: usize) -> Run {
        RunBuilder::collect(|push| {
            let mut live = 0usize;
            self.mem.range_from(lk, |k, v| {
                if live == limit || hk.is_some_and(|hk| k >= hk) {
                    return false;
                }
                live += usize::from(v.is_some());
                push(k, v);
                true
            });
        })
    }

    /// See [`Db::scan_from`]: a k-way merge over newest-first sources.
    pub(crate) fn scan_from(
        &self,
        lk: &[u8],
        hk: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        if limit == 0 {
            return Vec::new();
        }
        // Every vector below is sized once: a scan's allocations are its
        // output rows plus a constant, never a growth ladder of odd sizes
        // interleaved with them (see `SCAN_RESERVE_ROWS`).
        let mut out = Vec::with_capacity(limit.min(SCAN_RESERVE_ROWS));
        // A skip list has no cursor to merge from: the live MemTable's part
        // of the range is copied out first (every live entry of the newest
        // source is an output row, so `limit` of them are enough).
        let live;
        // Newest first: the MemTable's runs, then per level the tables in
        // range, newest-last reversed (which matters where ranges overlap;
        // the tables of a disjoint level never tie on a key).
        let mut sources: Vec<Source<'_>> =
            Vec::with_capacity(2 + self.levels.iter().map(Vec::len).sum::<usize>());
        match self.mem {
            Mem::Frozen { delta, base } => {
                for run in [delta, base] {
                    sources.push(Source::Mem { run, pos: run.lower_bound(lk) });
                }
            }
            Mem::Live { .. } => {
                live = self.mem_run(lk, hk, limit);
                sources.push(Source::Mem { run: &live, pos: 0 });
            }
        }
        for table in self.levels.iter().flat_map(|level| level.iter().rev()) {
            if table.max_key.as_slice() >= lk && hk.is_none_or(|hk| table.min_key.as_slice() < hk)
            {
                let block = table.candidate_block(lk);
                let data = self.fetch_block(table, block);
                let mut cursor = TableCursor { table, block, pos: data.lower_bound(lk), data };
                cursor.settle(self);
                sources.push(Source::Table(cursor));
            }
        }
        // Sources whose head is the round's smallest key, newest first:
        // `heads[0]` provides the authoritative value, all of them step
        // past the key. Nothing is copied while choosing.
        let mut heads: Vec<usize> = Vec::with_capacity(sources.len());
        loop {
            heads.clear();
            let mut best: Option<&[u8]> = None;
            for (i, s) in sources.iter().enumerate() {
                let Some((k, _)) = s.peek() else { continue };
                if hk.is_some_and(|hk| k >= hk) {
                    continue;
                }
                match best.map(|b| k.cmp(b)) {
                    Some(Ordering::Greater) => {}
                    Some(Ordering::Equal) => heads.push(i),
                    Some(Ordering::Less) | None => {
                        best = Some(k);
                        heads.clear();
                        heads.push(i);
                    }
                }
            }
            let Some(&winner) = heads.first() else { break };
            if let Some((key, Some(value))) = sources[winner].peek() {
                out.push((key.to_vec(), value.to_vec()));
                if out.len() == limit {
                    break;
                }
            }
            // Keys are unique within a source: one step clears the key.
            for &i in &heads {
                sources[i].advance(self);
            }
        }
        out
    }
}
