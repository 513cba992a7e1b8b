//! Online scrub & repair: walk every manifest-live block plus the WAL and
//! manifest files, verify CRC framing, and fix what can be fixed while the
//! database keeps serving.
//!
//! ## Protocol
//!
//! [`Db::scrub`] runs three passes, cheapest authority first:
//!
//! 1. **Manifest/CURRENT** — the in-memory version is authoritative while
//!    the database is open, so any framing damage (bit-rotted CURRENT,
//!    torn or corrupt manifest log) is repaired by rotating to a fresh
//!    snapshot of the live version.
//! 2. **WAL** — the MemTable mirrors the log's unflushed tail, so a
//!    damaged log is repaired by flushing the MemTable (publishing the
//!    data through an SSTable) or, when the MemTable is empty, by plain
//!    truncation.
//! 3. **Data blocks** — every block of every live table is read *directly
//!    from the device* (bypassing the block cache: the scrub verifies what
//!    is actually on disk) and CRC-validated. Per block:
//!
//!    * transient read errors are retried under backoff and counted as
//!      healed; a transient storm that outlasts the budget aborts the
//!      scrub with a typed error (the scrub is retryable — nothing is
//!      half-done, because every table rewrite is one manifest
//!      transaction);
//!    * a clean block that was quarantined is **un-quarantined** — the
//!      scrub is the only path that lifts a quarantine;
//!    * a corrupt block with a clean copy still in the block cache is
//!      **repaired**: the cached copy's validated frame is written, byte
//!      for byte, to a fresh device block and swapped into the table;
//!    * a corrupt block whose key range is fully covered by strictly
//!      newer data (MemTable + shallower tables) is **dropped** from the
//!      table — a targeted single-table compaction;
//!    * anything else stays **quarantined**.
//!
//!    Dropped *and* quarantined blocks both contribute a [`LostRange`]:
//!    keys in such a range may be missing or served stale (an older
//!    version below becomes visible). The report is the loss
//!    notification — nothing disappears silently.
//!
//! A table whose geometry changed is republished under a **new table id**
//! in a single manifest transaction (`RemoveTable` + `AddTable` +
//! re-mapped `Quarantine` edits), so a crash anywhere during the scrub
//! leaves either the old or the new table fully live. Tables that come out
//! fully clean get their filter rebuilt if the configuration wants one and
//! it was lost to a degraded open.

use crate::db::Db;
use crate::manifest::Edit;
use crate::run::Run;
use crate::sstable::{BlockIndexBuilder, SsTable};
use crate::wal::{decode_frames, decode_single};
use memtree_common::error::Result;
use memtree_common::key::successor;
use memtree_faults::{fail_point, Backoff};
use std::sync::Arc;

/// Health verdict for one of the engine's framed files (WAL, manifest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FileScrubOutcome {
    /// Every frame validated.
    #[default]
    Clean,
    /// Damage was found and the file was rewritten from live state.
    Repaired,
}

/// A key range whose stored entries may be missing or stale after a scrub
/// dropped or quarantined the block that held them: from the block's
/// separator up to the next block's, so it holds every key of the block
/// and may reach into the gaps on either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostRange {
    /// Level of the table the block belonged to.
    pub level: usize,
    /// Id of the table the block belonged to (pre-rewrite id).
    pub table: u64,
    /// Low end of the range (inclusive): the block's separator, at or
    /// below its first key.
    pub lo: Vec<u8>,
    /// Last key of the range; see [`LostRange::hi_inclusive`].
    pub hi: Vec<u8>,
    /// Whether `hi` itself is inside the range (true only for a table's
    /// final block, whose range ends at the table's max key).
    pub hi_inclusive: bool,
}

impl LostRange {
    /// Does `key` fall inside this range?
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.lo.as_slice()
            && (key < self.hi.as_slice() || (self.hi_inclusive && key == self.hi.as_slice()))
    }
}

/// What one [`Db::scrub`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Data blocks read and verified.
    pub blocks_scanned: u64,
    /// Bytes of block data read and verified.
    pub bytes_scanned: u64,
    /// Blocks that validated on the first (possibly retried) read.
    pub clean_blocks: u64,
    /// Blocks whose read hit transient faults that healed under retry.
    pub transient_healed: u64,
    /// Corrupt blocks rewritten from a clean block-cache copy.
    pub repaired_blocks: u64,
    /// Corrupt blocks dropped because strictly newer data covers them.
    pub dropped_blocks: u64,
    /// Blocks left quarantined when the scrub finished.
    pub quarantined_blocks: u64,
    /// Previously quarantined blocks that validated clean and were lifted.
    pub unquarantined_blocks: u64,
    /// Tables republished under a new id (repair, drop, or removal).
    pub tables_rewritten: u64,
    /// Filters rebuilt on tables that came out fully clean.
    pub filters_rebuilt: u64,
    /// WAL verdict.
    pub wal: FileScrubOutcome,
    /// Manifest/CURRENT verdict.
    pub manifest: FileScrubOutcome,
    /// Every key range whose data may be missing or stale. Empty iff no
    /// acknowledged data was put at risk.
    pub lost_ranges: Vec<LostRange>,
}

impl ScrubReport {
    /// True when nothing was damaged, degraded, or lost.
    pub fn is_clean(&self) -> bool {
        self.repaired_blocks == 0
            && self.dropped_blocks == 0
            && self.quarantined_blocks == 0
            && self.unquarantined_blocks == 0
            && self.tables_rewritten == 0
            && self.wal == FileScrubOutcome::Clean
            && self.manifest == FileScrubOutcome::Clean
            && self.lost_ranges.is_empty()
    }
}

/// Per-block verdict while a table is being scrubbed.
enum BlockState {
    /// Block stays, `block` is its (possibly fresh) device id; `data` is
    /// its validated contents for count/filter rebuilds.
    Kept { block: u32, data: Arc<Run> },
    /// Block stays in the geometry but remains unreadable.
    Quarantined { block: u32 },
    /// Block leaves the geometry; the device block is released.
    Dropped { block: u32 },
}

impl Db {
    /// Online scrub & repair over every manifest-live block plus the WAL
    /// and manifest files. See the module docs for the full protocol. The
    /// database stays open and serviceable throughout; the returned
    /// [`ScrubReport`] lists every repair and every key range put at risk.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        self.tables_changed();
        let mut report = ScrubReport {
            manifest: self.scrub_manifest()?,
            ..Default::default()
        };
        report.wal = self.scrub_wal()?;
        for lvl in 0..self.levels.len() {
            let mut pos = 0;
            while pos < self.levels[lvl].len() {
                let removed = self.scrub_table(lvl, pos, &mut report)?;
                if !removed {
                    pos += 1;
                }
            }
            self.opts.compaction.order(lvl, &mut self.levels[lvl]);
        }
        self.disk.sync();
        self.check_invariants()?;
        Ok(report)
    }

    fn scrub_manifest(&mut self) -> Result<FileScrubOutcome> {
        let current = self.manifest.borrow().current_file();
        let healthy = (|| {
            let name = decode_single(&self.disk.read_file(&current), "manifest-current").ok()?;
            if name != self.manifest.borrow().file().as_bytes() {
                return None;
            }
            let log_buf = self.disk.read_file(self.manifest.borrow().file());
            let log = decode_frames(&log_buf, "manifest").ok()?;
            (!log.torn).then_some(())
        })()
        .is_some();
        if healthy {
            return Ok(FileScrubOutcome::Clean);
        }
        let version = self.current_version();
        self.manifest.borrow_mut().rotate(&self.disk, &version)?;
        Ok(FileScrubOutcome::Repaired)
    }

    fn scrub_wal(&mut self) -> Result<FileScrubOutcome> {
        let raw = self.disk.read_file(&self.wal_file());
        if raw.is_empty() || decode_frames(&raw, "wal").map(|log| !log.torn).unwrap_or(false) {
            return Ok(FileScrubOutcome::Clean);
        }
        if self.mem_bytes == 0 {
            self.discard_wal();
        } else {
            self.flush()?;
        }
        Ok(FileScrubOutcome::Repaired)
    }

    /// Scrubs one table in place; returns true when the table was removed
    /// from `levels[lvl]` entirely (so the caller must not advance `pos`).
    fn scrub_table(&mut self, lvl: usize, pos: usize, report: &mut ScrubReport) -> Result<bool> {
        let (old_id, index, max_key, old_had_filter) = {
            let t = &self.levels[lvl][pos];
            (t.id, t.index.clone(), t.max_key.clone(), t.has_filter())
        };
        let mut states: Vec<BlockState> = Vec::with_capacity(index.len());
        let mut fresh_blocks: Vec<u32> = Vec::new(); // written by repairs, unpublished
        let mut changed = false;
        for (bi, block_id) in index.block_ids().enumerate() {
            let was_quarantined = self.quarantined.borrow().contains(&(old_id, bi as u32));
            let mut backoff = Backoff::new(8);
            let mut frame = Vec::new();
            let read = self.disk.read_retrying(block_id, &mut backoff, &mut frame);
            report.blocks_scanned += 1;
            let decoded = match read {
                Ok(()) => {
                    report.bytes_scanned += frame.len() as u64;
                    if backoff.attempts() > 1 {
                        report.transient_healed += 1;
                    }
                    Run::from_frame(frame).map(Arc::new)
                }
                // A transient storm that outlasts the retry budget aborts
                // the scrub: the data is intact on disk and every table
                // already handled committed atomically, so re-running the
                // scrub later resumes safely.
                Err(e) if e.is_transient() => {
                    for &b in &fresh_blocks {
                        let _ = self.disk.release(b);
                    }
                    return Err(e);
                }
                Err(e) => Err(e),
            };
            match decoded {
                Ok(data) => {
                    report.clean_blocks += 1;
                    if was_quarantined {
                        report.unquarantined_blocks += 1;
                        changed = true;
                    }
                    states.push(BlockState::Kept { block: block_id, data });
                }
                Err(_) => {
                    // Persistent damage. Best repair first: a clean copy
                    // still in the block cache.
                    if let Some(cached) = self.cache.get(old_id, bi) {
                        let rewritten =
                            cached.frame().and_then(|f| self.disk.write(f.into()).ok());
                        if let Some(nb) = rewritten {
                            fresh_blocks.push(nb);
                            report.repaired_blocks += 1;
                            changed = true;
                            states.push(BlockState::Kept { block: nb, data: cached });
                            continue;
                        }
                    }
                    let lo = index.separator(bi).to_vec();
                    let (hi, hi_inclusive) = if bi + 1 < index.len() {
                        (index.separator(bi + 1).to_vec(), false)
                    } else {
                        (max_key.clone(), true)
                    };
                    let lost = LostRange { level: lvl, table: old_id, lo, hi, hi_inclusive };
                    if self.covered_by_newer(lvl, pos, &lost) {
                        report.dropped_blocks += 1;
                        changed = true;
                        states.push(BlockState::Dropped { block: block_id });
                    } else {
                        report.quarantined_blocks += 1;
                        if !was_quarantined {
                            changed = true;
                        }
                        states.push(BlockState::Quarantined { block: block_id });
                    }
                    report.lost_ranges.push(lost);
                }
            }
        }
        if !changed {
            // Geometry and quarantine state both stand. The only possible
            // improvement is a filter a degraded open withheld — safe to
            // (re)build now that every block verified clean.
            let fully_clean = states.iter().all(|s| matches!(s, BlockState::Kept { .. }));
            if fully_clean
                && !old_had_filter
                && !matches!(self.opts.filter, crate::db::FilterKind::None)
            {
                let keys: Vec<&[u8]> = states
                    .iter()
                    .filter_map(|s| match s {
                        BlockState::Kept { data, .. } => Some(data),
                        _ => None,
                    })
                    .flat_map(|d| d.iter())
                    .map(|(k, _)| k)
                    .collect();
                let filter = self.opts.filter;
                // A snapshot may still hold this table's `Arc`; mutating a
                // shared table is unsound, so skip the rebuild in that case
                // (filter absence is always safe — only a perf loss).
                if let Some(t) = Arc::get_mut(&mut self.levels[lvl][pos]) {
                    t.attach_filter(&keys, &filter);
                    report.filters_rebuilt += 1;
                }
            }
            return Ok(false);
        }
        self.republish_table(lvl, pos, old_id, states, fresh_blocks, report)
    }

    /// Commits a scrubbed table's new shape: one manifest transaction that
    /// removes the old id and (unless every block was dropped) adds the
    /// table back under a fresh id with re-mapped quarantine edits.
    fn republish_table(
        &mut self,
        lvl: usize,
        pos: usize,
        old_id: u64,
        states: Vec<BlockState>,
        mut fresh_blocks: Vec<u32>,
        report: &mut ScrubReport,
    ) -> Result<bool> {
        let old_index = self.levels[lvl][pos].index.clone();
        let old_max_key = self.levels[lvl][pos].max_key.clone();
        let old_filter_block = self.levels[lvl][pos].filter_block;
        let mut kept = BlockIndexBuilder::default();
        let mut kept_data: Vec<Option<&Run>> = Vec::new();
        let mut quarantined_bi: Vec<u32> = Vec::new();
        for (bi, s) in states.iter().enumerate() {
            match s {
                BlockState::Kept { block, data } => {
                    // Fence 0 is the table's min key: a readable first
                    // block gives its real first key, not the separator
                    // that stood above a block now dropped.
                    let first = kept_data.is_empty() && data.len() > 0;
                    kept.push(if first { data.key(0) } else { old_index.separator(bi) }, *block);
                    kept_data.push(Some(data));
                }
                BlockState::Quarantined { block } => {
                    quarantined_bi.push(kept_data.len() as u32);
                    kept.push(old_index.separator(bi), *block);
                    kept_data.push(None);
                }
                BlockState::Dropped { .. } => {}
            }
        }
        let kept = kept.finish();
        // Crash window: repaired blocks are written but the manifest
        // transaction swapping them in has not committed. A crash (or
        // injected abort) here must leave the *old* table shape fully
        // live and the repair blocks as recoverable orphans — the
        // scrub-republish crash-oracle case drives this point.
        let abort = (|| -> Result<()> {
            fail_point!(self.disk.faults(), "lsm.scrub.republish");
            Ok(())
        })();
        if let Err(e) = abort {
            for &b in &fresh_blocks {
                let _ = self.disk.release(b);
            }
            return Err(e);
        }
        let commit = if kept.is_empty() {
            // Every block dropped: the table leaves the version outright.
            self.disk.sync();
            self.manifest
                .borrow_mut()
                .append(&self.disk, &[Edit::RemoveTable { id: old_id }])
                .map(|()| None)
        } else {
            let new_id = self.next_table_id;
            let num_entries: usize = kept_data.iter().flatten().map(|d| d.len()).sum();
            let num_tombstones: usize = kept_data
                .iter()
                .flatten()
                .map(|d| d.iter().filter(|(_, v)| v.is_none()).count())
                .sum();
            let mut table = SsTable {
                id: new_id,
                max_key: old_max_key,
                index: kept,
                filter: None,
                filter_block: None,
                num_entries,
                num_tombstones,
            };
            if quarantined_bi.is_empty() {
                // Fully clean: build the configured filter from the
                // verified keys and persist a fresh image so the next open
                // keeps its O(tables) fast path.
                if !matches!(self.opts.filter, crate::db::FilterKind::None) {
                    let keys: Vec<&[u8]> =
                        kept_data.iter().flatten().flat_map(|d| d.iter()).map(|(k, _)| k).collect();
                    let filter = self.opts.filter;
                    table.attach_filter(&keys, &filter);
                    report.filters_rebuilt += 1;
                    if let Some(f) = &table.filter {
                        match self.disk.write(SsTable::encode_filter_image(f)) {
                            Ok(b) => {
                                fresh_blocks.push(b);
                                table.filter_block = Some(b);
                            }
                            Err(e) => {
                                for &b in &fresh_blocks {
                                    let _ = self.disk.release(b);
                                }
                                return Err(e);
                            }
                        }
                    }
                }
            } else {
                // Still-degraded: inherit the old filter when one exists.
                // It indexes dropped/unreachable keys too, which can only
                // cause safe false positives — never a false negative.
                // Skipped when a snapshot still shares the old table (its
                // filter stays with it); `None` only costs filter probes.
                // The persisted image block transfers to the new id either
                // way — the next open can still load it in one read.
                table.filter =
                    Arc::get_mut(&mut self.levels[lvl][pos]).and_then(|t| t.filter.take());
                table.filter_block = old_filter_block;
            }
            let mut edits = vec![Edit::RemoveTable { id: old_id }, Edit::AddTable(table.meta(lvl))];
            for &bi in &quarantined_bi {
                edits.push(Edit::Quarantine { table: new_id, block: bi });
            }
            // Data (repaired blocks) durable before the reference to it.
            self.disk.sync();
            self.manifest
                .borrow_mut()
                .append(&self.disk, &edits)
                .map(|()| Some(table))
        };
        let new_table = match commit {
            Ok(t) => t,
            Err(e) => {
                // Unpublished repair blocks must not leak.
                for &b in &fresh_blocks {
                    let _ = self.disk.release(b);
                }
                return Err(e);
            }
        };
        // Commit point. Drop stale cache entries keyed by the retired id,
        // re-map quarantine bookkeeping to the new id, and free every
        // device block the new shape no longer references.
        self.cache.invalidate_table(old_id);
        self.quarantined.borrow_mut().retain(|&(t, _)| t != old_id);
        let removed = new_table.is_none();
        if let Some(t) = new_table {
            self.next_table_id = t.id + 1;
            let mut q = self.quarantined.borrow_mut();
            for &bi in &quarantined_bi {
                q.insert((t.id, bi));
            }
            drop(q);
            let carried_filter_block = t.filter_block;
            let old = std::mem::replace(&mut self.levels[lvl][pos], Arc::new(t));
            for (bi, s) in states.iter().enumerate() {
                match s {
                    BlockState::Dropped { block } => self.disk.release(*block)?,
                    BlockState::Kept { block, .. } if *block != old.index.block_id(bi) => {
                        // Repaired: the rotted original is dead.
                        self.disk.release(old.index.block_id(bi))?;
                    }
                    _ => {}
                }
            }
            // The old filter image dies unless the new table inherited it.
            if let Some(fb) = old_filter_block {
                if carried_filter_block != Some(fb) {
                    self.disk.release(fb)?;
                }
            }
        } else {
            let old = self.levels[lvl].remove(pos);
            old.release(&self.disk)?;
        }
        report.tables_rewritten += 1;
        Ok(removed)
    }

    /// Is every key in `lost` covered by strictly newer data (MemTable,
    /// newer L0 tables, shallower levels)? "Covered" is a range-level
    /// argument — newer tables' `[min, max]` spans — so a dropped block is
    /// *likely* shadowed, not proven; that is why dropped blocks still
    /// report a [`LostRange`].
    fn covered_by_newer(&self, lvl: usize, pos: usize, lost: &LostRange) -> bool {
        let mut spans: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        if let Some(r) = self.mem.range() {
            spans.push(r);
        }
        let mut newer_tables: Vec<&SsTable> =
            self.levels[..lvl].iter().flatten().map(|t| t.as_ref()).collect();
        if !self.opts.compaction.disjoint(lvl) {
            // Overlapping runs (L0, every tiered level) are age-ordered
            // newest-last: later runs at the same level are strictly newer
            // data too.
            newer_tables.extend(self.levels[lvl][pos + 1..].iter().map(|t| t.as_ref()));
        }
        for t in newer_tables {
            spans.push((t.min_key().to_vec(), t.max_key.clone()));
        }
        spans.sort();
        // Interval sweep: `cur` is the smallest key not yet covered.
        let mut cur = lost.lo.clone();
        let covered = |cur: &[u8]| {
            if lost.hi_inclusive {
                cur > lost.hi.as_slice()
            } else {
                cur >= lost.hi.as_slice()
            }
        };
        for (a, b) in spans {
            if covered(&cur) {
                return true;
            }
            if a > cur {
                return false; // gap below `cur` that nothing newer fills
            }
            let next = successor(&b);
            if next > cur {
                cur = next;
            }
        }
        covered(&cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbOptions, FilterKind};
    use memtree_common::key::encode_u64;

    /// A scrub that drops a table's leading block gives the rewritten
    /// table its smallest surviving key as fence 0, not the separator that
    /// stood above the dropped block; and each lost range holds every key
    /// its block held, although the separators bounding it are shorter.
    #[test]
    fn a_dropped_leading_block_leaves_an_exact_min_key() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            l0_tables: 100,          // keep both tables in L0
            cache_blocks: 0,         // no cached copy to repair from
            filter: FilterKind::None,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i << 16), &[7u8; 40]).unwrap();
        }
        db.flush().unwrap();
        let old = Arc::clone(&db.levels[0][0]);
        let block_keys: Vec<Vec<Vec<u8>>> = old
            .index
            .block_ids()
            .map(|id| {
                let run = Run::from_frame(db.disk.read(id).unwrap().into_vec()).unwrap();
                run.iter().map(|(k, _)| k.to_vec()).collect()
            })
            .collect();
        assert!(old.index.len() > 4, "workload too small");
        assert!(old.index.separator(1).len() < block_keys[1][0].len(), "fence 1 is truncated");
        // A newer table spanning block 0 and into block 2 covers block 0's
        // lost range, so the scrub drops block 0 and quarantines block 3.
        for k in [&block_keys[0][0], &block_keys[2][0]] {
            db.put(k, b"new").unwrap();
        }
        db.flush().unwrap();
        for b in [0, 3] {
            db.disk.bitrot_block(old.index.block_id(b), b as u64).unwrap();
        }
        let report = db.scrub().unwrap();
        assert_eq!((report.dropped_blocks, report.quarantined_blocks), (1, 1));
        assert_eq!(report.lost_ranges.len(), 2);
        for b in [0, 3] {
            let holds = |r: &LostRange| block_keys[b].iter().all(|k| r.contains(k));
            assert!(report.lost_ranges.iter().any(holds), "block {b}: keys outside its range");
        }
        let table = &db.levels[0][0];
        assert_eq!(table.index.len(), old.index.len() - 1);
        assert_eq!(table.min_key(), block_keys[1][0].as_slice(), "the smallest kept key");
        db.check_invariants().unwrap();
    }
}
