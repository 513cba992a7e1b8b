//! Immutable point-in-time read views ([`DbSnapshot`]).
//!
//! A snapshot freezes everything a read needs — the MemTable contents, the
//! level structure (`Arc`-shared tables), and the quarantine set — next to
//! `Arc` handles on the shared device and block cache. The result is
//! `Send + Sync`: any number of threads can run point gets and range scans
//! against it while the owning [`Db`] keeps absorbing writes, flushing, and
//! compacting on its own thread. Writers never wait for readers and readers
//! never wait for writers; the only shared mutable state is the striped
//! block cache, locked per stripe for microseconds at a time.
//!
//! ## Publishing costs the buffer's rows and one write's bytes
//!
//! A serving shard republishes after almost every write, so a snapshot
//! must not copy the MemTable, nor even its write buffer's entries. It
//! copies the [`MemTable`]'s buffer rows (the small index tuples, under
//! [`BUFFER_KEYS`](crate::memtable::BUFFER_KEYS) of them) and shares the
//! buffered bytes through set-once slots that the writer seals whatever
//! it wrote since the last snapshot into — one entry when a snapshot
//! follows every write, and no byte an earlier snapshot shared — while
//! the young run and the static stage are shared by pointer
//! ([`MemTable::freeze`]). The writer rebuilds the young run when the
//! buffer fills, and the stage about once per
//! [`YOUNG_KEYS`](crate::memtable::YOUNG_KEYS) new keys, when the slots
//! also start over. The level structure and the quarantine set are
//! shared the same way, behind one `Arc` ([`TableSet`]) that is rebuilt
//! only after a flush, compaction, scrub or quarantine.
//!
//! Retired tables stay alive as long as any snapshot holds their `Arc`
//! (the `Db` parks them in a graveyard and releases their blocks only
//! after the last reference drops), so a snapshot taken before a
//! compaction reads exactly the data it was taken over.
//!
//! ## Reads
//!
//! A snapshot has no read path of its own: every read method builds a
//! [`ReadView`] over the frozen MemTable and delegates to [`crate::read`], the
//! same code the owning `Db` reads through. Reads are *degraded, never
//! escalating*: a quarantined or persistently unreadable block is served
//! as empty for this view (the same answer the owning `Db` gives),
//! transient faults are retried under backoff and a corrupt returned copy
//! is re-read once, and a snapshot never quarantines a block or writes a
//! manifest edit — fault bookkeeping stays with the single writer.

use crate::cache::BlockCache;
use crate::compaction::CompactionConfig;
use crate::db::Db;
use crate::disk::SimDisk;
use crate::memtable::MemTable;
use crate::read::{Handle, ReadView, ScanCursor};
use crate::sstable::SsTable;
use std::collections::HashSet;
use std::sync::Arc;

/// The level structure and quarantine set a snapshot reads, shared by
/// every snapshot taken between two changes to either.
pub(crate) struct TableSet {
    /// `levels[0]` newest-last; levels ≥ 1 key-ordered and disjoint under
    /// leveled compaction, age-ordered newest-last runs under tiered.
    pub(crate) levels: Vec<Vec<Arc<SsTable>>>,
    /// The policy that shaped `levels`: which of them are disjoint.
    pub(crate) policy: CompactionConfig,
    /// Blocks known-bad at snapshot time; served as empty without a read.
    pub(crate) quarantined: HashSet<(u64, u32)>,
}

/// An immutable, `Send + Sync` point-in-time view of a [`Db`].
///
/// Created by [`Db::snapshot`]; see the module docs for semantics.
pub struct DbSnapshot {
    /// The MemTable at snapshot time.
    mem: MemTable,
    tables: Arc<TableSet>,
    disk: Arc<SimDisk>,
    cache: Arc<BlockCache>,
    /// Last WAL sequence number applied to this view.
    seq: u64,
}

impl Db {
    /// Freezes the current state into an immutable [`DbSnapshot`] that
    /// other threads can read while this `Db` keeps writing. Cost is one
    /// copy of the MemTable's buffer rows (a bounded number of keys), one
    /// copy of the bytes written since the last snapshot, and a handful of
    /// `Arc` bumps — not the MemTable, its buffered entries or the number
    /// of tables.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            mem: self.mem.freeze(),
            tables: self.table_set(),
            disk: self.disk_handle(),
            cache: Arc::clone(&self.cache),
            seq: self.last_seq(),
        }
    }
}

impl DbSnapshot {
    /// The last WAL sequence number this view reflects.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Tables per level in this view (diagnostics; as [`Db::level_sizes`]).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.tables.levels.iter().map(Vec::len).collect()
    }

    fn view(&self) -> ReadView<'_> {
        ReadView {
            mem: &self.mem,
            levels: &self.tables.levels,
            policy: self.tables.policy,
            disk: &self.disk,
            cache: &self.cache,
            handle: Handle::Frozen(&self.tables.quarantined),
        }
    }

    /// Point lookup at snapshot time; newest version wins, a tombstone at
    /// any level answers `None` without consulting older levels. Only the
    /// returned value is copied.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.view().get(key)
    }

    /// [`Db::seek`] at snapshot time.
    pub fn seek(&self, lk: &[u8], hk: Option<&[u8]>) -> Option<Vec<u8>> {
        self.view().seek(lk, hk)
    }

    /// Merged range scan: up to `limit` live `(key, value)` entries with
    /// `lk <= key` (`< hk` when bounded), in key order, each the newest
    /// version at snapshot time. Tombstones are merged away.
    pub fn scan_from(&self, lk: &[u8], hk: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.cursor(lk, hk).collect_rows(limit)
    }

    /// The rows of [`DbSnapshot::scan_from`] one at a time, borrowed from
    /// the snapshot, reading each block only when the walk reaches it.
    pub fn cursor<'a>(&'a self, lk: &'a [u8], hk: Option<&'a [u8]>) -> ScanCursor<'a> {
        self.view().cursor(lk, hk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbOptions;
    use memtree_common::key::encode_u64;

    fn small_opts() -> DbOptions {
        DbOptions {
            memtable_bytes: 512,
            block_size: 128,
            cache_blocks: 8,
            ..DbOptions::default()
        }
    }

    #[test]
    fn snapshot_types_are_thread_safe() {
        fn send<T: Send>() {}
        fn send_sync<T: Send + Sync>() {}
        send::<Db>();
        send_sync::<DbSnapshot>();
        send_sync::<Arc<SsTable>>();
    }

    #[test]
    fn snapshot_is_frozen_while_db_moves_on() {
        let mut db = Db::new(small_opts());
        for i in 0..100u64 {
            db.put(&encode_u64(i), format!("v{i}").as_bytes()).unwrap();
        }
        let snap = db.snapshot();
        let seq_at_snap = snap.seq();
        // Mutate heavily after the snapshot: overwrites, deletes, flushes.
        for i in 0..100u64 {
            db.put(&encode_u64(i), b"overwritten").unwrap();
        }
        for i in 0..50u64 {
            db.delete(&encode_u64(i)).unwrap();
        }
        db.flush().unwrap();
        // The snapshot still answers from its frozen world.
        for i in 0..100u64 {
            assert_eq!(
                snap.get(&encode_u64(i)).as_deref(),
                Some(format!("v{i}").as_bytes()),
                "key {i} must read its snapshot-time version"
            );
        }
        assert_eq!(snap.seq(), seq_at_snap);
        // While the Db sees its own newer state.
        assert_eq!(db.get(&encode_u64(10)), None);
        assert_eq!(db.get(&encode_u64(60)).as_deref(), Some(&b"overwritten"[..]));
    }

    #[test]
    fn snapshot_survives_compaction_of_its_tables() {
        let mut db = Db::new(small_opts());
        for i in 0..400u64 {
            db.put(&encode_u64(i), &[i as u8; 16]).unwrap();
        }
        db.flush().unwrap();
        let snap = db.snapshot();
        // Push enough new data through to force flushes + compactions that
        // retire every table the snapshot references.
        for round in 0..6u64 {
            for i in 0..400u64 {
                db.put(&encode_u64(i), &[round as u8; 24]).unwrap();
            }
            db.flush().unwrap();
        }
        for i in (0..400u64).step_by(7) {
            assert_eq!(
                snap.get(&encode_u64(i)).as_deref(),
                Some(&[i as u8; 16][..]),
                "snapshot read after compaction retired its tables"
            );
        }
        drop(snap);
        // With the snapshot gone the graveyard reaps on the next flush.
        db.put(b"post", b"post").unwrap();
        db.flush().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn scan_merges_newest_versions_and_drops_tombstones() {
        let mut db = Db::new(small_opts());
        for i in 0..60u64 {
            db.put(&encode_u64(i), b"old").unwrap();
        }
        db.flush().unwrap();
        for i in (0..60u64).step_by(2) {
            db.put(&encode_u64(i), b"new").unwrap();
        }
        for i in (0..60u64).step_by(3) {
            db.delete(&encode_u64(i)).unwrap();
        }
        let snap = db.snapshot();
        let got = snap.scan_from(&encode_u64(0), None, usize::MAX);
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..60u64 {
            if i % 3 == 0 {
                continue; // tombstoned
            }
            let v: &[u8] = if i % 2 == 0 { b"new" } else { b"old" };
            want.push((encode_u64(i).to_vec(), v.to_vec()));
        }
        assert_eq!(got, want);
        // Bounded + limited forms agree with the full scan.
        assert_eq!(
            snap.scan_from(&encode_u64(10), Some(&encode_u64(20)), usize::MAX),
            want.iter()
                .filter(|(k, _)| {
                    k.as_slice() >= &encode_u64(10)[..] && k.as_slice() < &encode_u64(20)[..]
                })
                .cloned()
                .collect::<Vec<_>>()
        );
        assert_eq!(snap.scan_from(&encode_u64(0), None, 5), want[..5].to_vec());
    }

    /// The hot-path vectors are sized once: a scan allocates its rows plus
    /// a constant, and a publish allocates the write buffer's rows and one
    /// slot for the bytes no earlier publish shared —
    /// neither grows anything by doubling (the ladders of freed odd-sized
    /// chunks that doubling leaves behind are what made served scans
    /// bimodal, see `SCAN_RESERVE_ROWS`).
    #[test]
    fn scan_and_publish_allocate_no_growth_ladders() {
        use memtree_alloc_probe::measure;
        let mut db = Db::new(DbOptions::default());
        db.put(b"warm", b"up").unwrap();
        drop(db.snapshot()); // builds the shared table set
        for i in 0..40u64 {
            db.put(&encode_u64(i), &[7u8; 100]).unwrap();
        }
        let (snap, publish_allocs, _) = measure(|| db.snapshot());
        assert_eq!(publish_allocs, 2, "rows, one slot for the 40 new entries");
        for rows in [1usize, 10, 40] {
            let (got, allocs, _) = measure(|| snap.scan_from(&encode_u64(0), None, rows));
            assert_eq!(got.len(), rows);
            // Output vector, source list, winner list; key + value per row.
            assert_eq!(allocs, 3 + 2 * rows, "scan of {rows} rows");
        }
        // A point read of a cached block copies the value out, nothing else.
        db.flush().unwrap();
        let snap = db.snapshot();
        snap.get(&encode_u64(7));
        let (got, allocs, _) = measure(|| snap.get(&encode_u64(7)));
        assert_eq!((got, allocs), (Some(vec![7u8; 100]), 1));
    }

    /// A scan reads a block only when its walk reaches the block's first
    /// row: it reads exactly the blocks its rows lie in — none for no rows,
    /// none past its last row, none of a table it never reaches. (The
    /// eager merge this replaced opened every table in range with a read
    /// and fetched the next block on stepping off one: 4, 4 and 19 reads
    /// for the 1-, 37- and 600-row scans below, against 1, 2 and 18.)
    #[test]
    fn scan_reads_exactly_the_blocks_its_rows_lie_in() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 16 << 10,
            cache_blocks: 0,
            ..DbOptions::default()
        });
        // Ascending keys: every table holds a key range of its own, so no
        // row is shadowed and each key lies in exactly one block.
        for i in 0..3000u64 {
            db.put(&encode_u64(i), &[7u8; 100]).unwrap();
        }
        db.flush().unwrap();
        assert!(
            db.level_sizes()[1..].iter().any(|&n| n > 1),
            "no disjoint level of several tables"
        );
        let tables: Vec<Arc<SsTable>> = db.levels.iter().flatten().cloned().collect();
        let blocks_holding = |rows: &[(Vec<u8>, Vec<u8>)]| -> u64 {
            let blocks: HashSet<(u64, usize)> = rows
                .iter()
                .map(|(k, _)| {
                    let t = tables
                        .iter()
                        .find(|t| t.covers(k))
                        .expect("every key is in a table");
                    (t.id, t.candidate_block(k))
                })
                .collect();
            blocks.len() as u64
        };
        let snap = db.snapshot();
        for (lo, rows) in [
            (0, 0),
            (500, 1),
            (1000, 37),
            (1500, 600),
            (2900, usize::MAX),
        ] {
            let before = db.io_stats().block_reads;
            let got = snap.scan_from(&encode_u64(lo), None, rows);
            let reads = db.io_stats().block_reads - before;
            assert_eq!(got.len(), rows.min(3000 - lo as usize));
            assert_eq!(reads, blocks_holding(&got), "scan of {rows} rows from {lo}");
        }
    }

    #[test]
    fn scan_matches_db_seek_walk_across_many_levels() {
        let mut db = Db::new(small_opts());
        let mut state = 42u64;
        for _ in 0..800 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64(r % 300);
            if r.is_multiple_of(5) {
                db.delete(&k).unwrap();
            } else {
                db.put(&k, &r.to_le_bytes()).unwrap();
            }
        }
        let snap = db.snapshot();
        let scanned = snap.scan_from(&[], None, usize::MAX);
        // Reference: walk the Db with seek/get.
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut low: Vec<u8> = Vec::new();
        while let Some(key) = db.seek(&low, None) {
            if let Some(v) = db.get(&key) {
                want.push((key.clone(), v));
            }
            low = memtree_common::key::successor(&key);
        }
        assert_eq!(scanned, want);
        for (k, v) in &want {
            assert_eq!(snap.get(k).as_deref(), Some(v.as_slice()));
        }
    }
}
