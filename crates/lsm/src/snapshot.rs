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
//! ## Publishing costs O(delta), not O(MemTable)
//!
//! A serving shard republishes after almost every write, so a snapshot
//! must not copy the MemTable. The published MemTable view is the hybrid
//! index's two stages ([`MemView`]): a large immutable **base** [`Run`],
//! shared by pointer between successive snapshots, in front of which sits a
//! small sorted **delta** of the writes since that base was built. The `Db`
//! records each write's key in the delta; a snapshot copies only the delta
//! (into a second, small `Run`); and the base is rebuilt — the skip list
//! copied into one exactly sized buffer — only by the first snapshot after the
//! delta has outgrown [`DELTA_MAX`] entries or a flush has emptied the
//! MemTable. The level structure and the
//! quarantine set are shared the same way, behind one `Arc` ([`TableSet`])
//! that is rebuilt only after a flush, compaction, scrub or quarantine.
//! The skip list stays the MemTable's source of truth throughout.
//!
//! Retired tables stay alive as long as any snapshot holds their `Arc`
//! (the `Db` parks them in a graveyard and releases their blocks only
//! after the last reference drops), so a snapshot taken before a
//! compaction reads exactly the data it was taken over.
//!
//! ## Reads
//!
//! A snapshot has no read path of its own: every read method builds a
//! [`ReadView`] over the frozen runs and delegates to [`crate::read`], the
//! same code the owning `Db` reads through. Reads are *degraded, never
//! escalating*: a quarantined or persistently unreadable block is served
//! as empty for this view (the same answer the owning `Db` gives),
//! transient faults are retried under backoff and a corrupt returned copy
//! is re-read once, and a snapshot never quarantines a block or writes a
//! manifest edit — fault bookkeeping stays with the single writer.

use crate::cache::BlockCache;
use crate::db::Db;
use crate::disk::SimDisk;
use crate::read::{Handle, Mem, ReadView, SeekResult};
use crate::run::{Run, RunBuilder};
use crate::sstable::SsTable;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Delta entries past which the next snapshot rebuilds the base. A
/// snapshot costs O(delta) and a rebuild O(MemTable) once per `DELTA_MAX`
/// writes, so the sum is smallest near `sqrt(2 × MemTable entries)` — 64
/// for the ~2 000 entries a default MemTable holds.
const DELTA_MAX: usize = 64;

/// The `Db`-side state of the published MemTable view (see the module
/// docs): the shared base and the keys written since it was built.
#[derive(Default)]
pub(crate) struct MemView {
    /// The MemTable as of the last rebuild.
    base: Arc<Run>,
    /// Key → value-arena slot of every write since `base` was built.
    /// `None` — the state after a flush, and once the delta has outgrown
    /// [`DELTA_MAX`] — means `base` is out of date and nothing is being
    /// recorded: the next snapshot rebuilds the base, and a `Db` nobody
    /// snapshots never pays for a delta at all.
    delta: Option<BTreeMap<Vec<u8>, u64>>,
}

impl MemView {
    /// Notes a write applied to the MemTable.
    pub(crate) fn record(&mut self, key: &[u8], slot: u64) {
        let Some(delta) = &mut self.delta else { return };
        match delta.get_mut(key) {
            Some(newest) => *newest = slot,
            None => {
                delta.insert(key.to_vec(), slot);
            }
        }
        if delta.len() > DELTA_MAX {
            self.delta = None;
        }
    }

    /// The `(base, delta)` pair a snapshot of `db` carries.
    fn publish(&mut self, db: &Db) -> (Arc<Run>, Run) {
        let recorded = self.delta.get_or_insert_with(|| {
            self.base = Arc::new(db.memtable_run());
            BTreeMap::new()
        });
        let delta = RunBuilder::collect(|push| {
            recorded.iter().for_each(|(key, &slot)| push(key, db.mem_value(slot)));
        });
        (Arc::clone(&self.base), delta)
    }
}

/// The level structure and quarantine set a snapshot reads, shared by
/// every snapshot taken between two changes to either.
pub(crate) struct TableSet {
    /// `levels[0]` newest-last; levels ≥ 1 key-ordered and disjoint under
    /// leveled compaction, age-ordered newest-last runs under tiered.
    pub(crate) levels: Vec<Vec<Arc<SsTable>>>,
    /// True when levels ≥ 1 hold overlapping runs (tiered compaction):
    /// deep levels are read newest-first like L0.
    pub(crate) overlapping: bool,
    /// Blocks known-bad at snapshot time; served as empty without a read.
    pub(crate) quarantined: HashSet<(u64, u32)>,
}

/// An immutable, `Send + Sync` point-in-time view of a [`Db`].
///
/// Created by [`Db::snapshot`]; see the module docs for semantics.
pub struct DbSnapshot {
    /// MemTable writes newer than `mem_base`, sorted; shadows it.
    mem_delta: Run,
    /// The MemTable as of the last base rebuild before snapshot time.
    mem_base: Arc<Run>,
    /// Upper bound on the tombstones the two MemTable runs hold.
    mem_tombstones: usize,
    tables: Arc<TableSet>,
    disk: Arc<SimDisk>,
    cache: Arc<BlockCache>,
    /// Last WAL sequence number applied to this view.
    seq: u64,
}

impl Db {
    /// Freezes the current state into an immutable [`DbSnapshot`] that
    /// other threads can read while this `Db` keeps writing. Cost is
    /// proportional to the writes since the MemTable view's base was last
    /// rebuilt (at most a small constant; the rebuild itself is one copy
    /// of the MemTable, amortised over that many writes) plus a handful
    /// of `Arc` bumps — not to the MemTable or the number of tables.
    pub fn snapshot(&self) -> DbSnapshot {
        let (mem_base, mem_delta) = self.mem_view.borrow_mut().publish(self);
        DbSnapshot {
            mem_delta,
            mem_base,
            mem_tombstones: self.mem_tombstones,
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

    fn view(&self) -> ReadView<'_> {
        ReadView {
            mem: Mem::Frozen { delta: &self.mem_delta, base: &self.mem_base },
            mem_tombstones: self.mem_tombstones,
            levels: &self.tables.levels,
            overlapping: self.tables.overlapping,
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
    pub fn seek(&self, lk: &[u8], hk: Option<&[u8]>) -> SeekResult {
        self.view().seek(lk, hk)
    }

    /// Merged range scan: up to `limit` live `(key, value)` entries with
    /// `lk <= key` (`< hk` when bounded), in key order, each the newest
    /// version at snapshot time. Tombstones are merged away.
    pub fn scan_from(&self, lk: &[u8], hk: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.view().scan_from(lk, hk, limit)
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
    /// a constant, and a publish allocates the delta run's two buffers —
    /// neither grows anything by doubling (the ladders of freed odd-sized
    /// chunks that doubling leaves behind are what made served scans
    /// bimodal, see `SCAN_RESERVE_ROWS`).
    #[test]
    fn scan_and_publish_allocate_no_growth_ladders() {
        use crate::alloc_probe::measure;
        let mut db = Db::new(DbOptions::default());
        db.put(b"warm", b"up").unwrap();
        drop(db.snapshot()); // builds the base and the shared table set
        for i in 0..40u64 {
            db.put(&encode_u64(i), &[7u8; 100]).unwrap();
        }
        let (snap, publish_allocs, _) = measure(|| db.snapshot());
        assert_eq!(publish_allocs, 2, "delta run: bytes, offsets");
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
        while let SeekResult::Found { key } = db.seek(&low, None) {
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
