//! [`MemTable`]: the thesis's hybrid index (Ch. 5) as the engine's write
//! buffer — a small dynamic stage in front of a compact static stage.
//!
//! * The **buffer** holds every key written since the last merge, sorted,
//!   over one byte arena: a write appends its bytes and puts its key's row
//!   in place (a memmove of under [`BUFFER_KEYS`] rows); an overwrite
//!   appends only the value and repoints the row.
//! * The **stage** is one immutable [`Run`] behind an `Arc`: everything
//!   merged so far, tombstones included.
//!
//! When the buffer reaches [`BUFFER_KEYS`] keys, one
//! [`RunBuilder::collect`] pass merges it into a new stage, newest version
//! winning, and the buffer empties but keeps its capacity: an insert that
//! does not merge allocates nothing. A flush merges once and writes the
//! stage as a table. [`crate::Db`] reads its live `MemTable`, each
//! [`crate::DbSnapshot`] a frozen copy ([`MemTable::freeze`]).

use crate::run::{EntryRef, Run, RunBuilder};
use std::cmp::Ordering;
use std::sync::Arc;

/// Buffered keys at which the buffer merges into a new stage. A merge
/// copies the stage (up to ~2 200 entries in a served shard's 256 KiB
/// MemTable) and a served shard copies the buffer to publish after nearly
/// every write, so a write costs ~`stage / B + B / 2` entry copies, least
/// near `sqrt(2 × stage)`. Of 64 / 256 / 1 024, 64 ran `write_heavy`
/// fastest (EXPERIMENTS.md, "one MemTable"); larger buffers only help a
/// `Db` nobody snapshots.
pub(crate) const BUFFER_KEYS: usize = 64;

/// `start..end` of a byte string in a buffer's arena.
type Span = (u32, u32);

/// The write buffer. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Buffer {
    /// Key and value bytes in write order; bytes an overwrite replaced
    /// stay until the next merge.
    arena: Vec<u8>,
    /// One row per key, in key order: the key, and the value (`None` = a
    /// delete tombstone).
    rows: Vec<(Span, Option<Span>)>,
}

impl Buffer {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    fn bytes(&self, (start, end): Span) -> &[u8] {
        &self.arena[start as usize..end as usize]
    }

    pub(crate) fn key(&self, i: usize) -> &[u8] {
        self.bytes(self.rows[i].0)
    }

    pub(crate) fn entry(&self, i: usize) -> EntryRef<'_> {
        let (key, value) = self.rows[i];
        (self.bytes(key), value.map(|v| self.bytes(v)))
    }

    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        self.rows.binary_search_by(|&(k, _)| self.bytes(k).cmp(key))
    }

    /// Index of the first row with a key `>= key` (`len()` when none).
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        self.search(key).unwrap_or_else(|i| i)
    }

    fn append(&mut self, bytes: &[u8]) -> Span {
        let start = self.arena.len();
        self.arena.extend_from_slice(bytes);
        let pos = |p: usize| u32::try_from(p).expect("a write buffer stays under 4 GiB");
        (pos(start), pos(self.arena.len()))
    }

    fn insert(&mut self, key: &[u8], value: Option<&[u8]>) {
        let value = value.map(|v| self.append(v));
        match self.search(key) {
            Ok(i) => self.rows[i].1 = value,
            Err(i) => {
                let key = self.append(key);
                self.rows.insert(i, (key, value));
            }
        }
    }
}

/// The MemTable. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct MemTable {
    pub(crate) buffer: Buffer,
    pub(crate) stage: Arc<Run>,
}

impl MemTable {
    /// Buffers a write (`None` = a delete tombstone); the write that fills
    /// the buffer merges it.
    pub(crate) fn insert(&mut self, key: &[u8], value: Option<&[u8]>) {
        self.buffer.insert(key, value);
        if self.buffer.len() >= BUFFER_KEYS {
            self.merge();
        }
    }

    /// Merges the buffer into a new stage and empties it. Allocates the
    /// new stage (its bytes, offsets and `Arc`) and nothing else.
    pub(crate) fn merge(&mut self) {
        if self.buffer.len() == 0 {
            return;
        }
        let (buffer, stage) = (&self.buffer, &*self.stage);
        let merged = RunBuilder::collect(|push| {
            let (mut i, mut j) = (0, 0);
            loop {
                let order = match (i < buffer.len(), j < stage.len()) {
                    (true, true) => buffer.key(i).cmp(stage.key(j)),
                    (true, false) => Ordering::Less,
                    (false, true) => Ordering::Greater,
                    (false, false) => break,
                };
                let (key, value) = if order == Ordering::Greater {
                    j += 1;
                    stage.entry(j - 1)
                } else {
                    // On a tie the buffer's newer version replaces the stage's.
                    j += usize::from(order == Ordering::Equal);
                    i += 1;
                    buffer.entry(i - 1)
                };
                push(key, value);
            }
        });
        self.stage = Arc::new(merged);
        self.buffer.arena.clear();
        self.buffer.rows.clear();
    }

    /// `None` = key not buffered; `Some(None)` = tombstoned.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let buffered = self.buffer.search(key).ok().map(|i| self.buffer.entry(i).1);
        buffered.or_else(|| self.stage.get(key))
    }

    /// `[min, max]` of the buffered keys, tombstones included (a buffered
    /// delete is newer data too): the first and last keys of the two parts.
    pub(crate) fn range(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let (buffer, stage) = (&self.buffer, &self.stage);
        let ends = [
            buffer.len().checked_sub(1).map(|last| (buffer.key(0), buffer.key(last))),
            stage.len().checked_sub(1).map(|last| (stage.key(0), stage.key(last))),
        ];
        let (lo, hi) = ends.into_iter().flatten().reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))?;
        Some((lo.to_vec(), hi.to_vec()))
    }

    /// A frozen copy for a snapshot: the stage shared by pointer, the
    /// buffer's live rows copied into an arena of exactly their size. Two
    /// allocations (arena and rows) for a non-empty buffer.
    pub(crate) fn freeze(&self) -> MemTable {
        let Buffer { arena, rows } = &self.buffer;
        let width = |(start, end): Span| (end - start) as usize;
        let size = rows.iter().map(|&(k, v)| width(k) + v.map_or(0, width)).sum();
        let mut copy = Buffer { arena: Vec::with_capacity(size), rows: Vec::new() };
        let mut to_copy = |span: Span| copy.append(&arena[span.0 as usize..span.1 as usize]);
        copy.rows = rows.iter().map(|&(k, v)| (to_copy(k), v.map(&mut to_copy))).collect();
        MemTable { buffer: copy, stage: Arc::clone(&self.stage) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_alloc_probe::measure;
    use memtree_common::check::{prop_check, Gen};
    use memtree_common::{check, check_eq};
    use std::collections::BTreeMap;

    /// The model keeps tombstones: a buffered delete is an entry.
    type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

    fn key(i: usize) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }

    /// Every read of `mem` against `model`: point reads of every model key
    /// and of absent ones, the merged contents of both parts, `range`.
    fn agrees(mem: &MemTable, model: &Model) -> std::result::Result<(), String> {
        for (k, v) in model {
            check_eq!(mem.get(k), Some(v.as_deref()), "get {k:?}");
        }
        check_eq!(mem.get(b"absent"), None);
        check!(mem.buffer.len() < BUFFER_KEYS, "a full buffer was not merged");
        let mut frozen = mem.freeze();
        frozen.merge();
        let merged: Vec<EntryRef<'_>> = frozen.stage.iter().collect();
        let want: Vec<EntryRef<'_>> =
            model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())).collect();
        check_eq!(merged, want);
        let ends = model.keys().next().zip(model.keys().next_back());
        check_eq!(mem.range(), ends.map(|(lo, hi)| (lo.clone(), hi.clone())));
        Ok(())
    }

    fn write(mem: &mut MemTable, model: &mut Model, k: Vec<u8>, v: Option<Vec<u8>>) {
        mem.insert(&k, v.as_deref());
        model.insert(k, v);
    }

    /// Random puts, overwrites and deletes over a key space a few buffers
    /// wide, so writes land in the buffer, shadow the stage, and cross
    /// many merges; a frozen copy taken on the way keeps its own state.
    #[test]
    fn memtable_matches_btreemap_model() {
        prop_check("memtable_vs_model", 60, |g: &mut Gen| {
            let mut mem = MemTable::default();
            let mut model = Model::new();
            let mut frozen: Option<(MemTable, Model)> = None;
            let keys = g.range(1..4 * BUFFER_KEYS);
            for step in 0..g.range(0..6 * BUFFER_KEYS) {
                let v = match g.range(0..5) {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(g.bytes_vec(0..40)),
                };
                write(&mut mem, &mut model, key(g.range(0..keys)), v);
                if step % 97 == 0 {
                    agrees(&mem, &model)?;
                    frozen = Some((mem.freeze(), model.clone()));
                }
            }
            agrees(&mem, &model)?;
            if let Some((snap, at)) = &frozen {
                agrees(snap, at)?;
            }
            Ok(())
        });
    }

    #[test]
    fn overwrite_in_the_buffer_repoints_its_row() {
        let mut mem = MemTable::default();
        mem.insert(b"k", Some(b"first"));
        mem.insert(b"k", Some(b"second, longer"));
        mem.insert(b"k", Some(b"3"));
        assert_eq!(mem.buffer.len(), 1);
        assert_eq!(mem.get(b"k"), Some(Some(&b"3"[..])));
        mem.insert(b"k", None);
        assert_eq!((mem.buffer.len(), mem.get(b"k")), (1, Some(None)));
        assert_eq!(mem.stage.len(), 0, "no merge for one key");
    }

    /// A tombstone in the buffer shadows the stage's value, and the merge
    /// carries the tombstone (not the value) into the new stage.
    #[test]
    fn buffered_tombstone_shadows_the_stage() {
        let mut mem = MemTable::default();
        mem.insert(b"k", Some(b"old"));
        mem.merge();
        assert_eq!((mem.buffer.len(), mem.stage.get(b"k")), (0, Some(Some(&b"old"[..]))));
        mem.insert(b"k", None);
        assert_eq!(mem.get(b"k"), Some(None));
        mem.merge();
        assert_eq!(mem.stage.iter().collect::<Vec<_>>(), [(&b"k"[..], None)]);
    }

    /// The write that brings the buffer to `BUFFER_KEYS` keys merges it;
    /// overwrites of buffered keys do not count.
    #[test]
    fn the_bth_key_merges_the_buffer() {
        let mut mem = MemTable::default();
        for i in 0..BUFFER_KEYS - 1 {
            mem.insert(&key(i), Some(b"v"));
            mem.insert(&key(i), Some(b"w"));
        }
        assert_eq!((mem.buffer.len(), mem.stage.len()), (BUFFER_KEYS - 1, 0));
        mem.insert(&key(BUFFER_KEYS), Some(b"v"));
        assert_eq!((mem.buffer.len(), mem.stage.len()), (0, BUFFER_KEYS));
        assert_eq!(mem.get(&key(0)), Some(Some(&b"w"[..])));
    }

    /// Newest wins across a merge: a stage version is replaced by the
    /// buffered one, in place, whatever side of it the other keys fall.
    #[test]
    fn newest_version_wins_across_a_merge() {
        let mut mem = MemTable::default();
        for k in [&b"a"[..], b"c", b"e"] {
            mem.insert(k, Some(b"old"));
        }
        mem.merge();
        for k in [&b"b"[..], b"c", b"f"] {
            mem.insert(k, Some(b"new"));
        }
        mem.merge();
        let got: Vec<_> = mem.stage.iter().collect();
        let old = Some(&b"old"[..]);
        let new = Some(&b"new"[..]);
        assert_eq!(
            got,
            [(&b"a"[..], old), (b"b", new), (b"c", new), (b"e", old), (b"f", new)]
        );
    }

    /// A frozen copy keeps reading its own state across a merge and a
    /// flush's clear of the MemTable it was cut from.
    #[test]
    fn frozen_copy_survives_a_merge_and_a_flush() {
        let mut mem = MemTable::default();
        let mut model = Model::new();
        write(&mut mem, &mut model, b"staged".to_vec(), Some(b"s".to_vec()));
        mem.merge();
        write(&mut mem, &mut model, b"buffered".to_vec(), Some(b"b".to_vec()));
        write(&mut mem, &mut model, b"staged".to_vec(), None);
        let frozen = mem.freeze();
        for i in 0..BUFFER_KEYS {
            mem.insert(&key(i), Some(b"later"));
        }
        assert!(!Arc::ptr_eq(&mem.stage, &frozen.stage), "merged");
        // What a flush does: merge, write the stage out, drop it.
        mem.merge();
        mem.stage = Arc::default();
        mem.insert(b"buffered", Some(b"after the flush"));
        agrees(&frozen, &model).unwrap();
    }

    #[test]
    fn range_is_the_min_and_max_of_both_parts() {
        let mut mem = MemTable::default();
        assert_eq!(mem.range(), None);
        mem.insert(b"m", None);
        assert_eq!(mem.range(), Some((b"m".to_vec(), b"m".to_vec())));
        mem.merge();
        mem.insert(b"z", Some(b"v"));
        assert_eq!(mem.range(), Some((b"m".to_vec(), b"z".to_vec())));
        mem.insert(b"a", Some(b"v"));
        assert_eq!(mem.range(), Some((b"a".to_vec(), b"z".to_vec())));
        mem.merge();
        mem.insert(b"q", Some(b"v"));
        assert_eq!(mem.range(), Some((b"a".to_vec(), b"z".to_vec())));
    }

    /// Once the buffer's arena and rows have grown, an insert that does not
    /// merge allocates nothing, across merges; a merge allocates the new
    /// stage only; a frozen copy, its arena and rows.
    #[test]
    fn steady_state_inserts_allocate_nothing() {
        let mut mem = MemTable::default();
        let value = [7u8; 100];
        let keys: Vec<Vec<u8>> = (0..5 * BUFFER_KEYS).map(key).collect();
        let mut next = keys.iter();
        let mut put = |mem: &mut MemTable| mem.insert(next.next().unwrap(), Some(&value));
        for _ in 0..BUFFER_KEYS {
            put(&mut mem);
        }
        assert_eq!(mem.buffer.len(), 0, "the warm-up filled and merged the buffer");
        for _ in 0..3 {
            for _ in 0..BUFFER_KEYS - 1 {
                let ((), allocations, _) = measure(|| put(&mut mem));
                assert_eq!(allocations, 0);
            }
            let ((), allocations, _) = measure(|| put(&mut mem));
            assert_eq!(allocations, 3, "the merged stage: bytes, offsets, Arc");
        }
        put(&mut mem);
        let (frozen, allocations, _) = measure(|| mem.freeze());
        assert_eq!(allocations, 2, "arena, rows");
        assert_eq!(frozen.buffer.arena.capacity(), keys[0].len() + value.len());
    }
}
