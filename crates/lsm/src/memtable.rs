//! [`MemTable`]: the thesis's hybrid index (Ch. 5) as the engine's write
//! buffer — a small dynamic stage in front of two compact static runs.
//!
//! * The **buffer** holds every key written since the last merge, sorted,
//!   over one byte arena: a write appends its bytes and puts its key's row
//!   in place (a memmove of under [`BUFFER_KEYS`] rows); an overwrite
//!   appends only the value and repoints the row.
//! * The **young run** is one immutable [`Run`] behind an `Arc`: what the
//!   buffer merged since the young run last merged into the stage, at
//!   most [`YOUNG_KEYS`] + [`BUFFER_KEYS`] entries.
//! * The **stage** is one immutable [`Run`] behind an `Arc`: everything
//!   older, tombstones included.
//!
//! When the buffer reaches [`BUFFER_KEYS`] keys it merges into a new young
//! run — after the young run, if it has reached [`YOUNG_KEYS`] entries,
//! has merged into a new stage — and empties, keeping its capacity. A
//! flush merges the buffer into the young run ([`MemTable::seal`]) and
//! writes the young run over the stage as a table ([`flushed`]), streamed
//! out of the two runs, not copied. All three are the engine's one merge,
//! [`newest_wins`] over the parts, newest first; the two merges into a
//! run write it with [`Run::collect`]. An insert that does
//! not merge allocates nothing, and only about one insert in
//! [`YOUNG_KEYS`] copies the stage.
//! [`crate::Db`] reads its live `MemTable`, each [`crate::DbSnapshot`] a
//! frozen copy ([`MemTable::freeze`]); both walk the two runs newest first
//! ([`MemTable::runs`]).

use crate::merge::{newest_wins, Head};
use crate::run::{EntryRef, Run};
use std::ops::Range;
use std::sync::Arc;

/// Buffered keys at which the buffer merges into a new young run. A
/// served shard copies the buffer to publish after nearly every write and
/// a merge copies the young run (on average ~[`YOUNG_KEYS`] / 2 entries),
/// so a write costs ~`Y / 2B + stage / Y + B / 2` entry copies with the
/// young-to-stage merges (`Y` = [`YOUNG_KEYS`]). Of 64 / 256 / 1 024, 64
/// ran `write_heavy` fastest (EXPERIMENTS.md, "one MemTable"); larger
/// buffers only help a `Db` nobody snapshots.
pub(crate) const BUFFER_KEYS: usize = 64;

/// Young-run entries at which the young run merges into a new stage, on
/// the next buffer merge. That merge copies the whole stage (up to
/// ~2 200 entries, ~255 KB, in a served shard's 256 KiB MemTable) under
/// the shard lock, so it sets the write tail: a fixed size makes it about
/// four times per served MemTable instead of every [`BUFFER_KEYS`] keys,
/// and keeps every other merge under [`YOUNG_KEYS`] + [`BUFFER_KEYS`]
/// entries. Of 256 / 512 / 1 024 on `write_heavy`, 512 had the cheapest
/// engine-lane put and a p50 no worse than before; 256's p99 was ~4 µs
/// lower but its p50 worse in every pair, 1 024 kept most of the old
/// tail (EXPERIMENTS.md, "young run"). The thesis's ratio rule (merge when
/// young reaches stage / R) would copy the full stage ~R·ln 35 times per
/// fill instead, putting the big copies back into the tail.
pub(crate) const YOUNG_KEYS: usize = 512;

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

    /// `(rows, key bytes, value bytes)` of the live rows.
    fn sizes(&self) -> (usize, usize, usize) {
        let width = |(start, end): Span| (end - start) as usize;
        let (keys, values) = self.rows.iter().fold((0, 0), |(k, v), &(key, value)| (k + width(key), v + value.map_or(0, width)));
        (self.len(), keys, values)
    }

    /// Empties the buffer, keeping its capacity.
    fn clear(&mut self) {
        self.arena.clear();
        self.rows.clear();
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

/// A walk over a sorted part of the MemTable, the buffer or a run: one
/// iterator type for both, so that [`newest_wins`] merges them without a
/// call through a pointer per entry.
enum Walk<'a> {
    Buffer(&'a Buffer, Range<usize>),
    Run(&'a Run, Range<usize>),
}

impl<'a> Walk<'a> {
    fn run(run: &'a Run) -> Self {
        Walk::Run(run, 0..run.len())
    }
}

impl<'a> Iterator for Walk<'a> {
    type Item = EntryRef<'a>;

    // Inlined into the merge loop: called once per entry merged, it is
    // most of a MemTable merge's work.
    #[inline(always)]
    fn next(&mut self) -> Option<EntryRef<'a>> {
        match self {
            Walk::Buffer(buffer, rows) => rows.next().map(|i| buffer.entry(i)),
            Walk::Run(run, rows) => rows.next().map(|i| run.entry(i)),
        }
    }
}

/// `newer` (the buffer or the young run) merged over `older` into a new
/// run, written in one pass into a buffer bounded by the two parts' sizes
/// ([`Run::collect`]). Allocates the run's bytes and offsets and nothing
/// else.
fn merge(newer: Walk<'_>, older: &Run) -> Run {
    let (n, k, v) = match &newer {
        Walk::Buffer(buffer, _) => buffer.sizes(),
        Walk::Run(run, _) => run.sizes(),
    };
    let (m, l, w) = older.sizes();
    Run::collect((n + m, k + l, v + w), newest_wins([Head::new(newer), Head::new(Walk::run(older))]))
}

/// Every entry of the runs [`MemTable::seal`] returns, the newest version
/// of each key, in key order: what a flush writes, streamed out of the
/// runs rather than merged into one more copy of the MemTable.
pub(crate) fn flushed([young, stage]: &[Arc<Run>; 2]) -> impl Iterator<Item = EntryRef<'_>> {
    newest_wins([Head::new(Walk::run(young)), Head::new(Walk::run(stage))])
}

/// The MemTable. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct MemTable {
    pub(crate) buffer: Buffer,
    /// The young run, then the stage: newest first, as reads walk them.
    pub(crate) runs: [Arc<Run>; 2],
}

impl MemTable {
    /// Buffers a write (`None` = a delete tombstone); the write that fills
    /// the buffer merges it.
    pub(crate) fn insert(&mut self, key: &[u8], value: Option<&[u8]>) {
        self.buffer.insert(key, value);
        if self.buffer.len() >= BUFFER_KEYS {
            self.merge_buffer();
        }
    }

    /// Merges the buffer into a new young run and empties it; a young run
    /// of [`YOUNG_KEYS`] entries or more first merges into a new stage, and
    /// the buffer then becomes the young run on its own. Allocates each new
    /// run (bytes, offsets, `Arc`) and nothing else.
    fn merge_buffer(&mut self) {
        let [young, stage] = &mut self.runs;
        let empty = Run::default();
        let older = if young.len() < YOUNG_KEYS {
            &**young
        } else {
            *stage = Arc::new(merge(Walk::run(young), stage));
            &empty
        };
        *young = Arc::new(merge(Walk::Buffer(&self.buffer, 0..self.buffer.len()), older));
        self.buffer.clear();
    }

    /// Merges the buffer into a new young run, whatever the young run's
    /// size, and returns both runs: what a flush writes ([`flushed`]).
    pub(crate) fn seal(&mut self) -> [Arc<Run>; 2] {
        if self.buffer.len() > 0 {
            self.runs[0] = Arc::new(merge(Walk::Buffer(&self.buffer, 0..self.buffer.len()), &self.runs[0]));
            self.buffer.clear();
        }
        self.runs.clone()
    }

    /// `None` = key not buffered; `Some(None)` = tombstoned.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let buffered = self.buffer.search(key).ok().map(|i| self.buffer.entry(i).1);
        buffered.or_else(|| self.runs.iter().find_map(|run| run.get(key)))
    }

    /// `[min, max]` of the buffered keys, tombstones included (a buffered
    /// delete is newer data too): the first and last keys of the parts.
    pub(crate) fn range(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let b = &self.buffer;
        let buffered = b.len().checked_sub(1).map(|last| (b.key(0), b.key(last)));
        let runs = self.runs.iter().filter_map(|r| r.len().checked_sub(1).map(|last| (r.key(0), r.key(last))));
        let (lo, hi) = buffered.into_iter().chain(runs).reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))?;
        Some((lo.to_vec(), hi.to_vec()))
    }

    /// A frozen copy for a snapshot: the two runs shared by pointer, the
    /// buffer's live rows copied into an arena of exactly their size. Two
    /// allocations (arena and rows) for a non-empty buffer.
    pub(crate) fn freeze(&self) -> MemTable {
        let Buffer { arena, rows } = &self.buffer;
        let width = |(start, end): Span| (end - start) as usize;
        let size = rows.iter().map(|&(k, v)| width(k) + v.map_or(0, width)).sum();
        let mut copy = Buffer { arena: Vec::with_capacity(size), rows: Vec::new() };
        let mut to_copy = |span: Span| copy.append(&arena[span.0 as usize..span.1 as usize]);
        copy.rows = rows.iter().map(|&(k, v)| (to_copy(k), v.map(&mut to_copy))).collect();
        MemTable { buffer: copy, runs: self.runs.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_alloc_probe::{measure, requested};
    use memtree_common::check::{prop_check, Gen};
    use memtree_common::{check, check_eq};
    use std::collections::BTreeMap;

    /// The model keeps tombstones: a buffered delete is an entry.
    type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

    fn key(i: usize) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }

    /// Everything into the stage, the way tests set a MemTable up.
    fn merge_all(mem: &mut MemTable) {
        let [young, stage] = mem.seal();
        mem.runs = [Arc::default(), Arc::new(merge(Walk::run(&young), &stage))];
    }

    /// Every read of `mem` against `model`: point reads of every model key
    /// and of absent ones, what a flush would write, `range`.
    fn agrees(mem: &MemTable, model: &Model) -> std::result::Result<(), String> {
        for (k, v) in model {
            check_eq!(mem.get(k), Some(v.as_deref()), "get {k:?}");
        }
        check_eq!(mem.get(b"absent"), None);
        check!(mem.buffer.len() < BUFFER_KEYS, "a full buffer was not merged");
        check!(mem.runs[0].len() < YOUNG_KEYS + BUFFER_KEYS, "the young run outgrew its bound");
        let runs = mem.freeze().seal();
        let want: Vec<EntryRef<'_>> =
            model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())).collect();
        check_eq!(flushed(&runs).collect::<Vec<_>>(), want);
        let ends = model.keys().next().zip(model.keys().next_back());
        check_eq!(mem.range(), ends.map(|(lo, hi)| (lo.clone(), hi.clone())));
        Ok(())
    }

    fn write(mem: &mut MemTable, model: &mut Model, k: Vec<u8>, v: Option<Vec<u8>>) {
        mem.insert(&k, v.as_deref());
        model.insert(k, v);
    }

    /// Random puts, overwrites and deletes over a key space a few young
    /// runs wide, so writes land in the buffer, shadow both runs, and
    /// cross many buffer merges and young-to-stage merges; a frozen copy
    /// taken on the way keeps its own state.
    #[test]
    fn memtable_matches_btreemap_model() {
        let mut promoted_cases = 0;
        prop_check("memtable_vs_model", 60, |g: &mut Gen| {
            let mut mem = MemTable::default();
            let mut model = Model::new();
            let mut frozen: Option<(MemTable, Model)> = None;
            let mut promoted = false;
            let keys = g.range(1..3 * YOUNG_KEYS);
            for step in 0..g.range(0..6 * YOUNG_KEYS) {
                let v = match g.range(0..5) {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(g.bytes_vec(0..40)),
                };
                let stage = Arc::clone(&mem.runs[1]);
                write(&mut mem, &mut model, key(g.range(0..keys)), v);
                promoted |= !Arc::ptr_eq(&stage, &mem.runs[1]);
                if step % 97 == 0 {
                    agrees(&mem, &model)?;
                    frozen = Some((mem.freeze(), model.clone()));
                }
            }
            agrees(&mem, &model)?;
            if let Some((snap, at)) = &frozen {
                agrees(snap, at)?;
            }
            promoted_cases += usize::from(promoted);
            Ok(())
        });
        assert!(promoted_cases >= 15, "only {promoted_cases} of 60 cases merged into the stage");
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
        assert_eq!(mem.runs[0].len() + mem.runs[1].len(), 0, "no merge for one key");
    }

    /// A tombstone in the buffer shadows the older runs' value, and each
    /// merge carries the tombstone (not the value) down.
    #[test]
    fn buffered_tombstone_shadows_the_stage() {
        let mut mem = MemTable::default();
        mem.insert(b"k", Some(b"old"));
        merge_all(&mut mem);
        assert_eq!((mem.buffer.len(), mem.runs[1].get(b"k")), (0, Some(Some(&b"old"[..]))));
        mem.insert(b"k", None);
        assert_eq!(mem.get(b"k"), Some(None));
        mem.merge_buffer();
        assert_eq!(mem.runs[0].iter().collect::<Vec<_>>(), [(&b"k"[..], None)]);
        assert_eq!(mem.get(b"k"), Some(None), "the young run shadows the stage");
        merge_all(&mut mem);
        assert_eq!(mem.runs[1].iter().collect::<Vec<_>>(), [(&b"k"[..], None)]);
    }

    /// The write that brings the buffer to `BUFFER_KEYS` keys merges it
    /// into the young run; overwrites of buffered keys do not count. The
    /// first buffer merge after the young run reaches `YOUNG_KEYS` entries
    /// merges the young run into the stage, and the buffer alone becomes
    /// the young run.
    #[test]
    fn the_bth_key_merges_the_buffer() {
        let mut mem = MemTable::default();
        for i in 0..BUFFER_KEYS - 1 {
            mem.insert(&key(i), Some(b"v"));
            mem.insert(&key(i), Some(b"w"));
        }
        let sizes = |mem: &MemTable| (mem.buffer.len(), mem.runs[0].len(), mem.runs[1].len());
        assert_eq!(sizes(&mem), (BUFFER_KEYS - 1, 0, 0));
        mem.insert(&key(BUFFER_KEYS), Some(b"v"));
        assert_eq!(sizes(&mem), (0, BUFFER_KEYS, 0));
        assert_eq!(mem.get(&key(0)), Some(Some(&b"w"[..])));
        for i in BUFFER_KEYS + 1..=YOUNG_KEYS {
            mem.insert(&key(i), Some(b"v"));
        }
        assert_eq!(sizes(&mem), (0, YOUNG_KEYS, 0), "a full young run waits for the buffer");
        for i in YOUNG_KEYS + 1..YOUNG_KEYS + BUFFER_KEYS {
            mem.insert(&key(i), Some(b"v"));
        }
        assert_eq!(sizes(&mem), (BUFFER_KEYS - 1, YOUNG_KEYS, 0));
        mem.insert(&key(0), Some(b"x"));
        assert_eq!(sizes(&mem), (0, BUFFER_KEYS, YOUNG_KEYS));
        assert_eq!(mem.get(&key(0)), Some(Some(&b"x"[..])), "the young run shadows the stage");
        assert_eq!(mem.runs[1].get(&key(0)), Some(Some(&b"w"[..])));
    }

    /// Newest wins across a merge: an older version is replaced by the
    /// newer one, in place, whatever side of it the other keys fall —
    /// buffer over young run and young run over stage alike.
    #[test]
    fn newest_version_wins_across_a_merge() {
        let mut mem = MemTable::default();
        for k in [&b"a"[..], b"c", b"e"] {
            mem.insert(k, Some(b"old"));
        }
        merge_all(&mut mem);
        for k in [&b"b"[..], b"c", b"f"] {
            mem.insert(k, Some(b"mid"));
        }
        mem.merge_buffer();
        for k in [&b"a"[..], b"c", b"d"] {
            mem.insert(k, Some(b"new"));
        }
        mem.merge_buffer();
        let got: Vec<_> = mem.runs[0].iter().collect();
        let (old, mid, new) = (Some(&b"old"[..]), Some(&b"mid"[..]), Some(&b"new"[..]));
        assert_eq!(
            got,
            [(&b"a"[..], new), (b"b", mid), (b"c", new), (b"d", new), (b"f", mid)]
        );
        merge_all(&mut mem);
        let got: Vec<_> = mem.runs[1].iter().collect();
        assert_eq!(
            got,
            [(&b"a"[..], new), (b"b", mid), (b"c", new), (b"d", new), (b"e", old), (b"f", mid)]
        );
    }

    /// A frozen copy keeps reading its own state across a buffer merge, a
    /// young-to-stage merge and a flush's clear of the MemTable it was cut
    /// from.
    #[test]
    fn frozen_copy_survives_a_merge_and_a_flush() {
        let mut mem = MemTable::default();
        let mut model = Model::new();
        write(&mut mem, &mut model, b"staged".to_vec(), Some(b"s".to_vec()));
        merge_all(&mut mem);
        write(&mut mem, &mut model, b"young".to_vec(), Some(b"y".to_vec()));
        mem.merge_buffer();
        write(&mut mem, &mut model, b"buffered".to_vec(), Some(b"b".to_vec()));
        write(&mut mem, &mut model, b"staged".to_vec(), None);
        let frozen = mem.freeze();
        for i in 0..BUFFER_KEYS {
            mem.insert(&key(i), Some(b"later"));
        }
        assert!(!Arc::ptr_eq(&mem.runs[0], &frozen.runs[0]), "buffer merged");
        assert!(Arc::ptr_eq(&mem.runs[1], &frozen.runs[1]), "stage shared");
        for i in BUFFER_KEYS..YOUNG_KEYS + BUFFER_KEYS {
            mem.insert(&key(i), Some(b"later"));
        }
        assert!(!Arc::ptr_eq(&mem.runs[1], &frozen.runs[1]), "young run merged");
        // What a flush does: seal, write the runs out, drop them.
        assert_eq!(flushed(&mem.seal()).count(), 3 + YOUNG_KEYS + BUFFER_KEYS);
        mem.runs = Default::default();
        mem.insert(b"buffered", Some(b"after the flush"));
        mem.insert(b"young", None);
        agrees(&frozen, &model).unwrap();
    }

    #[test]
    fn range_is_the_min_and_max_of_all_three_parts() {
        let mut mem = MemTable::default();
        assert_eq!(mem.range(), None);
        mem.insert(b"m", None);
        assert_eq!(mem.range(), Some((b"m".to_vec(), b"m".to_vec())));
        merge_all(&mut mem);
        mem.insert(b"z", Some(b"v"));
        assert_eq!(mem.range(), Some((b"m".to_vec(), b"z".to_vec())));
        mem.insert(b"a", Some(b"v"));
        assert_eq!(mem.range(), Some((b"a".to_vec(), b"z".to_vec())));
        merge_all(&mut mem);
        mem.insert(b"q", Some(b"v"));
        assert_eq!(mem.range(), Some((b"a".to_vec(), b"z".to_vec())));
        // Keys only the young run holds, at either end.
        let mut mem = MemTable::default();
        mem.insert(b"m", Some(b"v"));
        merge_all(&mut mem);
        for k in [&b"b"[..], b"y"] {
            mem.insert(k, Some(b"v"));
            mem.merge_buffer();
            assert_eq!(mem.buffer.len(), 0);
        }
        mem.insert(b"n", Some(b"v"));
        assert_eq!(mem.range(), Some((b"b".to_vec(), b"y".to_vec())));
    }

    /// Once the buffer's arena and rows have grown, an insert that does not
    /// merge allocates nothing, across merges; a buffer merge allocates the
    /// new young run only, a young-to-stage merge the new stage on top; a
    /// frozen copy, its arena and rows.
    #[test]
    fn steady_state_inserts_allocate_nothing() {
        let mut mem = MemTable::default();
        let value = [7u8; 100];
        let keys: Vec<Vec<u8>> = (0..YOUNG_KEYS + 4 * BUFFER_KEYS + 1).map(key).collect();
        let mut next = keys.iter();
        let mut put = |mem: &mut MemTable| mem.insert(next.next().unwrap(), Some(&value));
        for _ in 0..BUFFER_KEYS {
            put(&mut mem);
        }
        assert_eq!(mem.buffer.len(), 0, "the warm-up filled and merged the buffer");
        let mut promotions = 0;
        for _ in BUFFER_KEYS..keys.len() - 1 {
            let stage = Arc::clone(&mem.runs[1]);
            let ((), allocations, _) = measure(|| put(&mut mem));
            if !Arc::ptr_eq(&stage, &mem.runs[1]) {
                promotions += 1;
                assert_eq!(allocations, 6, "young run and stage: bytes, offsets, Arc each");
            } else if mem.buffer.len() == 0 {
                assert_eq!(allocations, 3, "the merged young run: bytes, offsets, Arc");
            } else {
                assert_eq!(allocations, 0);
            }
        }
        assert_eq!(promotions, 1);
        put(&mut mem);
        let (frozen, allocations, _) = measure(|| mem.freeze());
        assert_eq!(allocations, 2, "arena, rows");
        assert_eq!(frozen.buffer.arena.capacity(), keys[0].len() + value.len());
    }

    /// A served shard's fill: 2 240 distinct 16-byte keys with 100-byte
    /// values, its 256 KiB MemTable. The bytes its inserts allocate — the
    /// merges, and the buffer's growth on the first fill — stay under 8
    /// per byte inserted (7.1; merging every `BUFFER_KEYS` keys into the
    /// whole stage, as before the young run, measured 19.4), and only the
    /// inserts that merge the young run into the stage allocate more than
    /// a full young run's worth.
    #[test]
    fn a_served_fill_copies_the_stage_about_once_per_young_run() {
        let n = 2240;
        let value = [7u8; 100];
        // Key, value and offset row of one run entry.
        let entry = 16 + value.len() + 8;
        let mut mem = MemTable::default();
        let (mut bytes, mut big) = (0, 0);
        for i in 0..n {
            // 7 919 is prime, so `i ↦ 7 919 i mod n` visits every key once,
            // out of order.
            let k = format!("key-{:012}", i * 7919 % n);
            let ((), b) = requested(|| mem.insert(k.as_bytes(), Some(&value)));
            bytes += b;
            big += usize::from(b > (YOUNG_KEYS + BUFFER_KEYS) * entry);
        }
        assert_eq!(flushed(&mem.seal()).count(), n);
        let per_byte = bytes as f64 / (n * (16 + value.len())) as f64;
        assert!(per_byte < 8.0, "{per_byte:.2} bytes allocated per byte inserted");
        assert!(big <= n.div_ceil(YOUNG_KEYS), "{big} inserts copied more than a young run");
    }
}
