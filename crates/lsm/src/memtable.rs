//! [`MemTable`]: the thesis's hybrid index (Ch. 5) as the engine's write
//! buffer — a small dynamic stage in front of two compact static runs.
//!
//! * The **buffer** holds every key written since the last merge, sorted,
//!   over one byte arena: a write appends its key and value as one string
//!   and puts its key's row in place (a memmove of under [`BUFFER_KEYS`]
//!   rows of 16 bytes); an overwrite appends both again and repoints the
//!   row.
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
//!
//! [`crate::Db`] reads its live `MemTable`, each [`crate::DbSnapshot`] a
//! frozen copy ([`MemTable::freeze`]); both walk the two runs newest first
//! ([`MemTable::runs`]). A frozen copy shares the runs by pointer and the
//! buffer's bytes through a [`Shelf`]: set-once slots the writer seals
//! its new bytes into, one slot per freeze that finds any, and that every
//! frozen copy cut since the shelf's last renewal reads. A freeze copies
//! the rows and the bytes written since the last freeze — one entry's
//! bytes when a served shard publishes after every write — and never a
//! byte an earlier freeze sealed. The writer keeps reading and merging
//! its own arena, so merges stay one contiguous pass.
//!
//! A shelf has [`SHELF_SLOTS`] slots. It renews when the young run merges
//! into the stage and when a flush seals the buffer — both already the
//! far tail of the write path, and both leave the buffer empty — or, with
//! rows still buffered, when its slots run out: the live rows' bytes then
//! move to the front of a fresh arena, which the next freeze seals into
//! the new shelf's first slot, and the bytes overwrites replaced are
//! gone. A renewal reuses the shelf in place when no frozen copy holds
//! it; otherwise the old one is freed with the last copy that holds it.
//! So the writer's shelf holds the live rows' bytes of its last renewal
//! and the bytes inserted since, each at most once — in a [`crate::Db`]
//! at most one MemTable fill (`memtable_bytes` plus one write), since
//! every insert adds at least its bytes to the count that triggers a
//! flush — in at most [`SHELF_SLOTS`] allocations, on top of its slot
//! array (32 B a slot, 32 KiB).

use crate::merge::{newest_wins, Head};
use crate::run::{EntryRef, Run};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Buffered keys at which the buffer merges into a new young run. A
/// served shard publishes after nearly every write, which copies the
/// buffer's rows (not its entries), and a merge copies the young run (on
/// average ~[`YOUNG_KEYS`] / 2 entries), so a write costs ~`Y / 2B +
/// stage / Y` entry copies with the young-to-stage merges (`Y` =
/// [`YOUNG_KEYS`]) plus ~`B / 2` row copies. Of 64 / 256 / 1 024, 64 ran
/// `write_heavy` fastest when a publish still copied every buffered entry
/// (EXPERIMENTS.md, "one MemTable"); it also bounds the rows a publish
/// copies and the binary search every read of the buffer makes.
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

/// Slots of a shelf. A served shard publishes after every write and seals
/// one slot each time, so the shelf must outlast the writes between two
/// young-to-stage merges, at least [`YOUNG_KEYS`] of them, for those
/// merges to renew it rather than a full shelf on an ordinary write; and
/// a full shelf, which then renews at most once per `SHELF_SLOTS` writes,
/// bounds the allocations it holds (see the module docs).
const SHELF_SLOTS: usize = 2 * YOUNG_KEYS;

/// A buffered key's row: its key bytes, then its value bytes, as one
/// string from `start` in the arena of the buffer generation that wrote
/// it, and the [`Shelf`] slot that holds that string once a freeze has
/// sealed it.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u32,
    slot: u32,
    key_len: u32,
    /// The value's length, [`TOMBSTONE`] for a delete.
    value_len: u32,
}

/// [`Row::value_len`] of a delete tombstone; [`pos`] never returns it.
const TOMBSTONE: u32 = u32::MAX;

impl Row {
    fn value_len(self) -> Option<usize> {
        (self.value_len != TOMBSTONE).then_some(self.value_len as usize)
    }

    /// Key and value bytes.
    fn len(self) -> usize {
        self.key_len as usize + self.value_len().unwrap_or(0)
    }
}

/// A sealed slot: the arena offset its bytes began at, and the bytes.
type Sealed = (u32, Box<[u8]>);

/// Set-once storage for the bytes of the write buffer that frozen copies
/// read. See the module docs.
#[derive(Debug)]
pub(crate) struct Shelf {
    slots: Box<[OnceLock<Sealed>]>,
    /// Slots sealed so far. Only the writer reads or moves it, on one
    /// thread (`Db` is not `Sync`); a frozen copy reads only slots its
    /// rows name, each published by its `OnceLock`. So `Relaxed` suffices.
    sealed: AtomicUsize,
}

impl Shelf {
    fn new() -> Self {
        Self { slots: (0..SHELF_SLOTS).map(|_| OnceLock::new()).collect(), sealed: AtomicUsize::new(0) }
    }

    fn sealed(&self) -> usize {
        self.sealed.load(Ordering::Relaxed)
    }

    fn full(&self) -> bool {
        self.sealed() == self.slots.len()
    }

    /// The key and value bytes of `row`, which a freeze sealed.
    fn bytes(&self, row: Row) -> &[u8] {
        if row.len() == 0 {
            // An empty key without a value appended nothing, so no freeze
            // sealed a slot for it alone.
            return &[];
        }
        let (base, bytes) = self.slots[row.slot as usize].get().expect("a frozen row names a sealed slot");
        &bytes[(row.start - base) as usize..][..row.len()]
    }

    /// The arena offset up to which slots `first..` hold a generation's
    /// bytes: where the last of them ends, 0 when there is none.
    fn sealed_to(&self, first: usize) -> usize {
        let last = self.sealed().checked_sub(1).filter(|&last| last >= first);
        let end = |(base, bytes): &Sealed| *base as usize + bytes.len();
        last.map_or(0, |last| end(self.slots[last].get().expect("sealed")))
    }

    /// Seals `bytes`, which begin at arena offset `base`, into the next
    /// slot. There is one: an insert renews a full shelf before it
    /// appends, and only an insert leaves bytes to seal.
    fn seal(&self, base: usize, bytes: &[u8]) {
        let slot = self.sealed();
        let fresh = self.slots[slot].set((pos(base), bytes.into())).is_ok();
        assert!(fresh, "only the writer seals, one slot at a time");
        self.sealed.store(slot + 1, Ordering::Relaxed);
    }

    /// Empties the slots (this frees what they hold) for reuse.
    fn clear(&mut self) {
        let sealed = std::mem::take(self.sealed.get_mut());
        self.slots[..sealed].iter_mut().for_each(|slot| drop(slot.take()));
    }
}

/// Converts an arena offset or length into a stored one.
fn pos(p: usize) -> u32 {
    u32::try_from(p).ok().filter(|&p| p != TOMBSTONE).expect("a write buffer stays under 4 GiB")
}

/// The write buffer. See the module docs.
#[derive(Debug)]
pub(crate) struct Buffer {
    /// The writer's key and value bytes of this generation, in write
    /// order; bytes an overwrite replaced stay until the next merge or
    /// renewal of the shelf. A frozen copy's is empty: it reads its bytes
    /// from `shelf`.
    arena: Vec<u8>,
    /// One row per key, in key order.
    rows: Vec<Row>,
    /// The slots freezes seal this buffer's bytes into.
    shelf: Arc<Shelf>,
    /// The writer's first slot of this generation: slots from here on
    /// hold the arena's bytes up to [`Shelf::sealed_to`]. `None` in a
    /// frozen copy.
    first: Option<usize>,
}

impl Default for Buffer {
    fn default() -> Self {
        Self { arena: Vec::new(), rows: Vec::new(), shelf: Arc::new(Shelf::new()), first: Some(0) }
    }
}

impl Buffer {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The key and value bytes of `row`.
    fn bytes(&self, row: Row) -> &[u8] {
        match self.first {
            Some(_) => &self.arena[row.start as usize..][..row.len()],
            None => self.shelf.bytes(row),
        }
    }

    fn key_of(&self, row: Row) -> &[u8] {
        &self.bytes(row)[..row.key_len as usize]
    }

    pub(crate) fn key(&self, i: usize) -> &[u8] {
        self.key_of(self.rows[i])
    }

    pub(crate) fn entry(&self, i: usize) -> EntryRef<'_> {
        let row = self.rows[i];
        let (key, value) = self.bytes(row).split_at(row.key_len as usize);
        (key, row.value_len().map(|_| value))
    }

    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        self.rows.binary_search_by(|&row| self.key_of(row).cmp(key))
    }

    /// Index of the first row with a key `>= key` (`len()` when none).
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        self.search(key).unwrap_or_else(|i| i)
    }

    /// `(rows, key bytes, value bytes)` of the live rows.
    fn sizes(&self) -> (usize, usize, usize) {
        let (keys, values) =
            self.rows.iter().fold((0, 0), |(k, v), row| (k + row.key_len as usize, v + row.value_len().unwrap_or(0)));
        (self.len(), keys, values)
    }

    /// Empties the buffer, keeping its capacity; with `renew`, the shelf
    /// starts over too.
    fn clear(&mut self, renew: bool) {
        self.arena.clear();
        self.rows.clear();
        self.first = Some(self.shelf.sealed());
        if renew && self.shelf.sealed() > 0 {
            self.renew();
        }
    }

    /// Starts the shelf over — in place when no frozen copy shares it,
    /// else as a new one — and moves the live rows' bytes to the front of
    /// a fresh arena, dropping what overwrites replaced, for the next
    /// freeze to seal into the new shelf's first slot.
    fn renew(&mut self) {
        match Arc::get_mut(&mut self.shelf) {
            Some(shelf) => shelf.clear(),
            None => self.shelf = Arc::new(Shelf::new()),
        }
        if !self.rows.is_empty() {
            let mut arena = Vec::with_capacity(self.arena.capacity());
            for row in &mut self.rows {
                let bytes = &self.arena[row.start as usize..][..row.len()];
                *row = Row { start: pos(arena.len()), slot: 0, ..*row };
                arena.extend_from_slice(bytes);
            }
            self.arena = arena;
        }
        self.first = Some(0);
    }

    /// Appends the key and then the value (none for a tombstone) to the
    /// arena, for the next freeze to seal into the shelf's next slot, and
    /// puts the key's row in place or repoints it.
    fn insert(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(self.first.is_some(), "a frozen copy takes no writes");
        if self.shelf.full() {
            self.renew();
        }
        let row = Row {
            start: pos(self.arena.len()),
            slot: pos(self.shelf.sealed()),
            key_len: pos(key.len()),
            value_len: value.map_or(TOMBSTONE, |v| pos(v.len())),
        };
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value.unwrap_or_default());
        match self.search(key) {
            Ok(i) => self.rows[i] = row,
            Err(i) => self.rows.insert(i, row),
        }
    }

    /// A frozen copy: the rows, and the shelf after sealing the bytes
    /// written since the last freeze into its next slot.
    fn freeze(&self) -> Buffer {
        let first = self.first.expect("a frozen copy is frozen already");
        let from = self.shelf.sealed_to(first);
        if from < self.arena.len() {
            self.shelf.seal(from, &self.arena[from..]);
        }
        Buffer { arena: Vec::new(), rows: self.rows.clone(), shelf: Arc::clone(&self.shelf), first: None }
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
    /// the buffer then becomes the young run on its own, and the shelf
    /// renews. Allocates each new run (bytes, offsets, `Arc`), and a new
    /// shelf when a frozen copy holds the old one, and nothing else.
    fn merge_buffer(&mut self) {
        let [young, stage] = &mut self.runs;
        let empty = Run::default();
        let promote = young.len() >= YOUNG_KEYS;
        let older = if promote {
            *stage = Arc::new(merge(Walk::run(young), stage));
            &empty
        } else {
            &**young
        };
        *young = Arc::new(merge(Walk::Buffer(&self.buffer, 0..self.buffer.len()), older));
        self.buffer.clear(promote);
    }

    /// Merges the buffer into a new young run, whatever the young run's
    /// size, renews the shelf, and returns both runs: what a flush writes
    /// ([`flushed`]).
    pub(crate) fn seal(&mut self) -> [Arc<Run>; 2] {
        if self.buffer.len() > 0 {
            self.runs[0] = Arc::new(merge(Walk::Buffer(&self.buffer, 0..self.buffer.len()), &self.runs[0]));
        }
        self.buffer.clear(true);
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
    /// buffer's rows copied, and its bytes shared through the shelf, after
    /// sealing those written since the last freeze ([`Buffer::freeze`]).
    /// Allocates the rows, and one slot when there were new bytes.
    pub(crate) fn freeze(&self) -> MemTable {
        MemTable { buffer: self.buffer.freeze(), runs: self.runs.clone() }
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

    /// The newest version of every key of `mem`, in key order, merged
    /// without sealing it: what a flush of a frozen copy, which takes no
    /// writes and cannot be frozen again, would write.
    fn contents(mem: &MemTable) -> Vec<EntryRef<'_>> {
        let (buffer, [young, stage]) = (&mem.buffer, &mem.runs);
        let buffered = Walk::Buffer(buffer, 0..buffer.len());
        newest_wins([Head::new(buffered), Head::new(Walk::run(young)), Head::new(Walk::run(stage))]).collect()
    }

    /// Every read of `mem` against `model`: point reads of every model key
    /// and of absent ones, what a flush would write — of a live table,
    /// through a fresh frozen copy of it — and `range`.
    fn agrees(mem: &MemTable, model: &Model) -> std::result::Result<(), String> {
        for (k, v) in model {
            check_eq!(mem.get(k), Some(v.as_deref()), "get {k:?}");
        }
        check_eq!(mem.get(b"absent"), None);
        check!(mem.buffer.len() < BUFFER_KEYS, "a full buffer was not merged");
        check!(mem.runs[0].len() < YOUNG_KEYS + BUFFER_KEYS, "the young run outgrew its bound");
        let want: Vec<EntryRef<'_>> =
            model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())).collect();
        let fresh;
        let frozen = match mem.buffer.first {
            Some(_) => {
                fresh = mem.freeze();
                &fresh
            }
            None => mem,
        };
        check_eq!(contents(frozen), want);
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
    /// taken on the way keeps its own state, also after the case ends
    /// with the seal a flush makes.
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
            let runs = mem.seal();
            let want: Vec<EntryRef<'_>> = model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())).collect();
            check_eq!(flushed(&runs).collect::<Vec<_>>(), want, "what a flush writes");
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
    /// frozen copy, its rows and the slot it seals the new entry into.
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
        let (frozen, allocations, largest) = measure(|| mem.freeze());
        assert_eq!(allocations, 2, "rows, slot");
        assert_eq!(largest, keys[0].len() + value.len(), "the slot holds the one buffered entry");
        assert_eq!(frozen.get(&keys[keys.len() - 1]), Some(Some(&value[..])));
    }

    /// Bytes a frozen copy's rows take.
    fn rows_bytes(mem: &MemTable) -> usize {
        mem.buffer.len() * std::mem::size_of::<Row>()
    }

    /// A publish over 63 entries that earlier publishes shared requests
    /// the rows only, whatever the values' size; a publish after one new
    /// write or one overwrite requests that write's bytes on top, and no
    /// more.
    #[test]
    fn a_publish_copies_the_rows_and_only_the_unshared_bytes() {
        let mut shared = Vec::new();
        for value in [[7u8; 100].as_slice(), &[7u8; 1000]] {
            let mut mem = MemTable::default();
            for i in 0..BUFFER_KEYS - 2 {
                mem.insert(&key(i), Some(value));
                drop(mem.freeze());
            }
            mem.insert(&key(BUFFER_KEYS), Some(value));
            let (_, new) = requested(|| mem.freeze());
            assert_eq!(new, rows_bytes(&mem) + key(0).len() + value.len(), "one new entry");
            let (frozen, again) = requested(|| mem.freeze());
            assert_eq!(again, rows_bytes(&mem), "a publish over {} shared entries", mem.buffer.len());
            shared.push(again);
            mem.insert(&key(3), Some(b"over"));
            let (_, over) = requested(|| mem.freeze());
            assert_eq!(over, rows_bytes(&mem) + key(3).len() + 4, "one overwrite, its key appended again");
            assert_eq!(frozen.get(&key(3)), Some(Some(value)), "an earlier copy keeps its value");
        }
        assert_eq!(shared[0], shared[1], "no entry byte is copied");
    }

    /// A served shard's fill (as in the test below), published after every
    /// insert with the last frozen copy held, as a shard's published
    /// snapshot holds it: 2 240 distinct keys, then as many overwrites of
    /// 8 hot keys, which never merge the buffer, each ended by a flush's
    /// seal. Every publish copies the rows and the one new entry — or,
    /// right after a full shelf renewed, the live rows' bytes with it. The
    /// writer's arena and shelf hold no more than the bytes inserted since
    /// the shelf renewed plus a buffer; counting the slot array and an
    /// allocation header per sealed slot, the shelf stays under one fill.
    #[test]
    fn a_served_fill_shares_each_entry_once() {
        let n = 2240;
        let entry = 16 + 100;
        let fill = n * entry;
        let slots = SHELF_SLOTS * std::mem::size_of::<OnceLock<Sealed>>();
        for hot in [None, Some(8)] {
            let mut mem = MemTable::default();
            let mut held = mem.freeze();
            let (mut since, mut most, mut full) = (0, 0, 0);
            for i in 0..n {
                let k = format!("key-{:012}", hot.map_or(i * 7919 % n, |hot| i % hot));
                let value = [i as u8; 100];
                // `held` keeps the old shelf alive, so a new one has a new address.
                let (old, was_full) = (Arc::as_ptr(&mem.buffer.shelf), mem.buffer.shelf.full());
                mem.insert(k.as_bytes(), Some(&value));
                let (frozen, bytes) = requested(|| mem.freeze());
                held = frozen;
                assert_eq!(held.get(k.as_bytes()), Some(Some(&value[..])), "insert {i}");
                let buffer = &mem.buffer;
                let renewed = !std::ptr::eq(old, Arc::as_ptr(&buffer.shelf));
                full += usize::from(was_full);
                since = if renewed { 0 } else { since } + entry;
                // A renewal leaves the live rows' bytes, the new entry's
                // among them, for the freeze to seal.
                let copied = if renewed { buffer.arena.len() } else { entry.min(buffer.arena.len()) };
                assert_eq!(bytes, rows_bytes(&mem) + copied, "insert {i}");
                assert!(buffer.arena.len() <= since + BUFFER_KEYS * entry, "insert {i}: arena of {} B", buffer.arena.len());
                let shelf = &buffer.shelf;
                let sealed_bytes = (0..shelf.sealed()).map(|s| shelf.slots[s].get().unwrap().1.len()).sum::<usize>();
                assert!(sealed_bytes <= since + BUFFER_KEYS * entry, "insert {i}: {sealed_bytes} B sealed");
                most = most.max(slots + sealed_bytes + 16 * shelf.sealed());
            }
            assert!(most < fill, "the shelf held {most} B, a fill is {fill} B");
            match hot {
                None => assert_eq!(full, 0, "young-to-stage merges renew the shelf before it fills"),
                Some(_) => assert_eq!(full, n / SHELF_SLOTS, "an unmerged buffer renews a full shelf"),
            }
            let flushed = flushed(&mem.seal()).count();
            assert_eq!((flushed, mem.buffer.shelf.sealed()), (hot.unwrap_or(n), 0), "a flush renews the shelf");
            let last = format!("key-{:012}", hot.map_or((n - 1) * 7919 % n, |hot| (n - 1) % hot));
            assert_eq!(held.get(last.as_bytes()), Some(Some(&[(n - 1) as u8; 100][..])));
        }
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
