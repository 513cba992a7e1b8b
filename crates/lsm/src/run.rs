//! [`Run`]: an immutable sorted run of `(key, Option<value>)` entries held
//! as one byte buffer plus one offset table — the thesis's Dynamic-to-Static
//! "concatenated bytes + offset array" layout (Compact Masstree, Fig. 2.4).
//!
//! Every read-mostly structure a served read walks is a `Run`:
//!
//! * a **data block** — [`Run::refill`] has the device write a CRC frame
//!   into the run's own buffer, validates it, checks the encoded length
//!   table, and indexes the frame bytes in place; the block cache holds
//!   exactly that buffer plus the offset table, and readers binary-search
//!   it. Both buffers outlive the block they hold: once the cache evicts a
//!   block no reader holds, the next miss refills the same run (see
//!   [`crate::cache`]), so a steady-state block miss allocates nothing;
//! * the MemTable's **young run** and **static stage** — [`Run::collect`]
//!   writes the merge of the write buffer into the young run, and of the
//!   young run into the stage, each in one pass into one buffer.
//!
//! Readers only ever see entries through [`Run::entry`] /
//! [`Run::iter`], which hand out borrowed `(&[u8], Option<&[u8]>)` pairs,
//! so the on-disk block encoding is a detail of this module alone.
//!
//! ## Block encoding
//!
//! `n u32 | n × (klen u16, vlen u16, flags u8) | keys | values`, wrapped in
//! the CRC frame from [`crate::wal`]. Flags bit 0 marks a delete tombstone
//! (which must carry an empty value). Keys are strictly ascending.

use crate::wal::{decode_single_ref, seal_frame, FRAME_HEADER};
use memtree_common::error::{MemtreeError, Result};
use std::cmp::Ordering;

/// A borrowed entry: key plus value, `None` = delete tombstone. Tombstones
/// shadow older versions of the key and are dropped only at bottom-level
/// compaction.
pub(crate) type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Longest key or value the block encoding can carry (its length table is
/// `u16`). [`crate::Db`] rejects longer ones before they reach the WAL.
pub(crate) const MAX_ENTRY_BYTES: usize = u16::MAX as usize;

/// Encoded bytes per length-table row.
const ROW_BYTES: usize = 5;

/// High bit of a value offset: the entry is a tombstone. Offsets are
/// therefore limited to 2 GiB, far above any block or MemTable.
const TOMBSTONE: u32 = 1 << 31;

/// An immutable sorted run. See the module docs.
#[derive(Debug)]
pub(crate) struct Run {
    /// Keys, contiguous and in order, then values, contiguous and in order
    /// (for a block: the whole validated frame, header and length table
    /// included). `Vec`s, so that a refill reuses their capacity.
    buf: Vec<u8>,
    /// `len + 1` rows of `(key start, value start | TOMBSTONE)` into `buf`.
    /// An entry ends where the next one starts; the last row is the
    /// sentinel `(keys end, values end)`. Empty for the empty run.
    offs: Vec<(u32, u32)>,
    /// `buf` is a validated block frame ([`Run::frame`]).
    framed: bool,
}

impl Default for Run {
    /// The empty run; allocates nothing.
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            offs: Vec::new(),
            framed: false,
        }
    }
}

/// Converts a buffer position into a stored offset.
fn offset(pos: usize) -> Option<u32> {
    u32::try_from(pos).ok().filter(|o| o & TOMBSTONE == 0)
}

impl Run {
    /// Takes ownership of a block frame and decodes it into a new run, as
    /// [`Run::refill`] does into an existing one.
    pub(crate) fn from_frame(frame: Vec<u8>) -> Result<Self> {
        let mut run = Self { buf: frame, ..Self::default() };
        run.index_frame()?;
        Ok(run)
    }

    /// Makes this run the block frame `read` writes into its (cleared)
    /// buffer: validates the frame and indexes it in place, reusing the
    /// capacity of both the frame buffer and the offset table. A bad CRC
    /// frame, an inconsistent length table, unknown flags, a tombstone
    /// carrying a value, and keys that are not strictly ascending are all
    /// typed [`MemtreeError::Corruption`] — never a panic, never a wrong
    /// pair. On any error, `read`'s included, the run is left empty.
    /// Nothing is allocated before the entry count is checked against the
    /// bytes actually present, so a corrupt count cannot ask for more
    /// than a small multiple of the frame.
    pub(crate) fn refill(&mut self, read: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        self.clear();
        let res = read(&mut self.buf).and_then(|()| self.index_frame());
        if res.is_err() {
            self.clear();
        }
        res
    }

    /// Empties the run, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.buf.clear();
        self.offs.clear();
        self.framed = false;
    }

    /// Validates the frame in `buf` and fills `offs` (see
    /// [`Run::refill`]); `offs` is empty on entry.
    fn index_frame(&mut self) -> Result<()> {
        let bad = |what: &str| MemtreeError::corruption("sstable-block", what.to_string());
        let Self { buf, offs, framed } = self;
        let frame: &[u8] = buf;
        let payload = decode_single_ref(frame, "sstable-block")?;
        let Some((count, rest)) = payload.split_first_chunk::<4>() else {
            return Err(bad("payload shorter than entry count"));
        };
        let n = u32::from_le_bytes(*count) as usize;
        let Some(table_len) = n.checked_mul(ROW_BYTES).filter(|&t| t <= rest.len()) else {
            return Err(bad("length table exceeds payload"));
        };
        let (table, data) = rest.split_at(table_len);
        let row = |r: &[u8]| {
            (
                u16::from_le_bytes([r[0], r[1]]) as usize,
                u16::from_le_bytes([r[2], r[3]]) as usize,
                r[4],
            )
        };
        let (mut ktotal, mut vtotal) = (0usize, 0usize);
        for r in table.chunks_exact(ROW_BYTES) {
            let (kl, vl, flags) = row(r);
            if flags > 1 {
                return Err(bad("unknown entry flags"));
            }
            if flags == 1 && vl != 0 {
                return Err(bad("tombstone entry carries a value"));
            }
            ktotal += kl;
            vtotal += vl;
        }
        if ktotal + vtotal != data.len() {
            return Err(bad("entry lengths disagree with payload size"));
        }
        let off = |pos: usize| offset(pos).ok_or_else(|| bad("frame exceeds the offset range"));
        let mut k = FRAME_HEADER + 4 + table_len;
        let mut v = k + ktotal;
        // Exact, so a fresh table is exactly `n + 1` rows.
        offs.reserve_exact(n + 1);
        let mut prev: Option<&[u8]> = None;
        for r in table.chunks_exact(ROW_BYTES) {
            let (kl, vl, flags) = row(r);
            let key = &frame[k..k + kl];
            if prev.is_some_and(|p| p >= key) {
                return Err(bad("keys not strictly ascending"));
            }
            prev = Some(key);
            let tombstone = if flags == 1 { TOMBSTONE } else { 0 };
            offs.push((off(k)?, off(v)? | tombstone));
            k += kl;
            v += vl;
        }
        offs.push((off(k)?, off(v)?));
        *framed = true;
        Ok(())
    }

    /// Serializes sorted `entries` into one block frame (see the module
    /// docs for the encoding), written into `frame`, which is cleared
    /// first: a table build encodes every block in one buffer. A key or
    /// value longer than [`MAX_ENTRY_BYTES`] is a typed
    /// [`MemtreeError::Allocation`], never a silently truncated length.
    pub(crate) fn encode_frame(entries: &[EntryRef<'_>], frame: &mut Vec<u8>) -> Result<()> {
        let len16 = |bytes: &[u8]| {
            u16::try_from(bytes.len()).map_err(|_| MemtreeError::Allocation { bytes: bytes.len() })
        };
        let n = u32::try_from(entries.len()).map_err(|_| MemtreeError::Allocation {
            bytes: entries.len(),
        })?;
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        frame.extend_from_slice(&n.to_le_bytes());
        for &(k, v) in entries {
            frame.extend_from_slice(&len16(k)?.to_le_bytes());
            frame.extend_from_slice(&len16(v.unwrap_or_default())?.to_le_bytes());
            frame.push(u8::from(v.is_none()));
        }
        for (k, _) in entries {
            frame.extend_from_slice(k);
        }
        for v in entries.iter().filter_map(|(_, v)| *v) {
            frame.extend_from_slice(v);
        }
        seal_frame(frame, 0);
        Ok(())
    }

    /// The validated block frame this run was built over, byte for byte as
    /// the device returned it; `None` for a run built in memory.
    pub(crate) fn frame(&self) -> Option<&[u8]> {
        self.framed.then_some(&*self.buf)
    }

    /// Number of entries, tombstones included.
    pub(crate) fn len(&self) -> usize {
        self.offs.len().saturating_sub(1)
    }

    /// Key of entry `i`.
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        &self.buf[self.offs[i].0 as usize..self.offs[i + 1].0 as usize]
    }

    /// Value of entry `i`; `None` = tombstone.
    pub(crate) fn value(&self, i: usize) -> Option<&[u8]> {
        let (start, end) = (self.offs[i].1, self.offs[i + 1].1 & !TOMBSTONE);
        (start & TOMBSTONE == 0).then(|| &self.buf[start as usize..end as usize])
    }

    /// Entry `i`.
    pub(crate) fn entry(&self, i: usize) -> EntryRef<'_> {
        (self.key(i), self.value(i))
    }

    /// Binary search: `Ok(i)` when entry `i` has exactly `key`, else
    /// `Err(i)` with `i` the position `key` would be inserted at.
    pub(crate) fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Index of the first entry with a key `>= key` (`len()` when none).
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        self.search(key).unwrap_or_else(|i| i)
    }

    /// Point lookup: `None` = key absent from this run, `Some(None)` =
    /// tombstoned here, `Some(Some(v))` = live value.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.search(key).ok().map(|i| self.value(i))
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// `(entries, key bytes, value bytes)` of a run built in memory.
    pub(crate) fn sizes(&self) -> (usize, usize, usize) {
        match (self.offs.first(), self.offs.last()) {
            (Some(&(k0, v0)), Some(&(k, v))) => (self.len(), (k - k0) as usize, (v - (v0 & !TOMBSTONE)) as usize),
            _ => (0, 0, 0),
        }
    }

    /// A run in memory of `entries`, in strictly ascending key order, at
    /// most `sizes.0` of them, whose keys total at most `sizes.1` bytes and
    /// values at most `sizes.2`. One pass writes each entry straight into
    /// the run's buffer — keys from the front, values from `sizes.1` on —
    /// which is then cut at the last value: two allocations (bytes,
    /// offsets), never regrown, and shrunk in place only when fewer bytes
    /// came than the bounds allow (a merge whose newer part shadowed
    /// entries of the older one); the shadowed keys' bytes stay unused
    /// between the keys and the values.
    pub(crate) fn collect<'a>(
        (n, key_bytes, value_bytes): (usize, usize, usize),
        entries: impl Iterator<Item = EntryRef<'a>>,
    ) -> Run {
        // Checks the far end once; every offset stored below is smaller.
        offset(key_bytes + value_bytes).expect("an in-memory run stays under 2 GiB");
        let mut buf = vec![0; key_bytes + value_bytes];
        let mut offs: Vec<(u32, u32)> = Vec::with_capacity(n + 1);
        let (mut k, mut v) = (0, key_bytes);
        for (key, value) in entries {
            debug_assert!(
                offs.last().is_none_or(|&(last, _)| &buf[last as usize..k] < key),
                "keys must ascend strictly"
            );
            let tombstone = if value.is_none() { TOMBSTONE } else { 0 };
            let value = value.unwrap_or_default();
            offs.push((k as u32, v as u32 | tombstone));
            buf[k..k + key.len()].copy_from_slice(key);
            buf[v..v + value.len()].copy_from_slice(value);
            (k, v) = (k + key.len(), v + value.len());
        }
        assert!(k <= key_bytes, "more key bytes than bounded");
        offs.push((k as u32, v as u32));
        buf.truncate(v);
        buf.shrink_to_fit();
        offs.shrink_to_fit();
        Run { buf, offs, framed: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_alloc_probe::measure as measure_allocs;
    use memtree_common::check::{prop_check, Gen};
    use crate::wal::encode_single;
    use memtree_common::{check, check_eq};

    type Owned = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// The block frame of `entries`, in a buffer of its own.
    fn encoded(entries: &[EntryRef<'_>]) -> Result<Vec<u8>> {
        let mut frame = Vec::new();
        Run::encode_frame(entries, &mut frame)?;
        Ok(frame)
    }

    fn refs(model: &Owned) -> Vec<EntryRef<'_>> {
        model
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
            .collect()
    }

    /// Random sorted entries over a tiny alphabet (dense prefix and
    /// boundary collisions), with empty keys, empty values and tombstones.
    fn sorted_entries(g: &mut Gen, max: usize) -> Owned {
        let n = g.range(0..max + 1);
        let mut keys: Vec<Vec<u8>> = (0..n).map(|_| g.bytes_from(b"ab\x00\xff", 0..6)).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                let v = match g.range(0..4) {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(g.bytes_vec(0..12)),
                };
                (k, v)
            })
            .collect()
    }

    /// `(key bytes, value bytes)` of `model`.
    fn sizes(model: &Owned) -> (usize, usize) {
        model.iter().fold((0, 0), |(k, v), (key, value)| {
            (k + key.len(), v + value.as_ref().map_or(0, Vec::len))
        })
    }

    fn built(model: &Owned) -> Run {
        let (key_bytes, value_bytes) = sizes(model);
        Run::collect((model.len(), key_bytes, value_bytes), model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())))
    }

    /// Every accessor of `run` against the `Vec` model.
    fn agrees(run: &Run, model: &Owned, g: &mut Gen) -> std::result::Result<(), String> {
        check_eq!(run.len(), model.len());
        for (i, (k, v)) in model.iter().enumerate() {
            check_eq!(run.key(i), k.as_slice());
            check_eq!(run.value(i), v.as_deref());
            check_eq!(run.search(k), Ok(i));
            check_eq!(run.get(k), Some(v.as_deref()));
        }
        check_eq!(run.iter().collect::<Vec<_>>(), refs(model));
        for _ in 0..16 {
            let probe = g.bytes_from(b"ab\x00\xff", 0..7);
            let want = model.binary_search_by(|(k, _)| k.as_slice().cmp(&probe));
            check_eq!(run.search(&probe), want);
            check_eq!(
                run.lower_bound(&probe),
                model.partition_point(|(k, _)| *k < probe)
            );
            check_eq!(run.get(&probe), want.ok().map(|i| model[i].1.as_deref()));
        }
        Ok(())
    }

    #[test]
    fn run_matches_vec_model_built_and_framed() {
        prop_check("run_vs_vec_model", 300, |g| {
            // Case sizes 0 and 1 come up by themselves at this range.
            let model = sorted_entries(g, 40);
            agrees(&built(&model), &model, g)?;
            check!(built(&model).frame().is_none());
            let frame = encoded(&refs(&model)).map_err(|e| e.to_string())?;
            let run = Run::from_frame(frame.clone()).map_err(|e| e.to_string())?;
            agrees(&run, &model, g)?;
            check_eq!(
                run.frame(),
                Some(&*frame),
                "the frame is kept byte for byte"
            );
            Ok(())
        });
        let single: Owned = vec![(Vec::new(), Some(Vec::new()))];
        let mut g = Gen::new(1);
        agrees(&built(&single), &single, &mut g).unwrap();
        agrees(&Run::default(), &Vec::new(), &mut g).unwrap();
    }

    /// One frame buffer (moved in, not copied) plus one offset table.
    #[test]
    fn from_frame_allocates_only_the_offset_table() {
        prop_check("from_frame_allocations", 50, |g| {
            let model = sorted_entries(g, 60);
            let frame = encoded(&refs(&model)).map_err(|e| e.to_string())?;
            let (run, count, largest) = measure_allocs(|| Run::from_frame(frame));
            check!(run.is_ok());
            check_eq!(count, 1, "the offset table is the only allocation");
            check_eq!(
                largest,
                8 * (model.len() + 1),
                "8 B per entry plus the sentinel"
            );
            Ok(())
        });
    }

    /// A device read stand-in: copies `frame` into the run's buffer.
    fn copy_of(frame: &[u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<()> + '_ {
        move |buf| {
            buf.extend_from_slice(frame);
            Ok(())
        }
    }

    /// A refill reuses the run's two buffers: a frame that fits them
    /// costs no allocation, and the refilled run answers for the new block
    /// only. A failed refill leaves the run empty.
    #[test]
    fn refill_reuses_both_buffers_and_fails_empty() {
        prop_check("refill_reuse", 50, |g| {
            let (a, b) = (sorted_entries(g, 60), sorted_entries(g, 60));
            let frame_a = encoded(&refs(&a)).map_err(|e| e.to_string())?;
            let frame_b = encoded(&refs(&b)).map_err(|e| e.to_string())?;
            let mut run = Run::default();
            // Grow both buffers to fit either block.
            for frame in [&frame_a, &frame_b, &frame_a] {
                run.refill(copy_of(frame)).map_err(|e| e.to_string())?;
            }
            agrees(&run, &a, g)?;
            let (res, count, _) = measure_allocs(|| run.refill(copy_of(&frame_b)));
            check!(res.is_ok());
            check_eq!(count, 0, "a refill that fits allocates nothing");
            agrees(&run, &b, g)?;
            check_eq!(run.frame(), Some(&*frame_b));
            let mut torn = frame_a.to_vec();
            torn.pop();
            check!(run.refill(copy_of(&torn)).is_err());
            check_eq!(
                (run.len(), run.frame()),
                (0, None),
                "a bad frame leaves it empty"
            );
            let failed = run.refill(|_| Err(MemtreeError::TransientIo { context: "test" }));
            check!(failed.is_err());
            check_eq!(
                (run.len(), run.frame()),
                (0, None),
                "a failed read leaves it empty"
            );
            Ok(())
        });
    }

    /// `Run::collect` makes two allocations — the run's bytes and its offset
    /// table, each at its final size — however many entries it takes.
    #[test]
    fn builder_allocates_the_run_and_nothing_else() {
        prop_check("builder_allocations", 50, |g| {
            let model = sorted_entries(g, 200);
            let (key_bytes, value_bytes) = sizes(&model);
            let (run, count, largest) = measure_allocs(|| built(&model));
            agrees(&run, &model, g)?;
            // A zero-byte buffer is not an allocation.
            check_eq!(count, 1 + usize::from(key_bytes + value_bytes > 0));
            check_eq!(
                largest,
                (key_bytes + value_bytes).max(8 * (model.len() + 1))
            );
            Ok(())
        });
    }

    /// Exhaustive single-bit flips and every-prefix truncations of an
    /// encoded block: a typed error or byte-identical content, never a
    /// panic, never an allocation out of proportion to the frame.
    #[test]
    fn bit_flips_and_truncations_are_typed_or_identical() {
        let mut g = Gen::new(7);
        let model = loop {
            let m = sorted_entries(&mut g, 40);
            if m.len() > 8 {
                break m;
            }
        };
        let frame = encoded(&refs(&model)).unwrap();
        let check_one = |bytes: Vec<u8>, what: String| {
            // Room for the offset table, or for an error's detail string.
            let cap = 2 * bytes.len() + 64;
            let (res, _, largest) = measure_allocs(|| Run::from_frame(bytes));
            assert!(
                largest <= cap,
                "{what}: allocated {largest} B for a {cap}-byte bound"
            );
            match res {
                Err(MemtreeError::Corruption { .. }) => {}
                Err(e) => panic!("{what}: untyped failure {e:?}"),
                Ok(run) => assert_eq!(
                    run.iter().collect::<Vec<_>>(),
                    refs(&model),
                    "{what}: decoded to different content"
                ),
            }
        };
        for cut in 0..frame.len() {
            check_one(frame[..cut].to_vec(), format!("cut at {cut}"));
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_one(flipped, format!("flip of bit {bit}"));
        }
    }

    /// A CRC-valid frame whose *payload* lies: counts and lengths that
    /// would index past the buffer or demand a huge table.
    #[test]
    fn lying_payloads_are_typed_without_big_allocations() {
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![1, 0, 0],
            u32::MAX.to_le_bytes().to_vec(),
            // 3 entries claimed, one row present.
            [&3u32.to_le_bytes()[..], &[1, 0, 0, 0, 0], b"k"].concat(),
            // Lengths overrun the payload.
            [&1u32.to_le_bytes()[..], &[0xff, 0xff, 0xff, 0xff, 0]].concat(),
        ];
        for p in payloads {
            let frame = encode_single(&p);
            let cap = 2 * frame.len() + 64;
            let (res, _, largest) = measure_allocs(|| Run::from_frame(frame));
            assert!(
                matches!(res, Err(MemtreeError::Corruption { .. })),
                "{p:?}: {res:?}"
            );
            assert!(largest <= cap, "{p:?}: allocated {largest} B");
        }
    }

    #[test]
    fn tombstone_with_value_and_unknown_flags_are_typed() {
        // Hand-craft CRC-valid payloads that the encoder would never emit.
        let framed = |rows: &[(u16, u16, u8)], data: &[u8]| {
            let mut payload = (rows.len() as u32).to_le_bytes().to_vec();
            for &(kl, vl, flags) in rows {
                payload.extend_from_slice(&kl.to_le_bytes());
                payload.extend_from_slice(&vl.to_le_bytes());
                payload.push(flags);
            }
            payload.extend_from_slice(data);
            encode_single(&payload)
        };
        let rejected = |frame: Vec<u8>, why: &str| {
            assert!(
                matches!(Run::from_frame(frame), Err(MemtreeError::Corruption { .. })),
                "{why} must be typed corruption"
            );
        };
        rejected(
            framed(&[(1, 2, 1)], b"kvv"),
            "tombstone flag with vlen != 0",
        );
        rejected(framed(&[(1, 0, 7)], b"k"), "unknown flags");
        // Well-formed lengths, but binary search over these keys would lie.
        rejected(framed(&[(1, 1, 0), (1, 1, 0)], b"baxy"), "unsorted keys");
        rejected(framed(&[(1, 1, 0), (1, 1, 0)], b"aaxy"), "duplicate key");
        // The same shapes in order are accepted.
        let ok = Run::from_frame(framed(&[(1, 1, 0), (1, 0, 1)], b"abx")).unwrap();
        assert_eq!(
            ok.iter().collect::<Vec<_>>(),
            [(&b"a"[..], Some(&b"x"[..])), (&b"b"[..], None)]
        );
    }

    #[test]
    fn encode_rejects_overlong_entries_typed() {
        let long = vec![7u8; MAX_ENTRY_BYTES + 1];
        let exact = vec![7u8; MAX_ENTRY_BYTES];
        for (k, v) in [(&long[..], Some(&b"v"[..])), (&b"k"[..], Some(&long[..]))] {
            assert_eq!(
                encoded(&[(k, v)]),
                Err(MemtreeError::Allocation {
                    bytes: MAX_ENTRY_BYTES + 1
                })
            );
        }
        // The limit itself round-trips.
        let frame = encoded(&[(&exact, Some(&exact))]).unwrap();
        let run = Run::from_frame(frame).unwrap();
        assert_eq!(run.entry(0), (&exact[..], Some(&exact[..])));
    }
}
