//! [`newest_wins`]: the write side's one merge. The MemTable's merges, a
//! flush and a compaction hand it sorted entry streams, newest first, and
//! take back one sorted stream holding each key once, in its newest
//! version; tombstones pass through like values. The read side's ordered
//! walk, [`crate::ScanCursor`], keeps its own head selection (DESIGN.md,
//! "One newest-wins merge").

use crate::db::DbOptions;
use crate::disk::SimDisk;
use crate::run::{EntryRef, Run};
use crate::sstable::SsTable;
use memtree_common::error::Result;
use std::cmp::Ordering;
use std::sync::Arc;

/// One input of [`newest_wins`]: a sorted entry stream and its next
/// entry.
pub(crate) struct Head<'a, I> {
    next: Option<EntryRef<'a>>,
    rest: I,
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> Head<'a, I> {
    pub(crate) fn new(mut rest: I) -> Self {
        Self { next: rest.next(), rest }
    }
}

/// The entries of `streams`, merged in key order: for each key, the entry
/// of the first stream that holds it. `streams` lists the streams newest
/// first, each in strictly ascending key order; an array where their
/// number is fixed (no allocation), a `Vec` for a compaction's inputs.
/// Each step compares the streams' heads, so it costs `O(k)` for `k`
/// streams — a compaction merges a few tables, the MemTable two parts.
pub(crate) fn newest_wins<'a, I, S>(mut streams: S) -> impl Iterator<Item = EntryRef<'a>>
where
    I: Iterator<Item = EntryRef<'a>>,
    S: AsMut<[Head<'a, I>]>,
{
    std::iter::from_fn(move || {
        let streams = streams.as_mut();
        // The newest stream holding the least head key, and that key. A
        // stream whose head ties it is older than the stream that set it,
        // so its version is shadowed and skipped on the spot: one key
        // comparison per stream and step.
        let mut least: Option<(usize, &'a [u8])> = None;
        for (i, stream) in streams.iter_mut().enumerate() {
            let Some((key, _)) = stream.next else { continue };
            match least.map(|(_, k)| key.cmp(k)) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) => stream.next = stream.rest.next(),
                Some(Ordering::Less) | None => least = Some((i, key)),
            }
        }
        let newest = &mut streams[least?.0];
        std::mem::replace(&mut newest.next, newest.rest.next())
    })
}

/// A compaction's merge and build: merges `inputs` — each one input
/// table's readable blocks in key order, newest table first — drops the
/// tombstones when `drop_tombstones`, and writes the stream into `out` as
/// tables of `per_table` entries (the last one smaller), ids from
/// `first_id` on. Reads nothing and needs no `Db`, only the loaded
/// blocks; on an error, `out` holds the tables built before it.
pub(crate) fn merge_tables(
    inputs: &[Vec<Arc<Run>>],
    drop_tombstones: bool,
    per_table: usize,
    first_id: u64,
    disk: &SimDisk,
    opts: &DbOptions,
    out: &mut Vec<SsTable>,
) -> Result<()> {
    let streams: Vec<_> =
        inputs.iter().map(|blocks| Head::new(blocks.iter().flat_map(|b| b.iter()))).collect();
    let mut merged =
        newest_wins(streams).filter(|(_, v)| !drop_tombstones || v.is_some()).peekable();
    while merged.peek().is_some() {
        let (id, entries) = (first_id + out.len() as u64, merged.by_ref().take(per_table));
        out.push(SsTable::build(id, disk, entries, opts.block_size, &opts.filter)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::check::{prop_check, Gen};
    use memtree_common::check_eq;
    use std::collections::BTreeMap;

    type Owned = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// A sorted stream over a tiny key space, so streams collide often;
    /// values name their stream, and some entries are tombstones.
    fn stream(g: &mut Gen, id: u8) -> Owned {
        let mut keys: Vec<Vec<u8>> = (0..g.range(0..24)).map(|_| g.bytes_from(b"abc", 0..4)).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter().map(|k| (k, (g.range(0..4) > 0).then(|| vec![id]))).collect()
    }

    fn walk(s: &Owned) -> Head<'_, impl Iterator<Item = EntryRef<'_>>> {
        Head::new(s.iter().map(|(k, v)| (k.as_slice(), v.as_deref())))
    }

    /// Against a model that applies the streams oldest first, so the
    /// newest version overwrites: any number of streams, empty ones
    /// included, as an array and as a `Vec`.
    #[test]
    fn the_newest_stream_wins_every_key() {
        prop_check("newest_wins_vs_model", 300, |g: &mut Gen| {
            let streams: Vec<Owned> = (0..g.range(0..6)).map(|id| stream(g, id as u8)).collect();
            let mut model = BTreeMap::new();
            for s in streams.iter().rev() {
                model.extend(s.iter().map(|(k, v)| (k.as_slice(), v.as_deref())));
            }
            let want: Vec<EntryRef<'_>> = model.into_iter().collect();
            let got: Vec<_> = newest_wins(streams.iter().map(walk).collect::<Vec<_>>()).collect();
            check_eq!(got, want);
            if let [a, b] = &streams[..] {
                check_eq!(newest_wins([walk(a), walk(b)]).collect::<Vec<_>>(), want);
            }
            Ok(())
        });
    }
}
