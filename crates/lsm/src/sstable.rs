//! SSTables: immutable runs of sorted key-value blocks with a block index
//! of shortest separators and block ids ([`BlockIndex`]) and per-table
//! filters.
//!
//! The block index follows the paper's D-to-S rules: the separators sit
//! in one arena with a bit-packed offset table, with no per-block
//! allocation, the block ids are bit-packed beside them, and each
//! separator is truncated Bayer–Unterauer style to the shortest prefix of
//! its block's first key that still sorts above the previous block's last
//! key. A separator is therefore only a lower bound on its block's first
//! key; block 0's is the table's full min key.
//!
//! Every data block is wrapped in the CRC frame from [`crate::wal`]: a
//! torn or bit-flipped block fails validation as a typed [`MemtreeError`]
//! instead of decoding into garbage, and the DB's read path decides
//! whether to retry (read repair) or quarantine. A table is reconstructed
//! from its manifest [`TableMeta`] record without touching data blocks;
//! its filter is persisted as an image in a block of its own and loaded
//! from there, or rebuilt from the data blocks when the image is missing
//! or unreadable.

use crate::db::FilterKind;
use crate::disk::SimDisk;
use crate::manifest::TableMeta;
use crate::run::{EntryRef, Run};
use crate::wal::{decode_single_ref, encode_single};
use memtree_common::codec::Reader;
use memtree_common::error::{MemtreeError, Result};
use memtree_common::mem::vec_bytes;
use memtree_common::traits::PointFilter;
use memtree_faults::{fail_point, Backoff};
use memtree_filters::BloomFilter;
use memtree_succinct::PackedBits;
use memtree_surf::{SuffixConfig, Surf, SurfMemStats};
use std::sync::Arc;

/// Filter-image format version (first payload byte inside the CRC frame).
/// An image of any other version fails to decode, and `Db::open` rebuilds
/// that table's filter from its data blocks.
pub(crate) const FILTER_IMAGE_VERSION: u8 = 2;
/// Filter-image kind tags (second payload byte).
const FILTER_KIND_BLOOM: u8 = 0;
const FILTER_KIND_SURF: u8 = 1;

/// Per-table filter. One instance per SSTable, so the inline size gap
/// between the variants is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum TableFilter {
    Bloom(BloomFilter),
    Surf(Surf),
}

/// A table's block index: for each block, in key order, its separator
/// and its disk block id. Separator `i` is a lower bound on block `i`'s
/// first key and lies above every key of block `i - 1`, so the last
/// separator `<= key` names the only block that can hold `key`.
/// Separators strictly increase, and separator 0 is the table's min key.
///
/// The index is static once built, so each array holds its values at the
/// width they need (the D-to-S rule): the separators sit in one arena,
/// and their end offsets are packed at `bits(arena length)`. The block
/// ids are a frame of reference over `id_i - i`: `base`, the smallest
/// such value, plus each one's offset from it, packed at the width the
/// largest offset needs. A table written as one extent has `id_i = base +
/// i`, so its offsets are packed at width 0 and take no bytes; a table
/// whose ids are scattered (as the allocator before extents left them)
/// keeps them exactly, at a non-zero width. Build one with
/// [`BlockIndexBuilder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BlockIndex {
    arena: Vec<u8>,
    ends: PackedBits,
    base: i64,
    ids: PackedBits,
}

impl BlockIndex {
    /// Number of blocks indexed.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no block is indexed (never for a published table).
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Block `i`'s separator.
    #[inline]
    pub(crate) fn separator(&self, i: usize) -> &[u8] {
        let (start, end) = match i.checked_sub(1) {
            Some(p) => self.ends.get_pair(p),
            None => (0, self.ends.get(0)),
        };
        &self.arena[start as usize..end as usize]
    }

    /// Block `i`'s disk block id.
    #[inline]
    pub(crate) fn block_id(&self, i: usize) -> u32 {
        (self.base + i as i64 + self.ids.get(i) as i64) as u32
    }

    /// The separators in block order.
    pub(crate) fn separators(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.separator(i))
    }

    /// The first id and the length of the extent the blocks fill, when
    /// block `i` sits at `base + i` (every table written as one extent).
    pub(crate) fn extent(&self) -> Option<(u32, usize)> {
        (self.ids.width() == 0 && !self.is_empty()).then(|| (self.block_id(0), self.len()))
    }

    /// The disk block ids in block order.
    pub(crate) fn block_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.block_id(i))
    }

    /// The first block whose separator fails `pred`, for a `pred` that
    /// holds on a prefix of the separators (as [`slice::partition_point`]).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.separator(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Collects a [`BlockIndex`] one block at a time; [`BlockIndexBuilder::finish`]
/// packs it once every width is known.
#[derive(Debug, Default)]
pub(crate) struct BlockIndexBuilder {
    arena: Vec<u8>,
    ends: Vec<u32>,
    ids: Vec<u32>,
}

impl BlockIndexBuilder {
    /// Appends the next block: its separator and its disk block id.
    pub(crate) fn push(&mut self, separator: &[u8], id: u32) {
        self.arena.extend_from_slice(separator);
        // At most 32 bits an end, as `BlockIndex::separator` unpacks them.
        let end = u32::try_from(self.arena.len()).expect("a table's separators fit in 4 GiB");
        self.ends.push(end);
        self.ids.push(id);
    }

    /// Packs the index, with no spare capacity left in any part.
    pub(crate) fn finish(mut self) -> BlockIndex {
        self.arena.shrink_to_fit();
        // Block `i`'s id less `i`: one value for a table in one extent.
        let skew = |(i, &id): (usize, &u32)| i64::from(id) - i as i64;
        let base = self.ids.iter().enumerate().map(skew).min().unwrap_or(0);
        BlockIndex {
            arena: self.arena,
            ends: PackedBits::fit(self.ends.iter().map(|&end| u64::from(end))),
            base,
            ids: PackedBits::fit(self.ids.iter().enumerate().map(|b| (skew(b) - base) as u64)),
        }
    }
}

/// Heap bytes of one table by part ([`SsTable::mem_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableMemStats {
    /// The block index's separator arena.
    pub separators: usize,
    /// The separators' packed end offsets.
    pub separator_ends: usize,
    /// The packed block ids.
    pub block_ids: usize,
    /// The table's max key.
    pub max_key: usize,
    /// The attached filter.
    pub filter: FilterMemStats,
}

impl TableMemStats {
    /// Everything beside the filter: the block index and the max key.
    pub fn block_index(&self) -> usize {
        self.separators + self.separator_ends + self.block_ids + self.max_key
    }

    /// The sum of the parts: the table's heap bytes.
    pub fn total(&self) -> usize {
        self.block_index() + self.filter.total()
    }
}

/// Heap bytes of a table's filter ([`TableMemStats::filter`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FilterMemStats {
    /// No filter attached.
    #[default]
    None,
    /// A Bloom filter's bytes.
    Bloom(usize),
    /// A SuRF's bytes, by part.
    Surf(SurfMemStats),
}

impl FilterMemStats {
    /// The filter's heap bytes.
    pub fn total(&self) -> usize {
        match self {
            FilterMemStats::None => 0,
            FilterMemStats::Bloom(bytes) => *bytes,
            FilterMemStats::Surf(s) => s.total(),
        }
    }
}

/// The shortest `s` with `prev_last < s <= first`, for `prev_last <
/// first`: `first` cut one byte past the two keys' common prefix.
fn separator<'k>(prev_last: &[u8], first: &'k [u8]) -> &'k [u8] {
    let lcp = prev_last.iter().zip(first).take_while(|(a, b)| a == b).count();
    &first[..lcp + 1]
}

/// An immutable sorted table.
#[derive(Debug)]
pub struct SsTable {
    pub(crate) id: u64,
    /// Each block's separator and disk block id, in key order.
    pub(crate) index: BlockIndex,
    pub(crate) max_key: Vec<u8>,
    pub(crate) filter: Option<TableFilter>,
    /// Disk block holding the serialized filter image. Persisted in the
    /// manifest so recovery can load the filter with one block read
    /// instead of re-reading every data block; `None` for a table built
    /// without a filter.
    pub(crate) filter_block: Option<u32>,
    pub(crate) num_entries: usize,
    /// Entries that are delete tombstones (`num_tombstones <=
    /// num_entries`), persisted in the manifest. No read consults it: the
    /// ordered walk merges tombstones away as it meets them.
    pub(crate) num_tombstones: usize,
}

impl SsTable {
    /// Serializes sorted `entries` (tombstones included) into blocks of
    /// ~`block_size` bytes, builds the configured filter, and writes
    /// everything to `disk`'s write buffer (the caller syncs before
    /// publishing the table). One pass over `entries` cuts and encodes
    /// each block as its entries arrive and keeps only what the filter
    /// and the table's statistics need; once the block count is known the
    /// blocks take one extent, block `i` at id `base + i`, so the block
    /// index stores no id. On any error — injected block-write fault,
    /// disk write fault, or `Enospc` — the whole extent is released
    /// before the error propagates, so a failed build leaves no orphaned
    /// allocations and is safely retryable.
    pub(crate) fn build<'a>(
        id: u64,
        disk: &SimDisk,
        entries: impl IntoIterator<Item = EntryRef<'a>>,
        block_size: usize,
        filter: &FilterKind,
    ) -> Result<Self> {
        let entry_bytes = |(k, v): EntryRef<'_>| k.len() + v.map_or(0, <[u8]>::len) + 5;
        // Each block's separator and frame, the entries of the block being
        // cut, and every key: the filter indexes tombstones too, since a
        // tombstone must be *found* by reads to shadow older versions.
        let (mut fences, mut frames, mut block, mut keys) = (vec![], vec![], vec![], vec![]);
        let (mut bytes, mut num_tombstones) = (0usize, 0usize);
        // Each frame is encoded in `scratch` and copied once, into the
        // block the device keeps.
        let mut scratch = Vec::new();
        let mut encode = |block: &mut Vec<EntryRef<'a>>| -> Result<Arc<[u8]>> {
            Run::encode_frame(block, &mut scratch)?;
            block.clear();
            Ok(Arc::from(&scratch[..]))
        };
        for e in entries {
            if block.is_empty() || bytes + entry_bytes(e) > block_size {
                if !block.is_empty() {
                    frames.push(encode(&mut block)?);
                }
                fences.push(keys.last().map_or(e.0, |&last| separator(last, e.0)));
                bytes = 0;
            }
            bytes += entry_bytes(e);
            block.push(e);
            keys.push(e.0);
            num_tombstones += usize::from(e.1.is_none());
        }
        assert!(!block.is_empty(), "a table holds at least one entry");
        frames.push(encode(&mut block)?);
        let n = frames.len();
        let base = disk.reserve(n);
        let mut index = BlockIndexBuilder::default();
        let built = Self::build_filter(&keys, filter);
        let written = (|| -> Result<Option<u32>> {
            for (i, (fence, frame)) in fences.into_iter().zip(frames).enumerate() {
                fail_point!(disk.faults(), "lsm.table.block_write");
                let block = base + i as u32;
                disk.write_at(block, frame)?;
                index.push(fence, block);
            }
            // The filter image takes a block of its own, so reopen loads
            // the filter with one read; it fails the build like a block.
            built.as_ref().map(|f| disk.write(Self::encode_filter_image(f))).transpose()
        })();
        let filter_block = written.inspect_err(|_| {
            let _ = disk.release_extent(base, n);
        })?;
        Ok(Self {
            id,
            index: index.finish(),
            max_key: keys[keys.len() - 1].to_vec(),
            filter: built,
            filter_block,
            num_entries: keys.len(),
            num_tombstones,
        })
    }

    pub(crate) fn build_filter(keys: &[&[u8]], filter: &FilterKind) -> Option<TableFilter> {
        match filter {
            FilterKind::None => None,
            FilterKind::Bloom(bpk) => Some(TableFilter::Bloom(BloomFilter::new(keys, *bpk))),
            FilterKind::SurfHash(bits) => {
                Some(TableFilter::Surf(Surf::new(keys, SuffixConfig::Hash(*bits))))
            }
            FilterKind::SurfReal(bits) => {
                Some(TableFilter::Surf(Surf::new(keys, SuffixConfig::Real(*bits))))
            }
            FilterKind::SurfMixed(h, r) => {
                Some(TableFilter::Surf(Surf::new(keys, SuffixConfig::Mixed(*h, *r))))
            }
        }
    }

    /// Serializes a filter into its persistent image: `version u8 | kind
    /// u8 | body`, wrapped in a CRC frame so a torn or bit-flipped image
    /// fails validation instead of decoding into a wrong filter.
    pub(crate) fn encode_filter_image(filter: &TableFilter) -> Box<[u8]> {
        let mut payload = Vec::new();
        payload.push(FILTER_IMAGE_VERSION);
        match filter {
            TableFilter::Bloom(b) => {
                payload.push(FILTER_KIND_BLOOM);
                b.serialize(&mut payload);
            }
            TableFilter::Surf(s) => {
                payload.push(FILTER_KIND_SURF);
                s.serialize(&mut payload);
            }
        }
        encode_single(&payload).into_boxed_slice()
    }

    /// Validates and decodes a persistent filter image. Every failure —
    /// bad frame, unknown version or kind, or a body the filter codec
    /// rejects — is a typed [`MemtreeError::Corruption`]; the caller falls
    /// back to rebuilding (or degrading to filterless), never to a wrong
    /// filter.
    pub(crate) fn decode_filter_image(raw: &[u8]) -> Result<TableFilter> {
        const CTX: &str = "filter-image";
        let mut r = Reader::new(decode_single_ref(raw, CTX)?);
        if r.u8(CTX)? != FILTER_IMAGE_VERSION {
            return Err(MemtreeError::corruption(CTX, "unknown image version"));
        }
        match r.u8(CTX)? {
            FILTER_KIND_BLOOM => Ok(TableFilter::Bloom(BloomFilter::deserialize(r.rest())?)),
            FILTER_KIND_SURF => Ok(TableFilter::Surf(Surf::deserialize(r.rest())?)),
            _ => Err(MemtreeError::corruption(CTX, "unknown filter kind")),
        }
    }

    /// Loads the persisted filter image, if this table has one and it
    /// matches the configured `want` kind. Returns `Ok(true)` when a
    /// filter was attached, `Ok(false)` when there is nothing suitable to
    /// load (no image, filterless configuration, or a kind mismatch — the
    /// caller rebuilds from keys instead). Transient read faults are
    /// retried; a persistent read failure or a corrupt image is a typed
    /// error so the caller can choose rebuild vs degrade.
    pub(crate) fn load_persisted_filter(
        &mut self,
        disk: &SimDisk,
        want: &FilterKind,
    ) -> Result<bool> {
        let Some(block) = self.filter_block else {
            return Ok(false);
        };
        let want_tag = match want {
            FilterKind::None => return Ok(false),
            FilterKind::Bloom(_) => FILTER_KIND_BLOOM,
            FilterKind::SurfHash(_) | FilterKind::SurfReal(_) | FilterKind::SurfMixed(_, _) => {
                FILTER_KIND_SURF
            }
        };
        let mut raw = Vec::new();
        disk.read_retrying(block, &mut Backoff::new(8), &mut raw)?;
        let decoded = Self::decode_filter_image(&raw)?;
        let got_tag = match &decoded {
            TableFilter::Bloom(_) => FILTER_KIND_BLOOM,
            TableFilter::Surf(_) => FILTER_KIND_SURF,
        };
        if got_tag != want_tag {
            return Ok(false);
        }
        self.filter = Some(decoded);
        Ok(true)
    }

    /// Reconstructs the table from a manifest record (no data I/O; the
    /// filter starts absent and is re-attached by recovery, preferably
    /// from the persisted image block the record points at).
    pub(crate) fn from_meta(meta: TableMeta) -> Self {
        // The manifest decodes one block count for both lists.
        debug_assert_eq!(meta.fences.len(), meta.blocks.len());
        let mut index = BlockIndexBuilder::default();
        for (fence, &block) in meta.fences.iter().zip(&meta.blocks) {
            index.push(fence, block);
        }
        Self {
            id: meta.id,
            max_key: meta.max_key,
            index: index.finish(),
            filter: None,
            filter_block: meta.filter_block,
            num_entries: meta.num_entries,
            num_tombstones: meta.num_tombstones,
        }
    }

    /// The manifest record that reconstructs this table at `level`.
    pub(crate) fn meta(&self, level: usize) -> TableMeta {
        TableMeta {
            level,
            id: self.id,
            blocks: self.index.block_ids().collect(),
            fences: self.index.separators().map(<[u8]>::to_vec).collect(),
            max_key: self.max_key.clone(),
            filter_block: self.filter_block,
            num_entries: self.num_entries,
            num_tombstones: self.num_tombstones,
        }
    }

    /// Rebuilds the configured filter from the table's keys (recovery
    /// path; counted block reads).
    pub(crate) fn attach_filter(&mut self, keys: &[&[u8]], filter: &FilterKind) {
        self.filter = Self::build_filter(keys, filter);
    }

    /// Index of the block that may contain `key` (last separator `<=
    /// key`). A key between a block's separator and its first key is in
    /// no block, so a lookup there misses as it would in the block before.
    pub(crate) fn candidate_block(&self, key: &[u8]) -> usize {
        self.index.partition_point(|f| f <= key).saturating_sub(1)
    }

    /// The table's smallest key: block 0's separator.
    pub(crate) fn min_key(&self) -> &[u8] {
        self.index.separator(0)
    }

    /// Does `key` fall within this table's [min, max] range?
    pub(crate) fn covers(&self, key: &[u8]) -> bool {
        self.min_key() <= key && key <= self.max_key.as_slice()
    }

    /// Does the table's key range overlap `[lo, hi]`?
    pub(crate) fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.min_key() <= hi && lo <= self.max_key.as_slice()
    }

    /// Filter check for point gets; `true` when no filter is attached.
    pub(crate) fn filter_may_contain(&self, key: &[u8]) -> bool {
        match &self.filter {
            None => true,
            Some(TableFilter::Bloom(b)) => b.may_contain(key),
            Some(TableFilter::Surf(s)) => s.may_contain(key),
        }
    }

    /// True when a filter is attached (so a probe is worth counting).
    pub(crate) fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// The SuRF filter, when configured.
    pub(crate) fn surf(&self) -> Option<&Surf> {
        match &self.filter {
            Some(TableFilter::Surf(s)) => Some(s),
            _ => None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.num_entries
    }

    /// True when the table holds no entries (never happens post-build).
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Heap bytes held, by part: the block index, the max key and the
    /// filter (the blocks themselves live on "disk").
    pub fn mem_stats(&self) -> TableMemStats {
        TableMemStats {
            separators: vec_bytes(&self.index.arena),
            separator_ends: self.index.ends.mem_usage(),
            block_ids: self.index.ids.mem_usage(),
            max_key: vec_bytes(&self.max_key),
            filter: match &self.filter {
                None => FilterMemStats::None,
                Some(TableFilter::Bloom(b)) => FilterMemStats::Bloom(b.size_bytes()),
                Some(TableFilter::Surf(s)) => FilterMemStats::Surf(s.mem_stats()),
            },
        }
    }

    /// Heap bytes held: the sum of [`SsTable::mem_stats`].
    pub fn mem_usage(&self) -> usize {
        self.mem_stats().total()
    }

    /// Releases the table's disk blocks (filter image included): its
    /// extent in one step, or each block of a table whose ids are not
    /// one extent.
    pub(crate) fn release(&self, disk: &SimDisk) -> Result<()> {
        match self.index.extent() {
            Some((base, n)) => disk.release_extent(base, n)?,
            None => {
                for b in self.index.block_ids() {
                    disk.release(b)?;
                }
            }
        }
        if let Some(fb) = self.filter_block {
            disk.release(fb)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl SsTable {
    /// Block `block`'s real first key, read from `disk`: its fence is only
    /// a lower bound on it.
    pub(crate) fn first_key(&self, disk: &SimDisk, block: usize) -> Vec<u8> {
        let frame = disk.read(self.index.block_id(block)).expect("a live block").into_vec();
        Run::from_frame(frame).expect("a valid block").key(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn entries(n: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                (
                    memtree_common::key::encode_u64(i * 3).to_vec(),
                    // Every 11th entry is a tombstone, exercising the
                    // flags byte in every block-spanning test.
                    (i % 11 != 10).then(|| vec![i as u8; 32]),
                )
            })
            .collect()
    }

    fn refs(owned: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<EntryRef<'_>> {
        owned.iter().map(|(k, v)| (k.as_slice(), v.as_deref())).collect()
    }

    #[test]
    fn failed_build_releases_partial_blocks() {
        let owned = entries(1000);
        let e = refs(&owned);
        // Injected write fault partway through the build (seeded schedules
        // decide where; every seed must leave zero orphans on failure).
        for seed in 0..16u64 {
            let disk = SimDisk::new(Duration::ZERO);
            disk.faults().enable(seed);
            disk.faults().arm("lsm.disk.write_fault", 0.2, Some(1));
            match SsTable::build(1, &disk, e.iter().copied(), 1024, &FilterKind::None) {
                Err(_) => assert_eq!(
                    disk.live_blocks(),
                    0,
                    "seed {seed}: failed build must release every allocated block"
                ),
                Ok(t) => t.release(&disk).unwrap(),
            }
        }

        // ENOSPC path: capacity admits some blocks but not all.
        let disk = SimDisk::new(Duration::ZERO);
        disk.set_capacity_bytes(Some(4096));
        match SsTable::build(3, &disk, e.iter().copied(), 1024, &FilterKind::None) {
            Err(MemtreeError::Enospc { .. }) => {}
            other => panic!("expected Enospc, got {other:?}"),
        }
        assert_eq!(disk.live_blocks(), 0, "no orphaned blocks after ENOSPC");
        assert_eq!(disk.used_bytes(), 0);
    }

    #[test]
    fn build_and_locate() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(1000);
        let e = refs(&owned);
        let t = SsTable::build(1, &disk, e.iter().copied(), 4096, &FilterKind::Bloom(10.0)).unwrap();
        assert!(t.index.len() > 5, "should span multiple blocks");
        assert_eq!(t.len(), 1000);
        // Candidate block actually contains the key.
        for probe in [0u64, 999, 1500, 2997] {
            let key = memtree_common::key::encode_u64(probe);
            let b = t.candidate_block(&key);
            let blk = Run::from_frame(disk.read(t.index.block_id(b)).unwrap().into_vec()).unwrap();
            if probe % 3 == 0 && probe <= 2997 {
                assert!(
                    blk.get(&key).is_some(),
                    "probe {probe} missing from its candidate block"
                );
            }
        }
        // Filter admits members.
        for i in (0..1000u64).step_by(37) {
            assert!(t.filter_may_contain(&memtree_common::key::encode_u64(i * 3)));
        }
    }

    /// The heap a table's drop frees: all of it, and only it.
    fn heap_freed_by_drop(table: SsTable) -> isize {
        -memtree_alloc_probe::retained(|| drop(table)).1
    }

    /// One table of 2 000 entries, republished by a scrub that rewrote its
    /// rotted block 1 from the block cache's copy (so the scrub rebuilds
    /// the filter too).
    fn scrub_republished(kind: FilterKind) -> SsTable {
        use crate::db::{Db, DbOptions};
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            filter: kind,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&memtree_common::key::encode_u64(i << 16), &[7u8; 40]).unwrap();
        }
        db.flush().unwrap();
        let old = Arc::clone(&db.levels[0][0]);
        assert!(db.get(&old.first_key(&db.disk, 1)).is_some(), "block 1 is cached");
        db.disk.bitrot_block(old.index.block_id(1), 1).unwrap();
        drop(old);
        assert_eq!(db.scrub().unwrap().repaired_blocks, 1, "{kind:?}");
        let table = Arc::clone(&db.levels[0][0]);
        drop(db);
        Arc::try_unwrap(table).expect("the dropped Db held the only other reference")
    }

    /// A table holds exactly the heap its parts report, summed: built,
    /// rebuilt from its manifest record, and republished by a scrub. Each
    /// is measured by the heap its drop frees.
    #[test]
    fn a_table_holds_exactly_the_heap_it_reports() {
        let owned = entries(20_000);
        let e = refs(&owned);
        let keys: Vec<&[u8]> = e.iter().map(|&(k, _)| k).collect();
        for kind in [FilterKind::None, FilterKind::Bloom(10.0), FilterKind::SurfReal(8)] {
            let disk = SimDisk::new(Duration::ZERO);
            let built = SsTable::build(1, &disk, e.iter().copied(), 4096, &kind).unwrap();
            let mut reopened = SsTable::from_meta(built.meta(0));
            reopened.attach_filter(&keys, &kind);
            assert_eq!(built.mem_stats(), reopened.mem_stats(), "{kind:?}: built vs reopened");
            let tables = [
                ("built", built),
                ("reopened", reopened),
                ("republished", scrub_republished(kind)),
            ];
            for (name, table) in tables {
                let stats = table.mem_stats();
                assert_eq!(stats.total(), table.mem_usage());
                assert_eq!(stats.filter == FilterMemStats::None, !table.has_filter());
                let reported = stats.total() as isize;
                let live = heap_freed_by_drop(table);
                assert!(
                    (live - reported).abs() <= 64 + reported / 1000,
                    "{kind:?} {name}: holds {live} B of heap but reports {reported} B"
                );
            }
        }
    }

    /// The block index of one benchmark-shaped table (16 384 random
    /// 16-byte keys, 100-byte values, 4 KiB blocks) costs at most
    /// 0.125 B/key beside the filter, every packed part is at exactly the
    /// width its values need, and a reopen rebuilds it byte for byte. Its
    /// blocks take one extent, so the ids take no bytes. With `u32` end
    /// offsets and block ids it cost 0.32 B/key, with ids packed at
    /// `bits(max id - min id)` 0.154.
    #[test]
    fn a_benchmark_shaped_block_index_is_packed_to_its_widths() {
        let keys = memtree_workload::keys::rand_bytes_keys(16_384, 16, 43, 7);
        let keys = memtree_workload::keys::sorted_unique(keys);
        let owned: Vec<_> = keys.into_iter().map(|k| (k, Some(vec![0x5a; 100]))).collect();
        let disk = SimDisk::new(Duration::ZERO);
        let table = SsTable::build(1, &disk, refs(&owned), 4096, &FilterKind::SurfReal(8)).unwrap();
        let index = &table.index;
        let n = index.len();
        assert!(n > 400, "{n} blocks");

        let stats = table.mem_stats();
        let per_key = stats.block_index() as f64 / owned.len() as f64;
        assert!(per_key <= 0.125, "block index {per_key:.3} B/key");

        let packed_bytes = |width: u32| (width as usize * n).div_ceil(64) * 8;
        let ids: Vec<u32> = index.block_ids().collect();
        let first = ids[0];
        assert_eq!(ids, (first..first + n as u32).collect::<Vec<_>>(), "one extent");
        assert_eq!(index.base, i64::from(first));
        assert_eq!(index.ids.width(), 0);
        assert_eq!(stats.block_ids, 0);
        assert_eq!(index.ends.width(), PackedBits::bits_for(index.arena.len() as u64));
        assert_eq!(stats.separator_ends, packed_bytes(index.ends.width()));
        assert_eq!(stats.separators, index.arena.len());
        assert_eq!(index.separators().map(<[u8]>::len).sum::<usize>(), index.arena.len());

        let reopened = SsTable::from_meta(table.meta(0));
        assert_eq!(reopened.index, table.index, "a reopen packs the same bytes");
        assert_eq!(reopened.mem_stats().block_index(), stats.block_index());
    }

    /// A table whose ids are scattered, as the allocator before extents
    /// left them (a LIFO free list), reopens from its manifest record with
    /// every id exactly as the record lists it, and writes the same record
    /// back.
    #[test]
    fn a_table_with_scattered_block_ids_reopens_them_exactly() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(500);
        let built = SsTable::build(7, &disk, refs(&owned), 1024, &FilterKind::None).unwrap();
        let mut meta = built.meta(1);
        let n = meta.blocks.len();
        assert!(n > 8, "{n} blocks");
        // Falling, rising, repeated gaps, and id 0 past block 0: `id - i`
        // is negative there.
        let mut state = 5u64;
        meta.blocks = (0..n as u32)
            .map(|i| match i {
                0 => 900,
                1 => 0,
                _ => 3 * i + (memtree_common::hash::splitmix64(&mut state) % 40) as u32,
            })
            .collect();
        let reopened = SsTable::from_meta(meta.clone());
        assert_eq!(reopened.index.block_ids().collect::<Vec<_>>(), meta.blocks);
        for (i, &id) in meta.blocks.iter().enumerate() {
            assert_eq!(reopened.index.block_id(i), id, "block {i}");
        }
        assert!(reopened.index.ids.width() > 0);
        assert_eq!(reopened.meta(1), meta, "the record round-trips");
        assert_eq!(SsTable::from_meta(reopened.meta(1)).index, reopened.index);
    }

    #[test]
    fn meta_roundtrip_reconstructs_geometry() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(500);
        let e = refs(&owned);
        let t = SsTable::build(7, &disk, e.iter().copied(), 1024, &FilterKind::None).unwrap();
        let r = SsTable::from_meta(t.meta(2));
        assert_eq!(r.id, t.id);
        assert_eq!(r.index, t.index);
        assert_eq!(r.min_key(), t.min_key());
        assert_eq!(r.max_key, t.max_key);
        assert_eq!(r.num_entries, t.num_entries);
        assert_eq!(r.num_tombstones, t.num_tombstones);
        assert!(t.num_tombstones > 0, "test data should include tombstones");
        assert!(r.filter.is_none());
    }

    #[test]
    fn filter_image_roundtrips_for_every_kind() {
        // version + kind, then the filter's own fields: Bloom's geometry,
        // or SuRF's config and suffix length plus the trie's flags, ratio,
        // counts and one length word per bit vector and array.
        const IMAGE_HEADER_BYTES: usize = 160;
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(400);
        let e = refs(&owned);
        for kind in [
            FilterKind::Bloom(12.0),
            FilterKind::SurfHash(8),
            FilterKind::SurfReal(4),
            FilterKind::SurfMixed(4, 4),
        ] {
            let t = SsTable::build(1, &disk, e.iter().copied(), 2048, &kind).unwrap();
            let fb = t.filter_block.expect("filtered build writes an image block");
            let raw = disk.read(fb).unwrap();
            // An image holds the filter's data but no rank/select support,
            // so its payload fits in the resident size plus fixed headers.
            let payload = decode_single_ref(&raw, "t").unwrap().len();
            let resident = match t.filter.as_ref().unwrap() {
                TableFilter::Bloom(b) => b.size_bytes(),
                TableFilter::Surf(s) => s.size_bytes(),
            };
            assert!(
                payload <= resident + IMAGE_HEADER_BYTES,
                "kind {kind:?}: image payload {payload} B vs resident filter {resident} B"
            );
            let decoded = SsTable::decode_filter_image(&raw).unwrap();
            // The decoded filter answers membership identically.
            let mut clone = SsTable::from_meta(t.meta(1));
            clone.filter = Some(decoded);
            for i in 0..1300u64 {
                let key = memtree_common::key::encode_u64(i);
                assert_eq!(
                    clone.filter_may_contain(&key),
                    t.filter_may_contain(&key),
                    "kind {kind:?} key {i}"
                );
            }
            assert!(clone.load_persisted_filter(&disk, &kind).unwrap());
            t.release(&disk).unwrap();
        }
        assert_eq!(disk.live_blocks(), 0, "release frees the image block too");
    }

    #[test]
    fn semantically_truncated_image_is_typed_not_panic() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(400);
        let e = refs(&owned);
        for kind in [FilterKind::Bloom(12.0), FilterKind::SurfReal(4)] {
            let t = SsTable::build(1, &disk, e.iter().copied(), 2048, &kind).unwrap();
            let raw = disk.read(t.filter_block.unwrap()).unwrap();
            let payload = decode_single_ref(&raw, "t").unwrap();
            // Re-frame progressively shorter payload prefixes: the CRC
            // frame validates, but the body is semantically truncated.
            // Every prefix must decode to a typed error — never a panic,
            // never a wrong filter.
            for cut in 0..payload.len() {
                let reframed = encode_single(&payload[..cut]);
                match SsTable::decode_filter_image(&reframed) {
                    Err(MemtreeError::Corruption { .. }) => {}
                    other => panic!("kind {kind:?} cut {cut}: expected corruption, got {other:?}"),
                }
            }
            t.release(&disk).unwrap();
        }
    }

    #[test]
    fn persisted_filter_kind_mismatch_falls_back_to_rebuild() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(300);
        let e = refs(&owned);
        let t = SsTable::build(1, &disk, e.iter().copied(), 2048, &FilterKind::Bloom(10.0)).unwrap();
        let mut r = SsTable::from_meta(t.meta(1));
        // A Surf configuration must not adopt the persisted Bloom image.
        assert!(!r.load_persisted_filter(&disk, &FilterKind::SurfReal(4)).unwrap());
        assert!(r.filter.is_none());
        // A filterless configuration loads nothing.
        assert!(!r.load_persisted_filter(&disk, &FilterKind::None).unwrap());
        // The matching kind loads.
        assert!(r.load_persisted_filter(&disk, &FilterKind::Bloom(10.0)).unwrap());
        assert!(r.has_filter());
    }

    #[test]
    fn surf_filter_attach() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(500);
        let e = refs(&owned);
        let t = SsTable::build(2, &disk, e.iter().copied(), 4096, &FilterKind::SurfReal(4)).unwrap();
        assert!(t.surf().is_some());
        assert!(t.covers(&memtree_common::key::encode_u64(300)));
        assert!(!t.covers(&memtree_common::key::encode_u64(4000)));
        assert!(t.overlaps(
            &memtree_common::key::encode_u64(100),
            &memtree_common::key::encode_u64(200)
        ));
    }
}
