//! SSTables: immutable runs of sorted key-value blocks with fence indexes
//! and per-table filters.
//!
//! Since the durability PR, every data block is wrapped in the CRC frame
//! from [`crate::wal`]: a torn or bit-flipped block fails validation as a
//! typed [`MemtreeError`] instead of decoding into garbage, and the DB's
//! read path decides whether to retry (read repair) or quarantine.
//! Tables can also be reconstructed from manifest [`TableMeta`] records
//! without touching data blocks; filters are rebuilt separately because
//! they live only in memory.

use crate::db::FilterKind;
use crate::disk::SimDisk;
use crate::manifest::TableMeta;
use crate::run::{EntryRef, Run};
use crate::wal::{decode_single_ref, encode_single};
use memtree_common::error::{MemtreeError, Result};
use memtree_common::mem::{vec_bytes, vec_of_bytes};
use memtree_common::traits::PointFilter;
use memtree_faults::{fail_point, Backoff};
use memtree_filters::BloomFilter;
use memtree_surf::{SuffixConfig, Surf};

/// Filter-image format version (first payload byte inside the CRC frame).
const FILTER_IMAGE_VERSION: u8 = 1;
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

/// An immutable sorted table.
#[derive(Debug)]
pub struct SsTable {
    pub(crate) id: u64,
    /// Disk block ids, in key order.
    pub(crate) blocks: Vec<u32>,
    /// First key of each block (the "restarting point" fence index).
    pub(crate) fences: Vec<Vec<u8>>,
    pub(crate) min_key: Vec<u8>,
    pub(crate) max_key: Vec<u8>,
    pub(crate) filter: Option<TableFilter>,
    /// Disk block holding the serialized filter image, when one was
    /// written at build time. Persisted in the manifest so recovery can
    /// load the filter with one block read instead of re-reading every
    /// data block; `None` for filterless tables and tables written before
    /// the image format existed.
    pub(crate) filter_block: Option<u32>,
    pub(crate) num_entries: usize,
    /// Entries that are delete tombstones (`num_tombstones <=
    /// num_entries`). Persisted in the manifest so reopened databases know
    /// whether tombstone resolution is needed without reading blocks.
    pub(crate) num_tombstones: usize,
}

impl SsTable {
    /// Serializes sorted `entries` (tombstones included) into blocks of
    /// ~`block_size` bytes, builds the configured filter, and writes
    /// everything to `disk`'s write buffer (the caller syncs before
    /// publishing the table). On any error — injected block-write fault,
    /// disk write fault, or `Enospc` — every block already allocated for
    /// this table is released before the error propagates, so a failed
    /// build leaves no orphaned allocations and is safely retryable.
    pub(crate) fn build(
        id: u64,
        disk: &SimDisk,
        entries: &[EntryRef<'_>],
        block_size: usize,
        filter: &FilterKind,
    ) -> Result<Self> {
        assert!(!entries.is_empty());
        let mut blocks = Vec::new();
        let mut fences = Vec::new();
        let mut start = 0usize;
        let entry_bytes = |e: &EntryRef<'_>| e.0.len() + e.1.map_or(0, <[u8]>::len) + 5;
        let mut write_blocks = || -> Result<()> {
            while start < entries.len() {
                let mut bytes = 0usize;
                let mut end = start;
                while end < entries.len()
                    && (end == start || bytes + entry_bytes(&entries[end]) <= block_size)
                {
                    bytes += entry_bytes(&entries[end]);
                    end += 1;
                }
                fail_point!(disk.faults(), "lsm.table.block_write");
                let block = disk.write(Run::encode_frame(&entries[start..end])?)?;
                fences.push(entries[start].0.to_vec());
                blocks.push(block);
                start = end;
            }
            Ok(())
        };
        if let Err(e) = write_blocks() {
            for &b in &blocks {
                let _ = disk.release(b);
            }
            return Err(e);
        }
        // The filter indexes every key, tombstones included: a tombstone
        // must be *found* by reads so it can shadow older versions below.
        let keys: Vec<&[u8]> = entries.iter().map(|&(k, _)| k).collect();
        let built = Self::build_filter(&keys, filter);
        // Persist the filter as its own block so reopen can load it with
        // one read. A failed image write unwinds the whole build — same
        // retryability contract as a failed data-block write.
        let filter_block = match &built {
            Some(f) => match disk.write(Self::encode_filter_image(f)) {
                Ok(b) => Some(b),
                Err(e) => {
                    for &b in &blocks {
                        let _ = disk.release(b);
                    }
                    return Err(e);
                }
            },
            None => None,
        };
        Ok(Self {
            id,
            blocks,
            fences,
            min_key: entries[0].0.to_vec(),
            max_key: entries[entries.len() - 1].0.to_vec(),
            filter: built,
            filter_block,
            num_entries: entries.len(),
            num_tombstones: entries.iter().filter(|(_, v)| v.is_none()).count(),
        })
    }

    fn build_filter(keys: &[&[u8]], filter: &FilterKind) -> Option<TableFilter> {
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
        let payload = decode_single_ref(raw, "filter-image")?;
        let bad = |what: &str| MemtreeError::corruption("filter-image", what.to_string());
        if payload.len() < 2 {
            return Err(bad("image shorter than header"));
        }
        if payload[0] != FILTER_IMAGE_VERSION {
            return Err(bad("unknown image version"));
        }
        match payload[1] {
            FILTER_KIND_BLOOM => Ok(TableFilter::Bloom(BloomFilter::deserialize(&payload[2..])?)),
            FILTER_KIND_SURF => Ok(TableFilter::Surf(Surf::deserialize(&payload[2..])?)),
            _ => Err(bad("unknown filter kind")),
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
        let raw = disk.read_retrying(block, &mut Backoff::new(8))?;
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
        Self {
            id: meta.id,
            min_key: meta.fences.first().cloned().unwrap_or_default(),
            max_key: meta.max_key,
            blocks: meta.blocks,
            fences: meta.fences,
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
            blocks: self.blocks.clone(),
            fences: self.fences.clone(),
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

    /// Index of the block that may contain `key` (last fence `<= key`).
    pub(crate) fn candidate_block(&self, key: &[u8]) -> usize {
        self.fences
            .partition_point(|f| f.as_slice() <= key)
            .saturating_sub(1)
    }

    /// Does `key` fall within this table's [min, max] range?
    pub(crate) fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// Does the table's key range overlap `[lo, hi]`?
    pub(crate) fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.min_key.as_slice() <= hi && lo <= self.max_key.as_slice()
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

    /// In-memory footprint: fences + filter (blocks live on "disk").
    pub fn mem_usage(&self) -> usize {
        let filter = match &self.filter {
            None => 0,
            Some(TableFilter::Bloom(b)) => b.size_bytes(),
            Some(TableFilter::Surf(s)) => s.size_bytes(),
        };
        vec_bytes(&self.blocks) + vec_of_bytes(&self.fences) + filter
    }

    /// Releases the table's disk blocks (filter image included).
    pub(crate) fn release(&self, disk: &SimDisk) -> Result<()> {
        for &b in &self.blocks {
            disk.release(b)?;
        }
        if let Some(fb) = self.filter_block {
            disk.release(fb)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            match SsTable::build(1, &disk, &e, 1024, &FilterKind::None) {
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
        match SsTable::build(3, &disk, &e, 1024, &FilterKind::None) {
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
        let t = SsTable::build(1, &disk, &e, 4096, &FilterKind::Bloom(10.0)).unwrap();
        assert!(t.blocks.len() > 5, "should span multiple blocks");
        assert_eq!(t.len(), 1000);
        // Candidate block actually contains the key.
        for probe in [0u64, 999, 1500, 2997] {
            let key = memtree_common::key::encode_u64(probe);
            let b = t.candidate_block(&key);
            let blk = Run::from_frame(disk.read(t.blocks[b]).unwrap()).unwrap();
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

    #[test]
    fn meta_roundtrip_reconstructs_geometry() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(500);
        let e = refs(&owned);
        let t = SsTable::build(7, &disk, &e, 1024, &FilterKind::None).unwrap();
        let r = SsTable::from_meta(t.meta(2));
        assert_eq!(r.id, t.id);
        assert_eq!(r.blocks, t.blocks);
        assert_eq!(r.fences, t.fences);
        assert_eq!(r.min_key, t.min_key);
        assert_eq!(r.max_key, t.max_key);
        assert_eq!(r.num_entries, t.num_entries);
        assert_eq!(r.num_tombstones, t.num_tombstones);
        assert!(t.num_tombstones > 0, "test data should include tombstones");
        assert!(r.filter.is_none());
    }

    #[test]
    fn filter_image_roundtrips_for_every_kind() {
        let disk = SimDisk::new(Duration::ZERO);
        let owned = entries(400);
        let e = refs(&owned);
        for kind in [
            FilterKind::Bloom(12.0),
            FilterKind::SurfHash(8),
            FilterKind::SurfReal(4),
            FilterKind::SurfMixed(4, 4),
        ] {
            let t = SsTable::build(1, &disk, &e, 2048, &kind).unwrap();
            let fb = t.filter_block.expect("filtered build writes an image block");
            let raw = disk.read(fb).unwrap();
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
            let t = SsTable::build(1, &disk, &e, 2048, &kind).unwrap();
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
        let t = SsTable::build(1, &disk, &e, 2048, &FilterKind::Bloom(10.0)).unwrap();
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
        let t = SsTable::build(2, &disk, &e, 4096, &FilterKind::SurfReal(4)).unwrap();
        assert!(t.surf().is_some());
        assert!(t.covers(&memtree_common::key::encode_u64(300)));
        assert!(!t.covers(&memtree_common::key::encode_u64(4000)));
        assert!(t.overlaps(
            &memtree_common::key::encode_u64(100),
            &memtree_common::key::encode_u64(200)
        ));
    }
}
