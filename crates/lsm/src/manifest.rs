//! The manifest: a CRC-framed log of version edits plus an atomically
//! swapped CURRENT pointer, in the image of RocksDB's MANIFEST/CURRENT
//! pair.
//!
//! Every durable change to the level structure is one **transaction**: a
//! batch of [`Edit`]s serialized into a *single* frame (the codec from
//! [`crate::wal`]) and appended to the active manifest file, then synced.
//! One frame per transaction is what makes compaction swaps atomic — a
//! torn append drops the whole `remove-victims + add-outputs` batch, never
//! half of it.
//!
//! `CURRENT` is a one-frame file naming the active manifest. It is only
//! rewritten via [`SimDisk::write_file_atomic`] (the `rename(2)` model),
//! so recovery always finds either the old or the new manifest — both
//! valid, because manifest files are never mutated after rotation.
//! Rotation happens at open: recovery snapshots the reconstructed version
//! into a fresh manifest file, syncs it, and only then swaps CURRENT.
//!
//! Edits:
//!
//! * `AddTable` — full table metadata (level, block ids, block separators,
//!   max key), enough to reconstruct an [`SsTable`](crate::SsTable) without
//!   reading data blocks (filters are rebuilt separately);
//! * `RemoveTable` — a compaction victim leaves the version;
//! * `FlushSeq` — the WAL high-water mark: replay skips records at or
//!   below it. Appended in the *same transaction* as the flush's
//!   `AddTable`, so the mark moves atomically with the table becoming
//!   durable (never before).

use crate::compaction::CompactionConfig;
use crate::disk::SimDisk;
use crate::wal::{decode_frames, decode_single, encode_frame, encode_single};
use memtree_common::codec::{put_bytes, Reader};
use memtree_common::error::{MemtreeError, Result};
use memtree_faults::fail_point;

/// File-namespace name of the CURRENT pointer (default, un-namespaced).
pub(crate) const CURRENT_FILE: &str = "CURRENT";

/// CURRENT file name for a database namespace (`""` = the default
/// `CURRENT`). Namespaces let several databases — e.g. the shards of a
/// sharded serving layer — share one [`SimDisk`] file namespace, each with
/// its own CURRENT/manifest chain.
pub(crate) fn current_file_name(namespace: &str) -> String {
    format!("{namespace}{CURRENT_FILE}")
}

/// Reconstructable SSTable metadata, as recorded in `AddTable` edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TableMeta {
    pub level: usize,
    pub id: u64,
    /// Disk block ids in key order.
    pub blocks: Vec<u32>,
    /// One separator per block: a lower bound on the block's first key
    /// that lies above every key of the block before; `fences[0]` is the
    /// table's min key. A full first key is a valid separator, so records
    /// that store first keys read the same way.
    pub fences: Vec<Vec<u8>>,
    pub max_key: Vec<u8>,
    /// Disk block holding the table's persisted filter image (`None` for
    /// a table built without a filter).
    pub filter_block: Option<u32>,
    pub num_entries: usize,
    /// Delete tombstones among `num_entries` (a table statistic; no read
    /// consults it).
    pub num_tombstones: usize,
}

/// One version edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Edit {
    AddTable(TableMeta),
    RemoveTable { id: u64 },
    FlushSeq { seq: u64 },
    /// Block `table.blocks[block]` failed validation persistently; readers
    /// must not re-read it. Only `Db::scrub` emits the inverse edit.
    Quarantine { table: u64, block: u32 },
    /// The block validated clean again (bit rot healed / scrub verified).
    Unquarantine { table: u64, block: u32 },
    /// The compaction policy that shapes this database's levels. Appended
    /// once at creation and carried forward by every rotation snapshot;
    /// on reopen it wins over the options' policy.
    Policy(CompactionConfig),
}

const CTX: &str = "manifest";

/// Levels past this one are a corrupt record, not a deep tree: every
/// level holds a multiple of the one above it, so real trees stop far
/// short of it.
const MAX_LEVEL: usize = 64;

impl Edit {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Edit::AddTable(m) => {
                // Tag 6: the table record with its filter-block pointer
                // (tag 1, the layout without one, decodes as unknown).
                out.push(6);
                out.extend_from_slice(&(m.level as u32).to_le_bytes());
                out.extend_from_slice(&m.id.to_le_bytes());
                out.extend_from_slice(&(m.num_entries as u64).to_le_bytes());
                out.extend_from_slice(&(m.num_tombstones as u64).to_le_bytes());
                out.extend_from_slice(&(m.blocks.len() as u32).to_le_bytes());
                for b in &m.blocks {
                    out.extend_from_slice(&b.to_le_bytes());
                }
                for f in &m.fences {
                    put_bytes(out, f);
                }
                put_bytes(out, &m.max_key);
                match m.filter_block {
                    Some(fb) => {
                        out.push(1);
                        out.extend_from_slice(&fb.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            Edit::RemoveTable { id } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Edit::FlushSeq { seq } => {
                out.push(3);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Edit::Quarantine { table, block } => {
                out.push(4);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&block.to_le_bytes());
            }
            Edit::Unquarantine { table, block } => {
                out.push(5);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&block.to_le_bytes());
            }
            Edit::Policy(cfg) => {
                let (kind, param) = cfg.encode();
                out.push(7);
                out.push(kind);
                out.extend_from_slice(&param.to_le_bytes());
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Edit> {
        let bad = |what: String| MemtreeError::corruption(CTX, what);
        match r.u8(CTX)? {
            6 => {
                let level = r.u32(CTX)? as usize;
                if level > MAX_LEVEL {
                    return Err(bad(format!("level {level} past the deepest, {MAX_LEVEL}")));
                }
                let id = r.u64(CTX)?;
                let num_entries = r.u64(CTX)? as usize;
                let num_tombstones = r.u64(CTX)? as usize;
                // Each block takes at least its id and its fence's length:
                // a count the bytes left cannot hold is rejected before
                // anything is reserved for it.
                let nblocks = r.count::<u32>(8, CTX)?;
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    blocks.push(r.u32(CTX)?);
                }
                let mut fences = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    fences.push(r.bytes::<u32>(CTX)?.to_vec());
                }
                let max_key = r.bytes::<u32>(CTX)?.to_vec();
                let filter_block = match r.u8(CTX)? {
                    0 => None,
                    1 => Some(r.u32(CTX)?),
                    f => return Err(bad(format!("bad filter-block presence flag {f}"))),
                };
                if nblocks == 0 {
                    return Err(bad("table with no blocks".into()));
                }
                if num_tombstones > num_entries {
                    return Err(bad("tombstone count exceeds entry count".into()));
                }
                Ok(Edit::AddTable(TableMeta {
                    level,
                    id,
                    blocks,
                    fences,
                    max_key,
                    filter_block,
                    num_entries,
                    num_tombstones,
                }))
            }
            2 => Ok(Edit::RemoveTable { id: r.u64(CTX)? }),
            3 => Ok(Edit::FlushSeq { seq: r.u64(CTX)? }),
            4 => Ok(Edit::Quarantine {
                table: r.u64(CTX)?,
                block: r.u32(CTX)?,
            }),
            5 => Ok(Edit::Unquarantine {
                table: r.u64(CTX)?,
                block: r.u32(CTX)?,
            }),
            7 => {
                let kind = r.u8(CTX)?;
                let param = r.u32(CTX)?;
                Ok(Edit::Policy(CompactionConfig::decode(kind, param)?))
            }
            tag => Err(bad(format!("unknown edit tag {tag}"))),
        }
    }
}

/// The level structure a manifest replay reconstructs.
#[derive(Debug, Default)]
pub(crate) struct Version {
    /// `levels[0]` in flush order (newest last); deeper levels as added.
    pub levels: Vec<Vec<TableMeta>>,
    /// WAL records at or below this seq are covered by flushed tables.
    pub flushed_seq: u64,
    /// One past the highest table id ever recorded.
    pub next_table_id: u64,
    /// `(table id, block index)` pairs readers must not re-read; persisted
    /// so a reopened Db skips known-bad blocks without probing them.
    pub quarantined: std::collections::BTreeSet<(u64, u32)>,
    /// The compaction policy recorded for this database (`None` for
    /// manifests written before policies were persisted — the opener
    /// adopts its options' policy and persists it at rotation).
    pub policy: Option<CompactionConfig>,
}

impl Version {
    fn apply(&mut self, edit: Edit) -> Result<()> {
        match edit {
            Edit::AddTable(meta) => {
                while self.levels.len() <= meta.level {
                    self.levels.push(Vec::new());
                }
                let next_id = meta.id.checked_add(1).ok_or_else(|| {
                    MemtreeError::corruption(CTX, format!("table id {} has no successor", meta.id))
                })?;
                self.next_table_id = self.next_table_id.max(next_id);
                self.levels[meta.level].push(meta);
            }
            Edit::RemoveTable { id } => {
                let mut found = false;
                for level in &mut self.levels {
                    let before = level.len();
                    level.retain(|t| t.id != id);
                    found |= level.len() != before;
                }
                if !found {
                    let detail = format!("remove of unknown table {id}");
                    return Err(MemtreeError::corruption(CTX, detail));
                }
                // Quarantine entries die with their table. A rewrite that
                // reuses the id (Remove + Add in one txn) re-appends
                // Quarantine edits for still-bad blocks in that same txn.
                self.quarantined.retain(|&(t, _)| t != id);
            }
            Edit::FlushSeq { seq: u64::MAX } => {
                return Err(MemtreeError::corruption(CTX, "flush mark leaves no next seq"));
            }
            Edit::FlushSeq { seq } => self.flushed_seq = self.flushed_seq.max(seq),
            Edit::Quarantine { table, block } => {
                self.quarantined.insert((table, block));
            }
            Edit::Unquarantine { table, block } => {
                self.quarantined.remove(&(table, block));
            }
            Edit::Policy(cfg) => self.policy = Some(cfg),
        }
        Ok(())
    }

    /// Edits that recreate this version verbatim (the rotation snapshot).
    fn snapshot_edits(&self) -> Vec<Edit> {
        let mut edits = Vec::new();
        if let Some(cfg) = self.policy {
            edits.push(Edit::Policy(cfg));
        }
        for level in &self.levels {
            for meta in level {
                edits.push(Edit::AddTable(meta.clone()));
            }
        }
        for &(table, block) in &self.quarantined {
            edits.push(Edit::Quarantine { table, block });
        }
        edits.push(Edit::FlushSeq {
            seq: self.flushed_seq,
        });
        edits
    }
}

/// The active manifest file and its append state.
pub(crate) struct Manifest {
    /// File-name namespace prefix (`""` for a standalone database).
    namespace: String,
    /// Active manifest file name (`{ns}manifest-N`).
    file: String,
    /// Next transaction frame sequence number.
    next_txn: u64,
    /// Transactions appended since open (diagnostics).
    pub appended_txns: u64,
}

impl Manifest {
    /// Opens the manifest pointed to by `{namespace}CURRENT`, replaying
    /// its edits into a [`Version`]. A missing/empty CURRENT initializes a
    /// fresh database (`{ns}manifest-1` + CURRENT, synced). The returned
    /// bool is true for that fresh-initialization case.
    pub fn open(disk: &SimDisk, namespace: &str) -> Result<(Manifest, Version, bool)> {
        let current_name = current_file_name(namespace);
        let current = disk.read_file(&current_name);
        if current.is_empty() {
            let manifest = Manifest {
                namespace: namespace.to_string(),
                file: format!("{namespace}manifest-1"),
                next_txn: 1,
                appended_txns: 0,
            };
            fail_point!(disk.faults(), "lsm.current.swap");
            disk.write_file_atomic(&current_name, &encode_single(manifest.file.as_bytes()))?;
            disk.sync();
            return Ok((manifest, Version::default(), true));
        }
        let name_bytes = decode_single(&current, "manifest-current")?;
        let file = String::from_utf8(name_bytes).map_err(|_| {
            MemtreeError::corruption("manifest-current", "non-utf8 manifest name")
        })?;
        let log_buf = disk.read_file(&file);
        let log = decode_frames(&log_buf, CTX)?;
        if log.torn {
            // A torn last transaction is a crash mid-append: the version
            // before it is fully consistent. Drop the torn bytes so later
            // appends start at a frame boundary.
            disk.truncate_file(&file, log.valid_bytes);
            disk.sync();
        }
        let mut version = Version::default();
        let mut last_txn = 0u64;
        for (txn, payload) in log.records {
            if txn <= last_txn {
                let detail = format!("non-monotonic transaction {txn} after {last_txn}");
                return Err(MemtreeError::corruption(CTX, detail));
            }
            last_txn = txn;
            let mut r = Reader::new(payload);
            while r.remaining() > 0 {
                version.apply(Edit::decode(&mut r)?)?;
            }
        }
        Ok((
            Manifest {
                namespace: namespace.to_string(),
                file,
                next_txn: last_txn + 1,
                appended_txns: 0,
            },
            version,
            false,
        ))
    }

    /// Appends one transaction (all of `edits` in a single frame) to the
    /// active manifest and syncs it durable.
    pub fn append(&mut self, disk: &SimDisk, edits: &[Edit]) -> Result<()> {
        fail_point!(disk.faults(), "lsm.manifest.append");
        let mut payload = Vec::new();
        for e in edits {
            e.encode(&mut payload);
        }
        disk.append(&self.file, &encode_frame(self.next_txn, &payload))?;
        fail_point!(disk.faults(), "lsm.manifest.sync");
        disk.sync();
        self.next_txn += 1;
        self.appended_txns += 1;
        Ok(())
    }

    /// Rotates to a fresh manifest file holding a one-transaction snapshot
    /// of `version`, then swaps CURRENT to it. Crashing anywhere in here
    /// leaves CURRENT on the old, still-valid manifest.
    pub fn rotate(&mut self, disk: &SimDisk, version: &Version) -> Result<()> {
        let prefix = format!("{}manifest-", self.namespace);
        let n: u64 = self
            .file
            .strip_prefix(&prefix)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                MemtreeError::corruption(CTX, format!("bad manifest name {}", self.file))
            })?;
        let next_file = format!("{prefix}{}", n + 1);
        fail_point!(disk.faults(), "lsm.manifest.rotate");
        let mut payload = Vec::new();
        for e in version.snapshot_edits() {
            e.encode(&mut payload);
        }
        // Replace, never append: a rotation that died after writing this
        // file (but before the CURRENT swap) left a frame here, and a
        // retried rotation reuses the same name — appending would stack
        // two txn-1 frames and poison the next open.
        disk.write_file_atomic(&next_file, &encode_frame(1, &payload))?;
        disk.sync();
        fail_point!(disk.faults(), "lsm.current.swap");
        disk.write_file_atomic(
            &current_file_name(&self.namespace),
            &encode_single(next_file.as_bytes()),
        )?;
        disk.sync();
        self.file = next_file;
        self.next_txn = 2;
        // GC: once CURRENT durably points at generation n+1, every older
        // same-namespace manifest-K is dead — without this they accumulate
        // forever. Other namespaces' chains (sibling shards on a shared
        // disk) are untouched. A crash between the swap and these removals
        // only re-runs the GC at the next rotation (removal is idempotent).
        for f in disk.file_names() {
            if let Some(k) = f.strip_prefix(&prefix).and_then(|s| s.parse::<u64>().ok()) {
                if k <= n {
                    disk.remove_file(&f);
                }
            }
        }
        disk.sync();
        Ok(())
    }

    /// Active manifest file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// This manifest chain's CURRENT pointer file name.
    pub fn current_file(&self) -> String {
        current_file_name(&self.namespace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn meta(level: usize, id: u64, lo: u8, hi: u8) -> TableMeta {
        TableMeta {
            level,
            id,
            blocks: vec![id as u32 * 10, id as u32 * 10 + 1],
            fences: vec![vec![lo], vec![lo + 1]],
            max_key: vec![hi],
            filter_block: Some(id as u32 * 10 + 9),
            num_entries: 7,
            num_tombstones: 1,
        }
    }

    /// A CRC-valid manifest whose AddTable claims `u32::MAX` blocks is
    /// typed corruption, found before anything is reserved for them: the
    /// decode allocates nothing larger than the record. A tag-1 AddTable
    /// (the record without a filter pointer) is an unknown tag.
    #[test]
    fn a_lying_block_count_and_a_tag_1_record_are_typed() {
        let mut add = Vec::new();
        Edit::AddTable(meta(0, 3, 10, 20)).encode(&mut add);
        // The count follows the tag, level, id and two entry counts.
        let count = 1 + 4 + 8 + 8 + 8;
        let mut lying = add.clone();
        lying[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut tag1 = add;
        tag1[0] = 1;
        for payload in [lying, tag1] {
            let disk = SimDisk::new(Duration::ZERO);
            let frame = encode_frame(1, &payload);
            disk.write_file_atomic(CURRENT_FILE, &encode_single(b"manifest-1")).unwrap();
            disk.append("manifest-1", &frame).unwrap();
            disk.sync();
            let opened = Manifest::open(&disk, "");
            assert!(matches!(opened, Err(MemtreeError::Corruption { .. })), "tag {}", payload[0]);
            let mut r = Reader { buf: &payload, at: 0 };
            let (res, _, largest) = memtree_alloc_probe::measure(|| Edit::decode(&mut r));
            assert!(matches!(res, Err(MemtreeError::Corruption { .. })), "tag {}", payload[0]);
            assert!(largest <= payload.len(), "allocated {largest} B for a {} B record", payload.len());
        }
    }

    /// Opens a manifest whose one transaction holds `edits`.
    fn open_with(edits: &[Edit]) -> Result<Version> {
        let disk = SimDisk::new(Duration::ZERO);
        let mut payload = Vec::new();
        for e in edits {
            e.encode(&mut payload);
        }
        disk.write_file_atomic(CURRENT_FILE, &encode_single(b"manifest-1")).unwrap();
        disk.append("manifest-1", &encode_frame(1, &payload)).unwrap();
        disk.sync();
        Manifest::open(&disk, "").map(|(_, v, _)| v)
    }

    /// A CRC-valid AddTable at a level no tree reaches is corruption, found
    /// before the version grows a level list that long.
    #[test]
    fn a_table_past_the_deepest_level_is_corruption() {
        let deepest = open_with(&[Edit::AddTable(meta(MAX_LEVEL, 3, 10, 20))]).unwrap();
        assert_eq!(deepest.levels.len(), MAX_LEVEL + 1);
        for level in [MAX_LEVEL + 1, 1 << 30, u32::MAX as usize] {
            let opened = open_with(&[Edit::AddTable(meta(level, 3, 10, 20))]);
            assert!(
                matches!(opened, Err(MemtreeError::Corruption { .. })),
                "level {level}: {opened:?}"
            );
        }
    }

    /// The highest table id leaves no next id to hand out.
    #[test]
    fn a_table_id_without_a_successor_is_corruption() {
        let last = TableMeta { id: u64::MAX, ..meta(0, 3, 10, 20) };
        let opened = open_with(&[Edit::AddTable(last)]);
        assert!(matches!(opened, Err(MemtreeError::Corruption { .. })), "{opened:?}");
        let below = TableMeta { id: u64::MAX - 1, ..meta(0, 3, 10, 20) };
        assert_eq!(open_with(&[Edit::AddTable(below)]).unwrap().next_table_id, u64::MAX);
    }

    #[test]
    fn policy_edit_roundtrips_and_survives_rotation() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, _, _) = Manifest::open(&disk, "").unwrap();
        m.append(
            &disk,
            &[
                Edit::Policy(CompactionConfig::Tiered { tiers_per_level: 3 }),
                Edit::AddTable(meta(0, 1, 10, 20)),
            ],
        )
        .unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(v.policy, Some(CompactionConfig::Tiered { tiers_per_level: 3 }));
        m.rotate(&disk, &v).unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(
            v.policy,
            Some(CompactionConfig::Tiered { tiers_per_level: 3 }),
            "rotation snapshot must carry the policy forward"
        );
        assert_eq!(v.levels[0][0].filter_block, meta(0, 1, 10, 20).filter_block);
    }

    #[test]
    fn edits_roundtrip_through_reopen() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, v, fresh) = Manifest::open(&disk, "").unwrap();
        assert!(fresh && v.levels.is_empty());
        m.append(&disk, &[Edit::AddTable(meta(0, 1, 10, 20)), Edit::FlushSeq { seq: 5 }])
            .unwrap();
        m.append(&disk, &[Edit::AddTable(meta(0, 2, 30, 40)), Edit::FlushSeq { seq: 9 }])
            .unwrap();
        m.append(
            &disk,
            &[
                Edit::RemoveTable { id: 1 },
                Edit::RemoveTable { id: 2 },
                Edit::AddTable(meta(1, 3, 10, 40)),
            ],
        )
        .unwrap();
        let (_, v, fresh) = Manifest::open(&disk, "").unwrap();
        assert!(!fresh);
        assert_eq!(v.flushed_seq, 9);
        assert_eq!(v.next_table_id, 4);
        assert!(v.levels[0].is_empty());
        assert_eq!(v.levels[1], vec![meta(1, 3, 10, 40)]);
    }

    #[test]
    fn torn_compaction_txn_drops_whole_batch() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, _, _) = Manifest::open(&disk, "").unwrap();
        m.append(&disk, &[Edit::AddTable(meta(0, 1, 10, 20))]).unwrap();
        // A compaction transaction that never syncs, torn by the crash.
        m.append(&disk, &[Edit::RemoveTable { id: 1 }, Edit::AddTable(meta(1, 2, 10, 20))])
            .unwrap_or(());
        // Rewind durability: simulate by re-appending unsynced.
        disk.append(m.file(), b"partial-garbage-tail").unwrap();
        disk.crash(Some(3));
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        // Whichever prefix survived, the version is one of the two
        // transaction boundaries — never a half-applied swap.
        let ids: Vec<u64> = v.levels.iter().flatten().map(|t| t.id).collect();
        assert!(ids == vec![1] || ids == vec![2], "got {ids:?}");
    }

    #[test]
    fn rotation_swaps_current_atomically() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, _, _) = Manifest::open(&disk, "").unwrap();
        m.append(&disk, &[Edit::AddTable(meta(0, 1, 10, 20)), Edit::FlushSeq { seq: 3 }])
            .unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        m.rotate(&disk, &v).unwrap();
        assert_eq!(m.file(), "manifest-2");
        let (m2, v2, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(m2.file(), "manifest-2");
        assert_eq!(v2.flushed_seq, 3);
        assert_eq!(v2.levels[0], vec![meta(0, 1, 10, 20)]);
    }

    #[test]
    fn rotation_gcs_dead_manifest_generations() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, _, _) = Manifest::open(&disk, "").unwrap();
        m.append(&disk, &[Edit::AddTable(meta(0, 1, 10, 20))]).unwrap();
        for _ in 0..6 {
            let (_, v, _) = Manifest::open(&disk, "").unwrap();
            m.rotate(&disk, &v).unwrap();
        }
        let manifests: Vec<String> = disk
            .file_names()
            .into_iter()
            .filter(|f| f.starts_with("manifest-"))
            .collect();
        assert_eq!(manifests, vec![m.file().to_string()], "only the live generation survives");
        // The surviving state still replays.
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(v.levels[0], vec![meta(0, 1, 10, 20)]);
    }

    #[test]
    fn namespaced_chains_coexist_and_gc_only_their_own_generations() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m0, _, fresh0) = Manifest::open(&disk, "s0-").unwrap();
        let (mut m1, _, fresh1) = Manifest::open(&disk, "s1-").unwrap();
        assert!(fresh0 && fresh1);
        assert_eq!(m0.file(), "s0-manifest-1");
        assert_eq!(m0.current_file(), "s0-CURRENT");
        m0.append(&disk, &[Edit::AddTable(meta(0, 1, 10, 20))]).unwrap();
        m1.append(&disk, &[Edit::AddTable(meta(0, 7, 30, 40))]).unwrap();
        // Rotate shard 0 several times; shard 1's chain must survive.
        for _ in 0..4 {
            let (_, v, _) = Manifest::open(&disk, "s0-").unwrap();
            m0.rotate(&disk, &v).unwrap();
        }
        let files = disk.file_names();
        assert!(files.contains(&m0.file().to_string()));
        assert!(files.contains(&"s1-manifest-1".to_string()), "sibling GC'd: {files:?}");
        assert_eq!(files.iter().filter(|f| f.starts_with("s0-manifest-")).count(), 1);
        let (_, v0, _) = Manifest::open(&disk, "s0-").unwrap();
        let (_, v1, _) = Manifest::open(&disk, "s1-").unwrap();
        assert_eq!(v0.levels[0][0].id, 1);
        assert_eq!(v1.levels[0][0].id, 7);
    }

    #[test]
    fn quarantine_edits_roundtrip_and_die_with_their_table() {
        let disk = SimDisk::new(Duration::ZERO);
        let (mut m, _, _) = Manifest::open(&disk, "").unwrap();
        m.append(
            &disk,
            &[
                Edit::AddTable(meta(0, 1, 10, 20)),
                Edit::AddTable(meta(1, 2, 10, 20)),
                Edit::Quarantine { table: 1, block: 0 },
                Edit::Quarantine { table: 2, block: 1 },
            ],
        )
        .unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(
            v.quarantined.iter().copied().collect::<Vec<_>>(),
            vec![(1, 0), (2, 1)]
        );
        // Unquarantine removes one pair; RemoveTable purges the other.
        m.append(
            &disk,
            &[
                Edit::Unquarantine { table: 2, block: 1 },
                Edit::RemoveTable { id: 1 },
            ],
        )
        .unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert!(v.quarantined.is_empty(), "got {:?}", v.quarantined);
        // Snapshot rotation preserves quarantine state.
        m.append(&disk, &[Edit::Quarantine { table: 2, block: 0 }]).unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        m.rotate(&disk, &v).unwrap();
        let (_, v, _) = Manifest::open(&disk, "").unwrap();
        assert_eq!(v.quarantined.iter().copied().collect::<Vec<_>>(), vec![(2, 0)]);
    }
}
