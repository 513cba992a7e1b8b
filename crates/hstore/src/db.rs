//! The partition database: tables, index manager, statistics API, and
//! anti-caching.

use crate::index::{MultiIndex, UniqueIndex};
use crate::row::{decode_tuples, encode_key, encode_tuples, row_bytes, Row, Val};
use memtree_btree::BPlusTree;
use memtree_common::error::MemtreeError;
use memtree_compress::{decode_block, encode_block};
use memtree_faults::Faults;
use memtree_hybrid::{HybridBTree, HybridCompressedBTree, SecondaryIndex};
use std::collections::HashMap;
use std::time::Duration;

/// Fault point: transient anti-cache block fetch failure (retried).
pub const FP_ANTICACHE_FETCH: &str = "hstore.anticache.fetch";
/// Fault point: storage corruption of an anti-cache block at eviction
/// time (a byte of the framed image is flipped; the checksum catches it
/// at fetch and the block is quarantined).
pub const FP_ANTICACHE_CORRUPT: &str = "hstore.anticache.corrupt";
/// Fault point: an eviction round aborts before touching any slot.
pub const FP_ANTICACHE_EVICT: &str = "hstore.anticache.evict";

/// Transient-fetch retry budget before the fetch is given up.
const FETCH_MAX_ATTEMPTS: u32 = 3;

/// Which index implementation every index in the database uses — the
/// three configurations of Figures 5.11–5.16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// H-Store's default dynamic B+tree.
    BTree,
    /// Hybrid B+tree.
    Hybrid,
    /// Hybrid-Compressed B+tree.
    HybridCompressed,
}

impl IndexChoice {
    /// Figure-label name.
    pub fn name(&self) -> &'static str {
        match self {
            IndexChoice::BTree => "B+tree",
            IndexChoice::Hybrid => "Hybrid",
            IndexChoice::HybridCompressed => "Hybrid-Compressed",
        }
    }

    /// Creates a unique index of this kind.
    pub fn new_unique(&self) -> UniqueIndex {
        match self {
            IndexChoice::BTree => UniqueIndex::BTree(BPlusTree::new()),
            IndexChoice::Hybrid => UniqueIndex::Hybrid(HybridBTree::new()),
            IndexChoice::HybridCompressed => {
                UniqueIndex::HybridCompressed(HybridCompressedBTree::new())
            }
        }
    }

    /// Creates a non-unique index of this kind.
    pub fn new_multi(&self) -> MultiIndex {
        match self {
            IndexChoice::BTree => MultiIndex::BTree(SecondaryIndex::new()),
            IndexChoice::Hybrid => MultiIndex::Hybrid(SecondaryIndex::new()),
            IndexChoice::HybridCompressed => {
                MultiIndex::HybridCompressed(SecondaryIndex::new())
            }
        }
    }
}

#[derive(Debug)]
enum Slot {
    Present { row: Row, referenced: bool },
    Evicted { block: u32 },
    Free,
}

struct Table {
    name: String,
    slots: Vec<Slot>,
    free: Vec<u32>,
    resident_bytes: usize,
    resident_count: usize,
    evicted_count: usize,
    clock_hand: usize,
}

struct UniqueDef {
    table: usize,
    cols: Vec<usize>,
    index: UniqueIndex,
}

struct MultiDef {
    table: usize,
    cols: Vec<usize>,
    index: MultiIndex,
}

/// One anti-cache block slot.
#[derive(Debug)]
enum BlockState {
    /// A compressed, checksum-framed tuple image (see
    /// [`memtree_compress::encode_block`] and [`crate::row::encode_tuples`]).
    Live(Vec<u8>),
    /// The frame failed checksum validation at fetch time. The block is
    /// kept (never reused) so reads of its tuples keep returning
    /// [`MemtreeError::Quarantined`] instead of wrong data; everything
    /// else keeps serving.
    Quarantined,
    /// Fetched back and available for reuse.
    Free,
}

struct AntiCache {
    threshold_bytes: usize,
    blocks: Vec<BlockState>,
    free_blocks: Vec<u32>,
    fetch_latency: Duration,
    evictions: u64,
    fetches: u64,
    fetch_retries: u64,
    quarantined: u64,
    evict_failures: u64,
    tuples_per_block: usize,
    /// The `hstore.anticache.*` fail points.
    faults: Faults,
}

/// Memory and anti-caching statistics (the Table 1.1 / Figure 5.11 view).
#[derive(Debug, Default, Clone, Copy)]
pub struct DbStats {
    /// Resident tuple bytes.
    pub tuple_bytes: usize,
    /// Bytes across primary (unique) indexes.
    pub primary_index_bytes: usize,
    /// Bytes across secondary indexes.
    pub secondary_index_bytes: usize,
    /// Tuples currently evicted to the anti-cache.
    pub evicted_tuples: usize,
    /// Anti-cache eviction passes.
    pub evictions: u64,
    /// Evicted-tuple fetches (each implies an abort-and-restart).
    pub fetches: u64,
    /// Transient fetch failures that were retried.
    pub fetch_retries: u64,
    /// Blocks quarantined after failing checksum validation.
    pub quarantined_blocks: u64,
    /// Eviction rounds aborted by an injected fault.
    pub evict_failures: u64,
}

impl DbStats {
    /// Resident memory: tuples + all indexes.
    pub fn total(&self) -> usize {
        self.tuple_bytes + self.primary_index_bytes + self.secondary_index_bytes
    }
}

/// A single-partition database.
pub struct Database {
    tables: Vec<Table>,
    names: HashMap<String, usize>,
    uniques: Vec<UniqueDef>,
    unique_names: HashMap<String, usize>,
    multis: Vec<MultiDef>,
    multi_names: HashMap<String, usize>,
    choice: IndexChoice,
    anti: Option<AntiCache>,
}

impl Database {
    /// Creates an empty partition using `choice` for every index.
    pub fn new(choice: IndexChoice) -> Self {
        Self {
            tables: Vec::new(),
            names: HashMap::new(),
            uniques: Vec::new(),
            unique_names: HashMap::new(),
            multis: Vec::new(),
            multi_names: HashMap::new(),
            choice,
            anti: None,
        }
    }

    /// Enables anti-caching: evict cold tuples once **total** resident
    /// memory (tuples + indexes — indexes can never be evicted, which is
    /// why smaller indexes leave more room for hot tuples, §5.4.4) exceeds
    /// `threshold_bytes`. Each un-evicted block fetch charges
    /// `fetch_latency` and models H-Store's abort-and-restart.
    pub fn enable_anticaching(&mut self, threshold_bytes: usize, fetch_latency: Duration) {
        self.anti = Some(AntiCache {
            threshold_bytes,
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            fetch_latency,
            evictions: 0,
            fetches: 0,
            fetch_retries: 0,
            quarantined: 0,
            evict_failures: 0,
            tuples_per_block: 256,
            faults: Faults::default(),
        });
    }

    /// The anti-cache's fail points ([`FP_ANTICACHE_FETCH`],
    /// [`FP_ANTICACHE_EVICT`], [`FP_ANTICACHE_CORRUPT`]); `None` while
    /// anti-caching is off.
    pub fn anticache_faults(&self) -> Option<&Faults> {
        self.anti.as_ref().map(|a| &a.faults)
    }

    /// Registers a table; returns its id.
    pub fn create_table(&mut self, name: &str) -> usize {
        let id = self.tables.len();
        self.tables.push(Table {
            name: name.to_string(),
            slots: Vec::new(),
            free: Vec::new(),
            resident_bytes: 0,
            resident_count: 0,
            evicted_count: 0,
            clock_hand: 0,
        });
        self.names.insert(name.to_string(), id);
        id
    }

    /// Registers a unique index over `cols` of `table`.
    pub fn create_unique_index(&mut self, name: &str, table: usize, cols: &[usize]) -> usize {
        let id = self.uniques.len();
        self.uniques.push(UniqueDef {
            table,
            cols: cols.to_vec(),
            index: self.choice.new_unique(),
        });
        self.unique_names.insert(name.to_string(), id);
        id
    }

    /// Registers a non-unique index over `cols` of `table`.
    pub fn create_multi_index(&mut self, name: &str, table: usize, cols: &[usize]) -> usize {
        let id = self.multis.len();
        self.multis.push(MultiDef {
            table,
            cols: cols.to_vec(),
            index: self.choice.new_multi(),
        });
        self.multi_names.insert(name.to_string(), id);
        id
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> usize {
        self.names[name]
    }

    /// Unique-index id by name.
    pub fn unique_id(&self, name: &str) -> usize {
        self.unique_names[name]
    }

    /// Multi-index id by name.
    pub fn multi_id(&self, name: &str) -> usize {
        self.multi_names[name]
    }

    /// Inserts a row, maintaining all indexes. Returns the slot,
    /// `Ok(None)` on a unique-key violation, or a typed
    /// [`MemtreeError::Schema`] (no index touched) when an indexed column
    /// holds a non-indexable value.
    pub fn insert(&mut self, table: usize, row: Row) -> Result<Option<u64>, MemtreeError> {
        // Encode every index key up front: a schema violation in any of
        // them must reject the insert before a single index is updated.
        let mut unique_keys = Vec::new();
        for (i, def) in self.uniques.iter().enumerate() {
            if def.table == table {
                unique_keys.push((i, encode_key(&row, &def.cols)?));
            }
        }
        let mut multi_keys = Vec::new();
        for (i, def) in self.multis.iter().enumerate() {
            if def.table == table {
                multi_keys.push((i, encode_key(&row, &def.cols)?));
            }
        }
        // Uniqueness next (the hybrid's insert does its own check; probe
        // explicitly so no index is half-updated on failure).
        for (i, key) in &unique_keys {
            if self.uniques[*i].index.get(key).is_some() {
                return Ok(None);
            }
        }
        let t = &mut self.tables[table];
        let slot = match t.free.pop() {
            Some(s) => s as usize,
            None => {
                t.slots.push(Slot::Free);
                t.slots.len() - 1
            }
        };
        t.resident_bytes += row_bytes(&row) + std::mem::size_of::<Slot>();
        t.resident_count += 1;
        for (i, key) in &unique_keys {
            let inserted = self.uniques[*i].index.insert(key, slot as u64);
            debug_assert!(inserted);
        }
        for (i, key) in &multi_keys {
            self.multis[*i].index.insert(key, slot as u64);
        }
        self.tables[table].slots[slot] = Slot::Present {
            row,
            referenced: true,
        };
        self.maybe_evict(table);
        Ok(Some(slot as u64))
    }

    /// Reads a row (cloned), un-evicting it if anti-cached. Marks it
    /// recently used. Fails if the tuple sits in a quarantined or
    /// unfetchable anti-cache block.
    pub fn read(&mut self, table: usize, slot: u64) -> Result<Row, MemtreeError> {
        self.ensure_resident(table, slot)?;
        match &mut self.tables[table].slots[slot as usize] {
            Slot::Present { row, referenced } => {
                *referenced = true;
                Ok(row.clone())
            }
            _ => Err(MemtreeError::corruption(
                "hstore-slot",
                format!("slot {slot} of table {table} is not resident after fetch"),
            )),
        }
    }

    /// Applies `f` to a row in place. Must not modify indexed columns.
    /// Fails (without calling `f`) if the tuple cannot be made resident.
    /// `f` itself is fallible (typed schema errors from the row
    /// accessors); on `Err` the row keeps whatever `f` wrote before
    /// failing, but byte accounting stays exact either way.
    pub fn update<F: FnOnce(&mut Row) -> Result<(), MemtreeError>>(
        &mut self,
        table: usize,
        slot: u64,
        f: F,
    ) -> Result<(), MemtreeError> {
        self.ensure_resident(table, slot)?;
        let t = &mut self.tables[table];
        let Slot::Present { row, referenced } = &mut t.slots[slot as usize] else {
            return Err(MemtreeError::corruption(
                "hstore-slot",
                format!("slot {slot} of table {table} is not resident after fetch"),
            ));
        };
        let before = row_bytes(row);
        let result = f(row);
        *referenced = true;
        let after = row_bytes(row);
        t.resident_bytes = t.resident_bytes + after - before;
        result
    }

    /// Deletes a row by slot, maintaining all indexes. Fails (leaving the
    /// row and indexes untouched) if the tuple cannot be made resident.
    pub fn delete(&mut self, table: usize, slot: u64) -> Result<(), MemtreeError> {
        self.ensure_resident(table, slot)?;
        let t = &mut self.tables[table];
        if !matches!(t.slots[slot as usize], Slot::Present { .. }) {
            return Err(MemtreeError::corruption(
                "hstore-slot",
                format!("slot {slot} of table {table} is not resident after fetch"),
            ));
        }
        let old = std::mem::replace(&mut t.slots[slot as usize], Slot::Free);
        let Slot::Present { row, .. } = old else {
            unreachable!("matched Present above")
        };
        t.resident_bytes -= row_bytes(&row) + std::mem::size_of::<Slot>();
        t.resident_count -= 1;
        t.free.push(slot as u32);
        for def in &mut self.uniques {
            if def.table == table {
                // A row that made it into the index always re-encodes (the
                // insert validated it), so this cannot fail for real rows.
                def.index.remove(&encode_key(&row, &def.cols)?);
            }
        }
        for def in &mut self.multis {
            if def.table == table {
                def.index.remove(&encode_key(&row, &def.cols)?, slot);
            }
        }
        Ok(())
    }

    /// Point lookup through a unique index. A non-indexable probe value
    /// is a typed [`MemtreeError::Schema`], not a panic.
    pub fn get_unique(&self, index: usize, key_vals: &[Val]) -> Result<Option<u64>, MemtreeError> {
        Ok(self.uniques[index]
            .index
            .get(&crate::row::encode_vals(key_vals)?))
    }

    /// All slots under a secondary-index key.
    pub fn get_multi(&self, index: usize, key_vals: &[Val]) -> Result<Vec<u64>, MemtreeError> {
        Ok(self.multis[index]
            .index
            .get(&crate::row::encode_vals(key_vals)?))
    }

    /// Ordered scan of a unique index from `low_vals`, `n` slots.
    pub fn scan_unique(
        &self,
        index: usize,
        low_vals: &[Val],
        n: usize,
    ) -> Result<Vec<u64>, MemtreeError> {
        let mut out = Vec::with_capacity(n);
        self.uniques[index]
            .index
            .scan(&crate::row::encode_vals(low_vals)?, n, &mut out);
        Ok(out)
    }

    /// Keyed range iteration over a unique index.
    pub fn range_unique(
        &self,
        index: usize,
        low_vals: &[Val],
        f: &mut dyn FnMut(&[u8], u64) -> bool,
    ) -> Result<(), MemtreeError> {
        self.uniques[index]
            .index
            .range_from(&crate::row::encode_vals(low_vals)?, f);
        Ok(())
    }

    fn ensure_resident(&mut self, table: usize, slot: u64) -> Result<(), MemtreeError> {
        let Slot::Evicted { block } = self.tables[table].slots[slot as usize] else {
            return Ok(());
        };
        let Some(anti) = self.anti.as_mut() else {
            return Err(MemtreeError::corruption(
                "hstore-anticache",
                format!("slot {slot} of table {table} is evicted but anti-caching is off"),
            ));
        };
        anti.fetches += 1;
        if !anti.fetch_latency.is_zero() {
            let start = std::time::Instant::now();
            while start.elapsed() < anti.fetch_latency {
                std::hint::spin_loop();
            }
        }
        // The simulated storage read is retried on transient failure
        // (injected via `hstore.anticache.fetch`).
        let mut attempt = 1;
        while anti.faults.should_fail(FP_ANTICACHE_FETCH) {
            if attempt >= FETCH_MAX_ATTEMPTS {
                return Err(MemtreeError::Injected {
                    point: FP_ANTICACHE_FETCH.to_string(),
                });
            }
            anti.fetch_retries += 1;
            attempt += 1;
        }
        // Validate the frame before touching any slot. A checksum failure
        // quarantines the block: its tuples stay Evicted and every read
        // of them reports Quarantined instead of serving damaged bytes.
        let tuples = match &anti.blocks[block as usize] {
            BlockState::Live(frame) => decode_block(frame).and_then(|raw| decode_tuples(&raw)),
            BlockState::Quarantined => return Err(MemtreeError::Quarantined { block }),
            BlockState::Free => Err(MemtreeError::corruption(
                "hstore-anticache",
                format!("slot points at freed block {block}"),
            )),
        };
        let tuples = match tuples {
            Ok(t) => t,
            Err(e) if e.is_corruption() => {
                anti.blocks[block as usize] = BlockState::Quarantined;
                anti.quarantined += 1;
                return Err(MemtreeError::Quarantined { block });
            }
            Err(e) => return Err(e),
        };
        // Block-merge policy: restore every tuple in the fetched block.
        anti.blocks[block as usize] = BlockState::Free;
        anti.free_blocks.push(block);
        for (tbl, s, row) in tuples {
            let t = &mut self.tables[tbl as usize];
            t.resident_bytes += row_bytes(&row) + std::mem::size_of::<Slot>();
            t.resident_count += 1;
            t.evicted_count -= 1;
            t.slots[s as usize] = Slot::Present {
                row,
                referenced: true,
            };
        }
        Ok(())
    }

    /// Evicts cold tuples (CLOCK second chance) while over the threshold.
    fn maybe_evict(&mut self, hot_table: usize) {
        let Some(anti) = &self.anti else {
            return;
        };
        // Indexes count against the budget but cannot be evicted.
        let index_bytes: usize = self.uniques.iter().map(|d| d.index.mem_usage()).sum::<usize>()
            + self.multis.iter().map(|d| d.index.mem_usage()).sum::<usize>();
        let tuple_budget = anti.threshold_bytes.saturating_sub(index_bytes);
        let mut resident: usize = self.tables.iter().map(|t| t.resident_bytes).sum();
        if resident <= tuple_budget {
            return;
        }
        let per_block = anti.tuples_per_block;
        // Evict from the largest tables first (the thesis evicts the
        // coldest data DB-wide; per-table CLOCK approximates it).
        while resident > tuple_budget {
            // An eviction round that fails here aborts before any slot or
            // block is touched — memory stays over budget (recorded in
            // `evict_failures`) but no data is lost or half-moved.
            if let Some(anti) = self.anti.as_mut() {
                if anti.faults.should_fail(FP_ANTICACHE_EVICT) {
                    anti.evict_failures += 1;
                    return;
                }
            }
            let victim_table = self
                .tables
                .iter()
                .enumerate()
                .filter(|(i, t)| t.resident_count > 64 || *i != hot_table)
                .max_by_key(|(_, t)| t.resident_bytes)
                .map(|(i, _)| i);
            let Some(tbl) = victim_table else {
                return;
            };
            let mut batch: Vec<(u16, u32, Row)> = Vec::with_capacity(per_block);
            {
                let t = &mut self.tables[tbl];
                if t.resident_count == 0 {
                    return;
                }
                let n = t.slots.len();
                let mut sweeps = 0usize;
                while batch.len() < per_block && sweeps < 2 * n {
                    let i = t.clock_hand % n;
                    t.clock_hand = (t.clock_hand + 1) % n;
                    sweeps += 1;
                    if let Slot::Present { referenced, .. } = &mut t.slots[i] {
                        if *referenced {
                            *referenced = false;
                        } else {
                            let old = std::mem::replace(&mut t.slots[i], Slot::Free);
                            let Slot::Present { row, .. } = old else {
                                unreachable!()
                            };
                            t.resident_bytes -= row_bytes(&row) + std::mem::size_of::<Slot>();
                            t.resident_count -= 1;
                            t.evicted_count += 1;
                            batch.push((tbl as u16, i as u32, row));
                        }
                    }
                }
            }
            if batch.is_empty() {
                return; // everything referenced; give up this round
            }
            let Some(anti) = self.anti.as_mut() else {
                return;
            };
            // Serialize, compress, and checksum-frame the block image.
            let mut frame = encode_block(&encode_tuples(&batch));
            if anti.faults.should_fail(FP_ANTICACHE_CORRUPT) {
                // Simulated storage corruption: damage a payload byte.
                // The CRC catches it at fetch time.
                let at = frame.len() / 2;
                frame[at] ^= 0x40;
            }
            let locs: Vec<(u16, u32)> = batch.iter().map(|(t, s, _)| (*t, *s)).collect();
            anti.evictions += 1;
            let block = match anti.free_blocks.pop() {
                Some(b) => {
                    anti.blocks[b as usize] = BlockState::Live(frame);
                    b
                }
                None => {
                    anti.blocks.push(BlockState::Live(frame));
                    (anti.blocks.len() - 1) as u32
                }
            };
            // Re-point the evicted slots at the block.
            for (tbl2, s) in locs {
                self.tables[tbl2 as usize].slots[s as usize] = Slot::Evicted { block };
            }
            resident = self.tables.iter().map(|t| t.resident_bytes).sum();
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DbStats {
        DbStats {
            tuple_bytes: self.tables.iter().map(|t| t.resident_bytes).sum(),
            primary_index_bytes: self.uniques.iter().map(|d| d.index.mem_usage()).sum(),
            secondary_index_bytes: self.multis.iter().map(|d| d.index.mem_usage()).sum(),
            evicted_tuples: self.tables.iter().map(|t| t.evicted_count).sum(),
            evictions: self.anti.as_ref().map_or(0, |a| a.evictions),
            fetches: self.anti.as_ref().map_or(0, |a| a.fetches),
            fetch_retries: self.anti.as_ref().map_or(0, |a| a.fetch_retries),
            quarantined_blocks: self.anti.as_ref().map_or(0, |a| a.quarantined),
            evict_failures: self.anti.as_ref().map_or(0, |a| a.evict_failures),
        }
    }

    /// Flips `mask` into one byte of a live anti-cache block's frame (test
    /// hook for corruption-detection coverage). Returns the block id that
    /// was damaged, or `None` if no live block exists.
    #[doc(hidden)]
    pub fn corrupt_anticache_block(&mut self, offset: usize, mask: u8) -> Option<u32> {
        let anti = self.anti.as_mut()?;
        for (i, b) in anti.blocks.iter_mut().enumerate() {
            if let BlockState::Live(frame) = b {
                if !frame.is_empty() {
                    let at = offset % frame.len();
                    frame[at] ^= mask;
                    return Some(i as u32);
                }
            }
        }
        None
    }

    /// Length of a live anti-cache block's frame (test hook companion to
    /// [`Self::corrupt_anticache_block`]).
    #[doc(hidden)]
    pub fn anticache_block_len(&self) -> Option<usize> {
        self.anticache_block_frame().map(|f| f.len())
    }

    /// Clone of the first live anti-cache block's framed image (test hook
    /// for exhaustive corruption-detection coverage).
    #[doc(hidden)]
    pub fn anticache_block_frame(&self) -> Option<Vec<u8>> {
        let anti = self.anti.as_ref()?;
        anti.blocks.iter().find_map(|b| match b {
            BlockState::Live(frame) => Some(frame.clone()),
            _ => None,
        })
    }

    /// Per-table (name, resident tuple bytes).
    pub fn table_stats(&self) -> Vec<(String, usize, usize)> {
        self.tables
            .iter()
            .map(|t| (t.name.clone(), t.resident_count, t.resident_bytes))
            .collect()
    }

    /// Worst observed hybrid merge pause across indexes, in ms.
    pub fn max_merge_pause_ms(&self) -> f64 {
        self.uniques
            .iter()
            .map(|d| d.index.last_merge_ms())
            .fold(0.0, f64::max)
    }

    /// Index configuration in use.
    pub fn index_choice(&self) -> IndexChoice {
        self.choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db(choice: IndexChoice) -> Database {
        let mut db = Database::new(choice);
        let t = db.create_table("items");
        db.create_unique_index("items_pk", t, &[0]);
        db.create_multi_index("items_by_cat", t, &[1]);
        db
    }

    #[test]
    fn insert_read_update_delete() {
        for choice in [IndexChoice::BTree, IndexChoice::Hybrid] {
            let mut db = tiny_db(choice);
            let t = db.table_id("items");
            let pk = db.unique_id("items_pk");
            let by_cat = db.multi_id("items_by_cat");
            for i in 0..1000i64 {
                let slot = db.insert(
                    t,
                    vec![Val::I64(i), Val::I64(i % 7), Val::Str(format!("item{i}"))],
                );
                assert!(slot.unwrap().is_some(), "{choice:?} insert {i}");
            }
            // Unique violation.
            assert!(db.insert(t, vec![Val::I64(5), Val::I64(0), Val::Str("dup".into())]).unwrap().is_none());
            // Point read through the PK.
            let slot = db.get_unique(pk, &[Val::I64(123)]).unwrap().unwrap();
            assert_eq!(db.read(t, slot).unwrap()[2].as_str().unwrap(), "item123");
            // Secondary index fans out.
            let cat3 = db.get_multi(by_cat, &[Val::I64(3)]).unwrap();
            assert_eq!(cat3.len(), 1000 / 7 + 1);
            // Update a non-indexed column.
            db.update(t, slot, |row| {
                row[2] = Val::Str("renamed".into());
                Ok(())
            })
            .unwrap();
            assert_eq!(db.read(t, slot).unwrap()[2].as_str().unwrap(), "renamed");
            // Delete maintains both indexes.
            db.delete(t, slot).unwrap();
            assert!(db.get_unique(pk, &[Val::I64(123)]).unwrap().is_none());
            assert!(!db.get_multi(by_cat, &[Val::I64(123 % 7)]).unwrap().contains(&slot));
        }
    }

    #[test]
    fn stats_reflect_indexes() {
        let mut db = tiny_db(IndexChoice::BTree);
        let t = db.table_id("items");
        for i in 0..5000i64 {
            db.insert(t, vec![Val::I64(i), Val::I64(i % 3), Val::Str("x".repeat(40))]).unwrap();
        }
        let s = db.stats();
        assert!(s.tuple_bytes > 0);
        assert!(s.primary_index_bytes > 0);
        assert!(s.secondary_index_bytes > 0);
        assert!(s.total() > s.tuple_bytes);
    }

    #[test]
    fn anticaching_evicts_and_fetches() {
        let mut db = tiny_db(IndexChoice::BTree);
        db.enable_anticaching(400 << 10, Duration::ZERO);
        let t = db.table_id("items");
        let pk = db.unique_id("items_pk");
        for i in 0..20_000i64 {
            db.insert(t, vec![Val::I64(i), Val::I64(i % 3), Val::Str("y".repeat(30))]).unwrap();
        }
        let s = db.stats();
        assert!(s.evicted_tuples > 0, "nothing evicted");
        assert!(s.tuple_bytes <= 500 << 10, "resident {}", s.tuple_bytes);
        // Reading a cold tuple fetches it back.
        let slot = db.get_unique(pk, &[Val::I64(10)]).unwrap().unwrap();
        let row = db.read(t, slot).unwrap();
        assert_eq!(row[0].as_i64().unwrap(), 10);
        let s2 = db.stats();
        assert!(s2.fetches >= 1 || s.evicted_tuples > s2.evicted_tuples);
    }
}
