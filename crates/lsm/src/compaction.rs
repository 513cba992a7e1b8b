//! Compaction policies: leveled (read-optimized) and tiered
//! (write-optimized) level shapes, as one plain [`CompactionConfig`] value.
//!
//! Every decision that differs between the two shapes is a method on the
//! enum, and nothing outside this module matches on it:
//!
//! * **when** a level must compact (`level_limit`),
//! * **which** levels are key-ordered and disjoint (`disjoint`), which
//!   decides how reads route into a level, how a merge chunks its output,
//!   and how a level is ordered (`order`), and
//! * **what** one merge consumes (`pick`: the victims at the triggering
//!   level plus the overlapped tables one level down, as the `Arc`s the
//!   merge reads).
//!
//! **Leveled** keeps the classic invariant: levels ≥ 1 are key-sorted and
//! disjoint, every merge rewrites the overlap below, reads touch at most
//! one table per deep level. **Tiered** trades read amplification for
//! write amplification: a full level merges into a *single* new run
//! appended to the level below, nothing below is rewritten, and deep
//! levels hold overlapping age-ordered runs that reads scan newest-first
//! exactly like L0.
//!
//! The engine drives the merges (`Db::compact_debt` and the
//! `compact_on_flush` loop in `db.rs`); the value itself is `Copy`, so a
//! read view, a snapshot's table set and a merge each carry their own.
//! The chosen policy is recorded in the manifest (an `Edit::Policy`
//! transaction) so a database reopens under the policy that shaped its
//! levels — opening tiered levels with leveled read paths would violate
//! the disjointness the leveled paths assume.

use crate::sstable::SsTable;
use memtree_common::error::{MemtreeError, Result};
use std::borrow::Borrow;
use std::sync::Arc;

/// Which compaction strategy shapes the LSM levels. Chosen in
/// [`DbOptions`](crate::DbOptions), persisted in the manifest; on reopen
/// the persisted policy wins over the options (the on-disk shape was built
/// by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionConfig {
    /// Key-sorted disjoint levels; level `L ≥ 1` holds `l1_tables ×
    /// fanout^(L-1)` tables. `fanout: 10` reproduces the engine's
    /// original hard-coded behaviour exactly.
    Leveled {
        /// Per-level size multiplier.
        fanout: usize,
    },
    /// Age-ordered overlapping runs; each level holds at most
    /// `tiers_per_level` runs and a full level merges into one new run
    /// appended below (no rewrite of existing runs).
    Tiered {
        /// Max runs a level accumulates before merging down.
        tiers_per_level: usize,
    },
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig::Leveled { fanout: 10 }
    }
}

/// Manifest wire tags for [`CompactionConfig`].
const POLICY_LEVELED: u8 = 0;
const POLICY_TIERED: u8 = 1;

impl CompactionConfig {
    /// `(kind, param)` pair for the manifest's `Policy` edit.
    pub(crate) fn encode(&self) -> (u8, u32) {
        match *self {
            CompactionConfig::Leveled { fanout } => (POLICY_LEVELED, fanout as u32),
            CompactionConfig::Tiered { tiers_per_level } => {
                (POLICY_TIERED, tiers_per_level as u32)
            }
        }
    }

    /// Decodes a manifest `Policy` edit; unknown kinds and degenerate
    /// parameters are typed corruption (a future policy this build cannot
    /// honor must fail the open, not silently misread the levels).
    pub(crate) fn decode(kind: u8, param: u32) -> Result<Self> {
        if param == 0 {
            return Err(MemtreeError::corruption(
                "manifest",
                "compaction policy with zero parameter",
            ));
        }
        match kind {
            POLICY_LEVELED => Ok(CompactionConfig::Leveled {
                fanout: param as usize,
            }),
            POLICY_TIERED => Ok(CompactionConfig::Tiered {
                tiers_per_level: param as usize,
            }),
            k => Err(MemtreeError::corruption(
                "manifest",
                format!("unknown compaction policy kind {k}"),
            )),
        }
    }

    /// Max tables `level` may hold before it must compact: `l0_tables` at
    /// level 0; below it `l1_tables × fanout^(level-1)` under leveled and
    /// `tiers_per_level` runs under tiered.
    pub(crate) fn level_limit(&self, level: usize, l0_tables: usize, l1_tables: usize) -> usize {
        match *self {
            _ if level == 0 => l0_tables,
            CompactionConfig::Leveled { fanout } => l1_tables * fanout.max(1).pow(level as u32 - 1),
            CompactionConfig::Tiered { tiers_per_level } => tiers_per_level.max(1),
        }
    }

    /// True when `level` holds key-ordered, disjoint tables: a read finds
    /// the one table a key can lie in by `partition_point`, and a merge
    /// into the level re-chunks its output into fixed-size tables. False
    /// for level 0 and every tiered level, whose overlapping runs stay in
    /// age order (newest last), are read newest-first, and take a merge as
    /// one more run.
    pub(crate) fn disjoint(&self, level: usize) -> bool {
        level >= 1 && matches!(self, CompactionConfig::Leveled { .. })
    }

    /// Restores `level`'s order after tables joined it or were rebuilt in
    /// place: key order for a disjoint level; an overlapping level keeps
    /// its age order.
    pub(crate) fn order<T: Borrow<SsTable>>(&self, level: usize, tables: &mut [T]) {
        if self.disjoint(level) {
            tables.sort_by(|a, b| a.borrow().min_key().cmp(b.borrow().min_key()));
        }
    }

    /// What one merge at `level` consumes, as `(victims, overlapped)`:
    /// `levels[level]` holds at least one table and `levels[level + 1]`
    /// exists (possibly empty). An overlapping level gives up all of its runs
    /// (L0's overlapping flushes merge wholesale), a disjoint one its
    /// first table. A disjoint output level also gives up the tables the
    /// victims' key span overlaps, which the merge rewrites; an
    /// overlapping one gives up nothing and takes the merge as its newest
    /// run. Both lists keep their level's order.
    pub(crate) fn pick(
        &self,
        levels: &[Vec<Arc<SsTable>>],
        level: usize,
    ) -> (Vec<Arc<SsTable>>, Vec<Arc<SsTable>>) {
        let victims = if self.disjoint(level) {
            levels[level][..1].to_vec()
        } else {
            levels[level].clone()
        };
        if !self.disjoint(level + 1) {
            return (victims, Vec::new());
        }
        let lo = victims.iter().map(|t| t.min_key()).min().unwrap();
        let hi = victims.iter().map(|t| t.max_key.as_slice()).max().unwrap();
        let overlapped = levels[level + 1]
            .iter()
            .filter(|t| t.overlaps(lo, hi))
            .cloned()
            .collect();
        (victims, overlapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use crate::run::EntryRef;
    use crate::FilterKind;
    use std::time::Duration;

    #[test]
    fn config_wire_roundtrip_and_bad_tags() {
        for cfg in [
            CompactionConfig::Leveled { fanout: 10 },
            CompactionConfig::Leveled { fanout: 3 },
            CompactionConfig::Tiered { tiers_per_level: 4 },
        ] {
            let (k, p) = cfg.encode();
            assert_eq!(CompactionConfig::decode(k, p).unwrap(), cfg);
        }
        assert!(CompactionConfig::decode(9, 4).is_err(), "unknown kind");
        assert!(CompactionConfig::decode(0, 0).is_err(), "zero parameter");
    }

    #[test]
    fn leveled_limits_match_the_original_hardcoded_geometry() {
        let p = CompactionConfig::Leveled { fanout: 10 };
        assert_eq!(p.level_limit(0, 4, 4), 4);
        assert_eq!(p.level_limit(1, 4, 4), 4);
        assert_eq!(p.level_limit(2, 4, 4), 40);
        assert_eq!(p.level_limit(3, 4, 4), 400);
        assert!(!p.disjoint(0));
        assert!(p.disjoint(1) && p.disjoint(3));
    }

    #[test]
    fn tiered_limits_are_flat_runs_per_level() {
        let p = CompactionConfig::Tiered { tiers_per_level: 3 };
        assert_eq!(p.level_limit(0, 4, 4), 4);
        assert_eq!(p.level_limit(1, 4, 4), 3);
        assert_eq!(p.level_limit(5, 4, 4), 3);
        assert!((0..6).all(|d| !p.disjoint(d)));
    }

    /// A table with id `id` holding the keys `lo..=hi` (one block each).
    fn table(disk: &SimDisk, id: u64, lo: u8, hi: u8) -> Arc<SsTable> {
        let keys: Vec<[u8; 1]> = (lo..=hi).map(|k| [k]).collect();
        let entries: Vec<EntryRef<'_>> = keys.iter().map(|k| (&k[..], Some(&b"v"[..]))).collect();
        Arc::new(SsTable::build(id, disk, entries.iter().copied(), 4096, &FilterKind::None).unwrap())
    }

    fn ids(tables: &[Arc<SsTable>]) -> Vec<u64> {
        tables.iter().map(|t| t.id).collect()
    }

    #[test]
    fn pick_takes_the_victims_and_only_the_overlap_below() {
        let disk = SimDisk::new(Duration::ZERO);
        let levels = vec![
            // L0, newest last: overlapping flushes spanning [20, 45].
            vec![table(&disk, 1, 30, 45), table(&disk, 2, 20, 35)],
            // L1, key-ordered and disjoint.
            vec![
                table(&disk, 3, 0, 9),
                table(&disk, 4, 10, 25),
                table(&disk, 5, 40, 50),
                table(&disk, 6, 60, 70),
            ],
            // L2, key-ordered and disjoint.
            vec![table(&disk, 7, 0, 4), table(&disk, 8, 5, 12), table(&disk, 9, 13, 80)],
        ];
        let leveled = CompactionConfig::Leveled { fanout: 10 };
        // L0: all of L0, plus only the L1 tables overlapping [20, 45].
        let (victims, overlapped) = leveled.pick(&levels, 0);
        assert_eq!((ids(&victims), ids(&overlapped)), (vec![1, 2], vec![4, 5]));
        // Deeper: L1's first table [0, 9], plus the L2 tables it overlaps.
        let (victims, overlapped) = leveled.pick(&levels, 1);
        assert_eq!((ids(&victims), ids(&overlapped)), (vec![3], vec![7, 8]));
        // Tiered: the whole level, and nothing below, at every depth.
        let tiered = CompactionConfig::Tiered { tiers_per_level: 3 };
        for (level, whole) in [(0, vec![1, 2]), (1, vec![3, 4, 5, 6])] {
            let (victims, overlapped) = tiered.pick(&levels, level);
            assert_eq!((ids(&victims), ids(&overlapped)), (whole, vec![]));
        }
        // The picks are the level's own tables, not copies.
        assert!(Arc::ptr_eq(&leveled.pick(&levels, 1).0[0], &levels[1][0]));
    }

    #[test]
    fn order_sorts_only_disjoint_levels() {
        let disk = SimDisk::new(Duration::ZERO);
        let level = || vec![table(&disk, 1, 40, 50), table(&disk, 2, 0, 9)];
        let leveled = CompactionConfig::Leveled { fanout: 10 };
        let tiered = CompactionConfig::Tiered { tiers_per_level: 3 };
        for (policy, depth, want) in [
            (leveled, 1, vec![2, 1]),
            (leveled, 0, vec![1, 2]),
            (tiered, 1, vec![1, 2]),
        ] {
            let mut tables = level();
            policy.order(depth, &mut tables);
            assert_eq!(ids(&tables), want, "{policy:?} at level {depth}");
        }
    }
}
