//! # memtree
//!
//! The assembled public API of the *memtree* workspace — a from-scratch
//! reproduction of **"Memory-Efficient Search Trees for Database
//! Management Systems"** (Huanchen Zhang). The thesis's recipe has four
//! steps, each a module family here:
//!
//! 1. **Dynamic-to-Static compaction** (Ch. 2) — [`trees`] pairs four
//!    dynamic search trees (B+tree, Masstree, Skip List, ART) with their
//!    Compact variants built by the D-to-S rules, plus the block-compressed
//!    B+tree of the Compression rule.
//! 2. **Succinct tries** (Ch. 3) — [`fst`]: the Fast Succinct Trie
//!    (LOUDS-Dense + LOUDS-Sparse) within ~10 bits/node of the
//!    information-theoretic bound at pointer-tree speed.
//! 3. **Range filtering** (Ch. 4) — [`surf`]: the Succinct Range Filter
//!    with hashed/real/mixed suffixes, plus [`filters`] (Bloom, ARF) and
//!    [`lsm`], a mini-RocksDB to exercise them end to end.
//! 4. **Dynamism back** (Ch. 5) — [`hybrid`]: the dual-stage hybrid index
//!    with ratio-bounded merges; [`hstore`], a mini H-Store running TPC-C,
//!    Voter and Articles with pluggable indexes and anti-caching.
//! 5. **Key compression** (Ch. 6) — [`hope`]: the High-speed
//!    Order-Preserving Encoder with six entropy schemes, applicable to any
//!    of the trees above.
//!
//! `DESIGN.md` has the system inventory and `EXPERIMENTS.md` the reproduced
//! results.
//!
//! ## Quick start
//!
//! ```
//! use memtree::prelude::*;
//!
//! // A compact static tree built from sorted entries…
//! let entries: Vec<(Vec<u8>, u64)> =
//!     (0..1000u64).map(|i| (i.to_be_bytes().to_vec(), i)).collect();
//! let fst = Fst::build(&entries);
//! assert_eq!(fst.get(&42u64.to_be_bytes()), Some(42));
//!
//! // …a range filter over the same keys…
//! let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
//! let surf = Surf::from_keys(&keys, SuffixConfig::Real(8));
//! assert!(surf.may_contain(&42u64.to_be_bytes()));
//!
//! // …and a hybrid index that stays writable.
//! let mut hybrid = HybridBTree::new();
//! for (k, v) in &entries {
//!     hybrid.insert(k, *v);
//! }
//! assert_eq!(hybrid.get(&42u64.to_be_bytes()), Some(42));
//! ```

#![warn(missing_docs)]

/// Shared traits, key utilities, hashing, memory accounting.
pub mod common {
    pub use memtree_common::*;
}

/// Bit vectors, rank/select, LOUDS primitives.
pub mod succinct {
    pub use memtree_succinct::*;
}

/// The block codec used by the Compression rule.
pub mod compress {
    pub use memtree_compress::*;
}

/// The four dynamic trees and their Compact (D-to-S) variants.
pub mod trees {
    pub use memtree_art::{Art, CompactArt};
    pub use memtree_btree::{BPlusTree, CompactBTree, CompressedBTree, PrefixBTree};
    pub use memtree_masstree::{CompactMasstree, Masstree};
    pub use memtree_patricia::CritBitTrie;
    pub use memtree_skiplist::{CompactSkipList, SkipList};
}

/// The Fast Succinct Trie and its baselines.
pub mod fst {
    pub use memtree_fst::*;
}

/// The Succinct Range Filter.
pub mod surf {
    pub use memtree_surf::*;
}

/// Bloom filter, dynamic Bloom filter, ARF.
pub mod filters {
    pub use memtree_filters::*;
}

/// The dual-stage hybrid index.
pub mod hybrid {
    pub use memtree_hybrid::*;
}

/// The High-speed Order-Preserving Encoder.
pub mod hope {
    pub use memtree_hope::*;
}

/// The mini LSM engine (RocksDB-style).
pub mod lsm {
    pub use memtree_lsm::*;
}

/// The mini H-Store with TPC-C/Voter/Articles.
pub mod hstore {
    pub use memtree_hstore::*;
}

/// YCSB and dataset generators.
pub mod workload {
    pub use memtree_workload::*;
}

/// The names most programs need.
pub mod prelude {
    pub use memtree_common::key::{decode_u64, encode_u64};
    pub use memtree_common::traits::{
        OrderedIndex, PointFilter, RangeFilter, StaticIndex, Value,
    };
    pub use memtree_filters::{Arf, BloomFilter, DynamicBloom};
    pub use memtree_fst::{Fst, LoudsTrie, TrieOpts};
    pub use memtree_hope::{Hope, HopeIndex, Scheme};
    pub use memtree_hybrid::{
        DualStage, HybridArt, HybridBTree, HybridCompressedBTree, HybridMasstree,
        HybridSkipList, MergeTrigger, SecondaryIndex,
    };
    pub use memtree_surf::{SuffixConfig, Surf};
}
