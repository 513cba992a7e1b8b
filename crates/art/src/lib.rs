//! Adaptive Radix Tree (§2.1, Figure 2.2) and its Compact variant (§2.2).
//!
//! [`Art`] implements the dynamic ART of Leis et al. as the thesis uses it:
//! four adaptive node layouts (Node4/16/48/256), path compression (the full
//! compressed prefix is stored, so no optimistic re-checks are needed) and
//! lazy expansion (single-key subtrees stay collapsed leaves). Keys that
//! are prefixes of other keys are handled with an explicit per-node
//! terminal value rather than a key-terminator byte.
//!
//! [`CompactArt`] applies the Compaction + Structural Reduction rules:
//! every node's size is customized to its exact fanout `n` — the sorted
//! key/child arrays of Layout 1 when `n <= 227`, the 256-slot direct array
//! of Layout 3 otherwise — and all per-node storage is flattened into
//! shared arenas.

#![warn(missing_docs)]

pub mod compact;
pub mod dynamic;

pub use compact::CompactArt;
pub use dynamic::Art;
