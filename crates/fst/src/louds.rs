//! The LOUDS-DS encoding engine: builder, point lookup, and the navigation
//! primitives shared by the iterator and SuRF.

use memtree_common::error::{MemtreeError, Result};
use memtree_common::mem::vec_bytes;
use memtree_succinct::kernels::{find_byte, prefetch_read};
use memtree_succinct::{BitVector, RankSupport, SelectSupport};

/// Options controlling the encoding and the §3.6 optimizations; each knob
/// exists so Figure 3.6/3.7 can ablate it.
#[derive(Debug, Clone, Copy)]
pub struct TrieOpts {
    /// SuRF-style truncation: cut each single-key subtree at its first
    /// distinguishing byte instead of storing the whole key.
    pub truncate: bool,
    /// Dense/sparse size ratio `R` (§3.4). `None` = all LOUDS-Sparse;
    /// `Some(0)` = all LOUDS-Dense. `Some(r)` is a floor: the builder keeps
    /// at least the dense levels whose bitmaps stay within `1/r` of the
    /// sparse levels below them (the thesis's rule; `Some(64)` is its
    /// default), and more while each one makes the trie smaller.
    pub r_ratio: Option<usize>,
    /// Dense rank LUT with B = 64 (one popcount per rank); `false` falls
    /// back to B = 512 everywhere (the Poppy-style baseline).
    pub rank_opt: bool,
    /// Sampled select LUT (S = 64), skipping from the sample through the
    /// LOUDS-Sparse rank LUT's blocks; `false` uses binary search over the
    /// rank LUT.
    pub select_opt: bool,
    /// 8-byte-SWAR label comparison in LOUDS-Sparse nodes ("SIMD" in the
    /// thesis); `false` compares byte-by-byte.
    pub simd_labels: bool,
    /// Prefetch the corresponding positions of sibling sequences once a
    /// search position is known (§3.6). No-op on non-x86_64 targets.
    pub prefetch: bool,
}

impl Default for TrieOpts {
    fn default() -> Self {
        Self {
            truncate: false,
            r_ratio: Some(64),
            rank_opt: true,
            select_opt: true,
            simd_labels: true,
            prefetch: true,
        }
    }
}

impl TrieOpts {
    /// The unoptimized baseline of Figure 3.6: LOUDS-Sparse only, 512-bit
    /// rank blocks, select via rank binary search, per-byte label search.
    pub fn baseline() -> Self {
        Self {
            truncate: false,
            r_ratio: None,
            rank_opt: false,
            select_opt: false,
            simd_labels: false,
            prefetch: false,
        }
    }

    /// SuRF's defaults: truncation on, all FST optimizations on.
    pub fn surf() -> Self {
        Self {
            truncate: true,
            ..Self::default()
        }
    }
}

/// Issues a best-effort cache-line prefetch (x86_64 only).
#[inline(always)]
fn prefetch_ptr<T>(p: *const T) {
    prefetch_read(p);
}

/// Per-key cursor used by [`LoudsTrie::lookup_batch`]: where one key of
/// the batch currently sits in its level-synchronous descent.
#[derive(Clone, Copy)]
enum BatchCursor {
    /// Descending the LOUDS-Dense levels at this global node id.
    Dense {
        /// Global dense node id.
        node: usize,
    },
    /// Descending the LOUDS-Sparse levels at this local sparse node id.
    Sparse {
        /// Sparse node id (global id minus `dense_node_count`).
        node: usize,
    },
    /// Resolved; carries the final answer.
    Done(LookupResult),
}

/// Result of a point lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The key (or, in truncated tries, a candidate) was found.
    Found {
        /// Level-ordered value slot.
        value_idx: usize,
        /// Number of key bytes the trie consumed (the stored prefix
        /// length) — SuRF extracts suffix bits from this offset.
        depth: usize,
    },
    /// Definitely absent.
    NotFound,
}

/// Heap bytes of a [`LoudsTrie`] by part ([`LoudsTrie::mem_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieMemStats {
    /// `D-Labels`, `D-HasChild` and `D-IsPrefixKey`.
    pub dense_bitmaps: usize,
    /// The rank LUTs over the three dense bitmaps, each at 16-bit entries
    /// when its bitmap's ones fit in them and 32-bit entries otherwise.
    pub dense_rank: usize,
    /// `S-Labels`.
    pub sparse_labels: usize,
    /// `S-HasChild` and `S-LOUDS`.
    pub sparse_bitmaps: usize,
    /// The rank LUTs over `S-HasChild` and `S-LOUDS`, and the select
    /// samples over `S-LOUDS`, each at 16-bit entries when its largest
    /// entry fits in them and 32-bit entries otherwise.
    pub sparse_rank_select: usize,
    /// The per-level node boundaries.
    pub level_starts: usize,
}

impl TrieMemStats {
    /// The sum of the parts: the trie's heap bytes.
    pub fn total(&self) -> usize {
        self.dense_bitmaps
            + self.dense_rank
            + self.sparse_labels
            + self.sparse_bitmaps
            + self.sparse_rank_select
            + self.level_starts
    }
}

// ---------------------------------------------------------------------------
// Intermediate (build-time) trie
// ---------------------------------------------------------------------------

enum Branch {
    /// Terminal branch: value slot for key `key_idx`.
    Terminal(u32),
    /// Branch continues into the node queued at BFS order `child_seq`.
    Child,
}

struct BuildNode {
    /// Key index whose key ends exactly at this node.
    prefix_key: Option<u32>,
    branches: Vec<(u8, Branch)>,
}

// ---------------------------------------------------------------------------
// LoudsTrie
// ---------------------------------------------------------------------------

/// A trie encoded with LOUDS-Dense (upper levels) + LOUDS-Sparse (lower
/// levels). Stores no values itself — lookups return level-ordered value
/// slots that `Fst`/`SuRF` index into their own arrays.
#[derive(Debug)]
pub struct LoudsTrie {
    pub(crate) opts: TrieOpts,

    // ---- LOUDS-Dense ----
    pub(crate) d_labels: BitVector,
    pub(crate) d_has_child: BitVector,
    pub(crate) d_is_prefix: BitVector,
    pub(crate) d_labels_rank: RankSupport,
    pub(crate) d_has_child_rank: RankSupport,
    pub(crate) d_is_prefix_rank: RankSupport,
    /// Number of levels encoded densely.
    pub(crate) dense_levels: usize,
    pub(crate) dense_node_count: usize,
    pub(crate) dense_child_count: usize,
    pub(crate) dense_value_count: usize,

    // ---- LOUDS-Sparse ----
    pub(crate) s_labels: Vec<u8>,
    pub(crate) s_has_child: BitVector,
    pub(crate) s_louds: BitVector,
    pub(crate) s_has_child_rank: RankSupport,
    pub(crate) s_louds_rank: RankSupport,
    pub(crate) s_louds_select: SelectSupport,

    // ---- metadata ----
    /// Value slot of the empty key, if stored (always slot 0).
    pub(crate) empty_key: bool,
    /// `level_node_starts[l]` = first global node id at level `l`, plus a
    /// sentinel `num_nodes` at the end. Strictly rising: every level holds
    /// at least one node.
    pub(crate) level_node_starts: Vec<usize>,
    pub(crate) height: usize,
    pub(crate) num_nodes: usize,
    pub(crate) num_values: usize,
}

impl LoudsTrie {
    /// Builds the trie over sorted, duplicate-free keys. Also returns the
    /// leaf order, `order[value_idx] = index into keys`, so the caller can
    /// place its per-key payload in value-slot order; the trie keeps no
    /// copy of it.
    pub fn build(keys: &[&[u8]], opts: TrieOpts) -> (Self, Vec<u32>) {
        let builder = Builder::new(keys, opts);
        let (_, cut) = builder.cutoffs();
        builder.finish(cut)
    }

    /// Builds with the dense/sparse cut at level `cut` (capped at the
    /// height) instead of the chosen one. Only the encoding depends on the
    /// cut: keys, value slots and every answer stay the same, which the
    /// differential tests check at every cut.
    #[cfg(any(test, feature = "test-cuts"))]
    pub fn build_at_cut(keys: &[&[u8]], opts: TrieOpts, cut: usize) -> (Self, Vec<u32>) {
        let builder = Builder::new(keys, opts);
        let cut = cut.min(builder.levels.len());
        builder.finish(cut)
    }

    /// The cut §3.4's `R` rule alone picks for these keys: the fewest
    /// dense levels [`LoudsTrie::build`] keeps.
    #[cfg(any(test, feature = "test-cuts"))]
    pub fn r_rule_cut(keys: &[&[u8]], opts: TrieOpts) -> usize {
        Builder::new(keys, opts).cutoffs().0
    }

    /// Total trie nodes (including dense levels).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total value slots.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Trie height (number of levels).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of levels encoded as LOUDS-Dense (the cut).
    pub fn dense_levels(&self) -> usize {
        self.dense_levels
    }

    /// Heap bytes of the encoding (bit vectors, LUTs, labels).
    pub fn mem_usage(&self) -> usize {
        self.mem_stats().total()
    }

    /// Heap bytes of the encoding by part; they sum to
    /// [`LoudsTrie::mem_usage`].
    pub fn mem_stats(&self) -> TrieMemStats {
        TrieMemStats {
            dense_bitmaps: self.d_labels.mem_usage()
                + self.d_has_child.mem_usage()
                + self.d_is_prefix.mem_usage(),
            dense_rank: self.d_labels_rank.mem_usage()
                + self.d_has_child_rank.mem_usage()
                + self.d_is_prefix_rank.mem_usage(),
            sparse_labels: vec_bytes(&self.s_labels),
            sparse_bitmaps: self.s_has_child.mem_usage() + self.s_louds.mem_usage(),
            sparse_rank_select: self.s_has_child_rank.mem_usage()
                + self.s_louds_rank.mem_usage()
                + self.s_louds_select.mem_usage(),
            level_starts: vec_bytes(&self.level_node_starts),
        }
    }

    // ------------------------------------------------------------------
    // Rank helpers (inclusive & exclusive)
    // ------------------------------------------------------------------

    /// Terminal-value slots strictly before dense position `pos`, plus
    /// prefix-key slots of nodes before `node(pos)`; `include_own_prefix`
    /// additionally counts `node(pos)`'s prefix slot (which sits before all
    /// of its labels).
    #[inline]
    fn d_values_before(&self, pos: usize, include_own_prefix: bool) -> usize {
        let node = pos / 256;
        let labels = self.d_labels_rank.rank1_excl(&self.d_labels, pos);
        let children = self.d_has_child_rank.rank1_excl(&self.d_has_child, pos);
        let prefixes = if include_own_prefix && node < self.dense_node_count {
            self.d_is_prefix_rank.rank1(&self.d_is_prefix, node)
        } else {
            self.d_is_prefix_rank.rank1_excl(&self.d_is_prefix, node)
        };
        labels - children + prefixes
    }

    /// Value slots strictly before sparse position `pos` (global slot id).
    #[inline]
    fn s_values_before(&self, pos: usize) -> usize {
        self.dense_value_count + pos - self.s_has_child_rank.rank1_excl(&self.s_has_child, pos)
    }

    /// Value slot of the terminal branch at dense position `pos`.
    #[inline]
    pub(crate) fn d_value_idx(&self, pos: usize) -> usize {
        self.value_offset() + self.d_values_before(pos, true)
    }

    /// Value slot of the prefix key of dense node `node`.
    #[inline]
    pub(crate) fn d_prefix_value_idx(&self, node: usize) -> usize {
        self.value_offset() + self.d_values_before(node * 256, false)
    }

    /// Value slot of the value (terminal or 0xFF special) at sparse `pos`.
    #[inline]
    pub(crate) fn s_value_idx(&self, pos: usize) -> usize {
        self.value_offset() + self.s_values_before(pos)
    }

    #[inline]
    fn value_offset(&self) -> usize {
        usize::from(self.empty_key)
    }

    // ------------------------------------------------------------------
    // Navigation
    // ------------------------------------------------------------------

    /// Global child node id of the branch at dense position `pos`
    /// (requires `d_has_child[pos]`).
    #[inline]
    pub(crate) fn d_child_node(&self, pos: usize) -> usize {
        self.d_has_child_rank.rank1(&self.d_has_child, pos)
    }

    /// Global child node id of the branch at sparse position `pos`.
    #[inline]
    pub(crate) fn s_child_node(&self, pos: usize) -> usize {
        self.dense_child_count + self.s_has_child_rank.rank1(&self.s_has_child, pos)
    }

    /// First `s_labels` position of sparse-local node `k` (0-based).
    #[inline]
    pub(crate) fn s_node_start(&self, k: usize) -> usize {
        if self.opts.select_opt {
            self.s_louds_select
                .select1_ranked(&self.s_louds, &self.s_louds_rank, k + 1)
        } else {
            SelectSupport::select1_via_rank(&self.s_louds, &self.s_louds_rank, k + 1)
        }
    }

    /// One-past-the-last `s_labels` position of the node starting at
    /// `start`.
    #[inline]
    pub(crate) fn s_node_end(&self, start: usize) -> usize {
        let words = self.s_louds.words();
        let mut pos = start + 1;
        while pos < self.s_louds.len() {
            let w = words[pos / 64] >> (pos % 64);
            if w != 0 {
                return (pos + w.trailing_zeros() as usize).min(self.s_louds.len());
            }
            pos = (pos / 64 + 1) * 64;
        }
        self.s_louds.len()
    }

    /// Is the sparse position a 0xFF *prefix-key marker* (as opposed to a
    /// real 0xFF label)? Special iff it starts a node that has more labels.
    #[inline]
    pub(crate) fn s_is_special(&self, pos: usize) -> bool {
        self.s_labels[pos] == 0xFF
            && !self.s_has_child.get(pos)
            && self.s_louds.get(pos)
            && pos + 1 < self.s_louds.len()
            && !self.s_louds.get(pos + 1)
    }

    /// Searches the sparse node `[start, end)` for `byte`; returns its
    /// position. Skips the 0xFF special at `start` if present.
    #[inline]
    pub(crate) fn s_find_label(&self, start: usize, end: usize, byte: u8) -> Option<usize> {
        let mut s = start;
        if self.s_is_special(s) {
            s += 1;
        }
        if self.opts.simd_labels {
            // Word-parallel label compare: SSE2 (16 labels/cmp) when the
            // CPU has it, 8-byte SWAR otherwise; `find_byte` itself routes
            // small nodes (>90% of them, §3.6) through the plain loop where
            // the vector setup wouldn't pay off.
            find_byte(&self.s_labels[s..end], byte).map(|i| s + i)
        } else {
            (s..end).find(|&p| self.s_labels[p] == byte)
        }
    }

    /// Position of the smallest label `>= byte` in the sparse node
    /// `[start, end)` (skipping the special marker).
    #[inline]
    pub(crate) fn s_find_label_ge(&self, start: usize, end: usize, byte: u8) -> Option<usize> {
        let mut s = start;
        if self.s_is_special(s) {
            s += 1;
        }
        (s..end).find(|&p| self.s_labels[p] >= byte)
    }

    /// First set label position in dense node `node` at or after label
    /// `from`.
    #[inline]
    pub(crate) fn d_find_label_ge(&self, node: usize, from: u16) -> Option<usize> {
        if from > 255 {
            return None;
        }
        let base = node * 256;
        let words = self.d_labels.words();
        let mut pos = base + from as usize;
        let limit = base + 256;
        while pos < limit {
            let w = words[pos / 64] >> (pos % 64);
            if w != 0 {
                let cand = pos + w.trailing_zeros() as usize;
                return (cand < limit).then_some(cand);
            }
            pos = (pos / 64 + 1) * 64;
        }
        None
    }

    // ------------------------------------------------------------------
    // Point lookup (Algorithm 1)
    // ------------------------------------------------------------------

    /// Point query. In truncated (SuRF) tries, reaching a terminal branch
    /// is a *candidate* match — callers verify with suffix bits.
    pub fn lookup(&self, key: &[u8]) -> LookupResult {
        if self.num_values == 0 {
            return LookupResult::NotFound;
        }
        if key.is_empty() {
            return if self.empty_key {
                LookupResult::Found {
                    value_idx: 0,
                    depth: 0,
                }
            } else {
                LookupResult::NotFound
            };
        }
        if self.num_nodes == 0 {
            return LookupResult::NotFound;
        }
        let mut level = 0usize;
        let mut node = 0usize; // global node id
        // ---- dense levels ----
        while level < self.dense_levels {
            if level == key.len() {
                return if self.d_is_prefix.get(node) {
                    LookupResult::Found {
                        value_idx: self.d_prefix_value_idx(node),
                        depth: level,
                    }
                } else {
                    LookupResult::NotFound
                };
            }
            let pos = node * 256 + key[level] as usize;
            if self.opts.prefetch {
                prefetch_ptr(unsafe { self.d_has_child.words().as_ptr().add(pos / 64) });
            }
            if !self.d_labels.get(pos) {
                return LookupResult::NotFound;
            }
            if !self.d_has_child.get(pos) {
                // Terminal: exact in full tries, candidate in truncated.
                return if self.opts.truncate || key.len() == level + 1 {
                    LookupResult::Found {
                        value_idx: self.d_value_idx(pos),
                        depth: level + 1,
                    }
                } else {
                    LookupResult::NotFound
                };
            }
            node = self.d_child_node(pos);
            level += 1;
            if node >= self.dense_node_count {
                break;
            }
        }
        // ---- sparse levels ----
        let mut sparse_node = node - self.dense_node_count;
        loop {
            let start = self.s_node_start(sparse_node);
            if self.opts.prefetch {
                // The label bytes and the matching S-HasChild word will be
                // touched next; their positions correspond (§3.6).
                prefetch_ptr(unsafe { self.s_labels.as_ptr().add(start) });
                prefetch_ptr(unsafe { self.s_has_child.words().as_ptr().add(start / 64) });
            }
            let end = self.s_node_end(start);
            if level == key.len() {
                return if self.s_is_special(start) {
                    LookupResult::Found {
                        value_idx: self.s_value_idx(start),
                        depth: level,
                    }
                } else {
                    LookupResult::NotFound
                };
            }
            // A real 0xFF label can only be the last in a node; the search
            // helper skips the special first slot.
            let Some(pos) = self.s_find_label(start, end, key[level]) else {
                return LookupResult::NotFound;
            };
            if !self.s_has_child.get(pos) {
                return if self.opts.truncate || key.len() == level + 1 {
                    LookupResult::Found {
                        value_idx: self.s_value_idx(pos),
                        depth: level + 1,
                    }
                } else {
                    LookupResult::NotFound
                };
            }
            sparse_node = self.s_child_node(pos) - self.dense_node_count;
            level += 1;
        }
    }

    /// Batched point lookup: all keys descend the trie level-synchronously
    /// and each round prefetches the lines the next pass will touch before
    /// any of them is dereferenced, overlapping the cache misses of up to
    /// `keys.len()` independent probes (the §3.6 prefetch idea applied
    /// *across* queries instead of within one).
    ///
    /// Appends exactly one [`LookupResult`] per key, in input order, each
    /// identical to what [`LoudsTrie::lookup`] returns for that key.
    pub fn lookup_batch(&self, keys: &[&[u8]], out: &mut Vec<LookupResult>) {
        // Seed per-key cursors, resolving the trivial cases inline.
        let mut states: Vec<BatchCursor> = keys
            .iter()
            .map(|key| {
                if self.num_values == 0 || (self.num_nodes == 0 && !key.is_empty()) {
                    BatchCursor::Done(LookupResult::NotFound)
                } else if key.is_empty() {
                    BatchCursor::Done(if self.empty_key {
                        LookupResult::Found {
                            value_idx: 0,
                            depth: 0,
                        }
                    } else {
                        LookupResult::NotFound
                    })
                } else if self.dense_levels == 0 {
                    BatchCursor::Sparse { node: 0 }
                } else {
                    BatchCursor::Dense { node: 0 }
                }
            })
            .collect();
        let mut scratch_starts = vec![0usize; keys.len()];
        let mut level = 0usize;
        let mut active = states.iter().any(|s| !matches!(s, BatchCursor::Done(_)));
        while active {
            active = false;
            // ---- pass 1: issue prefetches for everything pass 2 reads ----
            if self.opts.prefetch {
                for (key, st) in keys.iter().zip(states.iter()) {
                    if let BatchCursor::Dense { node } = *st {
                        // SAFETY: prefetch is a hint; the offsets stay within
                        // (or harmlessly at the edge of) the word arrays.
                        if level < key.len() {
                            let pos = node * 256 + key[level] as usize;
                            prefetch_ptr(unsafe {
                                self.d_labels.words().as_ptr().add(pos / 64)
                            });
                            prefetch_ptr(unsafe {
                                self.d_has_child.words().as_ptr().add(pos / 64)
                            });
                        } else {
                            prefetch_ptr(unsafe {
                                self.d_is_prefix.words().as_ptr().add(node / 64)
                            });
                        }
                    }
                }
            }
            for (i, st) in states.iter().enumerate() {
                if let BatchCursor::Sparse { node } = *st {
                    let start = self.s_node_start(node);
                    scratch_starts[i] = start;
                    if self.opts.prefetch {
                        // SAFETY: as above — `start` indexes live label and
                        // bitmap storage of this trie.
                        prefetch_ptr(unsafe { self.s_labels.as_ptr().add(start) });
                        prefetch_ptr(unsafe {
                            self.s_has_child.words().as_ptr().add(start / 64)
                        });
                        prefetch_ptr(unsafe { self.s_louds.words().as_ptr().add(start / 64) });
                    }
                }
            }
            // ---- pass 2: advance every live cursor by one level ----
            for (i, st) in states.iter_mut().enumerate() {
                let key = keys[i];
                match *st {
                    BatchCursor::Done(_) => {}
                    BatchCursor::Dense { node } => {
                        if level == key.len() {
                            *st = BatchCursor::Done(if self.d_is_prefix.get(node) {
                                LookupResult::Found {
                                    value_idx: self.d_prefix_value_idx(node),
                                    depth: level,
                                }
                            } else {
                                LookupResult::NotFound
                            });
                            continue;
                        }
                        let pos = node * 256 + key[level] as usize;
                        if !self.d_labels.get(pos) {
                            *st = BatchCursor::Done(LookupResult::NotFound);
                        } else if !self.d_has_child.get(pos) {
                            *st = BatchCursor::Done(
                                if self.opts.truncate || key.len() == level + 1 {
                                    LookupResult::Found {
                                        value_idx: self.d_value_idx(pos),
                                        depth: level + 1,
                                    }
                                } else {
                                    LookupResult::NotFound
                                },
                            );
                        } else {
                            let child = self.d_child_node(pos);
                            *st = if child >= self.dense_node_count {
                                BatchCursor::Sparse {
                                    node: child - self.dense_node_count,
                                }
                            } else {
                                BatchCursor::Dense { node: child }
                            };
                            active = true;
                        }
                    }
                    BatchCursor::Sparse { .. } => {
                        let start = scratch_starts[i];
                        let end = self.s_node_end(start);
                        if level == key.len() {
                            *st = BatchCursor::Done(if self.s_is_special(start) {
                                LookupResult::Found {
                                    value_idx: self.s_value_idx(start),
                                    depth: level,
                                }
                            } else {
                                LookupResult::NotFound
                            });
                        } else if let Some(pos) = self.s_find_label(start, end, key[level]) {
                            if !self.s_has_child.get(pos) {
                                *st = BatchCursor::Done(
                                    if self.opts.truncate || key.len() == level + 1 {
                                        LookupResult::Found {
                                            value_idx: self.s_value_idx(pos),
                                            depth: level + 1,
                                        }
                                    } else {
                                        LookupResult::NotFound
                                    },
                                );
                            } else {
                                *st = BatchCursor::Sparse {
                                    node: self.s_child_node(pos) - self.dense_node_count,
                                };
                                active = true;
                            }
                        } else {
                            *st = BatchCursor::Done(LookupResult::NotFound);
                        }
                    }
                }
            }
            level += 1;
        }
        out.extend(states.iter().map(|s| match s {
            BatchCursor::Done(r) => *r,
            // The loop only exits once every cursor is Done.
            _ => unreachable!("live cursor after batch drain"),
        }));
    }

    /// Number of stored values whose key is strictly smaller than the key
    /// at `it`. Invalid iterators count as "past the end". Runs in
    /// O(height) rank operations — the engine behind SuRF's `count`
    /// (§4.1.5).
    pub fn count_before(&self, it: &crate::iter::TrieIter<'_>) -> usize {
        if !it.valid() {
            return self.num_values;
        }
        if it.at_empty_key() {
            return 0;
        }
        let mut total = usize::from(self.empty_key);
        let frames = it.frames();
        // Chain of global node ids bounding the path below the iterator's
        // depth: the first node whose parent branch is at/after the
        // boundary position of the level above.
        let mut boundary_node = 0usize;
        for level in 0..self.height {
            let (values_before, children_before);
            if level < frames.len() {
                let pos = frames[level].pos;
                if level < self.dense_levels {
                    values_before = self.d_values_before(pos, !frames[level].is_prefix);
                    children_before =
                        self.d_has_child_rank.rank1_excl(&self.d_has_child, pos);
                } else {
                    values_before = self.s_values_before(pos);
                    children_before = self.dense_child_count
                        + self.s_has_child_rank.rank1_excl(&self.s_has_child, pos);
                }
            } else {
                // Below the iterator's depth: clamp the boundary into this
                // level's node range.
                let node = boundary_node
                    .min(self.level_node_starts[level + 1])
                    .max(self.level_node_starts[level]);
                if level < self.dense_levels {
                    let pos = node * 256;
                    values_before = self.d_values_before(pos, false);
                    children_before =
                        self.d_has_child_rank.rank1_excl(&self.d_has_child, pos);
                } else {
                    let local = node - self.dense_node_count;
                    let pos = if local >= self.sparse_node_count() {
                        self.s_labels.len()
                    } else {
                        self.s_node_start(local)
                    };
                    values_before = self.s_values_before(pos);
                    children_before = self.dense_child_count
                        + self.s_has_child_rank.rank1_excl(&self.s_has_child, pos);
                }
            }
            total += values_before - self.values_at_level_start(level);
            boundary_node = children_before + 1;
        }
        total
    }

    /// Number of sparse-encoded nodes.
    #[inline]
    pub(crate) fn sparse_node_count(&self) -> usize {
        self.num_nodes - self.dense_node_count
    }

    /// Cumulative value slots (dense + sparse, no empty-key offset) before
    /// level `level` starts.
    fn values_at_level_start(&self, level: usize) -> usize {
        let node = self.level_node_starts[level];
        if level < self.dense_levels {
            self.d_values_before(node * 256, false)
        } else {
            let local = node - self.dense_node_count;
            let pos = if local >= self.sparse_node_count() {
                self.s_labels.len()
            } else {
                self.s_node_start(local)
            };
            self.s_values_before(pos)
        }
    }

    /// Iterator positioned at the smallest key `>= low`.
    pub fn lower_bound(&self, low: &[u8]) -> crate::iter::TrieIter<'_> {
        crate::iter::TrieIter::lower_bound(self, low)
    }

    // ------------------------------------------------------------------
    // Serialized image
    // ------------------------------------------------------------------

    /// Appends this trie's raw image to `out`: opts flags, the counts, the
    /// five LOUDS-DS bit vectors as `(len, words)`, the sparse labels and
    /// the per-level node boundaries. Rank/select support structures are
    /// *not* stored — [`LoudsTrie::deserialize`] rebuilds them exactly as
    /// the builder does, so an image holds only the data that cannot be
    /// recomputed from itself.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        for (bit, on) in [
            self.opts.truncate,
            self.opts.rank_opt,
            self.opts.select_opt,
            self.opts.simd_labels,
            self.opts.prefetch,
            self.opts.r_ratio.is_some(),
            self.empty_key,
        ]
        .into_iter()
        .enumerate()
        {
            if on {
                flags |= 1 << bit;
            }
        }
        out.push(flags);
        if let Some(r) = self.opts.r_ratio {
            put_u64(out, r as u64);
        }
        for v in [
            self.dense_levels,
            self.dense_node_count,
            self.dense_child_count,
            self.dense_value_count,
            self.height,
            self.num_nodes,
            self.num_values,
        ] {
            put_u64(out, v as u64);
        }
        for bv in [
            &self.d_labels,
            &self.d_has_child,
            &self.d_is_prefix,
            &self.s_has_child,
            &self.s_louds,
        ] {
            put_bitvec(out, bv);
        }
        put_u64(out, self.s_labels.len() as u64);
        out.extend_from_slice(&self.s_labels);
        put_u64(out, self.level_node_starts.len() as u64);
        for &v in &self.level_node_starts {
            put_u64(out, v as u64);
        }
    }

    /// Rebuilds a trie from a [`LoudsTrie::serialize`] image, recomputing
    /// the rank/select supports with the same parameters the builder uses.
    /// Every structural invariant the builder guarantees is re-validated;
    /// any mismatch (truncated body, inconsistent counts, bit vectors that
    /// disagree with each other) is a typed `Corruption` error — callers
    /// fall back to rebuilding from keys, they never get a trie that could
    /// answer wrongly or index out of bounds.
    pub fn deserialize(buf: &[u8]) -> Result<Self> {
        const CTX: &str = "louds-image";
        let bad = |what: &str| MemtreeError::corruption(CTX, what.to_string());
        let mut r = ImgReader { buf, at: 0 };
        let flags = r.u8()?;
        if flags >> 7 != 0 {
            return Err(bad("unknown flag bits"));
        }
        let opts = TrieOpts {
            truncate: flags & 1 != 0,
            rank_opt: flags & 2 != 0,
            select_opt: flags & 4 != 0,
            simd_labels: flags & 8 != 0,
            prefetch: flags & 16 != 0,
            r_ratio: if flags & 32 != 0 { Some(r.u64()? as usize) } else { None },
        };
        let empty_key = flags & 64 != 0;
        let dense_levels = r.u64()? as usize;
        let dense_node_count = r.u64()? as usize;
        let dense_child_count = r.u64()? as usize;
        let dense_value_count = r.u64()? as usize;
        let height = r.u64()? as usize;
        let num_nodes = r.u64()? as usize;
        let num_values = r.u64()? as usize;
        let d_labels = r.bitvec()?;
        let d_has_child = r.bitvec()?;
        let d_is_prefix = r.bitvec()?;
        let s_has_child = r.bitvec()?;
        let s_louds = r.bitvec()?;
        let s_labels = r.bytes()?;
        let starts_len = r.count(8)?;
        if height.checked_add(1) != Some(starts_len) {
            return Err(bad("level boundary count disagrees with height"));
        }
        let mut level_node_starts = Vec::with_capacity(starts_len);
        for _ in 0..starts_len {
            level_node_starts.push(r.u64()? as usize);
        }
        r.done()?;

        // Structural cross-checks: everything `finish()` guarantees and the
        // navigation code relies on for in-bounds indexing.
        let padded = |n: usize| n.max(1); // `ensure` pads empties to one bit
        if dense_node_count.checked_mul(256).map(padded) != Some(d_labels.len())
            || d_has_child.len() != d_labels.len()
            || d_is_prefix.len() != padded(dense_node_count)
            || s_has_child.len() != padded(s_labels.len())
            || s_louds.len() != s_has_child.len()
        {
            return Err(bad("bit vector lengths disagree with node counts"));
        }
        if dense_child_count != d_has_child.count_ones()
            || num_nodes < dense_node_count
            || dense_levels > height
            || dense_value_count > num_values
        {
            return Err(bad("counts disagree with bit vector contents"));
        }
        // A padded-empty vector holds one false bit, so `count_ones` is
        // exact in all of these regardless of padding.
        let sparse_nodes = num_nodes - dense_node_count;
        if s_louds.count_ones() != sparse_nodes {
            return Err(bad("LOUDS bits disagree with sparse node count"));
        }
        // Every level holds at least one node, so the boundaries rise
        // strictly and name exactly one level per node count.
        if level_node_starts.first() != Some(&0)
            || level_node_starts.last() != Some(&num_nodes)
            || !level_node_starts.windows(2).all(|w| w[0] < w[1])
        {
            return Err(bad("level boundaries out of order"));
        }
        if d_labels.count_ones() < dense_child_count || s_has_child.count_ones() > s_labels.len() {
            return Err(bad("child bits exceed label bits"));
        }
        // The cut must sit on the level boundary the dense counts name.
        let dense_values = (d_labels.count_ones() - dense_child_count) + d_is_prefix.count_ones();
        if level_node_starts[dense_levels] != dense_node_count || dense_value_count != dense_values {
            return Err(bad("dense levels disagree with dense node and value counts"));
        }
        let stored_values = usize::from(empty_key)
            + (d_labels.count_ones() - dense_child_count)
            + d_is_prefix.count_ones()
            + (s_labels.len() - s_has_child.count_ones());
        if num_values != stored_values {
            return Err(bad("value count disagrees with terminal bits"));
        }

        let dense_rank_block = if opts.rank_opt { 64 } else { 512 };
        let d_labels_rank = RankSupport::new(&d_labels, dense_rank_block);
        let d_has_child_rank = RankSupport::new(&d_has_child, dense_rank_block);
        let d_is_prefix_rank = RankSupport::new(&d_is_prefix, dense_rank_block);
        let s_has_child_rank = RankSupport::new(&s_has_child, 512);
        let s_louds_rank = RankSupport::new(&s_louds, 512);
        let s_louds_select = SelectSupport::new(&s_louds, 64);
        Ok(LoudsTrie {
            opts,
            d_labels,
            d_has_child,
            d_is_prefix,
            d_labels_rank,
            d_has_child_rank,
            d_is_prefix_rank,
            dense_levels,
            dense_node_count,
            dense_child_count,
            dense_value_count,
            s_labels,
            s_has_child,
            s_louds,
            s_has_child_rank,
            s_louds_rank,
            s_louds_select,
            empty_key,
            level_node_starts,
            height,
            num_nodes,
            num_values,
        })
    }
}

// ---------------------------------------------------------------------------
// Image codec helpers
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bitvec(out: &mut Vec<u8>, bv: &BitVector) {
    put_u64(out, bv.len() as u64);
    for &w in bv.words() {
        put_u64(out, w);
    }
}

/// Bounds-checked little-endian cursor over an image body. Every read past
/// the end is a typed error, so a semantically truncated body (valid CRC
/// frame, short payload) surfaces as `Corruption` — never a panic.
struct ImgReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl ImgReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.buf.len() - self.at < n {
            return Err(MemtreeError::corruption(
                "louds-image",
                format!("truncated body: need {n} bytes at {}", self.at),
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` element count, rejected unless `count` elements of `width`
    /// bytes each fit in the rest of the body — so no count read from an
    /// image can size an allocation larger than the image itself.
    fn count(&mut self, width: usize) -> Result<usize> {
        let n = self.u64()?;
        let room = (self.buf.len() - self.at) / width;
        if n > room as u64 {
            return Err(MemtreeError::corruption(
                "louds-image",
                format!("count {n} exceeds remaining body ({room} elements)"),
            ));
        }
        Ok(n as usize)
    }

    /// A length-prefixed run of words reassembled via
    /// [`BitVector::from_words`], which re-validates word count and
    /// padding bits.
    fn bitvec(&mut self) -> Result<BitVector> {
        let len = self.u64()? as usize;
        let nwords = len.div_ceil(64);
        if nwords > (self.buf.len() - self.at) / 8 {
            return Err(MemtreeError::corruption(
                "louds-image",
                format!("bit vector length {len} exceeds remaining body"),
            ));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(self.u64()?);
        }
        BitVector::from_words(words, len).ok_or_else(|| {
            MemtreeError::corruption("louds-image", "bit vector padding bits set".to_string())
        })
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn done(&mut self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(MemtreeError::corruption(
                "louds-image",
                format!("{} trailing bytes after image body", self.buf.len() - self.at),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

struct Builder<'k> {
    keys: &'k [&'k [u8]],
    opts: TrieOpts,
    /// `levels[l]` = nodes at level `l` in level order.
    levels: Vec<Vec<BuildNode>>,
    empty_key: bool,
}

impl<'k> Builder<'k> {
    fn new(keys: &'k [&'k [u8]], opts: TrieOpts) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted+unique");
        let mut b = Self {
            keys,
            opts,
            levels: Vec::new(),
            empty_key: false,
        };
        b.build_levels();
        b
    }

    fn build_levels(&mut self) {
        let mut keys = self.keys;
        if let Some(first) = keys.first() {
            if first.is_empty() {
                self.empty_key = true;
                keys = &keys[1..];
            }
        }
        if keys.is_empty() {
            return;
        }
        let base = usize::from(self.empty_key);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((0usize, keys.len(), 0usize));
        while let Some((start, end, depth)) = queue.pop_front() {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let mut node = BuildNode {
                prefix_key: None,
                branches: Vec::new(),
            };
            let mut i = start;
            if keys[i].len() == depth {
                node.prefix_key = Some((base + i) as u32);
                i += 1;
            }
            while i < end {
                let b = keys[i][depth];
                let mut j = i + 1;
                while j < end && keys[j][depth] == b {
                    j += 1;
                }
                let single = j - i == 1;
                if single && (self.opts.truncate || keys[i].len() == depth + 1) {
                    node.branches.push((b, Branch::Terminal((base + i) as u32)));
                } else {
                    node.branches.push((b, Branch::Child));
                    queue.push_back((i, j, depth + 1));
                }
                i = j;
            }
            self.levels[depth].push(node);
        }
    }

    /// Picks the dense/sparse cutoff level as `(r_rule, cut)`. `cut`
    /// minimises the modelled trie size over the cuts `r_rule..=height`,
    /// where `r_rule` is the one §3.4's `R` rule alone picks, with ties
    /// going to more dense levels. A dense node costs its 513 bitmap bits
    /// plus its share of the rank LUTs over `d_labels` and `d_has_child`:
    /// one entry per `B`-bit block, of 16 bits while the LUT's count (the
    /// dense labels, or the dense children) fits in them and 32 bits
    /// beyond, the width [`RankSupport`] gives it. A sparse label costs 10
    /// bits.
    fn cutoffs(&self) -> (usize, usize) {
        let h = self.levels.len();
        let r = match self.opts.r_ratio {
            None => return (0, 0),
            Some(0) => return (h, h),
            Some(r) => r as u64,
        };
        let nodes: Vec<u64> = self.levels.iter().map(|level| level.len() as u64).collect();
        let per_level = |count: &dyn Fn(&BuildNode) -> u64| -> Vec<u64> {
            self.levels
                .iter()
                .map(|level| level.iter().map(count).sum())
                .collect()
        };
        // A prefix key takes a sparse label of its own (0xFF).
        let labels = per_level(&|n| n.branches.len() as u64 + u64::from(n.prefix_key.is_some()));
        let branches = per_level(&|n| n.branches.len() as u64);
        let children = per_level(&|n| {
            n.branches
                .iter()
                .filter(|(_, br)| matches!(br, Branch::Child))
                .count() as u64
        });
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        let sparse = |l: usize| sum(&labels[l..]) * 10;
        // §3.4: the deepest cut whose dense bitmaps are at most 1/R of the
        // sparse levels below it.
        let floor = (0..=h)
            .filter(|&l| sum(&nodes[..l]) * 513 * r <= sparse(l))
            .max()
            .unwrap_or(0);
        let rank_block = if self.opts.rank_opt { 64 } else { 512 };
        let lut_bits = |l: usize, ones: u64| {
            let entry_bits = if ones <= u64::from(u16::MAX) { 16 } else { 32 };
            sum(&nodes[..l]) * 256 * entry_bits / rank_block
        };
        let dense = |l: usize| {
            sum(&nodes[..l]) * 513
                + lut_bits(l, sum(&branches[..l]))
                + lut_bits(l, sum(&children[..l]))
        };
        let cut = (floor..=h)
            .rev()
            .min_by_key(|&l| dense(l) + sparse(l))
            .unwrap_or(floor);
        (floor, cut)
    }

    /// Encodes levels `..cut` densely and the rest sparsely.
    fn finish(self, cut: usize) -> (LoudsTrie, Vec<u32>) {
        let opts = self.opts;
        let h = self.levels.len();

        let mut d_labels = BitVector::new();
        let mut d_has_child = BitVector::new();
        let mut d_is_prefix = BitVector::new();
        let mut s_labels: Vec<u8> = Vec::new();
        let mut s_has_child = BitVector::new();
        let mut s_louds = BitVector::new();
        // `order[value_idx]` = input key index, in value-slot order.
        let mut order: Vec<u32> = Vec::with_capacity(self.keys.len());
        if self.empty_key {
            order.push(0);
        }

        let empty_offset = usize::from(self.empty_key);
        let mut level_node_starts = Vec::with_capacity(h + 1);
        let mut node_id = 0usize;
        let mut dense_node_count = 0usize;
        let mut dense_value_count = 0usize;

        for (l, level) in self.levels.iter().enumerate() {
            level_node_starts.push(node_id);
            for node in level {
                if l < cut {
                    // ---- dense ----
                    let base = d_labels.len();
                    d_labels.push_n(false, 256);
                    d_has_child.push_n(false, 256);
                    d_is_prefix.push(node.prefix_key.is_some());
                    if let Some(k) = node.prefix_key {
                        order.push(k);
                    }
                    // Values of terminal branches follow in label order —
                    // but the slot order must match d_values_before, which
                    // counts prefix first, then terminals by label. Emit
                    // accordingly.
                    for (b, br) in &node.branches {
                        d_labels.set(base + *b as usize);
                        match br {
                            Branch::Terminal(k) => order.push(*k),
                            Branch::Child => d_has_child.set(base + *b as usize),
                        }
                    }
                } else {
                    // ---- sparse ----
                    let mut first = true;
                    if let Some(k) = node.prefix_key {
                        s_labels.push(0xFF);
                        s_has_child.push(false);
                        s_louds.push(true);
                        first = false;
                        order.push(k);
                    }
                    for (b, br) in &node.branches {
                        s_labels.push(*b);
                        s_louds.push(first);
                        first = false;
                        match br {
                            Branch::Terminal(k) => {
                                s_has_child.push(false);
                                order.push(*k);
                            }
                            Branch::Child => s_has_child.push(true),
                        }
                    }
                    debug_assert!(
                        !first,
                        "sparse node with neither prefix key nor branches"
                    );
                }
                node_id += 1;
            }
            if l + 1 == cut {
                dense_node_count = node_id;
                dense_value_count = order.len() - empty_offset;
            }
        }
        if cut == 0 {
            dense_node_count = 0;
            dense_value_count = 0;
        } else if cut >= h {
            dense_node_count = node_id;
            dense_value_count = order.len() - empty_offset;
        }
        level_node_starts.push(node_id);

        let dense_child_count = d_has_child.count_ones();
        // Pad empty vectors to one bit for the rank/select LUTs, then drop
        // growth slack: the structure is immutable from here on.
        s_labels.shrink_to_fit();
        for bv in [
            &mut d_labels,
            &mut d_has_child,
            &mut d_is_prefix,
            &mut s_has_child,
            &mut s_louds,
        ] {
            if bv.is_empty() {
                bv.push(false);
            }
            bv.shrink_to_fit();
        }

        let dense_rank_block = if opts.rank_opt { 64 } else { 512 };
        let d_labels_rank = RankSupport::new(&d_labels, dense_rank_block);
        let d_has_child_rank = RankSupport::new(&d_has_child, dense_rank_block);
        let d_is_prefix_rank = RankSupport::new(&d_is_prefix, dense_rank_block);
        let s_has_child_rank = RankSupport::new(&s_has_child, 512);
        let s_louds_rank = RankSupport::new(&s_louds, 512);
        let s_louds_select = SelectSupport::new(&s_louds, 64);

        let trie = LoudsTrie {
            opts,
            d_labels,
            d_has_child,
            d_is_prefix,
            d_labels_rank,
            d_has_child_rank,
            d_is_prefix_rank,
            dense_levels: cut,
            dense_node_count,
            dense_child_count,
            dense_value_count,
            s_labels,
            s_has_child,
            s_louds,
            s_has_child_rank,
            s_louds_rank,
            s_louds_select,
            empty_key: self.empty_key,
            level_node_starts,
            height: h,
            num_nodes: node_id,
            num_values: order.len(),
        };
        (trie, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_workload::keys;

    /// The seeded key sets of the cut tests: random 16-byte keys, the key
    /// range of one benchmark SSTable, keys that are prefixes of each
    /// other, and the email keys of the ch3/ch4 experiments.
    fn key_sets(n: usize) -> Vec<(&'static str, Vec<Vec<u8>>)> {
        vec![
            (
                "random",
                keys::sorted_unique(keys::rand_bytes_keys(n, 16, 256, 1)),
            ),
            (
                "partitioned",
                keys::sorted_unique(keys::rand_bytes_keys(n, 16, 43, 2)),
            ),
            (
                "shared-prefix",
                keys::sorted_unique(keys::shared_prefix_keys(n, 3)),
            ),
            ("email", keys::sorted_unique(keys::email_keys(n, 4))),
        ]
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    /// Every stored key, plus an extension and a strict prefix of every
    /// third key, plus the empty key.
    fn probes(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut probes = vec![Vec::new()];
        for (i, k) in keys.iter().enumerate() {
            probes.push(k.clone());
            if i % 3 == 0 {
                let mut ext = k.clone();
                ext.push(b'~');
                probes.push(ext);
                probes.push(k[..k.len() / 2].to_vec());
            }
        }
        probes
    }

    /// Per probe: the point lookup, the first steps of the `lower_bound`
    /// walk, and `count_before` at it; then the batched lookups and the
    /// full walk.
    type Answers = (
        Vec<(LookupResult, Vec<(Vec<u8>, usize, bool)>, usize)>,
        Vec<LookupResult>,
        Vec<(Vec<u8>, usize)>,
    );

    fn answers(t: &LoudsTrie, probes: &[&[u8]]) -> Answers {
        let per_probe = probes
            .iter()
            .map(|p| {
                let mut it = t.lower_bound(p);
                let count = t.count_before(&it);
                let mut walk = Vec::new();
                while it.valid() && walk.len() < 3 {
                    walk.push((it.key().to_vec(), it.value_idx(), it.fp_flag()));
                    it.next();
                }
                (t.lookup(p), walk, count)
            })
            .collect();
        let mut batch = Vec::new();
        t.lookup_batch(probes, &mut batch);
        let mut walk = Vec::new();
        let mut it = t.lower_bound(&[]);
        while it.valid() {
            walk.push((it.key().to_vec(), it.value_idx()));
            it.next();
        }
        (per_probe, batch, walk)
    }

    fn image(t: &LoudsTrie) -> Vec<u8> {
        let mut img = Vec::new();
        t.serialize(&mut img);
        img
    }

    #[test]
    fn every_cut_answers_as_the_r_rule_cut_does() {
        for (name, owned) in key_sets(1000) {
            let keys = refs(&owned);
            let probes = probes(&owned);
            let probes = refs(&probes);
            for opts in [TrieOpts::default(), TrieOpts::surf()] {
                let r_rule = LoudsTrie::r_rule_cut(&keys, opts);
                let (reference, order) = LoudsTrie::build_at_cut(&keys, opts, r_rule);
                let expect = answers(&reference, &probes);
                for cut in 0..=reference.height() {
                    let (t, o) = LoudsTrie::build_at_cut(&keys, opts, cut);
                    assert_eq!(t.dense_levels(), cut);
                    assert_eq!(
                        o, order,
                        "{name} truncate={} cut {cut}: leaf order",
                        opts.truncate
                    );
                    let loaded = LoudsTrie::deserialize(&image(&t)).unwrap();
                    assert_eq!(loaded.dense_levels(), cut);
                    for (which, trie) in [("built", &t), ("loaded", &loaded)] {
                        assert!(
                            answers(trie, &probes) == expect,
                            "{name} truncate={} cut {cut} ({which}) answers differently from \
                             the R rule's cut {r_rule}",
                            opts.truncate
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_chosen_cut_is_the_smallest_trie_at_or_above_the_r_rule() {
        // 2 750 partitioned keys put ≈ 56 labels in each level-1 node: a
        // dense node is smaller than their sparse labels without its rank
        // LUT and larger with it, so a model that forgets the LUT picks a
        // larger trie here. The last set is one benchmark SSTable's SuRF.
        let mut cases: Vec<_> = key_sets(2750)
            .into_iter()
            .flat_map(|set| [(set.clone(), TrieOpts::default()), (set, TrieOpts::surf())])
            .collect();
        let table = keys::sorted_unique(keys::rand_bytes_keys(16_384, 16, 43, 6));
        cases.push((("table", table), TrieOpts::surf()));
        for ((name, keys), opts) in &cases {
            let (keys, opts) = (refs(keys), *opts);
            let (chosen, _) = LoudsTrie::build(&keys, opts);
            let r_rule = LoudsTrie::r_rule_cut(&keys, opts);
            let cut = chosen.dense_levels();
            assert!(
                cut >= r_rule,
                "{name}: cut {cut} below the R rule's {r_rule}"
            );
            // Below the R rule's cut the floor, not the model, decides.
            let size = chosen.mem_usage();
            for other in r_rule..=chosen.height() {
                let (t, _) = LoudsTrie::build_at_cut(&keys, opts, other);
                // Every count of these tries fits in 16 bits, so every LUT
                // entry takes 2 bytes.
                let luts = [
                    t.d_labels_rank.entry_bits(),
                    t.d_has_child_rank.entry_bits(),
                    t.d_is_prefix_rank.entry_bits(),
                    t.s_has_child_rank.entry_bits(),
                    t.s_louds_rank.entry_bits(),
                    t.s_louds_select.entry_bits(),
                ];
                assert_eq!(luts, [16; 6], "{name}: cut {other}");
                // The model counts bits. It leaves out what rounds: each of
                // the five bit vectors fills whole words (an empty one is
                // padded to one), and each of the six LUTs has a partial
                // block and a sentinel entry of 2 bytes each. That is at
                // most 5 * 8 + 6 * 2 * 2 = 64 bytes.
                assert!(
                    size <= t.mem_usage() + 64,
                    "{name} ({} keys, truncate={}): cut {cut} holds {size} B, cut {other} {} B",
                    keys.len(),
                    opts.truncate,
                    t.mem_usage()
                );
            }
        }
    }

    #[test]
    fn a_dense_levels_field_that_disagrees_with_the_image_is_corruption() {
        let keys = keys::sorted_unique(keys::rand_bytes_keys(2000, 16, 256, 9));
        let keys = refs(&keys);
        let all_dense = TrieOpts {
            r_ratio: Some(0),
            ..TrieOpts::default()
        };
        for opts in [TrieOpts::default(), TrieOpts::surf(), all_dense] {
            let (t, _) = LoudsTrie::build(&keys, opts);
            let img = image(&t);
            // The field follows the flags byte and, when `R` is set, `R`.
            let at = 1 + if opts.r_ratio.is_some() { 8 } else { 0 };
            assert_eq!(img[at..at + 8], (t.dense_levels() as u64).to_le_bytes());
            for levels in 0..=t.height() as u64 + 1 {
                let mut patched = img.clone();
                patched[at..at + 8].copy_from_slice(&levels.to_le_bytes());
                match LoudsTrie::deserialize(&patched) {
                    Ok(loaded) => {
                        assert_eq!(levels as usize, t.dense_levels(), "a wrong cut loaded");
                        for k in &keys {
                            assert_eq!(loaded.lookup(k), t.lookup(k));
                        }
                    }
                    Err(e) => assert!(
                        matches!(e, MemtreeError::Corruption { .. }),
                        "dense_levels {levels}: {e:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn mem_stats_sum_to_mem_usage_and_move_with_the_cut() {
        let keys = keys::sorted_unique(keys::rand_bytes_keys(4000, 16, 43, 5));
        let keys = refs(&keys);
        let mut last: Option<TrieMemStats> = None;
        for cut in 0..=LoudsTrie::build(&keys, TrieOpts::surf()).0.height() {
            let (t, _) = LoudsTrie::build_at_cut(&keys, TrieOpts::surf(), cut);
            let stats = t.mem_stats();
            assert_eq!(stats.total(), t.mem_usage());
            assert_eq!(stats.level_starts, vec_bytes(&t.level_node_starts));
            // One more dense level: more dense bytes, fewer sparse ones.
            if let Some(prev) = last {
                assert!(stats.dense_bitmaps > prev.dense_bitmaps, "cut {cut}");
                assert!(stats.dense_rank > prev.dense_rank, "cut {cut}");
                assert!(stats.sparse_labels < prev.sparse_labels, "cut {cut}");
                assert!(stats.sparse_bitmaps <= prev.sparse_bitmaps, "cut {cut}");
            }
            last = Some(stats);
        }
    }
}
