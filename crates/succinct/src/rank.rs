//! Rank-1 support with a single-level lookup table (§3.6, Figure 3.3).
//!
//! The bit vector is divided into fixed-size basic blocks of `B` bits; each
//! block owns a 32-bit precomputed rank of its start position. A query adds
//! the LUT entry and popcounts the remaining `< B` bits.
//!
//! FST instantiates this twice: `B = 64` over the LOUDS-Dense bitmaps (at
//! most one popcount per query, 50 % LUT overhead on a tiny structure) and
//! `B = 512` over LOUDS-Sparse (6.25 % overhead, one cache line of
//! popcounts worst case).

use crate::bitvec::BitVector;
use memtree_common::mem::vec_bytes;

/// Precomputed rank support over an external [`BitVector`].
///
/// The support does not own the bits; callers pass the same vector to
/// queries that they built the support from (FST bundles them in one
/// struct). Ranks are **inclusive**: `rank1(bv, i)` counts set bits in
/// `[0, i]`, matching the navigation formulas of §3.2–3.3. The exclusive
/// form used by the LOUDS "values before position" formulas is
/// [`RankSupport::rank1_excl`].
#[derive(Debug, Clone)]
pub struct RankSupport {
    /// `lut[j]` = number of set bits strictly before block `j`, for `j` in
    /// `0..=nblocks` — the final sentinel entry (total ones) lets exclusive
    /// rank at one-past-the-end positions stay branch-free.
    lut: Vec<u32>,
    /// Basic block size in bits; a multiple of 64.
    block_bits: usize,
}

impl RankSupport {
    /// Builds rank support with the given basic block size (must be a
    /// non-zero multiple of 64).
    pub fn new(bv: &BitVector, block_bits: usize) -> Self {
        assert!(block_bits > 0 && block_bits.is_multiple_of(64));
        let words_per_block = block_bits / 64;
        let nblocks = bv.len().div_ceil(block_bits).max(1);
        let mut lut = Vec::with_capacity(nblocks + 1);
        let mut acc: u32 = 0;
        let words = bv.words();
        for b in 0..nblocks {
            lut.push(acc);
            let start = b * words_per_block;
            let end = ((b + 1) * words_per_block).min(words.len());
            acc += crate::kernels::popcount_words(&words[start..end.max(start)]);
        }
        lut.push(acc); // sentinel: total set bits
        Self { lut, block_bits }
    }

    /// Number of set bits in `[0, pos]` (inclusive).
    #[inline]
    pub fn rank1(&self, bv: &BitVector, pos: usize) -> usize {
        debug_assert!(pos < bv.len());
        let words = bv.words();
        let last_word = pos / 64;
        // Bits [0, pos % 64] of the final word.
        let mask = u64::MAX >> (63 - (pos % 64) as u32);
        if self.block_bits == 64 {
            // §3.6 B = 64 fast path: the LUT entry is the word's exclusive
            // rank, so the answer is one load + exactly one popcount.
            return self.lut[last_word] as usize
                + (words[last_word] & mask).count_ones() as usize;
        }
        let block = pos / self.block_bits;
        let r = self.lut[block] as usize
            + crate::kernels::popcount_words(&words[block * (self.block_bits / 64)..last_word])
                as usize;
        r + (words[last_word] & mask).count_ones() as usize
    }

    /// Number of set bits strictly before `pos` (exclusive rank).
    ///
    /// Accepts any `pos` in `[0, len]` — positions past the end clamp to
    /// the total — so LOUDS "values before position" callers need neither
    /// the `pos == 0` special case nor the `min(len - 1)` clamp that an
    /// inclusive `rank1(pos - 1)` forces on them.
    #[inline]
    pub fn rank1_excl(&self, bv: &BitVector, pos: usize) -> usize {
        let pos = pos.min(bv.len());
        let words = bv.words();
        let wi = pos / 64;
        // `(1 << off) - 1` keeps bits strictly below `pos`; off == 0 makes
        // the mask 0, so a clamped word read contributes nothing.
        let mask = (1u64 << (pos % 64)).wrapping_sub(1);
        let partial_word = words.get(wi).copied().unwrap_or(0) & mask;
        if self.block_bits == 64 {
            // The sentinel entry makes lut[wi] valid even at pos == len.
            return self.lut[wi] as usize + partial_word.count_ones() as usize;
        }
        let block = (pos / self.block_bits).min(self.lut.len() - 1);
        let r = self.lut[block] as usize
            + crate::kernels::popcount_words(
                &words[(block * (self.block_bits / 64)).min(words.len())..wi.min(words.len())],
            ) as usize;
        r + partial_word.count_ones() as usize
    }

    /// Number of clear bits in `[0, pos]` (inclusive).
    #[inline]
    pub fn rank0(&self, bv: &BitVector, pos: usize) -> usize {
        pos + 1 - self.rank1(bv, pos)
    }

    /// Total set bits before block `j` — used by LUT-guided select.
    #[inline]
    pub(crate) fn block_rank(&self, j: usize) -> usize {
        self.lut[j] as usize
    }

    /// Number of blocks in the LUT (excluding the sentinel entry).
    #[inline]
    pub(crate) fn num_blocks(&self) -> usize {
        self.lut.len() - 1
    }

    /// Basic block size in bits.
    #[inline]
    pub(crate) fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Heap bytes used by the LUT.
    pub fn mem_usage(&self) -> usize {
        vec_bytes(&self.lut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(bv: &BitVector, block: usize) {
        let rs = RankSupport::new(bv, block);
        let mut acc = 0;
        assert_eq!(rs.rank1_excl(bv, 0), 0, "excl 0 block {block}");
        for i in 0..bv.len() {
            if bv.get(i) {
                acc += 1;
            }
            assert_eq!(rs.rank1(bv, i), acc, "pos {i} block {block}");
            assert_eq!(rs.rank1_excl(bv, i + 1), acc, "excl {} block {block}", i + 1);
            assert_eq!(rs.rank0(bv, i), i + 1 - acc);
        }
        // Past-the-end exclusive ranks clamp to the total.
        assert_eq!(rs.rank1_excl(bv, bv.len()), bv.count_ones());
        assert_eq!(rs.rank1_excl(bv, bv.len() + 100), bv.count_ones());
    }

    #[test]
    fn rank_matches_naive_dense_and_sparse_blocks() {
        let patterns: Vec<BitVector> = vec![
            (0..1000).map(|i| i % 7 == 0).collect(),
            (0..1000).map(|_| true).collect(),
            (0..1000).map(|_| false).collect(),
            (0..513).map(|i| i % 2 == 0).collect(),
        ];
        for bv in &patterns {
            check_all(bv, 64);
            check_all(bv, 512);
        }
    }

    #[test]
    fn rank_on_random_bits() {
        let mut state = 42u64;
        let bv: BitVector = (0..4096)
            .map(|_| memtree_common::hash::splitmix64(&mut state).is_multiple_of(3))
            .collect();
        check_all(&bv, 64);
        check_all(&bv, 512);
    }
}
