//! Select-1 support (§3.6, Figure 3.3, right half).
//!
//! A sampled lookup table stores the precomputed position of every `S`-th
//! set bit. A query jumps to the nearest preceding sample and scans forward
//! with popcounts. The thesis's default `S = 64` costs 9–17 % space locally
//! (1–2 % of the whole trie) at 32-bit samples, because the only
//! select-supported bit vector, `S-LOUDS`, is dense and evenly
//! distributed. A sample takes 16 bits when the last sampled position fits
//! in them, which halves that: an SSTable trie's `S-LOUDS` is always
//! shorter than 64 Ki bits.
//!
//! Dense on average is not dense everywhere: on a LOUDS-Sparse level of
//! wide nodes the ones lie hundreds of bits apart, and the word-by-word
//! scan from a sample runs long. [`SelectSupport::select1_ranked`] jumps
//! over whole rank blocks through the rank LUT the bit vector already
//! carries (a binary search between the two samples around the answer),
//! the way Poppy's combined sampling jumps through its rank index, so the
//! popcount scan covers at most one block.
//!
//! [`SelectSupport::select1_via_rank`] provides the slower, LUT-free
//! baseline (binary search over the rank LUT) used in the Figure 3.6
//! ablation.

use crate::bitvec::BitVector;
use crate::lut::Lut;
use crate::rank::RankSupport;
use crate::select_in_word;

/// Sampled select-1 support over an external [`BitVector`].
#[derive(Debug, Clone)]
pub struct SelectSupport {
    /// `lut[j]` = bit position of the `(j * sample + 1)`-th set bit. The
    /// last sample is the largest entry, so it sets the LUT's width.
    lut: Lut,
    sample: usize,
    ones: usize,
}

impl SelectSupport {
    /// Builds sampled select support with sampling rate `sample`, its
    /// samples at 16 bits when the last one fits in them and at 32 bits
    /// otherwise.
    pub fn new(bv: &BitVector, sample: usize) -> Self {
        Self::build(bv, sample, false)
    }

    /// [`SelectSupport::new`] with every sample at 32 bits whatever the
    /// positions, as §3.6 lays it out: the baseline of the entry-width
    /// ablation.
    pub fn with_wide_entries(bv: &BitVector, sample: usize) -> Self {
        Self::build(bv, sample, true)
    }

    fn build(bv: &BitVector, sample: usize, wide: bool) -> Self {
        assert!(sample > 0);
        let mut lut = Vec::new();
        let mut count = 0usize;
        for (wi, &w) in bv.words().iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let tz = word.trailing_zeros() as usize;
                if count.is_multiple_of(sample) {
                    lut.push((wi * 64 + tz) as u32);
                }
                count += 1;
                word &= word - 1;
            }
        }
        Self {
            lut: Lut::fit(lut, wide),
            sample,
            ones: count,
        }
    }

    /// Total number of set bits.
    #[inline]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Position of the `i`-th set bit (1-based). `i` must be in
    /// `[1, ones()]`.
    #[inline]
    pub fn select1(&self, bv: &BitVector, i: usize) -> usize {
        debug_assert!(i >= 1 && i <= self.ones, "select1({i}) of {} ones", self.ones);
        let (pos, remaining) = self.sample_before(i);
        if remaining == 0 {
            return pos;
        }
        scan_after(bv.words(), pos, remaining)
    }

    /// [`SelectSupport::select1`] that jumps from the sample to the rank
    /// block holding the answer through `rank`'s LUT (built over the same
    /// `bv`), then scans at most that one block. Same answer, no extra
    /// bytes.
    #[inline]
    pub fn select1_ranked(&self, bv: &BitVector, rank: &RankSupport, i: usize) -> usize {
        debug_assert!(i >= 1 && i <= self.ones, "select1({i}) of {} ones", self.ones);
        let (pos, remaining) = self.sample_before(i);
        if remaining == 0 {
            return pos;
        }
        // `block_rank(b)` counts the ones before block `b`; the sentinel
        // entry makes `b = num_blocks()` valid. The answer lies in the
        // last block `lo` with `block_rank(lo) < i`.
        let mut lo = pos / rank.block_bits() + 1;
        if rank.block_rank(lo) >= i {
            return scan_after(bv.words(), pos, remaining);
        }
        // The next sample lies past the answer, so the block after it
        // bounds the search from above.
        let mut hi = self
            .lut
            .try_get((i - 1) / self.sample + 1)
            .map_or(rank.num_blocks(), |next| next / rank.block_bits() + 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if rank.block_rank(mid) < i {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let wi = lo * (rank.block_bits() / 64);
        scan_from(bv.words(), wi, bv.words()[wi], i - rank.block_rank(lo))
    }

    /// The last sampled one at or before the `i`-th, and how many ones
    /// after it remain to be skipped.
    #[inline]
    fn sample_before(&self, i: usize) -> (usize, usize) {
        let j = (i - 1) / self.sample;
        (self.lut.get(j), (i - 1) - j * self.sample)
    }

    /// Bits a sample takes: 16 or 32.
    pub fn entry_bits(&self) -> u32 {
        self.lut.entry_bits()
    }

    /// Heap bytes used by the sample LUT.
    pub fn mem_usage(&self) -> usize {
        self.lut.mem_usage()
    }

    /// Baseline select without the sample LUT: binary search over `rank`'s
    /// block LUT, then a linear popcount scan. Matches what a plain
    /// Poppy-style implementation does; used by the FST optimization
    /// ablation (Figure 3.6).
    pub fn select1_via_rank(bv: &BitVector, rank: &RankSupport, i: usize) -> usize {
        debug_assert!(i >= 1);
        // Find the first block whose prefix rank >= i, then step back one.
        let (mut lo, mut hi) = (0usize, rank.num_blocks());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if rank.block_rank(mid) < i {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let block = lo.saturating_sub(1);
        let wi = block * (rank.block_bits() / 64);
        scan_from(bv.words(), wi, bv.words()[wi], i - rank.block_rank(block))
    }
}

/// Position of the `remaining`-th set bit after position `pos`.
#[inline]
fn scan_after(words: &[u64], pos: usize, remaining: usize) -> usize {
    // Finish the word containing `pos`, excluding bits <= pos.
    let wi = pos / 64;
    let first = words[wi] & (u64::MAX << (pos % 64)) & !(1u64 << (pos % 64));
    scan_from(words, wi, first, remaining)
}

/// Position of the `remaining`-th set bit (1-based) of `first` (word `wi`,
/// possibly masked) and the words after it.
#[inline]
fn scan_from(words: &[u64], mut wi: usize, first: u64, mut remaining: usize) -> usize {
    let mut w = first;
    loop {
        let cnt = w.count_ones() as usize;
        if cnt >= remaining {
            return wi * 64 + select_in_word(w, remaining as u32) as usize;
        }
        remaining -= cnt;
        wi += 1;
        w = words[wi];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_selects(bv: &BitVector) -> Vec<usize> {
        (0..bv.len()).filter(|&i| bv.get(i)).collect()
    }

    fn check(bv: &BitVector, sample: usize) {
        let ss = SelectSupport::new(bv, sample);
        let rs = RankSupport::new(bv, 512);
        let rs64 = RankSupport::new(bv, 64);
        let naive = naive_selects(bv);
        assert_eq!(ss.ones(), naive.len());
        for (k, &pos) in naive.iter().enumerate() {
            assert_eq!(ss.select1(bv, k + 1), pos, "k={} sample={}", k + 1, sample);
            for rank in [&rs, &rs64] {
                assert_eq!(
                    ss.select1_ranked(bv, rank, k + 1),
                    pos,
                    "ranked k={} sample={sample} B={}",
                    k + 1,
                    rank.block_bits()
                );
            }
            assert_eq!(
                SelectSupport::select1_via_rank(bv, &rs, k + 1),
                pos,
                "via-rank k={}",
                k + 1
            );
        }
    }

    #[test]
    fn select_matches_naive() {
        let patterns: Vec<BitVector> = vec![
            (0..2000).map(|i| i % 3 == 0).collect(),
            (0..2000).map(|_| true).collect(),
            (0..130).map(|i| i == 129).collect(),
            (0..4096).map(|i| i % 64 == 63).collect(),
        ];
        for bv in &patterns {
            check(bv, 64);
            check(bv, 3);
            check(bv, 1);
        }
    }

    #[test]
    fn select_random() {
        let mut state = 7u64;
        let bv: BitVector = (0..8192)
            .map(|_| memtree_common::hash::splitmix64(&mut state).is_multiple_of(4))
            .collect();
        check(&bv, 64);
    }

    /// Ones 100–2 000 bits apart, as on a LOUDS-Sparse level of wide
    /// nodes: a sample 64 ones back lies many rank blocks before the
    /// answer, so the ranked select skips whole blocks — also across the
    /// end of the vector, where the last block is partial.
    #[test]
    fn select_sparse_ones_skip_whole_blocks() {
        let mut state = 11u64;
        let mut ones = Vec::new();
        let mut pos = 37usize;
        while pos < 300_000 {
            ones.push(pos);
            pos += 100 + memtree_common::hash::splitmix64(&mut state) as usize % 1901;
        }
        let len = ones.last().unwrap() + 1 + 200;
        let mut bv: BitVector = (0..len).map(|_| false).collect();
        for &p in &ones {
            bv.set(p);
        }
        for sample in [64, 3, 1] {
            check(&bv, sample);
        }
    }

    #[test]
    fn select_rank_inverse() {
        let bv: BitVector = (0..5000).map(|i| i % 5 == 0).collect();
        let ss = SelectSupport::new(&bv, 64);
        let rs = RankSupport::new(&bv, 64);
        for i in 1..=ss.ones() {
            let pos = ss.select1(&bv, i);
            assert_eq!(rs.rank1(&bv, pos), i);
        }
    }
}
