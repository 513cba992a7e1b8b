//! Select-1 support (§3.6, Figure 3.3, right half).
//!
//! A sampled lookup table stores the precomputed position of every `S`-th
//! set bit. A query jumps to the nearest preceding sample and scans forward
//! with popcounts. The thesis's default `S = 64` costs 9–17 % space locally
//! (1–2 % of the whole trie) because the only select-supported bit vector,
//! `S-LOUDS`, is dense and evenly distributed.
//!
//! [`SelectSupport::select1_via_rank`] provides the slower, LUT-free
//! baseline (binary search over the rank LUT) used in the Figure 3.6
//! ablation.

use crate::bitvec::BitVector;
use crate::rank::RankSupport;
use crate::select_in_word;
use memtree_common::mem::vec_bytes;

/// Sampled select-1 support over an external [`BitVector`].
#[derive(Debug, Clone)]
pub struct SelectSupport {
    /// `lut[j]` = bit position of the `(j * sample + 1)`-th set bit.
    lut: Vec<u32>,
    sample: usize,
    ones: usize,
}

impl SelectSupport {
    /// Builds sampled select support with sampling rate `sample`.
    pub fn new(bv: &BitVector, sample: usize) -> Self {
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
            lut,
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
        let j = (i - 1) / self.sample;
        let mut pos = self.lut[j] as usize;
        let mut remaining = (i - 1) - j * self.sample; // set bits still to skip after `pos`
        if remaining == 0 {
            return pos;
        }
        let words = bv.words();
        // Finish the word containing `pos`, excluding bits <= pos.
        let mut wi = pos / 64;
        let mut w = words[wi] & (u64::MAX << (pos % 64)) & !(1u64 << (pos % 64));
        loop {
            let cnt = w.count_ones() as usize;
            if cnt >= remaining {
                pos = wi * 64 + select_in_word(w, remaining as u32) as usize;
                return pos;
            }
            remaining -= cnt;
            wi += 1;
            w = words[wi];
        }
    }

    /// Heap bytes used by the sample LUT.
    pub fn mem_usage(&self) -> usize {
        vec_bytes(&self.lut)
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
        let mut remaining = i - rank.block_rank(block);
        let words = bv.words();
        let mut wi = block * (rank.block_bits() / 64);
        loop {
            let w = words[wi];
            let cnt = w.count_ones() as usize;
            if cnt >= remaining {
                return wi * 64 + select_in_word(w, remaining as u32) as usize;
            }
            remaining -= cnt;
            wi += 1;
        }
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
        let naive = naive_selects(bv);
        assert_eq!(ss.ones(), naive.len());
        for (k, &pos) in naive.iter().enumerate() {
            assert_eq!(ss.select1(bv, k + 1), pos, "k={} sample={}", k + 1, sample);
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
