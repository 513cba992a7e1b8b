//! Succinct data-structure primitives for the Fast Succinct Trie.
//!
//! Implements from scratch the machinery Chapter 3 of the thesis builds on:
//!
//! * [`BitVector`] — a plain bit vector over `u64` words.
//! * [`rank`] — rank-1 support with a single-level lookup table whose basic
//!   block size is configurable: the FST design uses **B = 64** for
//!   LOUDS-Dense (one `popcount` per query) and **B = 512** for
//!   LOUDS-Sparse (one cache line per block), per §3.6. Its entries take
//!   16 bits when the counts fit in them (3.1 % overhead at B = 512), 32
//!   bits otherwise (6.25 %).
//! * [`select`] — sampled select-1 support (default sampling rate S = 64)
//!   plus a slower LUT-free fallback used as the "Poppy baseline" in the
//!   Figure 3.6 ablation.
//! * [`louds`] — Level-Ordered Unary Degree Sequence encoding of ordinal
//!   trees (§3.1 background), used by tests and the `TxTrie` baseline.
//! * [`packed`] — fixed-width bit-packed integer arrays ([`PackedBits`]),
//!   each stored at the width its largest value needs.
//! * [`kernels`] — branch-free/word-parallel hot-path kernels (in-word
//!   select, byte-label search, software prefetch) with runtime CPU-feature
//!   dispatch, plus their scalar baselines for the kernel ablation.

#![warn(missing_docs)]

pub mod bitvec;
pub mod kernels;
pub mod louds;
mod lut;
pub mod packed;
pub mod rank;
pub mod select;

pub use bitvec::BitVector;
pub use kernels::{
    find_byte, find_byte_scalar, find_byte_swar, popcount_words, popcount_words_scalar,
    prefetch_read, select_in_word, select_in_word_scalar, select_in_word_swar,
};
pub use packed::PackedBits;
pub use rank::RankSupport;
pub use select::SelectSupport;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_in_word_matches_naive() {
        let words = [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
        ];
        for &w in &words {
            let ones = w.count_ones();
            let mut naive = Vec::new();
            for i in 0..64 {
                if w >> i & 1 == 1 {
                    naive.push(i);
                }
            }
            for k in 1..=ones {
                assert_eq!(select_in_word(w, k), naive[(k - 1) as usize], "w={w:#x} k={k}");
            }
            if ones < 64 {
                assert_eq!(select_in_word(w, ones + 1), 64);
            }
        }
    }
}
