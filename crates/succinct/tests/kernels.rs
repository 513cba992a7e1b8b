//! Differential coverage for the hot-path kernels: every vectorized
//! variant (SWAR, runtime-dispatched SIMD, fast-path rank) must agree with
//! its scalar baseline on seeded random inputs and the all-zero/all-one
//! edge cases.

use memtree_common::check::{prop_check, Gen};
use memtree_common::{check, check_eq};
use memtree_succinct::{
    find_byte, find_byte_scalar, find_byte_swar, select_in_word, select_in_word_scalar,
    select_in_word_swar, BitVector, RankSupport,
};

fn check_select_word(w: u64) -> Result<(), String> {
    for k in 1..=65u32 {
        let expect = select_in_word_scalar(w, k);
        check_eq!(select_in_word_swar(w, k), expect, "swar w={w:#x} k={k}");
        check_eq!(select_in_word(w, k), expect, "dispatch w={w:#x} k={k}");
    }
    Ok(())
}

#[test]
fn select_in_word_edge_words() {
    for w in [0u64, u64::MAX, 1, 1 << 63, 0x8000_0000_0000_0001] {
        check_select_word(w).unwrap();
    }
}

#[test]
fn select_in_word_random_words() {
    prop_check("select_in_word_vs_scalar", 2000, |g: &mut Gen| {
        // Mix dense, sparse, and clustered words.
        let w = match g.range(0..4) {
            0 => g.u64(),
            1 => g.u64() & g.u64() & g.u64(),          // sparse
            2 => g.u64() | g.u64() | g.u64(),          // dense
            _ => g.u64() & (u64::MAX >> g.range(0..64)), // clustered low
        };
        check_select_word(w)
    });
}

#[test]
fn rank_fast_path_matches_naive_and_wide_blocks() {
    prop_check("rank1_b64_vs_b512_vs_naive", 64, |g: &mut Gen| {
        let bits = g.bools(1..1200);
        let bv: BitVector = bits.iter().copied().collect();
        let r64 = RankSupport::new(&bv, 64);
        let r512 = RankSupport::new(&bv, 512);
        let mut acc = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            check_eq!(r64.rank1_excl(&bv, i), acc, "excl pos {i}");
            check_eq!(r512.rank1_excl(&bv, i), acc, "excl wide pos {i}");
            if b {
                acc += 1;
            }
            check_eq!(r64.rank1(&bv, i), acc, "pos {i}");
            check_eq!(r512.rank1(&bv, i), acc, "wide pos {i}");
        }
        check_eq!(r64.rank1_excl(&bv, bv.len()), acc);
        check_eq!(r512.rank1_excl(&bv, bv.len()), acc);
        Ok(())
    });
}

#[test]
fn rank_fast_path_all_zero_all_one() {
    for len in [1usize, 63, 64, 65, 512, 513, 1000] {
        for ones in [false, true] {
            let bv: BitVector = (0..len).map(|_| ones).collect();
            let rs = RankSupport::new(&bv, 64);
            for pos in 0..len {
                let expect = if ones { pos + 1 } else { 0 };
                assert_eq!(rs.rank1(&bv, pos), expect, "len={len} ones={ones} pos={pos}");
                assert_eq!(
                    rs.rank1_excl(&bv, pos),
                    if ones { pos } else { 0 },
                    "excl len={len} ones={ones} pos={pos}"
                );
            }
            assert_eq!(rs.rank1_excl(&bv, len), if ones { len } else { 0 });
        }
    }
}

#[test]
fn find_byte_random_haystacks() {
    prop_check("find_byte_vs_scalar", 2000, |g: &mut Gen| {
        // Small alphabets force hits; full range forces misses too.
        let hay = if g.bool(0.5) {
            g.bytes_from(b"abcde", 0..260)
        } else {
            g.bytes_vec(0..260)
        };
        let needle = if g.bool(0.5) {
            *g.pick(b"abcdefg")
        } else {
            g.u64() as u8
        };
        let expect = find_byte_scalar(&hay, needle);
        check_eq!(find_byte_swar(&hay, needle), expect, "swar len={}", hay.len());
        check_eq!(find_byte(&hay, needle), expect, "dispatch len={}", hay.len());
        Ok(())
    });
}

#[test]
fn find_byte_uniform_haystacks() {
    // All-zero and all-0xFF haystacks at every alignment-relevant length.
    for len in 0..70usize {
        for fill in [0x00u8, 0xFF] {
            let hay = vec![fill; len];
            for needle in [0x00u8, 0x01, 0xFF] {
                let expect = find_byte_scalar(&hay, needle);
                assert_eq!(find_byte_swar(&hay, needle), expect, "len={len} fill={fill:#x}");
                assert_eq!(find_byte(&hay, needle), expect, "len={len} fill={fill:#x}");
            }
        }
    }
}

#[test]
fn select_via_support_still_consistent_with_rank() {
    // End-to-end: the sampled select support (which now rides on the
    // dispatched in-word select) stays the inverse of rank.
    prop_check("select_rank_inverse_kernels", 32, |g: &mut Gen| {
        let bits = g.bools(1..4000);
        let bv: BitVector = bits.iter().copied().collect();
        let ss = memtree_succinct::SelectSupport::new(&bv, 64);
        let rs = RankSupport::new(&bv, 64);
        let rs512 = RankSupport::new(&bv, 512);
        let mut k = 0usize;
        for (pos, &b) in bits.iter().enumerate() {
            if b {
                k += 1;
                check_eq!(ss.select1(&bv, k), pos, "k={k}");
                check_eq!(ss.select1_ranked(&bv, &rs512, k), pos, "ranked k={k}");
                check_eq!(rs.rank1(&bv, pos), k, "pos={pos}");
            }
        }
        check!(ss.ones() == k, "ones {} != {k}", ss.ones());
        Ok(())
    });
}
