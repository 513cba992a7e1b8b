//! Property tests: rank/select agree with naive counting on arbitrary bit
//! patterns, for both FST block configurations, both LUT entry widths
//! (16 and 32 bits) and every select path.

use memtree_common::check::{prop_check, Gen};
use memtree_common::{check, check_eq};
use memtree_succinct::{BitVector, RankSupport, SelectSupport};

#[test]
fn rank_matches_naive() {
    prop_check("rank_matches_naive", 64, |g: &mut Gen| {
        let bits = g.bools(1..3000);
        let bv: BitVector = bits.iter().copied().collect();
        for block in [64usize, 512] {
            let rs = RankSupport::new(&bv, block);
            let mut acc = 0usize;
            for (i, &b) in bits.iter().enumerate() {
                acc += usize::from(b);
                check_eq!(rs.rank1(&bv, i), acc, "block {} pos {}", block, i);
                check_eq!(rs.rank0(&bv, i), i + 1 - acc);
            }
        }
        Ok(())
    });
}

#[test]
fn select_matches_naive() {
    prop_check("select_matches_naive", 64, |g: &mut Gen| {
        let bits = g.bools(1..3000);
        let sample = g.range(1..100);
        let bv: BitVector = bits.iter().copied().collect();
        let positions: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        let ss = SelectSupport::new(&bv, sample);
        let rs = RankSupport::new(&bv, 512);
        check_eq!(ss.ones(), positions.len());
        for (k, &pos) in positions.iter().enumerate() {
            check_eq!(ss.select1(&bv, k + 1), pos, "sampled k={}", k + 1);
            check_eq!(
                SelectSupport::select1_via_rank(&bv, &rs, k + 1),
                pos,
                "via-rank k={}",
                k + 1
            );
        }
        Ok(())
    });
}

#[test]
fn rank_select_are_inverse() {
    prop_check("rank_select_are_inverse", 64, |g: &mut Gen| {
        let bits = g.bools(64..2000);
        let bv: BitVector = bits.iter().copied().collect();
        let rs = RankSupport::new(&bv, 64);
        let ss = SelectSupport::new(&bv, 64);
        for i in 1..=ss.ones() {
            let pos = ss.select1(&bv, i);
            check_eq!(rs.rank1(&bv, pos), i);
            check!(bv.get(pos));
        }
        Ok(())
    });
}

/// Every rank and select answer over `bv` against a naive model, for
/// both FST block sizes and both entry widths: the narrowest width that
/// fits (what [`RankSupport::new`] picks) and 32 bits forced. Returns
/// the picked widths as `(rank, select)`.
fn differential(bv: &BitVector) -> Result<(u32, u32), String> {
    let len = bv.len();
    // `before[p]` = ones in `[0, p)`.
    let mut before = vec![0usize; len + 1];
    let mut ones = Vec::new();
    for p in 0..len {
        before[p + 1] = before[p] + usize::from(bv.get(p));
        if bv.get(p) {
            ones.push(p);
        }
    }
    let total = ones.len();
    let mut picked = (0, 0);
    for block in [64usize, 512] {
        let fit = RankSupport::new(bv, block);
        let wide = RankSupport::with_wide_entries(bv, block);
        check_eq!(
            fit.entry_bits(),
            if total <= 65_535 { 16 } else { 32 },
            "B={block}"
        );
        check_eq!(wide.entry_bits(), 32);
        check_eq!(
            fit.mem_usage() * 32,
            wide.mem_usage() * fit.entry_bits() as usize
        );
        picked.0 = fit.entry_bits();
        for rs in [&fit, &wide] {
            let w = rs.entry_bits();
            for p in 0..len {
                check_eq!(rs.rank1(bv, p), before[p + 1], "B={block} w={w} rank1({p})");
            }
            for p in 0..=len + 100 {
                let want = before[p.min(len)];
                check_eq!(
                    rs.rank1_excl(bv, p),
                    want,
                    "B={block} w={w} rank1_excl({p})"
                );
            }
        }
    }
    let fit = SelectSupport::new(bv, 64);
    let wide = SelectSupport::with_wide_entries(bv, 64);
    let last_sample = ones.iter().step_by(64).next_back().copied().unwrap_or(0);
    check_eq!(
        fit.entry_bits(),
        if last_sample <= 65_535 { 16 } else { 32 }
    );
    check_eq!(wide.entry_bits(), 32);
    picked.1 = fit.entry_bits();
    let ranks = [64, 512].map(|block| (block, RankSupport::new(bv, block)));
    for ss in [&fit, &wide] {
        let w = ss.entry_bits();
        check_eq!(ss.ones(), total);
        for (k, &pos) in ones.iter().enumerate() {
            check_eq!(ss.select1(bv, k + 1), pos, "w={w} select1({})", k + 1);
            for (block, rs) in &ranks {
                check_eq!(
                    ss.select1_ranked(bv, rs, k + 1),
                    pos,
                    "w={w} B={block} select1_ranked({})",
                    k + 1
                );
            }
        }
    }
    Ok(picked)
}

/// Random vectors at lengths around multiples of 64 and 512, at three
/// densities.
#[test]
fn rank_select_match_a_naive_model_at_every_length_near_a_block_edge() {
    prop_check("rank_select_near_block_edges", 48, |g: &mut Gen| {
        let unit = *g.pick(&[64usize, 512]);
        let len = (unit * g.range(1..9) + g.range(0..3))
            .saturating_sub(1)
            .max(1);
        let density = g.range(0..3);
        let bv: BitVector = (0..len)
            .map(|_| match density {
                0 => g.u64().is_multiple_of(50),
                1 => g.u64() & 1 == 1,
                _ => !g.u64().is_multiple_of(50),
            })
            .collect();
        differential(&bv).map(drop)
    });
}

/// All ones, all zeros, and ones only at word or block boundaries.
#[test]
fn rank_select_match_a_naive_model_on_adversarial_vectors() {
    type Pattern = fn(usize) -> bool;
    let patterns: [(&str, Pattern); 6] = [
        ("all ones", |_| true),
        ("all zeros", |_| false),
        ("word starts", |p| p % 64 == 0),
        ("word ends", |p| p % 64 == 63),
        ("block starts", |p| p % 512 == 0),
        ("block ends", |p| p % 512 == 511),
    ];
    for (name, bit) in patterns {
        for len in [
            1, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097,
        ] {
            let bv: BitVector = (0..len).map(bit).collect();
            differential(&bv).unwrap_or_else(|e| panic!("{name}, {len} bits: {e}"));
        }
    }
}

/// 65 535, 65 536 and 65 537 ones: the rank LUT's sentinel (the total)
/// leaves 16 bits at 65 536, the last select sample one later, where it
/// lands on position 65 536. Each vector is checked at both widths.
#[test]
fn rank_select_match_a_naive_model_where_the_entry_width_flips() {
    for (ones, widths) in [(65_535, (16, 16)), (65_536, (32, 16)), (65_537, (32, 32))] {
        let bv: BitVector = (0..ones).map(|_| true).collect();
        assert_eq!(differential(&bv), Ok(widths), "{ones} ones, all set");
        // The same counts spread out: rank still flips at the total, but
        // the samples lie far past 65 535 already.
        let mut spread: BitVector = (0..2 * ones + 7).map(|_| false).collect();
        for k in 0..ones {
            spread.set(2 * k + 1);
        }
        let rank = if ones <= 65_535 { 16 } else { 32 };
        assert_eq!(differential(&spread), Ok((rank, 32)), "{ones} ones, spread");
    }
}
