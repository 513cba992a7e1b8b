//! Hot-path bit and byte kernels (§3.6–3.7).
//!
//! The FST query path spends almost all of its time in three tiny loops:
//! in-word select (the tail of every sampled select), multi-word popcount
//! (the block scan of every rank), and byte-label search over
//! LOUDS-Sparse nodes. Each has one portable form; two have a hardware
//! tier on `x86_64`, taken when [`memtree_common::dispatch::has`] grants
//! its feature (so `MEMTREE_KERNELS=scalar` pins the portable form):
//!
//! * [`select_in_word`] — BMI2 `PDEP`, otherwise Vigna's broadword select
//!   ([`select_in_word_swar`]). The byte-stepping loop the repo started
//!   with survives as [`select_in_word_scalar`] for the ablation.
//! * [`popcount_words`] — the `popcnt` instruction, otherwise one
//!   `count_ones` per word ([`popcount_words_scalar`]).
//! * [`find_byte`] — no hardware tier: the 8-byte SWAR zero-in-word trick
//!   ([`find_byte_swar`]) from 8 labels up, the plain loop
//!   ([`find_byte_scalar`]) below.
//!
//! Every form is exported so `bench_hotpath` can ablate them and the
//! differential tests can cross-check them.

#[cfg(target_arch = "x86_64")]
use memtree_common::dispatch::{has, Feature};

/// `SELECT_IN_BYTE[(k << 8) | b]` = position of the `(k+1)`-th set bit of
/// byte `b`, or 8 when `b` has at most `k` set bits.
static SELECT_IN_BYTE: [u8; 2048] = select_in_byte_table();

const fn select_in_byte_table() -> [u8; 2048] {
    let mut t = [8u8; 2048];
    let mut k = 0usize;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut seen = 0usize;
            let mut i = 0usize;
            while i < 8 {
                if (b >> i) & 1 == 1 {
                    if seen == k {
                        t[(k << 8) | b] = i as u8;
                        break;
                    }
                    seen += 1;
                }
                i += 1;
            }
            b += 1;
        }
        k += 1;
    }
    t
}

// ---------------------------------------------------------------------------
// In-word select
// ---------------------------------------------------------------------------

/// Position of the `k`-th (1-based) set bit within a 64-bit word, or 64 if
/// the word has fewer than `k` set bits.
///
/// Dispatches to BMI2 `PDEP` when the CPU has it, otherwise to the
/// broadword SWAR form — both are branch-free past the one dispatch test.
#[inline]
pub fn select_in_word(word: u64, k: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if has(Feature::Bmi2) {
        // SAFETY: BMI2 presence was verified at runtime just above.
        return unsafe { select_in_word_pdep(word, k) };
    }
    select_in_word_swar(word, k)
}

/// BMI2 form of [`select_in_word`]: deposit a single bit at rank `k` into
/// the word's set positions, then count trailing zeros. `PDEP` of an
/// out-of-range rank deposits nothing, so `trailing_zeros` of the zero
/// result yields the contractual 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
fn select_in_word_pdep(word: u64, k: u32) -> u32 {
    debug_assert!(k >= 1);
    if k > 64 {
        return 64;
    }
    core::arch::x86_64::_pdep_u64(1u64 << (k - 1), word).trailing_zeros()
}

/// Portable broadword form of [`select_in_word`] (Vigna's algorithm 2):
/// SWAR per-byte popcounts, a multiply to prefix-sum them, a lane-parallel
/// comparison against `k` to locate the byte, and one 2 KiB table probe to
/// finish inside it. No data-dependent branches.
#[inline]
pub fn select_in_word_swar(word: u64, k: u32) -> u32 {
    debug_assert!(k >= 1);
    if k > word.count_ones() {
        return 64;
    }
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    let k = (k - 1) as u64; // 0-based rank
    // Per-byte popcounts via the classic SWAR reduction.
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `j` of `sums` = popcount of bytes 0..=j (prefix sums).
    let sums = s.wrapping_mul(ONES);
    // Lane-parallel `prefix_sum <= k`: the MSB of each lane survives the
    // subtraction iff that byte's prefix popcount is <= k. The number of
    // such lanes is the index of the byte holding the target bit.
    let geq = (((k * ONES) | MSBS) - sums) & MSBS;
    let place = geq.count_ones() * 8; // <= 56: the guard above ensures the target byte exists
    let byte_rank = k - (((sums << 8) >> place) & 0xFF);
    place + SELECT_IN_BYTE[(byte_rank as usize) << 8 | ((word >> place) & 0xFF) as usize] as u32
}

/// The original byte-stepping select: at most 8 popcounts plus an in-byte
/// bit scan. Kept as the scalar baseline for the Figure 3.6-style kernel
/// ablation in `bench_hotpath`.
#[inline]
pub fn select_in_word_scalar(word: u64, mut k: u32) -> u32 {
    debug_assert!(k >= 1);
    let mut base = 0u32;
    let mut w = word;
    loop {
        let byte = (w & 0xFF) as u8;
        let cnt = byte.count_ones();
        if cnt >= k {
            let mut b = byte;
            for i in 0..8 {
                if b & 1 == 1 {
                    k -= 1;
                    if k == 0 {
                        return base + i;
                    }
                }
                b >>= 1;
            }
        }
        k -= cnt;
        base += 8;
        if base >= 64 {
            return 64;
        }
        w >>= 8;
    }
}

// ---------------------------------------------------------------------------
// Multi-word popcount (rank over blocks wider than 64 bits)
// ---------------------------------------------------------------------------

/// Popcount of a word slice — the inner loop of every `rank1`/`rank1_excl`
/// over basic blocks wider than 64 bits, and of rank-LUT construction.
///
/// Dispatches to the `popcnt`-instruction tier when the CPU has it,
/// otherwise to one `count_ones` per word ([`popcount_words_scalar`]).
#[inline]
pub fn popcount_words(words: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if has(Feature::Popcnt) {
        // SAFETY: POPCNT presence was verified at runtime just above.
        return unsafe { popcount_words_popcnt_impl(words) };
    }
    popcount_words_scalar(words)
}

/// One `count_ones` per word: the portable tier. Off `x86_64` it compiles
/// to the target's native count instruction where there is one (`cnt` on
/// ARM64).
#[inline]
pub fn popcount_words_scalar(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// `popcnt`-instruction tier, when this CPU has it — `None` otherwise.
#[cfg(target_arch = "x86_64")]
pub fn popcount_words_popcnt(words: &[u64]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: POPCNT presence was verified at runtime just above.
        Some(unsafe { popcount_words_popcnt_impl(words) })
    } else {
        None
    }
}

/// With `popcnt` enabled, `count_ones` compiles to the instruction; four
/// independent accumulators overlap its latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn popcount_words_popcnt_impl(words: &[u64]) -> u32 {
    let mut chunks = words.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0u32, 0u32, 0u32, 0u32);
    for q in &mut chunks {
        a += q[0].count_ones();
        b += q[1].count_ones();
        c += q[2].count_ones();
        d += q[3].count_ones();
    }
    a + b + c + d + chunks.remainder().iter().map(|w| w.count_ones()).sum::<u32>()
}

// ---------------------------------------------------------------------------
// Byte-label search
// ---------------------------------------------------------------------------

/// Position of the first occurrence of `needle` in `haystack`.
///
/// 8-byte SWAR from 8 labels up, the plain loop below that. LOUDS-Sparse
/// nodes are mostly small (§3.6), and on label-node-sized slices a 16-lane
/// SSE2 compare did not beat SWAR, so there is no hardware tier.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    if haystack.len() >= 8 {
        return find_byte_swar(haystack, needle);
    }
    find_byte_scalar(haystack, needle)
}

/// Plain byte loop — the scalar baseline.
#[inline]
pub fn find_byte_scalar(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

/// 8-byte SWAR form: XOR against a broadcast pattern turns matches into
/// zero bytes; the zero-in-word trick lights the MSB of each zero lane.
#[inline]
pub fn find_byte_swar(haystack: &[u8], needle: u8) -> Option<usize> {
    const LOWS: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    let pat = u64::from_ne_bytes([needle; 8]);
    let mut chunks = haystack.chunks_exact(8);
    let mut off = 0usize;
    for chunk in &mut chunks {
        let x = u64::from_ne_bytes(chunk.try_into().unwrap()) ^ pat;
        let hit = x.wrapping_sub(LOWS) & !x & MSBS;
        if hit != 0 {
            return Some(off + (hit.trailing_zeros() / 8) as usize);
        }
        off += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| off + i)
}

/// Issues a best-effort L1 cache-line prefetch (no-op off `x86_64`).
///
/// Used by `Fst::get_batch` to overlap the misses of the batch's
/// independent probes; safe to call with any address.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch has no memory effects; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_select(w: u64, k: u32) -> u32 {
        let mut seen = 0;
        for i in 0..64 {
            if w >> i & 1 == 1 {
                seen += 1;
                if seen == k {
                    return i;
                }
            }
        }
        64
    }

    #[test]
    fn select_variants_agree_on_fixed_words() {
        let words = [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
            0x0000_0001_0000_0000,
        ];
        for &w in &words {
            for k in 1..=64u32 {
                let expect = naive_select(w, k);
                assert_eq!(select_in_word_scalar(w, k), expect, "scalar w={w:#x} k={k}");
                assert_eq!(select_in_word_swar(w, k), expect, "swar w={w:#x} k={k}");
                assert_eq!(select_in_word(w, k), expect, "dispatch w={w:#x} k={k}");
            }
        }
    }

    #[test]
    fn find_byte_variants_agree_on_fixed_patterns() {
        let mut hay = Vec::new();
        for i in 0..300u32 {
            hay.push((i.wrapping_mul(37) % 251) as u8);
        }
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 255, 300] {
            let h = &hay[..len];
            for needle in [0u8, 1, 17, 37, 74, 255] {
                let expect = find_byte_scalar(h, needle);
                assert_eq!(find_byte_swar(h, needle), expect, "swar len={len} n={needle}");
                assert_eq!(find_byte(h, needle), expect, "dispatch len={len} n={needle}");
            }
        }
    }

    #[test]
    fn popcount_variants_agree_across_lengths() {
        let mut state = 7u64;
        let words: Vec<u64> = (0..200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            })
            .collect();
        for len in [0usize, 1, 2, 3, 4, 7, 8, 15, 16, 30, 31, 32, 62, 63, 100, 200] {
            let w = &words[..len];
            let expect: u32 = w.iter().map(|x| (0..64).filter(|i| x >> i & 1 == 1).count() as u32).sum();
            assert_eq!(popcount_words_scalar(w), expect, "scalar len {len}");
            assert_eq!(popcount_words(w), expect, "dispatch len {len}");
            #[cfg(target_arch = "x86_64")]
            if let Some(got) = popcount_words_popcnt(w) {
                assert_eq!(got, expect, "popcnt len {len}");
            }
        }
        assert_eq!(popcount_words(&vec![u64::MAX; 100]), 6400);
    }

    #[test]
    fn select_in_byte_table_spot_checks() {
        assert_eq!(SELECT_IN_BYTE[0xFF], 0); // 1st bit of 0xFF
        assert_eq!(SELECT_IN_BYTE[(7 << 8) | 0xFF], 7); // 8th bit of 0xFF
        assert_eq!(SELECT_IN_BYTE[0x80], 7); // 1st bit of 0x80
        assert_eq!(SELECT_IN_BYTE[(1 << 8) | 0x80], 8); // no 2nd bit
    }
}
