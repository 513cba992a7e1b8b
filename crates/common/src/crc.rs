//! CRC32C (Castagnoli) — the checksum used to frame every compressed
//! block, SSTable block, WAL frame, and anti-cache block.
//!
//! Implemented from scratch (no external crates) as a two-tier,
//! runtime-dispatched kernel:
//!
//! * **Hardware tier** (`x86_64` with SSE4.2): the `crc32` instruction at
//!   8 bytes per instruction, run as **three independent streams** over
//!   1 KiB lanes so the instruction's ~3-cycle latency overlaps
//!   (instruction-level parallelism); lane CRCs are recombined with
//!   compile-time GF(2) zero-shift tables.
//! * **Portable tier**: a compile-time 16 × 256 slicing table driving a
//!   slice-by-16 kernel (two independent 8-byte lanes per step), with a
//!   byte-at-a-time tail.
//!
//! The hardware tier runs when [`crate::dispatch::has`] grants SSE4.2, so
//! `MEMTREE_KERNELS=scalar` pins the portable tier and CI exercises it on
//! any host. Both tiers are exported so differential tests can prove them
//! byte-identical, and [`active_kernel`] names the one that runs.
//!
//! CRC32C detects all single-bit errors and all burst errors up to 32 bits,
//! which is exactly the corruption model of DESIGN.md's fault section.

#[cfg(target_arch = "x86_64")]
use crate::dispatch::{has, Feature};

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn byte_crc(mut b: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        k += 1;
    }
    b
}

const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        t[0][i] = byte_crc(i as u32);
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = make_tables();

// ---------------------------------------------------------------------------
// GF(2) zero-shift operators (lane recombination for the streamed tier)
// ---------------------------------------------------------------------------
//
// Appending `n` zero bytes to a message transforms its running CRC by a
// fixed linear operator over GF(2) — a 32 × 32 bit matrix, computed at
// compile time by squaring the one-bit shift operator. Because the CRC
// update is linear, `update(s, A || B) = shift_|B|(update(s, A)) ^
// update(0, B)`: each stream runs independently from state 0 and is folded
// in with one table-driven shift. The matrix is flattened into 4 × 256
// byte tables so a shift costs four loads and three XORs.

/// A 32 × 32 GF(2) matrix; `m[j]` is the image of basis vector `1 << j`.
type Mat = [u32; 32];

const fn mat_times(m: &Mat, mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= m[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn mat_mul(a: &Mat, b: &Mat) -> Mat {
    let mut out = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        out[j] = mat_times(a, b[j]);
        j += 1;
    }
    out
}

/// Operator advancing a (reflected) CRC state by `nbits` zero bits.
const fn zeros_matrix(mut nbits: u64) -> Mat {
    // One zero bit: s' = (s >> 1) ^ (POLY if s & 1).
    let mut base: Mat = [0u32; 32];
    base[0] = POLY;
    let mut j = 1;
    while j < 32 {
        base[j] = 1 << (j - 1);
        j += 1;
    }
    let mut result: Mat = [0u32; 32]; // identity
    let mut j = 0;
    while j < 32 {
        result[j] = 1 << j;
        j += 1;
    }
    while nbits != 0 {
        if nbits & 1 != 0 {
            result = mat_mul(&base, &result);
        }
        base = mat_mul(&base, &base);
        nbits >>= 1;
    }
    result
}

/// Byte-table form of [`zeros_matrix`] for `len_bytes` zero bytes.
const fn zeros_table(len_bytes: usize) -> [[u32; 256]; 4] {
    let m = zeros_matrix(8 * len_bytes as u64);
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = mat_times(&m, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn shift_crc(t: &[[u32; 256]; 4], crc: u32) -> u32 {
    t[0][(crc & 0xFF) as usize]
        ^ t[1][((crc >> 8) & 0xFF) as usize]
        ^ t[2][((crc >> 16) & 0xFF) as usize]
        ^ t[3][(crc >> 24) as usize]
}

// ---------------------------------------------------------------------------
// Hardware tier (x86_64, SSE4.2)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{shift_crc, zeros_table};

    /// Bytes per lane in the long three-way streamed pass (3 KiB chunks).
    const LONG: usize = 1024;
    /// Bytes per lane in the short three-way pass draining mid-size tails.
    const SHORT: usize = 64;

    static SHIFT_LONG: [[u32; 256]; 4] = zeros_table(LONG);
    static SHIFT_SHORT: [[u32; 256]; 4] = zeros_table(SHORT);

    /// SSE4.2 `crc32`-instruction form of `crc32c_update`: three
    /// independent 8-bytes-per-instruction streams recombined via the
    /// zero-shift tables, then a single-stream 8-byte loop and byte tail.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let le8 = |c: &[u8]| u64::from_le_bytes(c.try_into().unwrap());
        let mut crc = state as u64;
        let mut p = data;
        // The crc32 intrinsics are safe to call here: the enclosing
        // `target_feature` guarantees SSE4.2, and all slice accesses are
        // bounds-checked.
        {
            macro_rules! three_way {
                ($len:expr, $table:ident) => {
                    while p.len() >= 3 * $len {
                        let (a, rest) = p.split_at($len);
                        let (b, c) = rest.split_at($len);
                        let mut crc0 = crc;
                        let mut crc1 = 0u64;
                        let mut crc2 = 0u64;
                        let mut i = 0;
                        while i < $len {
                            crc0 = _mm_crc32_u64(crc0, le8(&a[i..i + 8]));
                            crc1 = _mm_crc32_u64(crc1, le8(&b[i..i + 8]));
                            crc2 = _mm_crc32_u64(crc2, le8(&c[i..i + 8]));
                            i += 8;
                        }
                        crc = (shift_crc(&$table, shift_crc(&$table, crc0 as u32) ^ crc1 as u32)
                            ^ crc2 as u32) as u64;
                        p = &p[3 * $len..];
                    }
                };
            }
            three_way!(LONG, SHIFT_LONG);
            three_way!(SHORT, SHIFT_SHORT);
            let mut chunks = p.chunks_exact(8);
            for c in &mut chunks {
                crc = _mm_crc32_u64(crc, le8(c));
            }
            let mut crc = crc as u32;
            for &b in chunks.remainder() {
                crc = _mm_crc32_u8(crc, b);
            }
            crc
        }
    }
}

/// Name of the CRC tier the dispatcher selected for this process
/// (`"sse4.2-3way"` or `"slicing16"`); recorded in benchmark metadata.
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has(Feature::Sse42) {
        return "sse4.2-3way";
    }
    "slicing16"
}

#[inline]
fn le_u32(c: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]])
}

/// One 8-byte lane: folds `crc` (XORed into the low word by the caller)
/// through tables `BASE+7 .. BASE`.
#[inline(always)]
fn lane8<const BASE: usize>(lo: u32, hi: u32) -> u32 {
    TABLES[BASE + 7][(lo & 0xFF) as usize]
        ^ TABLES[BASE + 6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[BASE + 5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[BASE + 4][(lo >> 24) as usize]
        ^ TABLES[BASE + 3][(hi & 0xFF) as usize]
        ^ TABLES[BASE + 2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[BASE + 1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[BASE][(hi >> 24) as usize]
}

/// Portable slicing-by-16 tier — the dispatch fallback, exported so the
/// differential tests and the kernel ablation bench can cross-check it
/// against the hardware tier on the same inputs.
#[inline]
pub fn crc32c_update_slicing16(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    // Slice-by-16: the two 8-byte halves fold through disjoint table
    // ranges, so their lookups have no data dependency on each other.
    let mut chunks16 = data.chunks_exact(16);
    for c in &mut chunks16 {
        let a = lane8::<8>(le_u32(c, 0) ^ crc, le_u32(c, 4));
        let b = lane8::<0>(le_u32(c, 8), le_u32(c, 12));
        crc = a ^ b;
    }
    let rest = chunks16.remainder();
    let mut chunks8 = rest.chunks_exact(8);
    for c in &mut chunks8 {
        crc = lane8::<0>(le_u32(c, 0) ^ crc, le_u32(c, 4));
    }
    for &b in chunks8.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Hardware (SSE4.2) tier, when this CPU has it — `None` otherwise.
/// Ignores the `MEMTREE_KERNELS` policy on purpose: the differential
/// tier tests cross-check hardware against portable even in scalar mode.
#[cfg(target_arch = "x86_64")]
pub fn crc32c_update_hw(state: u32, data: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 presence was verified at runtime just above.
        Some(unsafe { hw::update(state, data) })
    } else {
        None
    }
}

/// Continues a CRC32C computation. `state` is the running CRC as returned
/// by a previous call (start from [`crc32c`] semantics with `!0`).
/// Dispatches once per process to the hardware or portable tier.
#[inline]
pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if has(Feature::Sse42) {
        // SAFETY: SSE4.2 presence was verified by the dispatch check.
        return unsafe { hw::update(state, data) };
    }
    crc32c_update_slicing16(state, data)
}

/// CRC32C of `data` (init `!0`, final xor `!0` — the standard iSCSI form).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_update(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors, against the dispatched form and
        // both tiers explicitly.
        let cases: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&(0u8..32).collect::<Vec<u8>>(), 0x46DD_794E),
        ];
        for (data, expect) in cases {
            assert_eq!(crc32c(data), expect);
            assert_eq!(!crc32c_update_slicing16(!0, data), expect);
            #[cfg(target_arch = "x86_64")]
            if let Some(hw) = crc32c_update_hw(!0, data) {
                assert_eq!(!hw, expect);
            }
        }
        // RFC 3720 "32 bytes decrementing" vector.
        let dec: Vec<u8> = (0..32u8).rev().collect();
        assert_eq!(crc32c(&dec), 0x113F_DB5C);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let state = crc32c_update(!0, &data[..split]);
            let state = crc32c_update(state, &data[split..]);
            assert_eq!(!state, crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_crc() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let base = crc32c(&data);
        let mut flipped = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip {byte}.{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn zeros_matrix_matches_table_driven_zero_feed() {
        // The GF(2) shift operator must agree with literally feeding zero
        // bytes through the portable kernel, for every length class the
        // streamed tier uses.
        for len in [1usize, 7, 8, 63, 64, 65, 256, 1024] {
            let t = zeros_table(len);
            let zeros = vec![0u8; len];
            for state in [0u32, !0, 0xDEAD_BEEF, 0x0000_0001, 0x8000_0000] {
                let expect = crc32c_update_slicing16(state, &zeros);
                let got = t[0][(state & 0xFF) as usize]
                    ^ t[1][((state >> 8) & 0xFF) as usize]
                    ^ t[2][((state >> 16) & 0xFF) as usize]
                    ^ t[3][(state >> 24) as usize];
                assert_eq!(got, expect, "len {len} state {state:#x}");
            }
        }
    }

    /// Differential sweep: the hardware tier (when present) must produce
    /// byte-identical checksums to slicing-by-16 across lengths 0..512 at
    /// all 8 byte alignments, and across lengths that exercise the short
    /// (3 × 64) and long (3 × 1024) streamed three-way paths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_matches_slicing16_across_lengths_and_alignments() {
        let Some(_) = crc32c_update_hw(!0, b"") else {
            eprintln!("skipping: no SSE4.2 on this host");
            return;
        };
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let backing: Vec<u8> = (0..16 * 1024)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let mut lengths: Vec<usize> = (0..512).collect();
        // Streamed-path lengths: around 3*SHORT (192), 3*LONG (3072), and
        // a mixed long+short+scalar tail.
        lengths.extend([191, 192, 193, 575, 3071, 3072, 3073, 3072 + 192 + 13, 9216, 12 * 1024 + 7]);
        for align in 0..8usize {
            for &len in &lengths {
                let data = &backing[align..align + len];
                let sw = crc32c_update_slicing16(0xABCD_1234, data);
                let hw = crc32c_update_hw(0xABCD_1234, data).unwrap();
                assert_eq!(hw, sw, "len {len} align {align}");
            }
        }
    }

    /// Streamed-path incremental states: splitting inside a three-way
    /// chunk must agree with one-shot on both tiers.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_incremental_splits_inside_streams() {
        if crc32c_update_hw(!0, b"").is_none() {
            return;
        }
        let data: Vec<u8> = (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let oneshot = crc32c_update_slicing16(!0, &data);
        for split in [1usize, 100, 191, 192, 193, 3071, 3072, 3073, 5000, 9999] {
            let s = crc32c_update_hw(!0, &data[..split]).unwrap();
            let s = crc32c_update_hw(s, &data[split..]).unwrap();
            assert_eq!(s, oneshot, "hw split {split}");
        }
    }
}
