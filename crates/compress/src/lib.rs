//! A fast byte-oriented LZ77 block codec.
//!
//! Stands in for Snappy/LZ4 in the thesis's Compression Rule (§2.4) and in
//! H-Store anti-caching: same algorithmic class (greedy hash-table match
//! finding, byte-aligned output, decompression much faster than
//! compression, modest ratios on structured data).
//!
//! ## Format
//!
//! A block is a sequence of tokens:
//!
//! * **Literal** — token byte `0b0LLLLLLL` (`L` = length, 1–127) followed by
//!   `L` raw bytes.
//! * **Copy** — token byte `0b1LLLLLLL` (`L` = match length − 4, so 4–131)
//!   followed by a 2-byte little-endian back-offset (1–65535).
//!
//! Longer literals/matches are emitted as multiple tokens. The format is
//! self-terminating at the compressed length; the caller stores the
//! compressed byte count.
//!
//! ## Checksummed framing
//!
//! [`encode_block`]/[`decode_block`] wrap a compressed stream in a
//! self-describing frame — magic, raw length, compressed length, CRC32C —
//! so any corruption (a single flipped bit anywhere in the frame) surfaces
//! as [`MemtreeError::Corruption`] on decode instead of silently wrong
//! bytes. The Hybrid-Compressed B+tree and H-Store anti-caching store only
//! framed blocks.

#![warn(missing_docs)]

mod frame;

pub use frame::{decode_block, encode_block, FRAME_HEADER_BYTES};
pub use memtree_common::error::MemtreeError;

const MIN_MATCH: usize = 4;
const MAX_MATCH_TOKEN: usize = 131; // 4 + 127
const MAX_OFFSET: usize = 65535;
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// Compresses `input`, appending the token stream to `out` — lets the
/// framed encoder build header + payload in one buffer with no copy.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX
            && i - candidate <= MAX_OFFSET
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            // Flush pending literals.
            flush_literals(out, &input[lit_start..i]);
            // Extend the match.
            let mut len = MIN_MATCH;
            while i + len < input.len() && input[candidate + len] == input[i + len] {
                len += 1;
            }
            let offset = (i - candidate) as u16;
            let mut remaining = len;
            while remaining >= MIN_MATCH {
                let take = remaining.min(MAX_MATCH_TOKEN);
                // A trailing fragment < MIN_MATCH can't be a copy token;
                // shorten this token so the tail merges into literals.
                let take = if remaining - take > 0 && remaining - take < MIN_MATCH {
                    remaining - MIN_MATCH
                } else {
                    take
                };
                out.push(0x80 | ((take - MIN_MATCH) as u8));
                out.extend_from_slice(&offset.to_le_bytes());
                remaining -= take;
            }
            i += len - remaining;
            lit_start = i;
            // Leave `remaining` (< MIN_MATCH) bytes to the literal run.
        } else {
            i += 1;
        }
    }
    flush_literals(out, &input[lit_start..]);
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let take = lits.len().min(127);
        out.push(take as u8);
        out.extend_from_slice(&lits[..take]);
        lits = &lits[take..];
    }
}

/// Errors produced by [`decompress`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A token referenced bytes beyond the produced output (bad offset).
    BadOffset,
    /// The stream ended in the middle of a token.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOffset => write!(f, "copy offset outside produced output"),
            DecodeError::Truncated => write!(f, "compressed stream truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decompresses a block produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    decompress_impl::<false>(input, 0, input.len() * 3).map(|(out, _)| out)
}

/// Fused verify+decode: decompresses `input` while folding the scanned
/// bytes into a running CRC32C continued from `crc_state`, so the framed
/// decoder makes **one pass** over the payload instead of a CRC sweep
/// followed by a decompression sweep. `cap_hint` sizes the output buffer
/// exactly (the frame header knows `raw_len`), avoiding growth copies.
///
/// Returns the decompressed bytes and the final CRC state. On a decode
/// error the CRC is unfinished — the caller re-sweeps to attribute the
/// failure (corruption vs. genuinely bad stream).
pub(crate) fn decompress_fused(
    input: &[u8],
    crc_state: u32,
    cap_hint: usize,
) -> Result<(Vec<u8>, u32), DecodeError> {
    decompress_impl::<true>(input, crc_state, cap_hint)
}

/// Shared token loop. With `VERIFY`, the running CRC is folded forward in
/// chunks as the decoder moves past them, so checksummed bytes are still
/// cache-hot from the decode scan (a true single pass over memory).
fn decompress_impl<const VERIFY: bool>(
    input: &[u8],
    mut crc: u32,
    cap_hint: usize,
) -> Result<(Vec<u8>, u32), DecodeError> {
    /// Fold granularity: big enough to amortize kernel dispatch, small
    /// enough that folded bytes are still in L1.
    const CRC_CHUNK: usize = 512;
    let mut out = Vec::with_capacity(cap_hint);
    let mut crc_pos = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        if VERIFY && i - crc_pos >= CRC_CHUNK {
            crc = memtree_common::crc32c_update(crc, &input[crc_pos..i]);
            crc_pos = i;
        }
        let token = input[i];
        i += 1;
        if token & 0x80 == 0 {
            let len = token as usize;
            if len == 0 || i + len > input.len() {
                return Err(DecodeError::Truncated);
            }
            out.extend_from_slice(&input[i..i + len]);
            i += len;
        } else {
            if i + 2 > input.len() {
                return Err(DecodeError::Truncated);
            }
            let len = (token & 0x7F) as usize + MIN_MATCH;
            let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > out.len() {
                return Err(DecodeError::BadOffset);
            }
            // Overlapping copies are valid (RLE-style); copy byte-wise.
            let start = out.len() - offset;
            for j in 0..len {
                let b = out[start + j];
                out.push(b);
            }
        }
    }
    if VERIFY {
        crc = memtree_common::crc32c_update(crc, &input[crc_pos..]);
    }
    Ok((out, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decode");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data: Vec<u8> = b"hello world, hello world, hello world! "
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "ratio too poor: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_copy() {
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 3000);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_random() {
        let mut state = 99u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        // Expansion is bounded by the literal framing (1 byte per 127).
        assert!(c.len() <= data.len() + data.len() / 127 + 2);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn sorted_keys_block() {
        // The actual use case: a leaf node of sorted 8-byte keys.
        let mut data = Vec::new();
        for i in 0..512u64 {
            data.extend_from_slice(&(i * 131).to_be_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len(), "sorted keys should compress");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello world hello world hello world");
        assert!(decompress(&c[..c.len() - 1]).is_err());
        assert_eq!(decompress(&[0x85]), Err(DecodeError::Truncated));
        // Copy with offset beyond output.
        assert_eq!(decompress(&[0x80, 9, 0]), Err(DecodeError::BadOffset));
    }

    #[test]
    fn long_match_split_has_no_short_tail() {
        // A very long run exercises the multi-token match splitting.
        let mut data = b"0123456789".to_vec();
        data.extend(std::iter::repeat_n(b'x', 1000));
        data.extend_from_slice(b"0123456789");
        roundtrip(&data);
    }
}
