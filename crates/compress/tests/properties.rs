//! Property tests: the block codec round-trips arbitrary inputs, never
//! panics on corrupted streams, and the checksummed frame catches every
//! single-bit corruption.

use memtree_common::check::{prop_check, Gen};
use memtree_common::{check, check_eq};
use memtree_compress::{compress, decode_block, decompress, encode_block, MemtreeError};

#[test]
fn roundtrip_arbitrary() {
    prop_check("roundtrip_arbitrary", 128, |g: &mut Gen| {
        let data = g.bytes_vec(0..6000);
        let c = compress(&data);
        check_eq!(decompress(&c).unwrap(), data);
        Ok(())
    });
}

#[test]
fn roundtrip_low_entropy() {
    prop_check("roundtrip_low_entropy", 128, |g: &mut Gen| {
        // Run-length-style inputs stress the overlapping-copy path.
        let mut data = vec![g.u64() as u8; 10];
        for _ in 0..g.range(0..40) {
            let b = g.u64() as u8;
            let n = g.range(1..200);
            data.extend(std::iter::repeat_n(b, n));
        }
        let c = compress(&data);
        check!(c.len() <= data.len() + data.len() / 127 + 2);
        check_eq!(decompress(&c).unwrap(), data);
        Ok(())
    });
}

#[test]
fn corrupted_streams_never_panic() {
    prop_check("corrupted_streams_never_panic", 256, |g: &mut Gen| {
        // Any byte soup must decode or error — never panic/UB.
        let junk = g.bytes_vec(0..500);
        let _ = decompress(&junk);
        let _ = decode_block(&junk);
        Ok(())
    });
}

#[test]
fn truncation_is_detected_or_consistent() {
    prop_check("truncation_is_detected_or_consistent", 128, |g: &mut Gen| {
        let data = g.bytes_vec(1..1000);
        let c = compress(&data);
        for cut in [c.len() / 2, c.len().saturating_sub(1)] {
            // Truncated raw streams either error or produce a
            // prefix-consistent output; they must not panic.
            if let Ok(out) = decompress(&c[..cut]) {
                check!(out.len() <= data.len());
                check_eq!(&data[..out.len()], &out[..]);
            }
        }
        // Truncated *frames* always error — the frame knows its length.
        let block = encode_block(&data);
        for cut in 0..block.len() {
            check!(decode_block(&block[..cut]).is_err(), "cut {}", cut);
        }
        Ok(())
    });
}

#[test]
fn framed_roundtrip_and_random_corruption() {
    prop_check("framed_roundtrip_and_random_corruption", 128, |g: &mut Gen| {
        let data = g.bytes_vec(0..4000);
        let mut block = encode_block(&data);
        check_eq!(decode_block(&block).unwrap(), data);
        // Random single-bit flips must surface as Corruption.
        let byte = g.range(0..block.len());
        let bit = 1u8 << g.range(0..8);
        block[byte] ^= bit;
        match decode_block(&block) {
            Err(MemtreeError::Corruption { .. }) => Ok(()),
            other => Err(format!("flip {byte}: expected corruption, got {other:?}")),
        }
    });
}
