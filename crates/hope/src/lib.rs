//! HOPE — the High-speed Order-Preserving Encoder (Chapter 6).
//!
//! HOPE models order-preserving dictionary compression with the **string
//! axis** (§6.1): the key space is partitioned into consecutive intervals,
//! each mapped to a common-prefix *symbol* and a monotonically increasing
//! prefix *code*. Completeness (the intervals cover the axis) makes
//! arbitrary keys encodable; monotone codes preserve order.
//!
//! Six schemes trade compression rate against encoding speed (Fig. 6.3/6.4):
//!
//! | scheme | intervals | codes |
//! |---|---|---|
//! | [`Scheme::SingleChar`] | 256 fixed 1-byte | optimal (FIVC) |
//! | [`Scheme::DoubleChar`] | 65536 fixed 2-byte | optimal (FIVC) |
//! | [`Scheme::Alm`] | variable, weight-equalized | fixed length (VIFC) |
//! | [`Scheme::ThreeGrams`] | frequent 3-grams + gaps | optimal (VIVC) |
//! | [`Scheme::FourGrams`] | frequent 4-grams + gaps | optimal (VIVC) |
//! | [`Scheme::AlmImproved`] | variable, weight-equalized | optimal (VIVC) |
//!
//! "Optimal" order-preserving codes are produced by recursive
//! weight-balanced alphabetic splitting — a documented substitution for
//! Hu–Tucker (DESIGN.md): it preserves order exactly and is within the
//! classic ≤ 2-bit Horibe bound of entropy, verified by tests.
//!
//! ## Caveat (shared with the reference implementation)
//!
//! Keys must not rely on NUL-only distinctions: a key whose suffix encodes
//! to all-zero bits can collide with its own prefix after byte padding.
//! Avoid 0x00 bytes in keys (ASCII workloads always do).

#![warn(missing_docs)]

mod build;
mod codes;
mod dict;
mod encode;
pub mod integrate;

pub use dict::{Code, Dict};
pub use encode::BatchEncoder;
pub use integrate::HopeIndex;

use std::time::Duration;

/// The six compression schemes of Table 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// FIVC: 256 single-byte intervals, optimal codes (Hu-Tucker class).
    SingleChar,
    /// FIVC: 65536 two-byte intervals, optimal codes.
    DoubleChar,
    /// VIFC: ALM — variable-length intervals equalizing `len(s)·p(s)`,
    /// fixed-length codes.
    Alm,
    /// VIVC: frequent 3-grams as intervals, optimal codes.
    ThreeGrams,
    /// VIVC: frequent 4-grams as intervals, optimal codes.
    FourGrams,
    /// VIVC: ALM intervals with optimal codes.
    AlmImproved,
}

impl Scheme {
    /// All six schemes, in the paper's order.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::SingleChar,
            Scheme::DoubleChar,
            Scheme::Alm,
            Scheme::ThreeGrams,
            Scheme::FourGrams,
            Scheme::AlmImproved,
        ]
    }

    /// Display name matching the thesis figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::SingleChar => "Single-Char",
            Scheme::DoubleChar => "Double-Char",
            Scheme::Alm => "ALM",
            Scheme::ThreeGrams => "3-Grams",
            Scheme::FourGrams => "4-Grams",
            Scheme::AlmImproved => "ALM-Improved",
        }
    }
}

/// Timing breakdown of dictionary construction (Figure 6.12's phases).
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildBreakdown {
    /// Symbol frequency counting over the sample.
    pub count: Duration,
    /// Interval/symbol selection.
    pub select: Duration,
    /// Code assignment (fixed or optimal).
    pub assign_codes: Duration,
    /// Final dictionary structure build.
    pub build_dict: Duration,
}

impl BuildBreakdown {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.count + self.select + self.assign_codes + self.build_dict
    }
}

/// A trained HOPE encoder.
#[derive(Debug)]
pub struct Hope {
    pub(crate) dict: Dict,
    scheme: Scheme,
    breakdown: BuildBreakdown,
}

impl Hope {
    /// Trains a dictionary of at most `dict_limit` intervals on a sample of
    /// keys (the thesis samples ~1 % of the bulk-load; 2^16 limit default).
    pub fn train(scheme: Scheme, sample: &[&[u8]], dict_limit: usize) -> Self {
        build::train(scheme, sample, dict_limit)
    }

    /// Convenience: train from owned keys.
    pub fn train_keys(scheme: Scheme, sample: &[Vec<u8>], dict_limit: usize) -> Self {
        let refs: Vec<&[u8]> = sample.iter().map(|k| k.as_slice()).collect();
        Self::train(scheme, &refs, dict_limit)
    }

    /// The scheme this encoder was trained as.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Build-phase timing breakdown.
    pub fn breakdown(&self) -> BuildBreakdown {
        self.breakdown
    }

    /// Dictionary memory in bytes.
    pub fn dict_mem(&self) -> usize {
        self.dict.mem_usage()
    }

    /// Number of dictionary intervals.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Encodes `key` into zero-padded bytes plus the exact bit length.
    pub fn encode(&self, key: &[u8]) -> (Vec<u8>, usize) {
        encode::encode(&self.dict, key)
    }

    /// Encodes to padded bytes only (the form stored in search trees).
    pub fn encode_bytes(&self, key: &[u8]) -> Vec<u8> {
        self.encode(key).0
    }

    /// Allocation-free encode into a caller-owned buffer (cleared first);
    /// returns the exact bit length. The hot path for query-side encoding.
    pub fn encode_into(&self, key: &[u8], out: &mut Vec<u8>) -> usize {
        encode::encode_into(&self.dict, key, out)
    }

    /// Decodes an exact-bit-length encoding back to the key (test support;
    /// search-tree queries never decode, §6.2).
    pub fn decode(&self, bytes: &[u8], bit_len: usize) -> Vec<u8> {
        encode::decode(&self.dict, bytes, bit_len)
    }

    /// Batch encoder that reuses shared-prefix work on sorted inputs
    /// (§6.4.4).
    pub fn batch_encoder(&self) -> BatchEncoder<'_> {
        BatchEncoder::new(&self.dict)
    }

    /// Compression rate `Σ len(key) / Σ len(encoded)` over `keys` (CPR as
    /// reported in Figure 6.9; bytes before / bytes after).
    pub fn cpr(&self, keys: &[&[u8]]) -> f64 {
        let mut orig = 0usize;
        let mut enc = 0usize;
        for k in keys {
            orig += k.len();
            enc += self.encode(k).0.len();
        }
        orig as f64 / enc.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::hash::splitmix64;

    pub(crate) fn email_sample(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed;
        let domains = ["com.gmail", "com.yahoo", "com.hotmail", "org.apache", "edu.cmu.cs"];
        let names = ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"];
        (0..n)
            .map(|_| {
                let d = domains[(splitmix64(&mut state) % domains.len() as u64) as usize];
                let u = names[(splitmix64(&mut state) % names.len() as u64) as usize];
                let num = splitmix64(&mut state) % 10_000;
                format!("{d}@{u}{num}").into_bytes()
            })
            .collect()
    }

    fn check_order_and_roundtrip(scheme: Scheme, limit: usize) {
        let sample = email_sample(2000, 7);
        let hope = Hope::train_keys(scheme, &sample, limit);
        let mut keys = email_sample(3000, 99);
        keys.sort();
        keys.dedup();
        let mut prev: Option<(Vec<u8>, usize)> = None;
        for k in &keys {
            let (bytes, bits) = hope.encode(k);
            // Unique decodability.
            assert_eq!(
                hope.decode(&bytes, bits),
                *k,
                "roundtrip {:?} under {scheme:?}",
                String::from_utf8_lossy(k)
            );
            // Order preservation, including on the padded byte form.
            if let Some((pb, _)) = &prev {
                assert!(
                    pb < &bytes,
                    "order violated under {scheme:?}: {:?} then {:?}",
                    pb,
                    bytes
                );
            }
            prev = Some((bytes, bits));
        }
    }

    #[test]
    fn all_schemes_order_preserving_and_decodable() {
        for scheme in Scheme::all() {
            let limit = match scheme {
                Scheme::SingleChar => 256,
                Scheme::DoubleChar => 65536,
                _ => 4096,
            };
            check_order_and_roundtrip(scheme, limit);
        }
    }

    #[test]
    fn compression_beats_raw_on_emails() {
        let sample = email_sample(3000, 1);
        let keys = email_sample(5000, 2);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for scheme in Scheme::all() {
            let limit = if scheme == Scheme::SingleChar { 256 } else { 65536 };
            let hope = Hope::train_keys(scheme, &sample, limit);
            let cpr = hope.cpr(&refs);
            assert!(cpr > 1.2, "{scheme:?} CPR {cpr:.2} too low");
        }
    }

    #[test]
    fn higher_order_schemes_compress_better() {
        let sample = email_sample(5000, 3);
        let keys = email_sample(5000, 4);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let single = Hope::train_keys(Scheme::SingleChar, &sample, 256).cpr(&refs);
        let double = Hope::train_keys(Scheme::DoubleChar, &sample, 65536).cpr(&refs);
        let grams3 = Hope::train_keys(Scheme::ThreeGrams, &sample, 65536).cpr(&refs);
        assert!(double > single * 0.99, "double {double:.2} vs single {single:.2}");
        assert!(grams3 > single, "3grams {grams3:.2} vs single {single:.2}");
    }

    #[test]
    fn arbitrary_bytes_encodable() {
        // Completeness: keys with bytes never seen in the sample.
        let sample = email_sample(500, 5);
        for scheme in Scheme::all() {
            let hope = Hope::train_keys(scheme, &sample, 1024);
            for key in [
                &[0x01u8, 0x02, 0x03][..],
                b"ZZZZZZZZ",
                &[0xFE, 0xFD, 0x10],
                b"completely unseen bytes 12345!@#",
                &[0xFF, 0xFF],
            ] {
                let (bytes, bits) = hope.encode(key);
                assert_eq!(hope.decode(&bytes, bits), key, "{scheme:?} {key:?}");
            }
        }
    }

    #[test]
    fn empty_key() {
        let sample = email_sample(100, 6);
        let hope = Hope::train_keys(Scheme::SingleChar, &sample, 256);
        let (bytes, bits) = hope.encode(b"");
        assert_eq!(bits, 0);
        assert!(bytes.is_empty());
    }

    #[test]
    fn optimal_codes_within_entropy_bound() {
        // Single-Char optimal codes: average code length must be within
        // 2 bits of the byte entropy of the sample (Horibe bound for
        // weight-balanced alphabetic codes).
        let sample = email_sample(5000, 8);
        let hope = Hope::train_keys(Scheme::SingleChar, &sample, 256);
        let mut freq = [0u64; 256];
        let mut total = 0u64;
        for k in &sample {
            for &b in k {
                freq[b as usize] += 1;
                total += 1;
            }
        }
        let entropy: f64 = freq
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let mut weighted_len = 0f64;
        for k in &sample {
            for &b in k {
                weighted_len += hope.dict.code_for_test(&[b]).len as f64;
            }
        }
        let avg = weighted_len / total as f64;
        assert!(
            avg <= entropy + 2.0,
            "avg code length {avg:.2} vs entropy {entropy:.2}"
        );
    }

    #[test]
    fn batch_encoding_matches_single() {
        let sample = email_sample(2000, 10);
        let mut keys = email_sample(2000, 11);
        keys.sort();
        keys.dedup();
        for scheme in [Scheme::ThreeGrams, Scheme::DoubleChar, Scheme::AlmImproved] {
            let hope = Hope::train_keys(scheme, &sample, 8192);
            let mut batch = hope.batch_encoder();
            for k in &keys {
                let single = hope.encode(k);
                let batched = batch.encode(k);
                assert_eq!(single.0, batched.0, "{scheme:?} {:?}", String::from_utf8_lossy(k));
                assert_eq!(single.1, batched.1);
            }
        }
    }
}
