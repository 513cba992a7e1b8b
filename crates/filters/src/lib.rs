//! Point and range filter baselines used throughout Chapter 4.
//!
//! * [`BloomFilter`] — a RocksDB-style Bloom filter with 64-bit double
//!   hashing (the thesis swaps RocksDB's 32-bit Murmur for a 64-bit one at
//!   large key counts; ours is 64-bit from the start).
//! * [`Arf`] — the Adaptive Range Filter of Project Siberia, the
//!   state-of-the-art range-filter baseline SuRF is compared against
//!   (Table 4.1): a binary tree over the integer key space whose leaves
//!   record "may contain keys"/"definitely empty", trained by queries.
//!   We build the tree lazily under a space budget instead of
//!   materializing the paper's perfect trie (which needed 26 GB); the
//!   resulting filter behaviour (granularity, FPR, query path) matches.

#![warn(missing_docs)]

use memtree_common::codec::{put_words, Reader};
use memtree_common::error::{MemtreeError, Result};
use memtree_common::hash::hash64_seed;
use memtree_common::mem::vec_bytes;
use memtree_common::traits::{PointFilter, RangeFilter};
use memtree_succinct::BitVector;

/// A Bloom filter with `k` probes derived from two 64-bit hashes
/// (Kirsch–Mitzenmacher double hashing).
#[derive(Debug)]
pub struct BloomFilter {
    bits: BitVector,
    k: u32,
    num_keys: usize,
}

impl BloomFilter {
    /// Creates a filter sized at `bits_per_key` for `keys`, with the
    /// FPR-optimal probe count `k = round(ln 2 * bits_per_key)`.
    pub fn new(keys: &[&[u8]], bits_per_key: f64) -> Self {
        let m = ((keys.len() as f64 * bits_per_key).ceil() as usize).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        let mut bits = BitVector::zeros(m);
        for key in keys {
            let h1 = hash64_seed(key, 0x51ed_270b);
            let h2 = hash64_seed(key, 0xb492_b66f) | 1;
            for i in 0..k {
                let pos = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % m as u64) as usize;
                bits.set(pos);
            }
        }
        Self {
            bits,
            k,
            num_keys: keys.len(),
        }
    }

    /// Convenience constructor from owned keys.
    pub fn from_keys(keys: &[Vec<u8>], bits_per_key: f64) -> Self {
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        Self::new(&refs, bits_per_key)
    }

    /// Number of probe hashes.
    pub fn probes(&self) -> u32 {
        self.k
    }

    /// Bits of filter per stored key.
    pub fn bits_per_key(&self) -> f64 {
        self.bits.len() as f64 / self.num_keys.max(1) as f64
    }

    /// Appends this filter's raw image to `out`: bit-array length, probe
    /// count, key count, then the raw words. No framing or checksum — the
    /// storage layer wraps images in its own CRC frame.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bits.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.num_keys as u64).to_le_bytes());
        put_words(out, self.bits.words());
    }

    /// Rebuilds a filter from a [`BloomFilter::serialize`] image. A body
    /// whose length disagrees with the stored bit count (semantic
    /// truncation inside a valid frame) is a typed `Corruption` error.
    pub fn deserialize(buf: &[u8]) -> Result<Self> {
        const CTX: &str = "bloom-image";
        let bad = |what: String| MemtreeError::corruption(CTX, what);
        let mut r = Reader::new(buf);
        let m = r.u64(CTX)? as usize;
        let k = r.u32(CTX)?;
        let num_keys = r.u64(CTX)? as usize;
        if m < 64 || !(1..=30).contains(&k) {
            return Err(bad(format!("implausible geometry m={m} k={k}")));
        }
        let words = r.words(m.div_ceil(64) as u64, CTX)?;
        r.done(CTX)?;
        let bits = BitVector::from_words(words, m)
            .ok_or_else(|| bad("padding bits set past the bit array".to_string()))?;
        Ok(Self { bits, k, num_keys })
    }
}

impl PointFilter for BloomFilter {
    fn may_contain(&self, key: &[u8]) -> bool {
        let m = self.bits.len() as u64;
        let h1 = hash64_seed(key, 0x51ed_270b);
        let h2 = hash64_seed(key, 0xb492_b66f) | 1;
        (0..self.k).all(|i| {
            self.bits
                .get((h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize)
        })
    }

    fn size_bytes(&self) -> usize {
        self.bits.mem_usage()
    }
}

// ---------------------------------------------------------------------------
// Adaptive Range Filter
// ---------------------------------------------------------------------------

const ARF_NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct ArfNode {
    /// `ARF_NIL` for leaves.
    left: u32,
    right: u32,
    /// Leaf payload: may the range contain keys?
    occupied: bool,
}

/// The Adaptive Range Filter over `u64` keys.
///
/// Usage: [`Arf::new`] → repeated [`Arf::train`] with representative
/// queries and ground truth → [`Arf::freeze`] (drops the key set) →
/// serve [`Arf::may_contain_range_u64`].
#[derive(Debug)]
pub struct Arf {
    nodes: Vec<ArfNode>,
    root: u32,
    /// Sorted keys; retained only until [`Arf::freeze`].
    keys: Vec<u64>,
    /// Maximum encoded size in bits (~2 bits per node, as in the paper's
    /// breadth-first shape + leaf encoding).
    budget_bits: usize,
    frozen: bool,
}

impl Arf {
    /// Creates an untrained filter (a single occupied leaf covering the
    /// whole key space).
    pub fn new(mut keys: Vec<u64>, budget_bits: usize) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let root_occupied = !keys.is_empty();
        Self {
            nodes: vec![ArfNode {
                left: ARF_NIL,
                right: ARF_NIL,
                occupied: root_occupied,
            }],
            root: 0,
            keys,
            budget_bits,
            frozen: false,
        }
    }

    fn encoded_bits(&self) -> usize {
        // Shape: 1 bit per node; leaf occupancy: 1 bit per leaf. ~2n bits.
        2 * self.nodes.len()
    }

    fn keys_in(&self, lo: u64, hi: u64) -> bool {
        // Any key in [lo, hi]?
        let i = self.keys.partition_point(|&k| k < lo);
        i < self.keys.len() && self.keys[i] <= hi
    }

    /// Trains with one query: if the filter answers "maybe" on a range the
    /// ground truth says is empty, split the responsible occupied leaves
    /// (while the budget allows) so the empty region gets its own leaf.
    pub fn train(&mut self, qlo: u64, qhi: u64, truth: bool) {
        assert!(!self.frozen, "cannot train a frozen ARF");
        if truth {
            return; // nothing to learn from true positives
        }
        self.refine(self.root, 0, u64::MAX, qlo, qhi);
    }

    fn refine(&mut self, node: u32, lo: u64, hi: u64, qlo: u64, qhi: u64) {
        if qhi < lo || qlo > hi {
            return;
        }
        let n = self.nodes[node as usize];
        if n.left != ARF_NIL {
            let mid = lo + (hi - lo) / 2;
            self.refine(n.left, lo, mid, qlo, qhi);
            self.refine(n.right, mid + 1, hi, qlo, qhi);
            return;
        }
        if !n.occupied {
            return; // already answers false here
        }
        // Occupied leaf overlapping an empty query range: split until the
        // query region separates from the keys (or budget/precision ends).
        if self.encoded_bits() + 2 > self.budget_bits || lo == hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let left = ArfNode {
            left: ARF_NIL,
            right: ARF_NIL,
            occupied: self.keys_in(lo, mid),
        };
        let right = ArfNode {
            left: ARF_NIL,
            right: ARF_NIL,
            occupied: self.keys_in(mid + 1, hi),
        };
        self.nodes.push(left);
        let li = (self.nodes.len() - 1) as u32;
        self.nodes.push(right);
        let ri = (self.nodes.len() - 1) as u32;
        let n = &mut self.nodes[node as usize];
        n.left = li;
        n.right = ri;
        // Recurse into the halves that still conflict.
        self.refine(li, lo, mid, qlo, qhi);
        self.refine(ri, mid + 1, hi, qlo, qhi);
    }

    /// Ends training: drops the key set (the deployed filter is the
    /// encoded tree alone, as in the paper).
    pub fn freeze(&mut self) {
        self.keys = Vec::new();
        self.frozen = true;
        self.nodes.shrink_to_fit();
    }

    /// Range membership test on `[lo, hi]` (inclusive, integer space).
    pub fn may_contain_range_u64(&self, qlo: u64, qhi: u64) -> bool {
        self.query(self.root, 0, u64::MAX, qlo, qhi)
    }

    fn query(&self, node: u32, lo: u64, hi: u64, qlo: u64, qhi: u64) -> bool {
        if qhi < lo || qlo > hi {
            return false;
        }
        let n = self.nodes[node as usize];
        if n.left == ARF_NIL {
            return n.occupied;
        }
        let mid = lo + (hi - lo) / 2;
        self.query(n.left, lo, mid, qlo, qhi) || self.query(n.right, mid + 1, hi, qlo, qhi)
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl PointFilter for Arf {
    fn may_contain(&self, key: &[u8]) -> bool {
        let k = memtree_common::key::decode_u64(key);
        self.may_contain_range_u64(k, k)
    }

    fn size_bytes(&self) -> usize {
        if self.frozen {
            // Deployed size: the encoded bit sequence.
            self.encoded_bits().div_ceil(8)
        } else {
            vec_bytes(&self.nodes) + vec_bytes(&self.keys)
        }
    }
}

impl RangeFilter for Arf {
    fn may_contain_range(&self, low: &[u8], high: &[u8]) -> bool {
        let lo = memtree_common::key::decode_u64(low);
        let hi = memtree_common::key::decode_u64(high);
        if lo >= hi {
            return false;
        }
        self.may_contain_range_u64(lo, hi - 1) // [low, high) convention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::hash::splitmix64;
    use memtree_common::key::encode_u64;

    #[test]
    fn bloom_no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..10_000u64).map(|i| encode_u64(i * 7).to_vec()).collect();
        let f = BloomFilter::from_keys(&keys, 14.0);
        for k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn bloom_fpr_near_theory() {
        let keys: Vec<Vec<u8>> = (0..50_000u64).map(|i| encode_u64(i).to_vec()).collect();
        let f = BloomFilter::from_keys(&keys, 14.0);
        let mut fp = 0;
        let trials = 50_000;
        for i in 0..trials {
            let q = encode_u64(1_000_000 + i as u64);
            if f.may_contain(&q) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / trials as f64;
        // Theory for 14 bits/key, k=10: ~0.08%. Allow generous headroom.
        assert!(fpr < 0.005, "FPR {fpr}");
    }

    #[test]
    fn bloom_more_bits_fewer_fps() {
        let keys: Vec<Vec<u8>> = (0..20_000u64).map(|i| encode_u64(i * 3).to_vec()).collect();
        let fpr = |bpk: f64| {
            let f = BloomFilter::from_keys(&keys, bpk);
            let mut fp = 0;
            for i in 0..20_000u64 {
                if f.may_contain(&encode_u64(i * 3 + 1)) {
                    fp += 1;
                }
            }
            fp as f64 / 20_000.0
        };
        let (lo, hi) = (fpr(4.0), fpr(12.0));
        assert!(hi < lo, "12bpk {hi} should beat 4bpk {lo}");
    }

    #[test]
    fn bloom_serialize_roundtrip_is_bit_identical() {
        for (n, bpk) in [(0usize, 14.0), (1, 10.0), (10_000, 14.0), (5000, 4.0)] {
            let keys: Vec<Vec<u8>> = (0..n as u64).map(|i| encode_u64(i * 3).to_vec()).collect();
            let f = BloomFilter::from_keys(&keys, bpk);
            let mut img = Vec::new();
            f.serialize(&mut img);
            let d = BloomFilter::deserialize(&img).unwrap();
            assert_eq!(d.probes(), f.probes());
            assert_eq!(d.bits_per_key(), f.bits_per_key());
            assert_eq!(d.size_bytes(), f.size_bytes());
            for i in 0..(2 * n.max(64)) as u64 {
                let q = encode_u64(i);
                assert_eq!(d.may_contain(&q), f.may_contain(&q), "n={n} key {i}");
            }
        }
    }

    #[test]
    fn bloom_damaged_images_are_typed_errors() {
        let keys: Vec<Vec<u8>> = (0..1000u64).map(|i| encode_u64(i).to_vec()).collect();
        let f = BloomFilter::from_keys(&keys, 10.0);
        let mut img = Vec::new();
        f.serialize(&mut img);
        for cut in 0..img.len() {
            assert!(
                BloomFilter::deserialize(&img[..cut]).is_err(),
                "truncation to {cut} must fail"
            );
        }
        let mut padded = img.clone();
        padded.push(0);
        assert!(BloomFilter::deserialize(&padded).is_err(), "trailing byte");
        let mut zero_k = img.clone();
        zero_k[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(BloomFilter::deserialize(&zero_k).is_err(), "k=0 geometry");
    }

    #[test]
    fn arf_no_false_negatives_after_training() {
        let mut state = 5u64;
        let keys: Vec<u64> = (0..5000).map(|_| splitmix64(&mut state)).collect();
        let mut arf = Arf::new(keys.clone(), 70_000);
        // Train with empty ranges between keys.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2).step_by(3) {
            if w[1] - w[0] > 2 {
                arf.train(w[0] + 1, w[1] - 1, false);
            }
        }
        arf.freeze();
        for &k in &keys {
            assert!(arf.may_contain_range_u64(k, k), "false negative {k}");
            assert!(arf.may_contain_range_u64(k.saturating_sub(10), k.saturating_add(10)));
        }
    }

    #[test]
    fn arf_learns_trained_empty_ranges() {
        // Keys clustered low; train on high empty ranges.
        let keys: Vec<u64> = (0..1000).map(|i| i * 1000).collect();
        let mut arf = Arf::new(keys, 100_000);
        for i in 0..200u64 {
            let lo = (1 << 40) + i * (1 << 20);
            arf.train(lo, lo + (1 << 19), false);
        }
        arf.freeze();
        let mut rejected = 0;
        for i in 0..200u64 {
            let lo = (1 << 40) + i * (1 << 20);
            if !arf.may_contain_range_u64(lo, lo + (1 << 19)) {
                rejected += 1;
            }
        }
        assert!(rejected > 150, "only {rejected}/200 learned");
        // Untrained queries in the key cluster still answer true.
        assert!(arf.may_contain_range_u64(0, 100));
    }

    #[test]
    fn arf_respects_budget() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 12345).collect();
        let budget = 10_000; // bits
        let mut arf = Arf::new(keys, budget);
        let mut state = 1u64;
        for _ in 0..5000 {
            let lo = splitmix64(&mut state);
            arf.train(lo, lo.saturating_add(1 << 30), false);
        }
        assert!(
            2 * arf.num_nodes() <= budget + 2,
            "nodes {} exceed budget",
            arf.num_nodes()
        );
        arf.freeze();
        assert!(arf.size_bytes() <= budget / 8 + 1);
    }

    #[test]
    fn arf_byte_key_adapter() {
        let keys: Vec<u64> = (0..100).map(|i| i * 1_000_000).collect();
        let mut arf = Arf::new(keys, 10_000);
        arf.train(50, 900_000, false);
        arf.freeze();
        assert!(arf.may_contain(&encode_u64(2_000_000)));
        assert!(!arf.may_contain_range_u64(0, 0) || arf.may_contain_range_u64(0, 0));
        // Half-open [low, high) convention via the byte interface.
        use memtree_common::traits::RangeFilter as _;
        assert!(arf.may_contain_range(&encode_u64(0), &encode_u64(1)));
    }
}

// ---------------------------------------------------------------------------
// Dynamic Bloom filter
// ---------------------------------------------------------------------------

/// An insert-supporting Bloom filter sized for an expected capacity — the
/// filter the hybrid index keeps in front of its dynamic stage (§5.1).
#[derive(Debug)]
pub struct DynamicBloom {
    bits: BitVector,
    k: u32,
    inserted: usize,
}

impl DynamicBloom {
    /// Creates a filter for ~`expected` keys at `bits_per_key`.
    pub fn new(expected: usize, bits_per_key: f64) -> Self {
        let m = ((expected as f64 * bits_per_key).ceil() as usize).max(1024);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        Self {
            bits: BitVector::zeros(m),
            k,
            inserted: 0,
        }
    }

    /// Adds a key.
    pub fn add(&mut self, key: &[u8]) {
        let m = self.bits.len() as u64;
        let h1 = hash64_seed(key, 0x51ed_270b);
        let h2 = hash64_seed(key, 0xb492_b66f) | 1;
        for i in 0..self.k {
            self.bits
                .set((h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize);
        }
        self.inserted += 1;
    }

    /// Clears all bits (after a hybrid-index merge drains the dynamic
    /// stage).
    pub fn reset(&mut self) {
        self.bits = BitVector::zeros(self.bits.len());
        self.inserted = 0;
    }

    /// Keys added since the last reset.
    pub fn inserted(&self) -> usize {
        self.inserted
    }
}

impl PointFilter for DynamicBloom {
    fn may_contain(&self, key: &[u8]) -> bool {
        let m = self.bits.len() as u64;
        let h1 = hash64_seed(key, 0x51ed_270b);
        let h2 = hash64_seed(key, 0xb492_b66f) | 1;
        (0..self.k).all(|i| {
            self.bits
                .get((h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize)
        })
    }

    fn size_bytes(&self) -> usize {
        self.bits.mem_usage()
    }
}

#[cfg(test)]
mod dynamic_bloom_tests {
    use super::*;
    use memtree_common::key::encode_u64;
    use memtree_common::traits::PointFilter;

    #[test]
    fn add_and_query() {
        let mut b = DynamicBloom::new(10_000, 10.0);
        for i in 0..10_000u64 {
            b.add(&encode_u64(i * 2));
        }
        for i in 0..10_000u64 {
            assert!(b.may_contain(&encode_u64(i * 2)));
        }
        let mut fp = 0;
        for i in 0..10_000u64 {
            if b.may_contain(&encode_u64(i * 2 + 1)) {
                fp += 1;
            }
        }
        assert!(fp < 300, "fp={fp}");
        b.reset();
        assert!(!b.may_contain(&encode_u64(0)));
        assert_eq!(b.inserted(), 0);
    }
}
