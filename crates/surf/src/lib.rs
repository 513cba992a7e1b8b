//! SuRF — the Succinct Range Filter (Chapter 4).
//!
//! SuRF turns the FST into an approximate-membership filter by storing
//! only each key's *minimum distinguishing prefix plus one byte*
//! (SuRF-Base), optionally augmented with per-key suffix bits:
//!
//! * **SuRF-Hash** — `n` low bits of a 64-bit key hash; cuts point-query
//!   FPR below `2^-n` but contributes nothing to range queries.
//! * **SuRF-Real** — the `n` key bits immediately following the stored
//!   prefix; helps both point and range queries, but is weaker per bit for
//!   points on correlated key sets.
//! * **SuRF-Mixed** — a hash part and a real part, stored adjacently so
//!   one fetch reads both.
//!
//! All operations guarantee **one-sided errors**: `false` means the
//! key/range is definitely absent; `count` over-counts by at most 2.

#![warn(missing_docs)]

use memtree_common::error::{MemtreeError, Result};
use memtree_common::hash::hash64;
use memtree_common::traits::{PointFilter, RangeFilter};
use memtree_fst::{LookupResult, LoudsTrie, TrieIter, TrieMemStats, TrieOpts};
use memtree_succinct::PackedBits;

/// Which suffix bits a SuRF stores per key (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuffixConfig {
    /// SuRF-Base: no suffix bits.
    None,
    /// SuRF-Hash: `n` hashed bits per key (1..=32).
    Hash(u8),
    /// SuRF-Real: `n` real key bits per key (1..=32).
    Real(u8),
    /// SuRF-Mixed: hash bits then real bits.
    Mixed(u8, u8),
}

impl SuffixConfig {
    fn hash_bits(self) -> u32 {
        match self {
            SuffixConfig::Hash(h) => h as u32,
            SuffixConfig::Mixed(h, _) => h as u32,
            _ => 0,
        }
    }

    fn real_bits(self) -> u32 {
        match self {
            SuffixConfig::Real(r) => r as u32,
            SuffixConfig::Mixed(_, r) => r as u32,
            _ => 0,
        }
    }

    fn total_bits(self) -> u32 {
        self.hash_bits() + self.real_bits()
    }
}

/// Heap bytes of a [`Surf`] by part ([`Surf::mem_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurfMemStats {
    /// The truncated trie, by part.
    pub trie: TrieMemStats,
    /// The packed suffix bits.
    pub suffixes: usize,
}

impl SurfMemStats {
    /// The sum of the parts: the filter's heap bytes.
    pub fn total(&self) -> usize {
        self.trie.total() + self.suffixes
    }
}

/// The Succinct Range Filter.
#[derive(Debug)]
pub struct Surf {
    trie: LoudsTrie,
    suffixes: PackedBits,
    config: SuffixConfig,
}

/// Extracts `bits` key bits starting at byte offset `depth` (zero-padded
/// past the end of the key), MSB-first so numeric order matches key order.
fn real_suffix_bits(key: &[u8], depth: usize, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let mut v: u64 = 0;
    let nbytes = bits.div_ceil(8) as usize;
    for i in 0..nbytes {
        let b = key.get(depth + i).copied().unwrap_or(0);
        v = (v << 8) | b as u64;
    }
    v >> (nbytes as u32 * 8 - bits)
}

impl Surf {
    /// Builds a SuRF over sorted, duplicate-free keys.
    pub fn new(keys: &[&[u8]], config: SuffixConfig) -> Self {
        let (trie, order) = LoudsTrie::build(keys, TrieOpts::surf());
        Self::with_trie(keys, config, trie, &order)
    }

    /// Attaches the suffix bits of `keys` to a trie built over them, whose
    /// leaf order is `order`.
    fn with_trie(keys: &[&[u8]], config: SuffixConfig, trie: LoudsTrie, order: &[u32]) -> Self {
        let mut suffixes = PackedBits::new(config.total_bits(), trie.num_values());
        if config.total_bits() > 0 {
            // Stored-prefix depth of key i = max LCP with its neighbors + 1
            // (capped at the key length) — exactly where truncation cut it.
            let lcp = |a: &[u8], b: &[u8]| memtree_common::key::common_prefix_len(a, b);
            for (value_idx, &key_idx) in order.iter().enumerate() {
                let k = keys[key_idx as usize];
                let mut depth = 0usize;
                if key_idx > 0 {
                    depth = depth.max(lcp(keys[key_idx as usize - 1], k) + 1);
                }
                if (key_idx as usize) < keys.len() - 1 {
                    depth = depth.max(lcp(k, keys[key_idx as usize + 1]) + 1);
                }
                let depth = depth.min(k.len()).max(1.min(k.len()));
                let mut bits = 0u64;
                let h = config.hash_bits();
                if h > 0 {
                    bits = hash64(k) & (u64::MAX >> (64 - h));
                }
                let r = config.real_bits();
                if r > 0 {
                    bits = (bits << r) | real_suffix_bits(k, depth, r);
                }
                suffixes.set(value_idx, bits);
            }
        }
        Self {
            trie,
            suffixes,
            config,
        }
    }

    /// Convenience constructor from owned keys.
    pub fn from_keys(keys: &[Vec<u8>], config: SuffixConfig) -> Self {
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        Self::new(&refs, config)
    }

    /// Number of keys the filter was built over: each key owns exactly
    /// one value slot of the trie.
    pub fn num_keys(&self) -> usize {
        self.trie.num_values()
    }

    /// Bits of filter per stored key.
    pub fn bits_per_key(&self) -> f64 {
        (self.size_bytes() as f64 * 8.0) / self.num_keys().max(1) as f64
    }

    /// The underlying truncated trie.
    pub fn trie(&self) -> &LoudsTrie {
        &self.trie
    }

    /// Heap bytes by part; they sum to [`PointFilter::size_bytes`].
    pub fn mem_stats(&self) -> SurfMemStats {
        SurfMemStats {
            trie: self.trie.mem_stats(),
            suffixes: self.suffixes.mem_usage(),
        }
    }

    /// Stored suffix bits for a value slot (hash bits above real bits).
    fn stored(&self, value_idx: usize) -> u64 {
        self.suffixes.get(value_idx)
    }

    fn check_suffix(&self, value_idx: usize, key: &[u8], depth: usize) -> bool {
        let h = self.config.hash_bits();
        let r = self.config.real_bits();
        if h + r == 0 {
            return true;
        }
        let stored = self.stored(value_idx);
        if h > 0 {
            let expect = hash64(key) & (u64::MAX >> (64 - h));
            if stored >> r != expect {
                return false;
            }
        }
        if r > 0 {
            let expect = real_suffix_bits(key, depth, r);
            if stored & (u64::MAX >> (64 - r)) != expect {
                return false;
            }
        }
        true
    }

    /// Point membership test with the value-slot exposed (for tests).
    pub fn lookup(&self, key: &[u8]) -> bool {
        match self.trie.lookup(key) {
            LookupResult::Found { value_idx, depth } => self.check_suffix(value_idx, key, depth),
            LookupResult::NotFound => false,
        }
    }

    /// SuRF's `moveToNext(k)` (§4.1.5): an iterator at the smallest stored
    /// key `>= low` under one-sided-error semantics, refined by real suffix
    /// bits where possible. Returns `(iter, fp_flag)`.
    pub fn move_to_next<'a>(&'a self, low: &[u8]) -> (TrieIter<'a>, bool) {
        let mut it = self.trie.lower_bound(low);
        let mut fp = it.valid() && it.fp_flag();
        if fp {
            let r = self.config.real_bits();
            if r > 0 {
                // The stored key is a strict prefix of `low`; its real
                // suffix bits order it against low's bits at that position.
                let value_idx = it.value_idx();
                let stored_real = self.stored(value_idx) & (u64::MAX >> (64 - r));
                let query = real_suffix_bits(low, it.key().len(), r);
                if stored_real < query {
                    // Definitely smaller than low: advance.
                    it.next();
                    fp = false;
                } else if stored_real > query {
                    fp = false; // definitely >= low
                }
            }
        }
        (it, fp)
    }

    /// Appends this filter's raw image to `out`: the suffix config, the
    /// packed suffix words, and the underlying trie image
    /// ([`LoudsTrie::serialize`]). No framing or checksum — the storage
    /// layer wraps images in its own CRC frame.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        let (tag, a, b): (u8, u8, u8) = match self.config {
            SuffixConfig::None => (0, 0, 0),
            SuffixConfig::Hash(h) => (1, h, 0),
            SuffixConfig::Real(r) => (2, r, 0),
            SuffixConfig::Mixed(h, r) => (3, h, r),
        };
        out.extend_from_slice(&[tag, a, b]);
        out.extend_from_slice(&(self.suffixes.words().len() as u64).to_le_bytes());
        for &w in self.suffixes.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        self.trie.serialize(out);
    }

    /// Rebuilds a filter from a [`Surf::serialize`] image. Structural
    /// damage anywhere (truncated body, inconsistent suffix store, trie
    /// image corruption) is a typed `Corruption` error; a returned filter
    /// behaves identically to the one that was serialized.
    pub fn deserialize(buf: &[u8]) -> Result<Self> {
        const CTX: &str = "surf-image";
        let bad = |what: &str| MemtreeError::corruption(CTX, what.to_string());
        let need = |buf: &[u8], at: usize, n: usize| {
            if buf.len() - at < n {
                Err(bad("truncated body"))
            } else {
                Ok(())
            }
        };
        need(buf, 0, 3)?;
        let config = match (buf[0], buf[1], buf[2]) {
            (0, 0, 0) => SuffixConfig::None,
            (1, h @ 1..=32, 0) => SuffixConfig::Hash(h),
            (2, r @ 1..=32, 0) => SuffixConfig::Real(r),
            (3, h @ 1..=32, r @ 1..=32) if h + r <= 64 => SuffixConfig::Mixed(h, r),
            _ => return Err(bad("unknown suffix config")),
        };
        let mut at = 3;
        let u64_at = |buf: &[u8], at: &mut usize| -> Result<u64> {
            need(buf, *at, 8)?;
            let v = u64::from_le_bytes(buf[*at..*at + 8].try_into().unwrap());
            *at += 8;
            Ok(v)
        };
        let nwords = u64_at(buf, &mut at)? as usize;
        if nwords > (buf.len() - at) / 8 {
            return Err(bad("suffix store larger than image"));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(u64_at(buf, &mut at)?);
        }
        let trie = LoudsTrie::deserialize(&buf[at..])?;
        let suffixes = PackedBits::from_words(config.total_bits(), trie.num_values(), words)
            .ok_or_else(|| bad("suffix store length disagrees with trie values"))?;
        Ok(Self {
            trie,
            suffixes,
            config,
        })
    }

    /// Approximate range count (§4.1.5): number of stored keys in
    /// `[low, high)`; may over-count by at most 2 (one per boundary).
    pub fn count(&self, low: &[u8], high: &[u8]) -> usize {
        if low >= high {
            return 0;
        }
        let (lo_it, _lo_fp) = self.move_to_next(low);
        let (mut hi_it, hi_fp) = self.move_to_next(high);
        if hi_fp && hi_it.valid() {
            // Ambiguous boundary: include it (over-count, never under).
            hi_it.next();
        }
        let before_hi = self.trie.count_before(&hi_it);
        let before_lo = self.trie.count_before(&lo_it);
        before_hi.saturating_sub(before_lo)
    }
}

impl PointFilter for Surf {
    fn may_contain(&self, key: &[u8]) -> bool {
        self.lookup(key)
    }

    fn size_bytes(&self) -> usize {
        self.mem_stats().total()
    }
}

impl RangeFilter for Surf {
    fn may_contain_range(&self, low: &[u8], high: &[u8]) -> bool {
        if low >= high {
            return false;
        }
        let (it, fp) = self.move_to_next(low);
        if !it.valid() {
            return false;
        }
        let _ = fp;
        let k = it.key();
        // `k` is the stored (possibly truncated) prefix of the candidate;
        // the true key extends it. If k < high the extensions may fall
        // either side of `high` — return true (one-sided). A strict prefix
        // of `high` sorts below `high`, so it is covered here too.
        if k < high {
            return true;
        }
        // k >= high: every extension of k is >= k >= high, outside the
        // half-open range. In particular a *complete* stored key exactly
        // equal to `high` is excluded by [low, high) — the pre-fix code
        // answered true for it.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::hash::splitmix64;
    use memtree_common::key::encode_u64;

    fn random_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed;
        let mut keys: Vec<Vec<u8>> = (0..n)
            .map(|_| encode_u64(splitmix64(&mut state)).to_vec())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    fn email_keys(n: usize) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                format!(
                    "com.domain{:02}@user{:06}",
                    i % 40,
                    (i as u64).wrapping_mul(2654435761) % 1_000_000
                )
                .into_bytes()
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    fn all_configs() -> Vec<SuffixConfig> {
        vec![
            SuffixConfig::None,
            SuffixConfig::Hash(4),
            SuffixConfig::Real(8),
            SuffixConfig::Mixed(4, 4),
        ]
    }

    #[test]
    fn no_false_negatives_point() {
        for keys in [random_keys(5000, 1), email_keys(5000)] {
            for cfg in all_configs() {
                let s = Surf::from_keys(&keys, cfg);
                for k in &keys {
                    assert!(s.may_contain(k), "false negative {k:?} cfg {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn hash_suffix_fpr_bounded() {
        // With n hash bits, FPR on disjoint queries must be ~2^-n.
        let keys = random_keys(20_000, 3);
        let s = Surf::from_keys(&keys, SuffixConfig::Hash(8));
        let mut state = 999u64;
        let mut fp = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let q = encode_u64(splitmix64(&mut state) | 1 << 63);
            let miss = keys.binary_search(&q.to_vec()).is_err();
            if miss && s.may_contain(&q) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / trials as f64;
        assert!(fpr < 0.03, "hash FPR too high: {fpr}");
    }

    #[test]
    fn suffixes_reduce_fpr_in_order() {
        // FPR(base) >= FPR(real8) and FPR(base) >= FPR(hash8) on emails.
        let keys = email_keys(20_000);
        let probes: Vec<Vec<u8>> = (0..10_000)
            .map(|i| {
                format!(
                    "com.domain{:02}@user{:06}x",
                    i % 40,
                    (i as u64).wrapping_mul(97) % 1_000_000
                )
                .into_bytes()
            })
            .collect();
        let fpr = |cfg: SuffixConfig| {
            let s = Surf::from_keys(&keys, cfg);
            let mut fp = 0;
            let mut neg = 0;
            for p in &probes {
                if keys.binary_search(p).is_err() {
                    neg += 1;
                    if s.may_contain(p) {
                        fp += 1;
                    }
                }
            }
            fp as f64 / neg as f64
        };
        let base = fpr(SuffixConfig::None);
        let hash = fpr(SuffixConfig::Hash(8));
        let real = fpr(SuffixConfig::Real(8));
        assert!(hash <= base + 1e-9, "hash {hash} vs base {base}");
        assert!(real <= base + 1e-9, "real {real} vs base {base}");
        assert!(hash < 0.05, "hash FPR {hash}");
    }

    #[test]
    fn no_false_negatives_range() {
        let keys = random_keys(3000, 7);
        for cfg in all_configs() {
            let s = Surf::from_keys(&keys, cfg);
            // Ranges built around every 50th stored key must hit.
            for k in keys.iter().step_by(50) {
                let lo = k.clone();
                let hi = memtree_common::key::successor(k);
                assert!(
                    s.may_contain_range(&lo, &hi),
                    "range miss around {k:?} cfg {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn range_filter_rejects_empty_gaps() {
        // Keys spaced far apart: tight in-gap ranges should mostly be
        // rejected (not a correctness requirement — an efficacy check).
        let keys: Vec<Vec<u8>> = (0..10_000u64)
            .map(|i| encode_u64(i << 20).to_vec())
            .collect();
        let s = Surf::from_keys(&keys, SuffixConfig::Real(8));
        let mut rejected = 0;
        let total = 1000;
        for i in 0..total {
            let base = ((i as u64) << 20) + 5000;
            let lo = encode_u64(base);
            let hi = encode_u64(base + 100);
            if !s.may_contain_range(&lo, &hi) {
                rejected += 1;
            }
        }
        assert!(
            rejected > total * 9 / 10,
            "only {rejected}/{total} empty ranges rejected"
        );
    }

    #[test]
    fn half_open_range_excludes_exact_high_key() {
        // Regression: a complete stored key exactly equal to `high` is NOT
        // in [low, high); the filter used to answer true for it.
        for cfg in all_configs() {
            let s = Surf::new(&[b"ab", b"ac"], cfg);
            assert!(
                !s.may_contain_range(b"aa", b"ab"),
                "[aa, ab) holds no stored key, cfg {cfg:?}"
            );
            // Sanity: the adjacent ranges that do contain a key still hit.
            assert!(s.may_contain_range(b"ab", b"ac"), "cfg {cfg:?}");
            assert!(s.may_contain_range(b"ac", b"ad"), "cfg {cfg:?}");
            assert!(s.may_contain_range(b"aa", b"ab\x00"), "cfg {cfg:?}");
        }
        // Same shape on integer keys. Even u64s differ from a neighbor in
        // their last byte, so every key is stored *complete*; probing from
        // the odd key below (fixed 8 bytes, so it extends no stored prefix)
        // makes the exact-high exclusion deterministic.
        let keys: Vec<Vec<u8>> = (0..1000u64).map(|i| encode_u64(2 * i).to_vec()).collect();
        for cfg in all_configs() {
            let s = Surf::from_keys(&keys, cfg);
            for i in (1..1000u64).step_by(97) {
                let lo = encode_u64(2 * i - 1);
                let hi = encode_u64(2 * i);
                assert!(
                    !s.may_contain_range(&lo, &hi),
                    "gap ending at stored key {} leaked, cfg {cfg:?}",
                    2 * i
                );
            }
        }
    }

    #[test]
    fn count_over_counts_by_at_most_two() {
        let keys = random_keys(5000, 11);
        for cfg in [SuffixConfig::None, SuffixConfig::Real(8)] {
            let s = Surf::from_keys(&keys, cfg);
            let mut state = 77u64;
            for _ in 0..500 {
                let a = encode_u64(splitmix64(&mut state)).to_vec();
                let b = encode_u64(splitmix64(&mut state)).to_vec();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let truth = keys.partition_point(|k| k.as_slice() < hi.as_slice())
                    - keys.partition_point(|k| k.as_slice() < lo.as_slice());
                let got = s.count(&lo, &hi);
                assert!(
                    got >= truth && got <= truth + 2,
                    "count {got} vs truth {truth} cfg {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn base_is_about_10_bits_per_key_on_random_ints() {
        let keys = random_keys(100_000, 13);
        let s = Surf::from_keys(&keys, SuffixConfig::None);
        let bpk = s.bits_per_key();
        assert!(bpk > 5.0 && bpk < 16.0, "bits per key {bpk:.1}");
        // Email keys share prefixes: more internal nodes per key.
        let emails = email_keys(50_000);
        let se = Surf::from_keys(&emails, SuffixConfig::None);
        assert!(
            se.bits_per_key() > bpk * 0.8,
            "email {:.1} vs int {bpk:.1}",
            se.bits_per_key()
        );
    }

    #[test]
    fn serialize_roundtrip_is_behaviorally_identical() {
        for keys in [random_keys(2000, 5), email_keys(2000)] {
            for cfg in all_configs() {
                let s = Surf::from_keys(&keys, cfg);
                let mut img = Vec::new();
                s.serialize(&mut img);
                let d = Surf::deserialize(&img).unwrap();
                assert_eq!(d.num_keys(), s.num_keys(), "cfg {cfg:?}");
                // Vec capacity slack between push-built and exact-sized
                // storage makes byte-exact equality too strict.
                let (ds, ss) = (d.size_bytes() as f64, s.size_bytes() as f64);
                assert!((ds - ss).abs() <= ss * 0.01 + 64.0, "size {ds} vs {ss} cfg {cfg:?}");
                // Differential probe set: stored keys, extensions,
                // prefixes, and unrelated keys must all answer identically.
                let mut probes: Vec<Vec<u8>> = Vec::new();
                for (i, k) in keys.iter().enumerate() {
                    probes.push(k.clone());
                    let mut q = k.clone();
                    q.push(b'!');
                    probes.push(q);
                    if k.len() > 1 {
                        probes.push(k[..k.len() - 1].to_vec());
                    }
                    probes.push(format!("absent-{i}").into_bytes());
                }
                let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
                for k in &refs {
                    assert_eq!(s.may_contain(k), d.may_contain(k), "cfg {cfg:?} key {k:?}");
                }
                // Range behavior survives too (iterator + count machinery).
                for k in keys.iter().step_by(37) {
                    let hi = memtree_common::key::successor(k);
                    assert_eq!(
                        s.may_contain_range(k, &hi),
                        d.may_contain_range(k, &hi),
                        "cfg {cfg:?}"
                    );
                    assert_eq!(s.count(k, &hi), d.count(k, &hi), "cfg {cfg:?}");
                }
            }
        }
        // Degenerate shapes round-trip as well.
        for keys in [Vec::new(), vec![b"".to_vec()], vec![b"".to_vec(), b"a".to_vec()]] {
            let s = Surf::from_keys(&keys, SuffixConfig::Real(8));
            let mut img = Vec::new();
            s.serialize(&mut img);
            let d = Surf::deserialize(&img).unwrap();
            for k in [&b""[..], b"a", b"b"] {
                assert_eq!(s.may_contain(k), d.may_contain(k), "{keys:?} {k:?}");
            }
        }
    }

    #[test]
    fn truncated_or_damaged_images_are_typed_errors_never_panics() {
        let keys = random_keys(200, 9);
        let s = Surf::from_keys(&keys, SuffixConfig::Mixed(4, 4));
        let mut img = Vec::new();
        s.serialize(&mut img);
        // Every proper prefix of the body is semantically truncated: the
        // CRC frame around it may still validate, so deserialize itself
        // must reject it with a typed error rather than panic.
        for cut in 0..img.len() {
            assert!(
                Surf::deserialize(&img[..cut]).is_err(),
                "truncation to {cut} bytes must not produce a filter"
            );
        }
        // Trailing garbage is equally structural damage.
        let mut padded = img.clone();
        padded.extend_from_slice(&[0u8; 7]);
        assert!(Surf::deserialize(&padded).is_err());
        // An unknown config tag is rejected up front.
        let mut bad_tag = img.clone();
        bad_tag[0] = 9;
        assert!(Surf::deserialize(&bad_tag).is_err());
        // Crafted lengths: counts that overflow arithmetic or would size an
        // allocation far past the image. Offsets: the trie image starts
        // after the config and the suffix words; its header is flags, the
        // ratio, then seven u64 counts (height is the fifth); the level
        // boundary count sits just before the last `height + 1` words.
        let trie_at = 3 + 8 + 8 * s.suffixes.words().len();
        let (dense_nodes_at, height_at) = (trie_at + 1 + 8 + 8, trie_at + 1 + 8 + 4 * 8);
        let starts_at = img.len() - 8 * (s.trie().height() + 1) - 8;
        let patched = |fields: &[(usize, u64)]| {
            let mut b = img.clone();
            for &(at, v) in fields {
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            b
        };
        for crafted in [
            patched(&[(height_at, u64::MAX)]),
            patched(&[(height_at, (1 << 44) - 1), (starts_at, 1 << 44)]),
            patched(&[(dense_nodes_at, 1 << 60)]),
            patched(&[(3, u64::MAX / 8)]),
        ] {
            assert!(Surf::deserialize(&crafted).is_err());
        }
    }

    /// Every answer SuRF gives for `probes`: point, range (a tight and a
    /// wide one per probe), `move_to_next` and `count`.
    type Answers = Vec<(bool, bool, bool, Option<(Vec<u8>, bool)>, usize)>;

    fn answers(s: &Surf, probes: &[Vec<u8>]) -> Answers {
        probes
            .iter()
            .map(|p| {
                let tight = memtree_common::key::successor(p);
                let wide = memtree_common::key::prefix_successor(&p[..p.len() / 2])
                    .unwrap_or_else(|| vec![0xFF; 17]);
                let (it, fp) = s.move_to_next(p);
                (
                    s.may_contain(p),
                    s.may_contain_range(p, &tight),
                    s.may_contain_range(p, &wide),
                    it.valid().then(|| (it.key().to_vec(), fp)),
                    s.count(p, &wide),
                )
            })
            .collect()
    }

    #[test]
    fn every_cut_answers_as_the_r_rule_cut_does() {
        use memtree_workload::keys;
        for (name, set) in [
            ("random", keys::rand_bytes_keys(1000, 16, 256, 1)),
            ("partitioned", keys::rand_bytes_keys(1000, 16, 43, 2)),
            ("shared-prefix", keys::shared_prefix_keys(1000, 3)),
            ("email", keys::email_keys(1000, 4)),
        ] {
            let keys = keys::sorted_unique(set);
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut probes = keys.clone();
            for (i, k) in keys.iter().enumerate().step_by(3) {
                probes.push([k.as_slice(), b"~"].concat());
                probes.push(k[..k.len() / 2].to_vec());
                probes.push(format!("absent-{i}").into_bytes());
            }
            for cfg in [SuffixConfig::Real(8), SuffixConfig::Mixed(4, 4)] {
                let at_cut = |cut| {
                    let (trie, order) = LoudsTrie::build_at_cut(&refs, TrieOpts::surf(), cut);
                    let mut img = Vec::new();
                    Surf::with_trie(&refs, cfg, trie, &order).serialize(&mut img);
                    Surf::deserialize(&img).unwrap()
                };
                let r_rule = LoudsTrie::r_rule_cut(&refs, TrieOpts::surf());
                let expect = answers(&at_cut(r_rule), &probes);
                for cut in 0..=Surf::new(&refs, cfg).trie().height() {
                    let s = at_cut(cut);
                    assert_eq!(s.trie().dense_levels(), cut);
                    assert!(
                        answers(&s, &probes) == expect,
                        "{name} {cfg:?}: cut {cut} answers differently from the R rule's {r_rule}"
                    );
                }
            }
        }
    }

    #[test]
    fn mem_stats_sum_to_size_bytes() {
        let keys = random_keys(5000, 21);
        for cfg in all_configs() {
            let s = Surf::from_keys(&keys, cfg);
            let stats = s.mem_stats();
            assert_eq!(stats.total(), s.size_bytes(), "{cfg:?}");
            assert_eq!(stats.trie.total(), s.trie().mem_usage(), "{cfg:?}");
            let suffix_bits = cfg.total_bits() as usize * s.num_keys();
            assert_eq!(stats.suffixes, suffix_bits.div_ceil(64) * 8, "{cfg:?}");
        }
    }

    /// The rank and select directories of one benchmark-shaped table
    /// (16 384 random 16-byte keys, SuRF-Real(8)) at 16-bit entries: every
    /// count of a 16 384-key trie fits in them. At 32-bit entries the same
    /// directories took 1 424 and 720 B (the select samples' `Vec` also
    /// held growth slack then).
    #[test]
    fn a_table_trie_keeps_its_directories_at_16_bit_entries() {
        let keys = memtree_workload::keys::rand_bytes_keys(16_384, 16, 43, 7);
        let keys = memtree_workload::keys::sorted_unique(keys);
        let s = Surf::from_keys(&keys, SuffixConfig::Real(8));
        let trie = s.mem_stats().trie;
        // 44 dense nodes in 2 levels: `D-Labels` and `D-HasChild` are
        // 44 * 256 bits each, `D-IsPrefixKey` 44 bits, in whole words.
        assert_eq!(s.trie().dense_levels(), 2);
        assert_eq!(trie.dense_bitmaps, 2 * 44 * 256 / 8 + 8);
        // B = 64: 176 blocks and a sentinel per label bitmap, 1 block and
        // a sentinel over the prefix bits; 2 bytes an entry.
        assert_eq!(trie.dense_rank, (2 * (176 + 1) + (1 + 1)) * 2);
        // 12 736 sparse labels: `S-HasChild` and `S-LOUDS` take 25 blocks
        // of B = 512 and a sentinel each, and `S-LOUDS`'s ones take 77
        // samples of S = 64; 2 bytes an entry.
        assert_eq!(trie.sparse_labels, 12_736);
        assert_eq!(trie.sparse_rank_select, (2 * (25 + 1) + 77) * 2);
    }

    /// The image bytes of seeded filters, pinned by length and CRC32C:
    /// the suffix words (and everything around them) keep their exact
    /// layout, so images written by earlier builds stay readable.
    #[test]
    fn images_keep_their_bytes() {
        use memtree_common::crc::crc32c;
        let keys = memtree_workload::keys::rand_bytes_keys(4096, 16, 43, 42);
        let keys = memtree_workload::keys::sorted_unique(keys);
        let mut got = Vec::new();
        for cfg in [SuffixConfig::Real(8), SuffixConfig::Hash(8), SuffixConfig::Mixed(4, 4)] {
            let mut img = Vec::new();
            Surf::from_keys(&keys, cfg).serialize(&mut img);
            got.push((cfg, img.len(), crc32c(&img)));
        }
        let want = [
            (SuffixConfig::Real(8), 8681, 0x2c72_e550),
            (SuffixConfig::Hash(8), 8681, 0x21a5_c6a4),
            (SuffixConfig::Mixed(4, 4), 8681, 0xfd7e_7eb0),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_suffix_uses_both_parts() {
        let keys = email_keys(5000);
        let s = Surf::from_keys(&keys, SuffixConfig::Mixed(4, 4));
        for k in keys.iter().step_by(13) {
            assert!(s.may_contain(k));
        }
        // Size reflects 8 suffix bits per key.
        let base = Surf::from_keys(&keys, SuffixConfig::None);
        let diff_bits =
            (s.size_bytes() - base.size_bytes()) as f64 * 8.0 / keys.len() as f64;
        assert!(diff_bits > 7.0 && diff_bits < 10.0, "diff {diff_bits:.1}");
    }
}
