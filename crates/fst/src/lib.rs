//! Fast Succinct Trie (FST) — Chapter 3.
//!
//! FST encodes a 256-fanout trie with two cooperating schemes:
//!
//! * **LOUDS-Dense** (§3.2) for the hot upper levels: per node, a 256-bit
//!   `D-Labels` bitmap, a 256-bit `D-HasChild` bitmap, and one
//!   `D-IsPrefixKey` bit. A child search is a single bitmap probe.
//! * **LOUDS-Sparse** (§3.3) for the cold majority: a byte sequence
//!   `S-Labels` plus bit sequences `S-HasChild` and `S-LOUDS`, 10 bits per
//!   node — within 6 % of the information-theoretic lower bound.
//!
//! The dividing level is governed by the size ratio `R` (§3.4, default 64:
//! LOUDS-Dense is kept under ~2 % of the trie). Rank/select use the
//! customized single-level LUTs of §3.6 (`B = 64` dense, `B = 512` sparse,
//! select sampling `S = 64`), and sparse label search uses an 8-byte-SWAR
//! "SIMD" comparison. Every optimization can be disabled through
//! [`TrieOpts`] for the Figure 3.6 ablation.
//!
//! [`Fst`] is the user-facing map (complete keys, [`StaticIndex`]);
//! [`LoudsTrie`] is the encoding engine shared with SuRF (which builds a
//! *truncated* trie — see `memtree-surf`).

#![warn(missing_docs)]

pub mod baselines;
pub mod iter;
pub mod louds;

pub use baselines::{PdtLite, TxTrie};
pub use iter::TrieIter;
pub use louds::{LookupResult, LoudsTrie, TrieOpts};

use memtree_common::traits::{StaticIndex, Value};

/// The Fast Succinct Trie as an ordered static map over complete keys.
#[derive(Debug)]
pub struct Fst {
    trie: LoudsTrie,
    /// `values[value_idx]` where `value_idx` is the trie's level-ordered
    /// value slot for the key.
    values: Vec<Value>,
}

impl Fst {
    /// Builds with non-default options (ablation / tuning).
    pub fn build_with(entries: &[(Vec<u8>, Value)], opts: TrieOpts) -> Self {
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        let (trie, order) = LoudsTrie::build(&keys, opts);
        let values = order.iter().map(|&k| entries[k as usize].1).collect();
        Self { trie, values }
    }

    /// Access to the underlying encoding (for inspection and benches).
    pub fn trie(&self) -> &LoudsTrie {
        &self.trie
    }

    /// Iterator positioned at the first key `>= low`.
    pub fn iter_from(&self, low: &[u8]) -> TrieIter<'_> {
        self.trie.lower_bound(low)
    }

    /// Batched point lookup via the trie's level-synchronous descent
    /// ([`LoudsTrie::lookup_batch`]): the whole batch advances one trie
    /// level per round with prefetches issued ahead of each round's
    /// probes, so the cache misses of independent keys overlap.
    pub fn get_batch(&self, keys: &[&[u8]], out: &mut Vec<Option<Value>>) {
        let mut results = Vec::with_capacity(keys.len());
        self.trie.lookup_batch(keys, &mut results);
        out.extend(results.iter().map(|r| match *r {
            LookupResult::Found { value_idx, .. } => Some(self.values[value_idx]),
            LookupResult::NotFound => None,
        }));
    }

    /// Exact number of keys in `[low, high)`, in O(height) rank operations
    /// per bound (the machinery behind SuRF's approximate `count`; exact
    /// here because the trie stores complete keys).
    pub fn count_range(&self, low: &[u8], high: &[u8]) -> usize {
        if low >= high {
            return 0;
        }
        let lo = self.trie.lower_bound(low);
        let hi = self.trie.lower_bound(high);
        self.trie.count_before(&hi) - self.trie.count_before(&lo)
    }
}

impl StaticIndex for Fst {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        Self::build_with(entries, TrieOpts::default())
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        match self.trie.lookup(key) {
            LookupResult::Found { value_idx, .. } => Some(self.values[value_idx]),
            LookupResult::NotFound => None,
        }
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let mut it = self.trie.lower_bound(low);
        let mut taken = 0;
        while taken < n && it.valid() {
            out.push(self.values[it.value_idx()]);
            taken += 1;
            it.next();
        }
        taken
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn mem_usage(&self) -> usize {
        self.trie.mem_usage() + memtree_common::mem::vec_bytes(&self.values)
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        let mut it = self.trie.lower_bound(&[]);
        while it.valid() {
            f(it.key(), self.values[it.value_idx()]);
            it.next();
        }
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        let mut it = self.trie.lower_bound(low);
        while it.valid() {
            if !f(it.key(), self.values[it.value_idx()]) {
                return;
            }
            it.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    fn entries_from(keys: &[&[u8]]) -> Vec<(Vec<u8>, Value)> {
        let mut v: Vec<(Vec<u8>, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_vec(), i as Value))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn figure_3_2_trie() {
        // The example keys of Figure 3.2: f, far, fas, fast, fat, s, top,
        // toy, trie, trip, try ("f" and "fas" are prefix keys).
        let entries = entries_from(&[
            b"f", b"far", b"fas", b"fast", b"fat", b"s", b"top", b"toy", b"trie", b"trip", b"try",
        ]);
        for r in [None, Some(0), Some(64)] {
            let opts = TrieOpts {
                r_ratio: r,
                ..TrieOpts::default()
            };
            let f = Fst::build_with(&entries, opts);
            for (k, v) in &entries {
                assert_eq!(f.get(k), Some(*v), "key {:?} r={r:?}", String::from_utf8_lossy(k));
            }
            for miss in [&b"fa"[..], b"fase", b"t", b"to", b"tor", b"z", b""] {
                assert_eq!(f.get(miss), None, "miss {:?} r={r:?}", String::from_utf8_lossy(miss));
            }
        }
    }

    #[test]
    fn random_u64_keys_all_configs() {
        let mut state = 3u64;
        let mut keys: Vec<u64> = (0..20_000)
            .map(|_| memtree_common::hash::splitmix64(&mut state))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let entries: Vec<(Vec<u8>, Value)> =
            keys.iter().map(|&k| (encode_u64(k).to_vec(), k)).collect();
        for opts in [
            TrieOpts::default(),
            TrieOpts::baseline(),
            TrieOpts {
                r_ratio: Some(0),
                ..TrieOpts::default()
            },
        ] {
            let f = Fst::build_with(&entries, opts);
            for &k in keys.iter().step_by(37) {
                assert_eq!(f.get(&encode_u64(k)), Some(k));
                assert_eq!(f.get(&encode_u64(k ^ 0x8000_0001)), None);
            }
        }
    }

    #[test]
    fn trie_image_roundtrip_across_opts_and_shapes() {
        let mut state = 17u64;
        let mut keys: Vec<Vec<u8>> = (0..4000)
            .map(|_| {
                let len = 1 + (memtree_common::hash::splitmix64(&mut state) % 10) as usize;
                (0..len)
                    .map(|_| (memtree_common::hash::splitmix64(&mut state) % 6) as u8 + b'a')
                    .collect()
            })
            .collect();
        keys.push(Vec::new()); // empty key exercises the slot-0 path
        keys.sort();
        keys.dedup();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for opts in [TrieOpts::default(), TrieOpts::baseline(), TrieOpts::surf()] {
            let (t, _) = LoudsTrie::build(&refs, opts);
            let mut img = Vec::new();
            t.serialize(&mut img);
            let d = LoudsTrie::deserialize(&img).unwrap();
            assert_eq!(d.num_nodes(), t.num_nodes());
            assert_eq!(d.num_values(), t.num_values());
            assert_eq!(d.height(), t.height());
            // Every key keeps its value slot: a full walk yields the same
            // (key, slot) sequence on both tries.
            let (mut ti, mut di) = (t.lower_bound(&[]), d.lower_bound(&[]));
            while ti.valid() {
                assert!(di.valid(), "walk ended early after round-trip");
                assert_eq!((ti.key(), ti.value_idx()), (di.key(), di.value_idx()));
                ti.next();
                di.next();
            }
            assert!(!di.valid(), "walk ran long after round-trip");
            // Heap usage tracks Vec capacities, which differ by allocator
            // slack between push-built and exact-sized vectors; the stored
            // data is identical, so sizes agree within that slack.
            let (dm, tm) = (d.mem_usage() as f64, t.mem_usage() as f64);
            assert!((dm - tm).abs() <= tm * 0.01 + 64.0, "mem {dm} vs {tm}");
            let mut probes: Vec<Vec<u8>> = keys.clone();
            for k in keys.iter().step_by(3) {
                let mut q = k.clone();
                q.push(b'z');
                probes.push(q);
            }
            let probe_refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            for k in &probe_refs {
                assert_eq!(d.lookup(k), t.lookup(k), "lookup {k:?}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            t.lookup_batch(&probe_refs, &mut a);
            d.lookup_batch(&probe_refs, &mut b);
            assert_eq!(a, b, "batch lookup diverged after round-trip");
            // Iterator machinery (lower_bound + count_before) survives.
            for k in keys.iter().step_by(41) {
                let ti = t.lower_bound(k);
                let di = d.lower_bound(k);
                assert_eq!(t.count_before(&ti), d.count_before(&di), "count at {k:?}");
            }
            // Every truncation of the image is a typed error, never a panic.
            for cut in (0..img.len()).step_by(13) {
                assert!(LoudsTrie::deserialize(&img[..cut]).is_err(), "cut {cut}");
            }
        }
        // Degenerate images: empty key set and empty-key-only.
        for keyset in [&[][..], &[&b""[..]][..]] {
            let (t, _) = LoudsTrie::build(keyset, TrieOpts::surf());
            let mut img = Vec::new();
            t.serialize(&mut img);
            let d = LoudsTrie::deserialize(&img).unwrap();
            assert_eq!(d.lookup(b""), t.lookup(b""));
            assert_eq!(d.lookup(b"x"), t.lookup(b"x"));
        }
    }

    #[test]
    fn scan_matches_sorted_reference() {
        let entries = entries_from(&[
            b"aaa", b"aab", b"ab", b"abc", b"b", b"ba", b"bb", b"bba", b"bbb", b"c",
        ]);
        let f = Fst::build(&entries);
        for low in [&b""[..], b"a", b"ab", b"abz", b"bb", b"zzz", b"b"] {
            let expect: Vec<Value> = entries
                .iter()
                .filter(|(k, _)| k.as_slice() >= low)
                .take(4)
                .map(|(_, v)| *v)
                .collect();
            let mut got = Vec::new();
            f.scan(low, 4, &mut got);
            assert_eq!(got, expect, "low {:?}", String::from_utf8_lossy(low));
        }
    }

    #[test]
    fn for_each_sorted_roundtrip() {
        let mut state = 5u64;
        let mut keys: Vec<Vec<u8>> = (0..3000)
            .map(|_| {
                let len = 1 + (memtree_common::hash::splitmix64(&mut state) % 12) as usize;
                (0..len)
                    .map(|_| (memtree_common::hash::splitmix64(&mut state) % 4) as u8 + b'a')
                    .collect()
            })
            .collect();
        keys.sort();
        keys.dedup();
        let entries: Vec<(Vec<u8>, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as Value))
            .collect();
        let f = Fst::build(&entries);
        assert_eq!(f.len(), entries.len());
        let mut got = Vec::new();
        f.for_each_sorted(&mut |k, v| got.push((k.to_vec(), v)));
        assert_eq!(got, entries);
    }

    #[test]
    fn ten_bits_per_node_space() {
        // LOUDS-Sparse should sit near 10 bits per trie node.
        let mut state = 11u64;
        let mut keys: Vec<u64> = (0..50_000)
            .map(|_| memtree_common::hash::splitmix64(&mut state))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let entries: Vec<(Vec<u8>, Value)> =
            keys.iter().map(|&k| (encode_u64(k).to_vec(), k)).collect();
        let f = Fst::build(&entries);
        let nodes = f.trie().num_nodes();
        let bits = (f.trie().mem_usage() * 8) as f64;
        let bits_per_node = bits / nodes as f64;
        assert!(
            bits_per_node < 16.0,
            "bits per node too high: {bits_per_node:.1} ({nodes} nodes)"
        );
    }

    #[test]
    fn empty_and_single() {
        let f = Fst::build(&[]);
        assert_eq!(f.get(b"x"), None);
        let f = Fst::build(&[(b"lonely".to_vec(), 7)]);
        assert_eq!(f.get(b"lonely"), Some(7));
        assert_eq!(f.get(b"lonel"), None);
        assert_eq!(f.get(b"lonelyx"), None);
        let mut out = Vec::new();
        f.scan(b"", 10, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn get_batch_matches_per_key_loop() {
        let mut state = 17u64;
        let mut keys: Vec<Vec<u8>> = (0..6000)
            .map(|_| {
                let len = 1 + (memtree_common::hash::splitmix64(&mut state) % 14) as usize;
                (0..len)
                    .map(|_| (memtree_common::hash::splitmix64(&mut state) % 5) as u8 + b'a')
                    .collect()
            })
            .collect();
        keys.push(Vec::new()); // exercise the empty-key cursor
        keys.sort();
        keys.dedup();
        let entries: Vec<(Vec<u8>, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as Value))
            .collect();
        for opts in [TrieOpts::default(), TrieOpts::baseline()] {
            let f = Fst::build_with(&entries, opts);
            // Batch mixes hits, misses, prefixes-of-keys, and duplicates.
            let mut probes: Vec<Vec<u8>> = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                probes.push(k.clone());
                if i % 3 == 0 {
                    let mut miss = k.clone();
                    miss.push(b'z');
                    probes.push(miss);
                }
                if i % 5 == 0 && !k.is_empty() {
                    probes.push(k[..k.len() - 1].to_vec());
                }
                if i % 7 == 0 {
                    probes.push(k.clone()); // duplicate
                }
            }
            probes.push(Vec::new());
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let expect: Vec<Option<Value>> = refs.iter().map(|k| f.get(k)).collect();
            // Exercise several batch sizes including odd tails.
            for chunk in [1usize, 7, 16, 64, 333, refs.len()] {
                let mut got = Vec::new();
                for c in refs.chunks(chunk) {
                    f.get_batch(c, &mut got);
                }
                assert_eq!(got, expect, "chunk {chunk}");
            }
        }
        // Empty trie still answers positionally.
        let f = Fst::build(&[]);
        let mut got = Vec::new();
        f.get_batch(&[b"a".as_slice(), b""], &mut got);
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn ff_byte_keys() {
        // 0xFF is both a real label and the sparse prefix-key marker; make
        // sure the disambiguation rules hold.
        let entries = entries_from(&[
            &b"ab"[..],
            b"ab\xff",
            b"ab\xff\xff",
            b"ab\xffz",
            b"\xff",
            b"\xff\xff",
        ]);
        let f = Fst::build_with(
            &entries,
            TrieOpts {
                r_ratio: None, // force everything into LOUDS-Sparse
                ..TrieOpts::default()
            },
        );
        for (k, v) in &entries {
            assert_eq!(f.get(k), Some(*v), "key {k:?}");
        }
        assert_eq!(f.get(b"ab\xffq"), None);
        assert_eq!(f.get(b"a"), None);
        let mut got = Vec::new();
        f.for_each_sorted(&mut |k, v| got.push((k.to_vec(), v)));
        assert_eq!(got, entries);
    }
}
