//! Succinct-trie baselines for the Figure 3.5 comparison.
//!
//! * [`TxTrie`] — a plain LOUDS-Sparse trie with none of FST's §3.6
//!   optimizations (Poppy-style 512-bit rank blocks, select by binary
//!   search, per-byte label scan, no LOUDS-Dense levels). This re-creates
//!   the open-source *tx-trie* design the thesis benchmarks against.
//! * [`PdtLite`] — a path-decomposed trie in the spirit of *PDT*
//!   (Grossi & Ottaviano): every node stores a whole root-relative path,
//!   and children hang off (position, label) pairs along it, which
//!   re-balances deep tries (long keys) at the cost of per-node indirection.
//!   Encoded with flat arrays rather than DFUDS; we document this
//!   substitution in DESIGN.md.

use crate::louds::{LookupResult, LoudsTrie, TrieOpts};
use memtree_common::key::common_prefix_len;
use memtree_common::mem::vec_bytes;
use memtree_common::traits::{StaticIndex, Value};

/// LOUDS-Sparse-only trie without FST's optimizations.
#[derive(Debug)]
pub struct TxTrie {
    trie: LoudsTrie,
    values: Vec<Value>,
}

impl StaticIndex for TxTrie {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        let (trie, order) = LoudsTrie::build(&keys, TrieOpts::baseline());
        let values = order.iter().map(|&k| entries[k as usize].1).collect();
        Self { trie, values }
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
        self.trie.mem_usage() + vec_bytes(&self.values)
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

/// Path-decomposed trie baseline (leftmost-path decomposition, flat-array
/// encoded). Point queries only — Figure 3.5 compares point performance.
#[derive(Debug)]
pub struct PdtLite {
    /// Concatenated path bytes; node `i`'s path is
    /// `path_bytes[path_offsets[i]..path_offsets[i+1]]`.
    path_bytes: Vec<u8>,
    path_offsets: Vec<u32>,
    /// Node `i`'s value (each node's path terminates one key).
    vals: Vec<Value>,
    /// Branch arrays; node `i`'s branches are
    /// `branch_*[branch_offsets[i]..branch_offsets[i+1]]`, sorted by
    /// (position, label).
    branch_offsets: Vec<u32>,
    branch_pos: Vec<u16>,
    branch_label: Vec<u8>,
    branch_child: Vec<u32>,
}

impl PdtLite {
    /// Recursively builds the node for `entries` (sorted, sharing `depth`
    /// key bytes); returns its node id.
    fn build_node(&mut self, entries: &[(Vec<u8>, Value)], depth: usize) -> u32 {
        // Reserve this node's id; fill arrays after children (offsets must
        // be contiguous per node, so collect first).
        let (path, value) = (&entries[0].0[depth..], entries[0].1);
        let mut branches: Vec<(u16, u8, u32)> = Vec::new();
        let rest = &entries[1..];
        let mut i = 0usize;
        while i < rest.len() {
            let cp = common_prefix_len(&rest[i].0[depth..], path);
            let label = rest[i].0[depth + cp];
            let mut j = i + 1;
            while j < rest.len() {
                let cp2 = common_prefix_len(&rest[j].0[depth..], path);
                if cp2 == cp && rest[j].0[depth + cp2] == label {
                    j += 1;
                } else {
                    break;
                }
            }
            let child = self.build_node(&rest[i..j], depth + cp + 1);
            branches.push((cp as u16, label, child));
            i = j;
        }
        let id = self.vals.len() as u32;
        self.path_bytes.extend_from_slice(path);
        self.path_offsets.push(self.path_bytes.len() as u32);
        self.vals.push(value);
        for (p, l, c) in branches {
            self.branch_pos.push(p);
            self.branch_label.push(l);
            self.branch_child.push(c);
        }
        self.branch_offsets.push(self.branch_pos.len() as u32);
        id
    }

    fn path(&self, node: usize) -> &[u8] {
        let s = if node == 0 {
            0
        } else {
            self.path_offsets[node - 1] as usize
        };
        &self.path_bytes[s..self.path_offsets[node] as usize]
    }

    fn branches(&self, node: usize) -> std::ops::Range<usize> {
        let s = if node == 0 {
            0
        } else {
            self.branch_offsets[node - 1] as usize
        };
        s..self.branch_offsets[node] as usize
    }
}

impl StaticIndex for PdtLite {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        let mut t = Self {
            path_bytes: Vec::new(),
            path_offsets: Vec::new(),
            vals: Vec::new(),
            branch_offsets: Vec::new(),
            branch_pos: Vec::new(),
            branch_label: Vec::new(),
            branch_child: Vec::new(),
        };
        if !entries.is_empty() {
            t.build_node(entries, 0);
        }
        t
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        if self.vals.is_empty() {
            return None;
        }
        // The root is the *last* node built (post-order); its id is the one
        // returned by build_node for the full range — which is not 0.
        // Track it: the root path starts at offset... we rebuilt bottom-up,
        // so the root is the node whose build call was outermost; since
        // build_node assigns ids after children, the root id is
        // `vals.len() - 1`.
        let mut node = self.vals.len() - 1;
        let mut depth = 0usize;
        loop {
            let path = self.path(node);
            let rest = &key[depth..];
            let cp = common_prefix_len(rest, path);
            if cp == rest.len() {
                return (cp == path.len()).then(|| self.vals[node]);
            }
            // Key diverges (or extends past the path): follow a branch at
            // (cp, key byte).
            let label = rest[cp];
            let range = self.branches(node);
            let mut found = None;
            for b in range {
                if self.branch_pos[b] as usize == cp && self.branch_label[b] == label {
                    found = Some(self.branch_child[b] as usize);
                    break;
                }
            }
            node = found?;
            depth += cp + 1;
        }
    }

    fn scan(&self, _low: &[u8], _n: usize, _out: &mut Vec<Value>) -> usize {
        unimplemented!("PdtLite is a point-query baseline (Figure 3.5)")
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn mem_usage(&self) -> usize {
        vec_bytes(&self.path_bytes)
            + vec_bytes(&self.path_offsets)
            + vec_bytes(&self.vals)
            + vec_bytes(&self.branch_offsets)
            + vec_bytes(&self.branch_pos)
            + vec_bytes(&self.branch_label)
            + vec_bytes(&self.branch_child)
    }

    fn for_each_sorted(&self, _f: &mut dyn FnMut(&[u8], Value)) {
        unimplemented!("PdtLite is a point-query baseline (Figure 3.5)")
    }

    fn range_from(&self, _low: &[u8], _f: &mut dyn FnMut(&[u8], Value) -> bool) {
        unimplemented!("PdtLite is a point-query baseline (Figure 3.5)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    fn entries(n: u64) -> Vec<(Vec<u8>, Value)> {
        let mut state = 42u64;
        let mut keys: Vec<u64> = (0..n)
            .map(|_| memtree_common::hash::splitmix64(&mut state))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| (encode_u64(k).to_vec(), k))
            .collect()
    }

    #[test]
    fn txtrie_matches_fst() {
        let e = entries(5000);
        let t = TxTrie::build(&e);
        for (k, v) in e.iter().step_by(7) {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.get(&encode_u64(12345)), None);
    }

    #[test]
    fn pdt_point_queries() {
        let e = entries(5000);
        let t = PdtLite::build(&e);
        assert_eq!(t.len(), e.len());
        for (k, v) in &e {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.get(&encode_u64(999)), None);
    }

    #[test]
    fn pdt_string_keys_with_prefixes() {
        let mut e: Vec<(Vec<u8>, Value)> = vec![
            (b"a".to_vec(), 1),
            (b"ab".to_vec(), 2),
            (b"abc".to_vec(), 3),
            (b"abd".to_vec(), 4),
            (b"b".to_vec(), 5),
            (b"ba".to_vec(), 6),
        ];
        e.sort();
        let t = PdtLite::build(&e);
        for (k, v) in &e {
            assert_eq!(t.get(k), Some(*v), "{k:?}");
        }
        assert_eq!(t.get(b"ac"), None);
        assert_eq!(t.get(b"abcd"), None);
        assert_eq!(t.get(b""), None);
    }

    #[test]
    fn pdt_is_shallow_for_long_keys() {
        // Long shared-prefix keys: PDT's whole-path nodes keep lookups to
        // few node hops.
        let e: Vec<(Vec<u8>, Value)> = (0..100u64)
            .map(|i| (format!("http://www.example.com/deep/path/{i:03}").into_bytes(), i))
            .collect();
        let t = PdtLite::build(&e);
        for (k, v) in &e {
            assert_eq!(t.get(k), Some(*v));
        }
    }
}
