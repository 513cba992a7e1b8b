//! Search-tree integration (§6.3): wrap any [`OrderedIndex`] so all keys
//! pass through a trained HOPE encoder.
//!
//! Because the encoding is order-preserving, range bounds are translated
//! by simply encoding them; queries operate entirely in encoded space and
//! never decode (§6.2's key insight — only encode speed matters).

use crate::Hope;
use memtree_common::traits::{OrderedIndex, Value};
use std::cell::RefCell;

/// An index whose keys are transparently HOPE-encoded.
#[derive(Debug)]
pub struct HopeIndex<I: OrderedIndex> {
    inner: I,
    hope: Hope,
    /// Reusable encode buffer: queries encode without allocating.
    scratch: RefCell<Vec<u8>>,
}

impl<I: OrderedIndex> HopeIndex<I> {
    /// Wraps `inner` (must be empty) with a trained encoder.
    pub fn new(inner: I, hope: Hope) -> Self {
        debug_assert!(inner.is_empty(), "wrap an empty index");
        Self {
            inner,
            hope,
            scratch: RefCell::new(Vec::with_capacity(64)),
        }
    }

    /// The trained encoder.
    pub fn hope(&self) -> &Hope {
        &self.hope
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Inserts with key encoding.
    pub fn insert(&mut self, key: &[u8], value: Value) -> bool {
        let mut enc = self.scratch.borrow_mut();
        self.hope.encode_into(key, &mut enc);
        self.inner.insert(&enc, value)
    }

    /// Point lookup with key encoding.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        let mut enc = self.scratch.borrow_mut();
        self.hope.encode_into(key, &mut enc);
        self.inner.get(&enc)
    }

    /// In-place update with key encoding.
    pub fn update(&mut self, key: &[u8], value: Value) -> bool {
        let mut enc = self.scratch.borrow_mut();
        self.hope.encode_into(key, &mut enc);
        self.inner.update(&enc, value)
    }

    /// Removal with key encoding.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let mut enc = self.scratch.borrow_mut();
        self.hope.encode_into(key, &mut enc);
        self.inner.remove(&enc)
    }

    /// Range scan: the encoded lower bound preserves the scan's semantics
    /// because encoding is monotone.
    pub fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let mut enc = self.scratch.borrow_mut();
        self.hope.encode_into(low, &mut enc);
        self.inner.scan(&enc, n, out)
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Index + dictionary memory.
    pub fn mem_usage(&self) -> usize {
        self.inner.mem_usage() + self.hope.dict_mem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use memtree_btree::BPlusTree;

    fn urls(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("http://www.example{:02}.com/page/{i:06}", i % 10).into_bytes())
            .collect()
    }

    #[test]
    fn wrapped_btree_matches_plain() {
        let keys = urls(3000);
        let hope = Hope::train_keys(Scheme::ThreeGrams, &keys[..500], 8192);
        let mut wrapped = HopeIndex::new(BPlusTree::new(), hope);
        let mut plain = BPlusTree::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(wrapped.insert(k, i as u64), plain.insert(k, i as u64));
        }
        for (i, k) in keys.iter().enumerate().step_by(7) {
            assert_eq!(wrapped.get(k), Some(i as u64), "get {i}");
        }
        assert_eq!(wrapped.get(b"http://nope"), None);
        // Scans agree (values identical because ordering is preserved).
        for low in ["http://www.example05", "http://www.example09.com/page/002", "z"] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            wrapped.scan(low.as_bytes(), 12, &mut a);
            plain.scan(low.as_bytes(), 12, &mut b);
            assert_eq!(a, b, "scan from {low}");
        }
        // Compression shrinks the tree.
        assert!(
            wrapped.mem_usage() < plain.mem_usage(),
            "wrapped {} plain {}",
            wrapped.mem_usage(),
            plain.mem_usage()
        );
    }

    #[test]
    fn update_remove_through_encoding() {
        let keys = urls(500);
        let hope = Hope::train_keys(Scheme::DoubleChar, &keys, 65536);
        let mut idx = HopeIndex::new(BPlusTree::new(), hope);
        for (i, k) in keys.iter().enumerate() {
            idx.insert(k, i as u64);
        }
        assert!(idx.update(&keys[42], 999));
        assert_eq!(idx.get(&keys[42]), Some(999));
        assert!(idx.remove(&keys[42]));
        assert_eq!(idx.get(&keys[42]), None);
        assert_eq!(idx.len(), 499);
    }
}
