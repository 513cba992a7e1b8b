//! Core index and filter abstractions.
//!
//! Every search tree in the workspace speaks byte-string keys. Integer keys
//! are converted with the order-preserving encodings in [`crate::key`], so a
//! single trait covers the thesis's three key types (random u64, mono-inc
//! u64, email strings).


/// The value type stored in every index: a 64-bit "tuple pointer", matching
/// the thesis microbenchmarks where all values are 64-bit record pointers.
pub type Value = u64;

/// A dynamic, order-preserving index (the thesis's "original"/dynamic-stage
/// structures: B+tree, Masstree, Skip List, ART).
pub trait OrderedIndex {
    /// Inserts `key → value`. Returns `false` (and leaves the index
    /// unchanged) if `key` was already present — the key-uniqueness check a
    /// primary index must perform.
    fn insert(&mut self, key: &[u8], value: Value) -> bool;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<Value>;

    /// Updates the value of an existing key in place. Returns `false` if the
    /// key is absent.
    fn update(&mut self, key: &[u8], value: Value) -> bool;

    /// Removes a key. Returns `false` if it was absent.
    fn remove(&mut self, key: &[u8]) -> bool;

    /// Scans at most `n` values starting from the smallest key `>= low`,
    /// appending them to `out` in key order. Returns the number appended.
    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// True when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap memory footprint in bytes (structure + keys, not the
    /// tuples the values point to).
    fn mem_usage(&self) -> usize;

    /// Visits every `(key, value)` pair in ascending key order. The key slice
    /// is only valid for the duration of the callback (implementations may
    /// reassemble keys in a scratch buffer).
    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value));

    /// Visits `(key, value)` pairs in ascending order starting at the first
    /// key `>= low`, until `f` returns `false`.
    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool);

    /// Drains the index into a sorted `(key, value)` vector, leaving it
    /// empty. Default implementation copies via [`Self::for_each_sorted`].
    fn drain_sorted(&mut self) -> Vec<(Vec<u8>, Value)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_sorted(&mut |k, v| out.push((k.to_vec(), v)));
        self.clear();
        out
    }

    /// Removes all entries.
    fn clear(&mut self);
}

/// A static, read-optimized index built once from sorted input (the
/// thesis's "compact" D-to-S structures and FST).
pub trait StaticIndex: Sized {
    /// Builds the index from key-sorted, duplicate-free `(key, value)`
    /// pairs.
    ///
    /// # Panics
    /// Implementations may panic (in debug builds) if the input is unsorted
    /// or contains duplicates.
    fn build(entries: &[(Vec<u8>, Value)]) -> Self;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<Value>;

    /// Scans at most `n` values starting from the smallest key `>= low`,
    /// appending them to `out` in key order. Returns the number appended.
    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize;

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap memory footprint in bytes.
    fn mem_usage(&self) -> usize;

    /// Visits every `(key, value)` pair in ascending key order.
    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value));

    /// Visits `(key, value)` pairs in ascending order starting at the first
    /// key `>= low`, until `f` returns `false`.
    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool);
}

/// Approximate point-membership filter (Bloom filter, SuRF). One-sided
/// error: `false` guarantees absence, `true` may be a false positive.
pub trait PointFilter {
    /// May `key` be present?
    fn may_contain(&self, key: &[u8]) -> bool;

    /// Filter size in bytes (for bits-per-key accounting).
    fn size_bytes(&self) -> usize;
}

/// Approximate range-membership filter (SuRF; ARF for integer spaces).
/// One-sided error: `false` guarantees the range holds no key.
pub trait RangeFilter: PointFilter {
    /// May the half-open range `[low, high)` contain a key? Implementations
    /// with inclusive semantics document the deviation.
    fn may_contain_range(&self, low: &[u8], high: &[u8]) -> bool;
}
