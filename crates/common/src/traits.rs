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

/// Batched point-lookup extension for [`OrderedIndex`] / [`StaticIndex`]
/// implementations — the serving layer's multi-get.
///
/// # Contract
///
/// * Results are **positional**: `multi_get` appends exactly one element
///   per input key, and `out[i]` (relative to the append point) answers
///   `keys[i]`.
/// * A miss is `None`; duplicate keys in the batch are allowed and each
///   gets its own answer.
/// * Implementations may probe in any internal order (sorted-batch
///   descent, level-synchronous traversal, …) but must report results in
///   input order, and must behave exactly like a per-key `get` loop.
///
/// The default `multi_get` *is* the per-key loop; structures with a real
/// batched path (FST, Compact B+tree, Compact ART, the hybrid `DualStage`)
/// override it to amortize cache misses across the batch.
pub trait BatchProbe {
    /// Single-key probe; the default `multi_get` fallback calls this once
    /// per key. Implementations delegate to their `get`.
    fn probe_one(&self, key: &[u8]) -> Option<Value>;

    /// Batched point lookup: appends one `Option<Value>` per key to `out`.
    fn multi_get(&self, keys: &[&[u8]], out: &mut Vec<Option<Value>>) {
        out.extend(keys.iter().map(|k| self.probe_one(k)));
    }

    /// Convenience wrapper returning a fresh vector.
    fn multi_get_vec(&self, keys: &[&[u8]]) -> Vec<Option<Value>> {
        let mut out = Vec::with_capacity(keys.len());
        self.multi_get(keys, &mut out);
        out
    }

    /// Single-range scan; the default `multi_scan` fallback calls this once
    /// per range. Implementations delegate to their `scan`.
    fn scan_one(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize;

    /// Batched range scan: for each `(low, n)` pair, appends one result
    /// vector to `out` holding the values of at most `n` smallest keys
    /// `>= low`, in key order.
    ///
    /// # Contract
    ///
    /// * Results are **positional**: exactly one `Vec<Value>` is appended per
    ///   input range, and `out[i]` (relative to the append point) answers
    ///   `ranges[i]`. Overlapping or duplicate ranges each get a full,
    ///   independent answer.
    /// * Each result must equal what a per-range `scan(low, n, ..)` loop
    ///   would produce; batching may only change *how* the tree is walked.
    ///
    /// Structures with a real batched path (Compact B+tree, Compact ART,
    /// FST) override this to share the upper-level descent across sorted
    /// range starts; everything else uses this per-range loop.
    fn multi_scan(&self, ranges: &[(&[u8], usize)], out: &mut Vec<Vec<Value>>) {
        for &(low, n) in ranges {
            let mut one = Vec::with_capacity(n);
            self.scan_one(low, n, &mut one);
            out.push(one);
        }
    }

    /// Convenience wrapper returning a fresh vector of per-range results.
    fn multi_scan_vec(&self, ranges: &[(&[u8], usize)]) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(ranges.len());
        self.multi_scan(ranges, &mut out);
        out
    }
}

/// A borrowed `range_from`-style cursor source: called with a start key
/// and a visitor that returns `false` to stop the walk.
pub type RangeFromFn<'a> = &'a dyn Fn(&[u8], &mut dyn FnMut(&[u8], Value) -> bool);

/// Runs a batched `multi_scan` over any `range_from`-style cursor source,
/// sharing one forward traversal across ranges whose windows overlap.
///
/// `ranges` is answered positionally into the returned vector (one
/// `Vec<Value>` per input range, ≤ `n` values each, key order). Range starts
/// are visited in sorted order; while walking one range's window, any later
/// range whose `low` has been passed is activated and filled from the same
/// traversal instead of paying its own descent.
///
/// `range_from(low, f)` must visit `(key, value)` pairs in ascending order
/// starting at the first key `>= low`, stopping when `f` returns `false` —
/// i.e. the `OrderedIndex::range_from` / `StaticIndex::range_from` contract.
pub fn multi_scan_merged(
    range_from: RangeFromFn<'_>,
    ranges: &[(&[u8], usize)],
    out: &mut Vec<Vec<Value>>,
) {
    let base = out.len();
    out.extend(ranges.iter().map(|&(_, n)| Vec::with_capacity(n.min(64))));
    if ranges.is_empty() {
        return;
    }
    // Visit range starts smallest-first; ties keep input order (harmless:
    // duplicates activate together and fill identically).
    let mut order: Vec<u32> = (0..ranges.len() as u32).collect();
    order.sort_by(|&a, &b| ranges[a as usize].0.cmp(ranges[b as usize].0));
    let mut next = 0usize; // next un-activated entry of `order`
    // Ranges currently being filled by the shared traversal.
    let mut active: Vec<u32> = Vec::new();
    while next < order.len() {
        let start_low = ranges[order[next] as usize].0;
        active.clear();
        let mut progressed = false;
        range_from(start_low, &mut |k, v| {
            progressed = true;
            // Activate every pending range whose window includes `k` —
            // its low has been passed, so this traversal *is* its scan.
            // Ranges asking for 0 values are trivially done; skip them.
            while next < order.len() && ranges[order[next] as usize].0 <= k {
                let ri = order[next];
                next += 1;
                if ranges[ri as usize].1 > 0 {
                    active.push(ri);
                }
            }
            active.retain(|&ri| {
                let (_, n) = ranges[ri as usize];
                let slot = &mut out[base + ri as usize];
                slot.push(v);
                slot.len() < n
            });
            // Stop as soon as no activated range wants more values; a range
            // starting past this key restarts with its own descent rather
            // than dragging the cursor through the gap.
            !active.is_empty()
        });
        if !progressed {
            // The tree holds no key >= start_low; every remaining range
            // (lows are >= start_low) is empty too.
            break;
        }
        // Loop: either the traversal stopped with pending ranges further
        // right (restart there), or everything is answered.
    }
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
