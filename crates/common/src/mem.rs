//! Heap-size accounting helpers.
//!
//! The thesis reports index memory as the bytes the data structure
//! allocates (excluding the tuples values point at). Each index implements
//! `mem_usage()` by summing its allocations with these helpers, which keeps
//! the accounting consistent across crates.

/// Heap bytes owned by a `Vec<T>` for `Copy`-style payloads: `capacity * size_of::<T>()`.
#[inline]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes owned by a `Vec<Vec<u8>>` including the inner buffers.
pub fn vec_of_bytes(v: &Vec<Vec<u8>>) -> usize {
    vec_bytes(v) + v.iter().map(|b| b.capacity()).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_accounting_uses_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_bytes(&v), 16 * 8);
    }

    #[test]
    fn nested_accounting() {
        let v = vec![vec![0u8; 10], vec![0u8; 20]];
        assert!(vec_of_bytes(&v) >= 30 + 2 * std::mem::size_of::<Vec<u8>>());
    }
}
