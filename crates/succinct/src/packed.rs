//! Fixed-width bit-packed integer arrays.
//!
//! A static array stored at the width its largest value needs holds no
//! slack: the D-to-S rule the thesis applies to every read-only
//! structure (Ch. 2). SuRF's suffix store and the LSM block index both
//! keep their per-entry integers here.

use memtree_common::mem::vec_bytes;

/// `len` unsigned integers of `width` bits each, packed back to back in
/// `u64` words: value `i` starts at bit `i * width`, low bits first, and
/// may straddle two words. A width of 0 stores nothing and reads 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl PackedBits {
    /// Bits needed to store every value in `0..=max`: 0 for `max == 0`.
    pub fn bits_for(max: u64) -> u32 {
        u64::BITS - max.leading_zeros()
    }

    /// `len` zeros at `width` bits each (`width <= 64`).
    pub fn new(width: u32, len: usize) -> Self {
        assert!(width <= 64, "a packed value fits in one u64");
        Self {
            words: vec![0; (width as usize * len).div_ceil(64)],
            width,
            len,
        }
    }

    /// `values` at the narrowest width that holds the largest of them.
    pub fn fit<I>(values: I) -> Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let (len, max) = values.clone().fold((0, 0), |(n, m), v| (n + 1, m.max(v)));
        let mut packed = Self::new(Self::bits_for(max), len);
        for (i, v) in values.enumerate() {
            packed.set(i, v);
        }
        packed
    }

    /// Reassembles an array from its [`PackedBits::words`]; `None` when
    /// the word count is not the one `width` and `len` need.
    pub fn from_words(width: u32, len: usize, words: Vec<u64>) -> Option<Self> {
        let fits = width <= 64 && words.len() == (width as usize).checked_mul(len)?.div_ceil(64);
        fits.then_some(Self { words, width, len })
    }

    /// Stores `value` (below `2^width`) at `i`; the slot must still be 0.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        let w = self.width as usize;
        if w == 0 {
            return;
        }
        debug_assert!(i < self.len);
        debug_assert!(w == 64 || value < (1u64 << w));
        let bit = i * w;
        let (word, off) = (bit / 64, bit % 64);
        self.words[word] |= value << off;
        if off + w > 64 {
            self.words[word + 1] |= value >> (64 - off);
        }
    }

    /// The value at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        let w = self.width as usize;
        if w == 0 {
            return 0;
        }
        debug_assert!(i < self.len);
        let bit = i * w;
        let (word, off) = (bit / 64, bit % 64);
        let mut v = self.words[word] >> off;
        if off + w > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        v & (u64::MAX >> (64 - w))
    }

    /// The values at `i` and `i + 1`, for a `width <= 32`: one read of
    /// the two words they lie in, with no branch on where they straddle.
    #[inline]
    pub fn get_pair(&self, i: usize) -> (u64, u64) {
        let w = self.width;
        if w == 0 {
            return (0, 0);
        }
        debug_assert!(w <= 32 && i + 1 < self.len);
        let bit = i * w as usize;
        let (word, off) = (bit / 64, bit % 64);
        let next = self.words.get(word + 1).copied().unwrap_or(0);
        let v = ((u128::from(next) << 64 | u128::from(self.words[word])) >> off) as u64;
        let mask = u64::MAX >> (64 - w);
        (v & mask, (v >> w) & mask)
    }

    /// The values in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The packed words, for serialized images.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held: the words.
    pub fn mem_usage(&self) -> usize {
        vec_bytes(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_at_every_width() {
        for width in [1u32, 4, 7, 8, 13, 32, 63, 64] {
            let mut pb = PackedBits::new(width, 100);
            let mask = u64::MAX >> (64 - width);
            let value = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
            for i in 0..100 {
                pb.set(i, value(i));
            }
            for i in 0..100 {
                assert_eq!(pb.get(i), value(i), "w={width} i={i}");
            }
            if width <= 32 {
                for i in 0..99 {
                    assert_eq!(pb.get_pair(i), (value(i), value(i + 1)), "w={width} i={i}");
                }
            }
            assert_eq!(pb.mem_usage(), (width as usize * 100).div_ceil(64) * 8);
        }
    }

    #[test]
    fn fit_takes_the_width_of_the_largest_value() {
        assert_eq!(PackedBits::bits_for(0), 0);
        assert_eq!(PackedBits::bits_for(1), 1);
        assert_eq!(PackedBits::bits_for(255), 8);
        assert_eq!(PackedBits::bits_for(256), 9);
        assert_eq!(PackedBits::bits_for(u64::MAX), 64);
        let values = [3u64, 0, 700, 12];
        let pb = PackedBits::fit(values);
        assert_eq!((pb.width(), pb.len()), (10, 4));
        assert!(pb.iter().eq(values));
        let zeros = PackedBits::fit([0u64; 5]);
        assert_eq!((zeros.width(), zeros.len(), zeros.mem_usage()), (0, 5, 0));
        assert!(zeros.iter().eq([0; 5]));
        assert!(PackedBits::fit(std::iter::empty()).is_empty());
    }

    #[test]
    fn from_words_checks_the_word_count() {
        let pb = PackedBits::fit((0..50u64).map(|i| i * 37));
        let words = pb.words().to_vec();
        assert_eq!(
            PackedBits::from_words(pb.width(), 50, words.clone()),
            Some(pb.clone())
        );
        assert_eq!(PackedBits::from_words(pb.width(), 70, words.clone()), None);
        assert_eq!(PackedBits::from_words(65, 1, vec![0, 0]), None);
        assert_eq!(PackedBits::from_words(64, usize::MAX, words), None);
    }
}
