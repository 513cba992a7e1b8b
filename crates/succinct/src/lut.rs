//! The lookup tables of [`RankSupport`](crate::RankSupport) and
//! [`SelectSupport`](crate::SelectSupport), each stored at the narrowest
//! of 16 or 32 bits an entry that holds its largest entry.
//!
//! Both tables are static and rise monotonically, so the last entry sets
//! the width: the total ones for rank, the last sampled position for
//! select. Reads stay plain aligned loads of one `u16` or `u32`; the
//! width is one predictable branch, the same for every read of a table.

/// A static, non-decreasing table of `u32` entries.
#[derive(Debug, Clone)]
pub(crate) enum Lut {
    /// Every entry fits in 16 bits.
    Narrow(Box<[u16]>),
    /// Some entry needs more than 16 bits.
    Wide(Box<[u32]>),
}

impl Lut {
    /// `entries` at the narrowest width that holds them all, or at 32 bits
    /// when `wide`.
    pub(crate) fn fit(entries: Vec<u32>, wide: bool) -> Self {
        let max = entries.iter().copied().max().unwrap_or(0);
        if wide || max > u32::from(u16::MAX) {
            Lut::Wide(entries.into_boxed_slice())
        } else {
            Lut::Narrow(entries.iter().map(|&e| e as u16).collect())
        }
    }

    /// Entry `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            Lut::Narrow(lut) => lut[i] as usize,
            Lut::Wide(lut) => lut[i] as usize,
        }
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub(crate) fn try_get(&self, i: usize) -> Option<usize> {
        (i < self.len()).then(|| self.get(i))
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Lut::Narrow(lut) => lut.len(),
            Lut::Wide(lut) => lut.len(),
        }
    }

    /// Bits an entry takes: 16 or 32.
    pub(crate) fn entry_bits(&self) -> u32 {
        match self {
            Lut::Narrow(_) => u16::BITS,
            Lut::Wide(_) => u32::BITS,
        }
    }

    /// Heap bytes: the entries, with no spare capacity.
    pub(crate) fn mem_usage(&self) -> usize {
        self.len() * self.entry_bits() as usize / 8
    }
}
