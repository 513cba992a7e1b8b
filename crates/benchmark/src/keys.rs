//! Seeded key set and self-describing values: the data half of the oracle.
//!
//! A key is named by a 64-bit *index*. `key(idx)` scrambles the index
//! with a seeded bijection, so loading indexes `0..n` in order inserts
//! keys in random key order, and every index outside the loaded range
//! (the absent-key space, the insert reserve) lands uniformly between the
//! loaded keys. A value carries its key's index, the writer that produced
//! it and a per-key version, and is fully determined by those three — the
//! oracle re-derives the expected bytes instead of storing them.

use memtree_common::hash::fmix64;

/// Key length in bytes.
pub const KEY_LEN: usize = 16;
/// Value length in bytes.
pub const VALUE_LEN: usize = 100;
/// Bytes one entry contributes to the user data volume.
pub const ENTRY_BYTES: usize = KEY_LEN + VALUE_LEN;
/// Writer id stamped on values written by the load stage.
pub const LOADER: u32 = u32::MAX;
/// First index of the never-inserted key space used for negative lookups.
pub const ABSENT_BASE: u64 = 1 << 40;

/// What a value says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Index of the key this value belongs to.
    pub idx: u64,
    /// Client that wrote it ([`LOADER`] for the load stage).
    pub writer: u32,
    /// Per-key version; the load stage writes version 0.
    pub version: u32,
}

/// The seeded key space of one run.
#[derive(Debug)]
pub struct KeySet {
    salt: u64,
    loaded: usize,
    /// Loaded indexes in key order.
    sorted: Vec<u32>,
    /// `rank[idx]` = position of loaded index `idx` in `sorted`.
    rank: Vec<u32>,
}

impl KeySet {
    /// The key space for `seed` with indexes `0..loaded` loaded.
    pub fn new(seed: u64, loaded: usize) -> Self {
        assert!(loaded > 0 && loaded < u32::MAX as usize);
        let salt = fmix64(seed ^ 0x6d65_6d74_7265_6521);
        let mut sorted: Vec<u32> = (0..loaded as u32).collect();
        // The first 8 key bytes are the big-endian scrambled index, so key
        // order is the order of the scrambled integers.
        sorted.sort_unstable_by_key(|&i| fmix64(i as u64 ^ salt));
        let mut rank = vec![0u32; loaded];
        for (pos, &i) in sorted.iter().enumerate() {
            rank[i as usize] = pos as u32;
        }
        Self {
            salt,
            loaded,
            sorted,
            rank,
        }
    }

    /// Number of loaded keys (indexes `0..loaded`).
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// The key of index `idx`.
    pub fn key(&self, idx: u64) -> [u8; KEY_LEN] {
        let head = fmix64(idx ^ self.salt);
        let tail = fmix64(head ^ 0x9e37_79b9_7f4a_7c15);
        let mut k = [0u8; KEY_LEN];
        k[..8].copy_from_slice(&head.to_be_bytes());
        k[8..].copy_from_slice(&tail.to_be_bytes());
        k
    }

    /// The value `writer` stores under index `idx` at `version`.
    pub fn value(&self, s: Stamp) -> [u8; VALUE_LEN] {
        let mut v = [0u8; VALUE_LEN];
        v[..8].copy_from_slice(&s.idx.to_le_bytes());
        v[8..12].copy_from_slice(&s.writer.to_le_bytes());
        v[12..16].copy_from_slice(&s.version.to_le_bytes());
        let check = fmix64(s.idx ^ self.salt ^ ((s.writer as u64) << 32 | s.version as u64));
        for chunk in v[16..].chunks_mut(8) {
            chunk.copy_from_slice(&check.to_le_bytes()[..chunk.len()]);
        }
        v
    }

    /// Reads a value's stamp; `None` unless every byte is what
    /// [`KeySet::value`] produces for that stamp.
    pub fn parse(&self, v: &[u8]) -> Option<Stamp> {
        if v.len() != VALUE_LEN {
            return None;
        }
        let s = Stamp {
            idx: u64::from_le_bytes(v[..8].try_into().ok()?),
            writer: u32::from_le_bytes(v[8..12].try_into().ok()?),
            version: u32::from_le_bytes(v[12..16].try_into().ok()?),
        };
        (self.value(s)[..] == *v).then_some(s)
    }

    /// Position of loaded index `idx` in key order.
    pub fn rank(&self, idx: u64) -> usize {
        self.rank[idx as usize] as usize
    }

    /// Loaded indexes in key order.
    pub fn sorted(&self) -> &[u32] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let ks = KeySet::new(7, 100);
        let s = Stamp {
            idx: 42,
            writer: 1,
            version: 9,
        };
        let mut v = ks.value(s);
        assert_eq!(ks.parse(&v), Some(s));
        v[57] ^= 1;
        assert_eq!(ks.parse(&v), None);
        assert_eq!(ks.parse(&v[..50]), None);
        // A value is bound to its seed.
        assert_eq!(KeySet::new(8, 100).parse(&ks.value(s)), None);
    }

    #[test]
    fn sorted_order_matches_key_bytes() {
        let ks = KeySet::new(3, 1000);
        let keys: Vec<_> = ks.sorted().iter().map(|&i| ks.key(i as u64)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (pos, &i) in ks.sorted().iter().enumerate() {
            assert_eq!(ks.rank(i as u64), pos);
        }
    }
}
