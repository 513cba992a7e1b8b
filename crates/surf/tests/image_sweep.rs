//! Image mutation sweep over the filter decoders: SuRF, bare trie and
//! Bloom images cut at every length, with bits flipped and with short
//! runs overwritten. A decode must return a typed `Corruption` or a
//! structure every query runs on without panicking: `lookup`,
//! `move_to_next` / `lower_bound`, `count`, `count_before` and a short
//! iteration for SuRF and the trie, `may_contain` for Bloom.
//!
//! Seeds come from `MEMTREE_FAULT_SEEDS` (default `0..32`); replay seed
//! `n` with `MEMTREE_FAULT_SEEDS=n..n+1`. Run it in the debug profile:
//! release arithmetic wraps where debug panics.

use memtree_common::check::{seed_range, Gen};
use memtree_common::error::{MemtreeError, Result};
use memtree_common::key::successor;
use memtree_common::traits::{PointFilter, RangeFilter};
use memtree_filters::BloomFilter;
use memtree_fst::{LoudsTrie, TrieIter, TrieOpts};
use memtree_surf::{SuffixConfig, Surf};

/// Bit-flip and overwrite cases per image (truncations cover every length).
const FLIPS: usize = 120;
const OVERWRITES: usize = 120;

/// Every damaged copy of `img` the sweep decodes.
fn damaged(img: &[u8], g: &mut Gen) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..img.len()).map(|cut| img[..cut].to_vec()).collect();
    for _ in 0..FLIPS {
        let mut b = img.to_vec();
        for _ in 0..g.range(1..4) {
            b[g.range(0..img.len())] ^= 1 << g.range(0..8);
        }
        out.push(b);
    }
    for _ in 0..OVERWRITES {
        let mut b = img.to_vec();
        let at = g.range(0..img.len());
        let fill = *g.pick(&[None, Some(0x00), Some(0xff)]);
        for x in b.iter_mut().skip(at).take(g.range(1..9)) {
            *x = fill.unwrap_or(g.u64() as u8);
        }
        out.push(b);
    }
    out
}

/// Decodes every damaged copy of `img`; each one that decodes runs `query`.
fn sweep<T>(
    img: &[u8],
    g: &mut Gen,
    what: &str,
    decode: fn(&[u8]) -> Result<T>,
    query: impl Fn(&T),
) {
    for (case, bad) in damaged(img, g).iter().enumerate() {
        match decode(bad) {
            Ok(decoded) => query(&decoded),
            Err(MemtreeError::Corruption { .. }) => {}
            Err(e) => panic!("{what} case {case}: untyped {e:?}"),
        }
    }
}

/// Steps a few entries on from `it`, reading each key and value slot.
fn walk(mut it: TrieIter<'_>) {
    for _ in 0..4 {
        if !it.valid() {
            break;
        }
        let _ = (it.key(), it.value_idx(), it.fp_flag());
        it.next();
    }
}

/// Seed `seed`'s keys (1 to 300, short, over a small alphabet so the
/// trie is deep), its probes (the keys and a few random strings), and the
/// generator that goes on to pick the damage.
fn case(seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Gen) {
    let mut g = Gen::new(seed);
    let n = g.range(1..301);
    let mut keys: Vec<Vec<u8>> = (0..n)
        .map(|_| g.bytes_from(b"abcdxyz\x00\xff", 1..10))
        .collect();
    keys.sort();
    keys.dedup();
    let mut probes = keys.clone();
    probes.extend((0..16).map(|_| g.bytes_vec(0..10)));
    (keys, probes, g)
}

fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(Vec::as_slice).collect()
}

#[test]
fn damaged_surf_images_are_typed_or_answer_without_panics() {
    for seed in seed_range() {
        let (keys, probes, mut g) = case(seed);
        let config = *g.pick(&[
            SuffixConfig::None,
            SuffixConfig::Hash(8),
            SuffixConfig::Real(8),
            SuffixConfig::Mixed(4, 4),
        ]);
        let mut img = Vec::new();
        Surf::new(&refs(&keys), config).serialize(&mut img);
        sweep(
            &img,
            &mut g,
            &format!("seed {seed} surf"),
            Surf::deserialize,
            |s| {
                for p in &probes {
                    let high = successor(p);
                    let _ = (
                        s.lookup(p),
                        s.may_contain_range(p, &high),
                        s.count(p, &high),
                    );
                    let (it, _) = s.move_to_next(p);
                    let _ = s.trie().count_before(&it);
                    walk(it);
                }
            },
        );
    }
}

#[test]
fn damaged_trie_images_are_typed_or_answer_without_panics() {
    for seed in seed_range() {
        let (keys, probes, mut g) = case(seed);
        let opts = *g.pick(&[TrieOpts::default(), TrieOpts::surf(), TrieOpts::baseline()]);
        let mut img = Vec::new();
        LoudsTrie::build(&refs(&keys), opts).0.serialize(&mut img);
        sweep(
            &img,
            &mut g,
            &format!("seed {seed} trie"),
            LoudsTrie::deserialize,
            |t| {
                for p in &probes {
                    let _ = t.lookup(p);
                    let it = t.lower_bound(p);
                    let _ = t.count_before(&it);
                    walk(it);
                }
            },
        );
    }
}

#[test]
fn damaged_bloom_images_are_typed_or_answer_without_panics() {
    for seed in seed_range() {
        let (keys, probes, mut g) = case(seed);
        let mut img = Vec::new();
        BloomFilter::new(&refs(&keys), 10.0).serialize(&mut img);
        sweep(
            &img,
            &mut g,
            &format!("seed {seed} bloom"),
            BloomFilter::deserialize,
            |b| {
                for p in &probes {
                    let _ = b.may_contain(p);
                }
            },
        );
    }
}
