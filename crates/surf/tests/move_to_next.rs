//! Focused tests of SuRF's `moveToNext` semantics (§4.1.5): the iterator,
//! its `fp_flag`, and the real-suffix refinement.

use memtree_surf::{SuffixConfig, Surf};

fn surf_of(keys: &[&[u8]], cfg: SuffixConfig) -> Surf {
    let mut owned: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
    owned.sort();
    owned.dedup();
    Surf::from_keys(&owned, cfg)
}

#[test]
fn truncated_prefix_hit_raises_fp_full_prefix_does_not() {
    // apple/banana/cherry truncate to single bytes: the stored "b" is a
    // strict prefix of the query, so the flag MUST be set.
    let s = surf_of(&[b"apple", b"banana", b"cherry"], SuffixConfig::None);
    let (it, fp) = s.move_to_next(b"banana");
    assert!(it.valid());
    assert!(fp, "one-byte truncation cannot certify a hit");
    assert_eq!(it.key(), b"b");
    // Keys diverging at their last byte are stored in full: querying one
    // exactly is unambiguous.
    let s = surf_of(&[b"ab", b"ac"], SuffixConfig::None);
    let (it, fp) = s.move_to_next(b"ab");
    assert!(it.valid());
    assert!(!fp, "full stored key == query is exact");
    assert_eq!(it.key(), b"ab");
}

#[test]
fn fp_flag_set_when_stored_prefix_of_query() {
    // "SIGMOD"/"SIGOPS"/"SIGAI": truncation stores SIG + one byte.
    let s = surf_of(&[b"SIGAI", b"SIGMOD", b"SIGOPS"], SuffixConfig::None);
    let (it, fp) = s.move_to_next(b"SIGMETRICS");
    assert!(it.valid());
    // The stored "SIGM" prefix is a strict prefix of the query — ambiguous.
    assert!(fp, "stored prefix of query must raise fp_flag");
    assert_eq!(it.key(), b"SIGM");
}

#[test]
fn real_suffix_refines_ambiguity() {
    // Same shape, but with real suffix bits: "SIGM|O..." vs query
    // "SIGMETRICS" (E < O) — the suffix proves stored >= query.
    let s = surf_of(&[b"SIGAI", b"SIGMOD", b"SIGOPS"], SuffixConfig::Real(8));
    let (it, fp) = s.move_to_next(b"SIGMETRICS");
    assert!(it.valid());
    assert!(!fp, "8 real bits disambiguate E vs O");
    // And a query the suffix proves *smaller* advances the iterator:
    // stored "SIGM(O)" < "SIGMZZZ" so next stored key (SIGO...) is returned.
    let (it2, fp2) = s.move_to_next(b"SIGMZZZ");
    assert!(it2.valid());
    assert!(!fp2);
    assert_eq!(it2.key(), b"SIGO");
}

#[test]
fn past_the_end_is_invalid() {
    let s = surf_of(&[b"a", b"b", b"c"], SuffixConfig::Real(8));
    let (it, fp) = s.move_to_next(b"zzz");
    assert!(!it.valid());
    assert!(!fp);
}

#[test]
fn iteration_covers_all_stored_prefixes_in_order() {
    let keys: Vec<Vec<u8>> = (0..500u64)
        .map(|i| format!("key{:05}", i * 3).into_bytes())
        .collect();
    let s = Surf::from_keys(&keys, SuffixConfig::None);
    let (mut it, _) = s.move_to_next(b"");
    let mut count = 0;
    let mut prev: Option<Vec<u8>> = None;
    while it.valid() {
        let k = it.key().to_vec();
        if let Some(p) = &prev {
            assert!(*p < k, "iterator out of order: {p:?} then {k:?}");
        }
        prev = Some(k);
        count += 1;
        it.next();
    }
    assert_eq!(count, keys.len(), "one stored item per key");
}

#[test]
fn empty_and_single_key_filters() {
    let s = Surf::from_keys(&[], SuffixConfig::Real(4));
    let (it, _) = s.move_to_next(b"x");
    assert!(!it.valid());
    assert_eq!(s.count(b"a", b"z"), 0);

    let s = Surf::from_keys(&[b"only".to_vec()], SuffixConfig::Real(4));
    assert!(s.lookup(b"only"));
    let (it, _) = s.move_to_next(b"a");
    assert!(it.valid());
    assert_eq!(s.count(b"a", b"z"), 1);
    assert_eq!(s.count(b"p", b"z"), 0);
}

#[test]
fn count_degenerate_ranges() {
    let keys: Vec<Vec<u8>> = (0..100u64).map(|i| format!("k{i:03}").into_bytes()).collect();
    let s = Surf::from_keys(&keys, SuffixConfig::Real(8));
    assert_eq!(s.count(b"k050", b"k050"), 0, "empty range");
    assert_eq!(s.count(b"k051", b"k050"), 0, "inverted range");
    let full = s.count(b"", b"z");
    assert!((100..=102).contains(&full), "full-range count {full}");
}
