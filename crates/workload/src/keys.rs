//! Key-set generators for the thesis's three key types plus the Chapter 6
//! string corpora and the SuRF worst-case dataset.

use memtree_common::hash::splitmix64;
use memtree_common::key::encode_u64;

/// `n` distinct random 64-bit integer keys, big-endian encoded, in
/// generation order (not sorted).
pub fn rand_u64_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = splitmix64(&mut state);
        if seen.insert(k) {
            keys.push(encode_u64(k).to_vec());
        }
    }
    keys
}

/// `n` distinct random `len`-byte keys whose first byte is below
/// `first_below` (1..=256), in generation order. With `len = 16`,
/// `first_below = 256` draws the benchmark's keys; `first_below = 43` draws the sixth of
/// the key space one of its 16 384-key SSTables covers at a disjoint level.
pub fn rand_bytes_keys(n: usize, len: usize, first_below: u16, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let mut key: Vec<u8> = (0..len.div_ceil(8))
            .flat_map(|_| splitmix64(&mut state).to_be_bytes())
            .take(len)
            .collect();
        if let Some(first) = key.first_mut() {
            *first = (u16::from(*first) % first_below) as u8;
        }
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    keys
}

/// `n` distinct keys (at most ≈ 300 000) that share a 12-byte prefix and
/// end in 0–6 bytes over an 8-letter alphabet, so many keys are prefixes
/// of others; in generation order.
pub fn shared_prefix_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let mut key = b"tenant/0042/".to_vec();
        let tail = (splitmix64(&mut state) % 7) as usize;
        key.extend((0..tail).map(|_| b'a' + (splitmix64(&mut state) % 8) as u8));
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    keys
}

/// `n` monotonically increasing 64-bit integer keys.
pub fn mono_u64_keys(n: usize) -> Vec<Vec<u8>> {
    (0..n as u64).map(|i| encode_u64(i).to_vec()).collect()
}

const DOMAINS: &[&str] = &[
    "com.gmail",
    "com.yahoo",
    "com.hotmail",
    "com.outlook",
    "com.aol",
    "com.icloud",
    "com.qq.mail",
    "org.apache",
    "org.mozilla",
    "edu.cmu.cs",
    "edu.mit",
    "net.comcast",
    "de.web",
    "co.uk.btinternet",
    "fr.orange",
    "com.example.corp.mail",
];

const NAME_PARTS: &[&str] = &[
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael", "linda", "wei", "li",
    "maria", "mohammed", "anna", "jose", "ivan", "yuki", "chen", "kumar", "fatima", "olga",
];

/// `n` distinct host-reversed email keys ("com.domain@user"), average
/// length ≈ 22–30 bytes, dense shared prefixes — matching the statistics
/// of the thesis's real email corpus (DESIGN.md substitution #2).
pub fn email_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        // Zipf-ish domain choice: square a uniform so low indexes dominate.
        let u = (splitmix64(&mut state) % 256) as usize;
        let d = DOMAINS[(u * u / 4096).min(DOMAINS.len() - 1)];
        let name = NAME_PARTS[(splitmix64(&mut state) % NAME_PARTS.len() as u64) as usize];
        let email = match splitmix64(&mut state) % 4 {
            0 => format!("{d}@{name}{}", splitmix64(&mut state) % 10_000),
            1 => {
                let name2 =
                    NAME_PARTS[(splitmix64(&mut state) % NAME_PARTS.len() as u64) as usize];
                format!("{d}@{name}.{name2}")
            }
            2 => format!("{d}@{name}_{}", splitmix64(&mut state) % 100_000),
            _ => format!("{d}@{}{name}", splitmix64(&mut state) % 100),
        };
        if seen.insert(email.clone()) {
            keys.push(email.into_bytes());
        }
    }
    keys
}

const WORDS: &[&str] = &[
    "history", "list", "of", "the", "united", "states", "world", "war", "film", "album", "season",
    "county", "river", "station", "church", "school", "university", "football", "national",
    "david", "john", "battle", "house", "island", "railway", "museum", "lake", "north", "south",
    "new", "grand", "royal", "saint", "music", "art", "science",
];

/// `n` distinct wiki-title-like keys: capitalized word concatenations with
/// underscores (mean length ≈ 20 bytes, moderate prefix sharing).
pub fn wiki_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let words = 2 + (splitmix64(&mut state) % 3) as usize;
        let mut title = String::new();
        for w in 0..words {
            if w > 0 {
                title.push('_');
            }
            let word = WORDS[(splitmix64(&mut state) % WORDS.len() as u64) as usize];
            let mut chars = word.chars();
            if w == 0 {
                title.extend(chars.next().map(|c| c.to_ascii_uppercase()));
            }
            title.extend(chars);
        }
        if splitmix64(&mut state).is_multiple_of(3) {
            title.push_str(&format!("_({})", 1800 + splitmix64(&mut state) % 225));
        }
        if seen.insert(title.clone()) {
            keys.push(title.into_bytes());
        }
    }
    keys
}

/// `n` distinct URL keys sharing long scheme/host prefixes (mean length ≈
/// 50 bytes — the thesis's URL corpus shape).
pub fn url_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let hosts = [
        "http://www.wikipedia.org",
        "http://www.youtube.com",
        "https://www.google.com",
        "http://news.bbc.co.uk",
        "https://github.com",
        "http://www.amazon.com/products",
    ];
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let h = hosts[(splitmix64(&mut state) % hosts.len() as u64) as usize];
        let word = WORDS[(splitmix64(&mut state) % WORDS.len() as u64) as usize];
        let url = format!(
            "{h}/{word}/{:08x}/page-{}.html",
            splitmix64(&mut state) & 0xFFFF_FFFF,
            splitmix64(&mut state) % 1000
        );
        if seen.insert(url.clone()) {
            keys.push(url.into_bytes());
        }
    }
    keys
}

/// The SuRF worst-case dataset of Figure 4.10, scaled: every `prefix_len`-
/// character combination over a 4-letter alphabet appears twice, followed
/// by a long shared random run, with the final byte distinguishing the
/// pair. Maximizes trie height and minimizes node sharing.
pub fn surf_worst_case(prefix_len: usize, run_len: usize, seed: u64) -> Vec<Vec<u8>> {
    let alphabet = b"abcd";
    let mut state = seed;
    let count = alphabet.len().pow(prefix_len as u32);
    let mut keys = Vec::with_capacity(count * 2);
    for i in 0..count {
        let mut prefix = Vec::with_capacity(prefix_len + run_len + 1);
        let mut x = i;
        for _ in 0..prefix_len {
            prefix.push(alphabet[x % alphabet.len()]);
            x /= alphabet.len();
        }
        let run: Vec<u8> = (0..run_len)
            .map(|_| b'a' + (splitmix64(&mut state) % 26) as u8)
            .collect();
        for last in [b'x', b'y'] {
            let mut key = prefix.clone();
            key.extend_from_slice(&run);
            key.push(last);
            keys.push(key);
        }
    }
    keys
}

/// Sorts + dedups a key set in place (bulk-load preparation).
pub fn sorted_unique(mut keys: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_distinct_keys() {
        for keys in [
            rand_u64_keys(5000, 1),
            email_keys(5000, 2),
            wiki_keys(5000, 3),
            url_keys(5000, 4),
            rand_bytes_keys(5000, 16, 43, 5),
            shared_prefix_keys(5000, 6),
        ] {
            assert_eq!(keys.len(), 5000);
            let unique = sorted_unique(keys);
            assert_eq!(unique.len(), 5000);
        }
    }

    #[test]
    fn email_statistics_match_paper() {
        let keys = email_keys(20_000, 7);
        let avg: f64 =
            keys.iter().map(|k| k.len()).sum::<usize>() as f64 / keys.len() as f64;
        assert!((15.0..35.0).contains(&avg), "avg email length {avg:.1}");
        // Host-reversed form shares dense prefixes.
        let with_com = keys.iter().filter(|k| k.starts_with(b"com.")).count();
        assert!(with_com > keys.len() / 2);
    }

    #[test]
    fn url_keys_share_long_prefixes() {
        let keys = sorted_unique(url_keys(1000, 5));
        let mut total_lcp = 0usize;
        for w in keys.windows(2) {
            total_lcp += memtree_common::key::common_prefix_len(&w[0], &w[1]);
        }
        let avg_lcp = total_lcp as f64 / (keys.len() - 1) as f64;
        assert!(avg_lcp > 10.0, "avg neighbor LCP {avg_lcp:.1}");
    }

    #[test]
    fn worst_case_shape() {
        let keys = surf_worst_case(3, 20, 9);
        assert_eq!(keys.len(), 4usize.pow(3) * 2);
        for pair in keys.chunks(2) {
            assert_eq!(pair[0].len(), 24);
            // Pairs share everything but the final byte.
            let k0 = &pair[0];
            let k1 = &pair[1];
            assert_eq!(&k0[..k0.len() - 1], &k1[..k1.len() - 1]);
            assert_ne!(k0.last(), k1.last());
        }
    }

    #[test]
    fn mono_keys_sorted() {
        let keys = mono_u64_keys(1000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
