//! What the `bench_*` binaries and `repro` share: one argument parser,
//! one best-of timer, and one JSON writer with a required-keys check.
//! Each binary keeps only its sections and its gates.

use std::collections::BTreeSet;
use std::time::Duration;

/// A parsed command line: the `--flags` given (with their value, for the
/// ones that take one) and everything else, in order.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    /// Arguments that are not flags.
    pub positional: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value given with `flag`, if it was.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }
}

/// Parses `args` against the flags a program knows: `switches` stand
/// alone, `valued` take the next argument. Any other `--…` argument, or a
/// valued flag with nothing after it, is an error — a misspelt flag must
/// never silently select the default.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    valued: &[&str],
) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if switches.contains(&a.as_str()) {
            parsed.flags.push((a, None));
        } else if valued.contains(&a.as_str()) {
            let v = args.next().ok_or_else(|| format!("{a} needs a value"))?;
            parsed.flags.push((a, Some(v)));
        } else if a.starts_with("--") {
            return Err(format!("unknown argument: {a}"));
        } else {
            parsed.positional.push(a);
        }
    }
    Ok(parsed)
}

/// The command line every `bench_*` binary takes.
pub struct BenchArgs {
    /// CI-sized inputs; timing gates are skipped.
    pub smoke: bool,
    /// Where the JSON goes: `--out PATH`, else `BENCH_<name>.json` in the
    /// working directory (`target/BENCH_<name>_smoke.json` under `--smoke`,
    /// so a smoke run leaves the checkout clean).
    pub out: String,
}

impl BenchArgs {
    /// Parses the process arguments for `bench_<name>`; anything but
    /// `--smoke` / `--out PATH` prints the usage line and exits 2.
    pub fn from_env(name: &str) -> Self {
        match parse_args(std::env::args().skip(1), &["--smoke"], &["--out"]) {
            Ok(args) if args.positional.is_empty() => {
                let smoke = args.has("--smoke");
                let out = match args.value("--out") {
                    Some(path) => path.to_string(),
                    None if smoke => format!("target/BENCH_{name}_smoke.json"),
                    None => format!("BENCH_{name}.json"),
                };
                Self { smoke, out }
            }
            Ok(args) => usage_exit(name, &format!("unexpected argument: {}", args.positional[0])),
            Err(e) => usage_exit(name, &e),
        }
    }
}

fn usage_exit(name: &str, problem: &str) -> ! {
    eprintln!("{problem}\nusage: bench_{name} [--smoke] [--out PATH]");
    std::process::exit(2);
}

/// Best-of-`runs` duration of `f` (min rejects scheduler noise).
pub fn best_of<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    (0..runs).map(|_| crate::time(&mut f)).min().expect("at least one run")
}

/// The two `meta` fields that say which kernels a run measured
/// (`MEMTREE_KERNELS` dispatch and the CRC32C implementation).
pub fn kernel_meta(j: &mut Json) {
    j.str("kernel_mode", match memtree_common::kernel_mode() {
        memtree_common::KernelMode::Auto => "auto",
        memtree_common::KernelMode::Scalar => "scalar",
    });
    j.str("crc_kernel", memtree_common::crc::active_kernel());
}

#[derive(Default)]
struct Frame {
    array: bool,
    entries: usize,
    /// A container opened inside this one.
    nested: bool,
}

/// A streaming JSON document writer. It starts inside the top-level
/// object; nested containers are filled by closures, so the output is
/// balanced by construction, and the writer owns commas, indentation and
/// number formatting. Containers holding only scalars are written on one
/// line. Every key written is recorded for [`Json::write_checked`].
#[derive(Default)]
pub struct Json {
    buf: String,
    keys: BTreeSet<String>,
    frame: Frame,
    depth: usize,
}

impl Json {
    /// Starts the next entry of the open container: comma, line, key.
    fn entry(&mut self, key: Option<&str>) {
        assert_eq!(key.is_none(), self.frame.array, "keys go in objects, bare items in arrays");
        if self.frame.entries > 0 {
            self.buf.push(',');
        }
        self.frame.entries += 1;
        self.newline();
        if let Some(key) = key {
            self.keys.insert(key.to_string());
            self.quoted(key);
            self.buf.push_str(": ");
        }
    }

    fn newline(&mut self) {
        self.buf.push('\n');
        self.buf.extend(std::iter::repeat_n("  ", self.depth + 1));
    }

    fn quoted(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn container<R>(
        &mut self,
        key: Option<&str>,
        array: bool,
        fill: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.entry(key);
        self.frame.nested = true;
        let start = self.buf.len();
        self.buf.push(if array { '[' } else { '{' });
        let outer = std::mem::replace(&mut self.frame, Frame { array, ..Frame::default() });
        self.depth += 1;
        let filled = fill(self);
        self.depth -= 1;
        let inner = std::mem::replace(&mut self.frame, outer);
        if inner.entries > 0 {
            self.newline();
        }
        self.buf.push(if array { ']' } else { '}' });
        if !inner.nested {
            // Strings hold no raw newline (`quoted` escapes them), so every
            // line break in the span is the writer's own.
            let flat: Vec<&str> = self.buf[start..].split('\n').map(str::trim_start).collect();
            let flat = flat.join(" ");
            self.buf.truncate(start);
            self.buf.push_str(&flat);
        }
        filled
    }

    fn push_int(&mut self, v: impl TryInto<u64>) {
        let v = v.try_into().ok().expect("counter fits u64");
        self.buf.push_str(&v.to_string());
    }

    /// `"key": <non-negative integer>`.
    pub fn int(&mut self, key: &str, v: impl TryInto<u64>) {
        self.entry(Some(key));
        self.push_int(v);
    }

    /// `"key": <v to `decimals` places>`. Panics on NaN or an infinity:
    /// neither is JSON, and a rate that is not finite is a broken run.
    pub fn num(&mut self, key: &str, v: f64, decimals: usize) {
        assert!(v.is_finite(), "{key}: {v} is not a finite number");
        self.entry(Some(key));
        self.buf.push_str(&format!("{v:.decimals$}"));
    }

    /// `"key": true|false`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.entry(Some(key));
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// `"key": "v"`, escaped.
    pub fn str(&mut self, key: &str, v: &str) {
        self.entry(Some(key));
        self.quoted(v);
    }

    /// `"key": { … }`, filled by `fill`, whose result is handed back (a
    /// section can write its rows and return what its gates compare).
    pub fn obj<R>(&mut self, key: &str, fill: impl FnOnce(&mut Self) -> R) -> R {
        self.container(Some(key), false, fill)
    }

    /// `"key": [ … ]`, filled by `fill` with [`Json::item`] calls.
    pub fn arr<R>(&mut self, key: &str, fill: impl FnOnce(&mut Self) -> R) -> R {
        self.container(Some(key), true, fill)
    }

    /// One `{ … }` element of the open array.
    pub fn item<R>(&mut self, fill: impl FnOnce(&mut Self) -> R) -> R {
        self.container(None, false, fill)
    }

    /// `"key": [v, …]` of non-negative integers.
    pub fn ints<T: Copy + TryInto<u64>>(&mut self, key: &str, vs: &[T]) {
        self.arr(key, |j| {
            for &v in vs {
                j.entry(None);
                j.push_int(v);
            }
        });
    }

    fn finish(&self) -> String {
        format!("{{{}\n}}\n", self.buf)
    }

    /// The `required` keys this document did not write.
    fn missing_keys<'a>(&self, required: &[&'a str]) -> Vec<&'a str> {
        required.iter().copied().filter(|k| !self.keys.contains(*k)).collect()
    }

    /// Writes the document to `path` (creating its directory), reads it
    /// back, and requires it intact and every `required` key written — a
    /// section dropped from a writer must fail the run, not the reader of
    /// the file.
    pub fn write_checked(self, path: &str, required: &[&str]) {
        let text = self.finish();
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        let back = std::fs::read_to_string(path).expect("read the artifact back");
        assert_eq!(back, text, "{path} read back differently from what was written");
        let missing = self.missing_keys(required);
        assert!(missing.is_empty(), "{path} is missing keys {missing:?}");
        println!("wrote {path} (schema check passed)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parser_takes_known_flags_and_positionals() {
        let a = parse_args(argv(&["all", "--out", "x.json", "--smoke"]), &["--smoke"], &["--out"])
            .unwrap();
        assert!(a.has("--smoke"));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(a.positional, ["all"]);
        let none = parse_args(argv(&[]), &["--smoke"], &["--out"]).unwrap();
        assert!(!none.has("--smoke") && none.value("--out").is_none());
    }

    #[test]
    fn parser_rejects_unknown_flags_and_missing_values() {
        let err = parse_args(argv(&["all", "--quik"]), &["--quick"], &[]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        assert!(parse_args(argv(&["--smoke"]), &["--quick"], &[]).is_err());
        assert!(parse_args(argv(&["--out"]), &["--smoke"], &["--out"]).is_err());
    }

    #[test]
    fn json_is_balanced_and_comma_correct() {
        let mut j = Json::default();
        j.obj("meta", |j| {
            j.int("n", 3usize);
            j.bool("smoke", true);
            j.str("note", "a \"quoted\"\nline");
        });
        j.arr("empty", |_| {});
        j.obj("none", |_| {});
        j.arr("kinds", |j| {
            for kind in ["a", "b"] {
                j.item(|j| {
                    j.str("kind", kind);
                    j.arr("rows", |j| {
                        j.item(|j| j.num("mops", 1.26, 1));
                        j.item(|j| j.num("mops", 2.0, 3));
                    });
                    j.ints("levels", &[1usize, 0, 4]);
                });
            }
        });
        j.num("last", -0.5, 2);
        let expect = r#"{
  "meta": { "n": 3, "smoke": true, "note": "a \"quoted\"\nline" },
  "empty": [],
  "none": {},
  "kinds": [
    {
      "kind": "a",
      "rows": [
        { "mops": 1.3 },
        { "mops": 2.000 }
      ],
      "levels": [ 1, 0, 4 ]
    },
    {
      "kind": "b",
      "rows": [
        { "mops": 1.3 },
        { "mops": 2.000 }
      ],
      "levels": [ 1, 0, 4 ]
    }
  ],
  "last": -0.50
}
"#;
        assert_eq!(j.finish(), expect);
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn json_refuses_non_finite_numbers() {
        Json::default().num("speedup", 1.0 / 0.0, 3);
    }

    #[test]
    fn required_keys_check_names_the_missing_key() {
        let mut j = Json::default();
        j.obj("meta", |j| j.int("n_keys", 1u64));
        j.str("note", "\"thread_scaling\" only inside a string does not count");
        assert!(j.missing_keys(&["meta", "n_keys", "note"]).is_empty());
        assert_eq!(j.missing_keys(&["meta", "thread_scaling"]), ["thread_scaling"]);
    }
}
