//! Determinism and smoke tests: what a CI lane calls.

use memtree_benchmark::keys::KeySet;
use memtree_benchmark::layers::index_bytes_per_key;
use memtree_benchmark::report::{result_line, END_TO_END, PER_LAYER};
use memtree_benchmark::run::{run, RunConfig};
use memtree_benchmark::spec::{Profile, WORKLOADS};
use std::path::PathBuf;

#[test]
fn same_seed_gives_the_same_index_bytes_per_key() {
    let w = &WORKLOADS[0];
    let measure = |seed| index_bytes_per_key(w, &KeySet::new(seed, Profile::SMOKE.keys)).unwrap();
    let first = measure(21);
    assert!(first > 0.0);
    assert_eq!(first.to_bits(), measure(21).to_bits());
}

/// The smoke profile on every workload. A traced run also measures the
/// end-to-end metrics (on its untraced half), so one run per workload
/// reaches every metric name; a missing, NaN or infinite value fails.
#[test]
fn smoke_profile_reports_every_metric_and_every_answer_checks_out() {
    for w in &WORKLOADS {
        let cfg = RunConfig {
            workload: w,
            profile: Profile::SMOKE,
            seed: 5,
            seconds: 1.0,
            trace: true,
            trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        };
        let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.complaints);
        assert!(out.attempted > Profile::SMOKE.keys as u64);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let v = out.metrics.get(m.name).copied();
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: metric {} is {v:?}",
                w.name,
                m.name
            );
        }
        for m in END_TO_END {
            assert!(
                out.metrics[m.name] > 0.0,
                "{}: end-to-end metric {} is zero",
                w.name,
                m.name
            );
        }
        for trace in [false, true] {
            assert!(
                result_line(trace, &out).starts_with("{\"correct\": true, "),
                "{}",
                w.name
            );
        }
        let spans =
            std::fs::read_to_string(out.trace_file.expect("traced run writes its spans")).unwrap();
        for layer in [
            "serve.",
            "lsm.",
            "disk.",
            "surf.",
            "fst.",
            "succinct.",
            "skiplist.",
            "common.",
        ] {
            assert!(
                spans.contains(&format!("\"name\": \"{layer}")),
                "{}: no {layer}* span",
                w.name
            );
        }
    }
}
