//! Metric names, units, directions and bounds — the single table that
//! `BENCHMARK.json`, the result line and the `--repeat` check all read —
//! and the printing of a run.

use crate::run::{Outcome, RunConfig};
use crate::spec::{CLIENTS, SHARDS, WORKLOADS};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees; reported by an ordinary run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_p99_us", "us", Lower, 0.25),
    e2e("index_bytes_per_key", "B/key", Lower, 0.005),
];

/// What single layers do; reported by a traced run. Layer = crate name.
pub const PER_LAYER: &[Metric] = &[
    layer("trace_overhead_share", "share", Lower),
    layer("trace_self_gap_share", "share", Lower),
    layer("client.get_p50_us", "us", Lower),
    layer("client.get_p99_us", "us", Lower),
    layer("client.put_p50_us", "us", Lower),
    layer("client.put_p99_us", "us", Lower),
    layer("client.scan_p50_us", "us", Lower),
    layer("client.scan_p99_us", "us", Lower),
    layer("serve.get_ns", "ns", Lower),
    layer("serve.put_ns", "ns", Lower),
    layer("serve.scan_ns", "ns", Lower),
    layer("serve.get_route_ns", "ns", Lower),
    layer("serve.scan_merge_ns", "ns", Lower),
    layer("serve.put_handoff_ns", "ns", Lower),
    layer("serve.publish_ns", "ns", Lower),
    layer("serve.reopen_ms", "ms", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.deadline_misses", "count", Lower),
    layer("serve.overload_retries", "count", Lower),
    layer("serve.transient_retries", "count", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("lsm.snapshot_get_ns", "ns", Lower),
    layer("lsm.snapshot_scan_ns", "ns", Lower),
    layer("lsm.block_miss_ns", "ns", Lower),
    layer("lsm.put_ns", "ns", Lower),
    layer("lsm.flush_ns", "ns", Lower),
    layer("lsm.compact_step_ns", "ns", Lower),
    layer("lsm.snapshot_ns", "ns", Lower),
    layer("lsm.filter_passes_per_get", "count", Lower),
    layer("lsm.filter_keys_per_get", "count", Lower),
    layer("lsm.cache_hit_rate", "share", Higher),
    layer("lsm.compact_steps", "count", Lower),
    layer("lsm.backpressure_rejections", "count", Lower),
    layer("lsm.stall_rejections", "count", Lower),
    layer("lsm.l0_runs_max", "count", Lower),
    layer("lsm.compaction_debt_bytes_max", "B", Lower),
    layer("lsm.index_filter_bytes_per_key", "B/key", Lower),
    layer("disk.block_reads_per_get", "count", Lower),
    layer("disk.block_reads_per_scan", "count", Lower),
    layer("disk.block_reads", "count", Lower),
    layer("disk.block_writes", "count", Lower),
    layer("disk.syncs", "count", Lower),
    layer("disk.write_amp", "B/B", Lower),
    layer("disk.wal_amp", "B/B", Lower),
    layer("disk.syncs_per_put", "count", Lower),
    layer("disk.space_amp", "B/B", Lower),
    layer("disk.read_ns", "ns", Lower),
    layer("disk.append_ns", "ns", Lower),
    layer("disk.sync_ns", "ns", Lower),
    layer("surf.lookup_hit_ns", "ns", Lower),
    layer("surf.lookup_miss_ns", "ns", Lower),
    layer("surf.move_to_next_ns", "ns", Lower),
    layer("surf.fpr", "share", Lower),
    layer("surf.build_ns_per_key", "ns", Lower),
    layer("surf.bits_per_key", "bit/key", Lower),
    layer("fst.get_ns", "ns", Lower),
    layer("fst.lower_bound_ns", "ns", Lower),
    layer("fst.bits_per_key", "bit/key", Lower),
    layer("succinct.rank_ns", "ns", Lower),
    layer("succinct.select_ns", "ns", Lower),
    layer("skiplist.insert_ns", "ns", Lower),
    layer("skiplist.get_ns", "ns", Lower),
    layer("common.crc32c_ns_per_4k", "ns", Lower),
];

/// The metrics a run of this kind must report.
pub fn expected(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The file `BENCHMARK.json` must equal (a test compares them).
pub fn contract_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"-p\", \"memtree-benchmark\", \"--\"],\n");
    s.push_str("  \"paths\": [\"crates/benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {run_seconds},").expect("write to string");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |b: Better| if b == Higher { "higher" } else { "lower" };
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            better(m.better),
            m.bound
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            better(m.better)
        )
        .expect("write to string");
    }
    s.push_str("  ]\n}\n");
    s
}

/// First line a tool prints; asked once per process (`--repeat` and the
/// trace header would otherwise spawn it again and again).
fn tool_output(cell: &'static OnceLock<String>, program: &str, args: &[&str]) -> &'static str {
    cell.get_or_init(|| command_line(program, args))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken, as a JSON object.
pub fn env_json(cfg: &RunConfig) -> String {
    static RUSTC: OnceLock<String> = OnceLock::new();
    static GIT_HEAD: OnceLock<String> = OnceLock::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"clients\": {CLIENTS}, \"shards\": {SHARDS}, \"seed\": {}, \"keys\": {}, \
         \"warmup_s\": {}, \"measured_s\": {}, \"traced\": {}, \"crc_kernel\": {}, \"MEMTREE_KERNELS\": {}, \
         \"rustc\": {}, \"git_head\": {}, \"device\": \"SimDisk, in memory, io_read_latency = 0: latencies are the sandbox's, not a device's\"}}",
        cfg.seed,
        cfg.profile.keys,
        cfg.profile.warmup_s,
        cfg.seconds,
        cfg.trace,
        json_str(memtree_common::crc::active_kernel()),
        json_str(&std::env::var("MEMTREE_KERNELS").unwrap_or_else(|_| "unset".into())),
        json_str(tool_output(&RUSTC, "rustc", &["--version"])),
        json_str(tool_output(&GIT_HEAD, "git", &["rev-parse", "HEAD"])),
    )
}

/// Prints every measured metric by name with its unit, the environment,
/// and — as the last line — the result object the driver reads.
pub fn print(cfg: &RunConfig, out: &Outcome) {
    println!("workload {}  env {}", cfg.workload.name, env_json(cfg));
    for (name, n) in &out.samples {
        println!("samples {name:<10} {n}");
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    for (name, value) in &out.metrics {
        println!("metric  {name:<34} {value:>16.4} {}", unit_of(name));
    }
    if let Some(path) = &out.trace_file {
        println!("trace   {}", path.display());
    }
    for c in &out.complaints {
        println!("FAILED  {c}");
    }
    println!(
        "failed_ops_share {}",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", result_line(cfg.trace, out));
}

/// True when every answer checked out and every metric of the run's kind
/// was measured as a finite number: a metric the run could not measure
/// makes it incorrect rather than going missing.
pub fn correct(trace: bool, out: &Outcome) -> bool {
    out.failed == 0
        && expected(trace)
            .iter()
            .all(|m| out.metrics.get(m.name).is_some_and(|v| v.is_finite()))
}

/// The driver's result object: `correct`, `attempted`, `failed`, and
/// exactly the metrics of the run's kind.
pub fn result_line(trace: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = expected(trace)
        .iter()
        .map(|m| {
            let v = out.metrics.get(m.name).copied().filter(|v| v.is_finite());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                v.unwrap_or(0.0),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(trace, out),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in names {
            assert!(
                name.len() <= 64
                    && name.chars().all(ok)
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn benchmark_json_matches_the_table() {
        let file = include_str!("../../../BENCHMARK.json");
        let seconds = file
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("run_seconds in BENCHMARK.json");
        assert_eq!(
            file,
            contract_json(seconds),
            "regenerate BENCHMARK.json with `memtree-benchmark --contract`"
        );
    }
}
