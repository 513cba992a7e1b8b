//! One run of one workload, from fresh database to checked metrics.

use crate::harness::{audit, load, run_phase, user_bytes, Client, Counters, Phase};
use crate::keys::KeySet;
use crate::layers;
use crate::spec::{serve_options, Kind, Profile, Workload, BLOCK_SIZE, CLIENTS};
use crate::trace::{self, Tracer};
use memtree_common::error::Result;
use memtree_serve::ShardedDb;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: &'static Workload,
    /// Sizes.
    pub profile: Profile,
    /// Seed of the key set and of every client's op stream.
    pub seed: u64,
    /// Length of the measured phase. A traced run spends half of it
    /// untraced (counters, and the base of `trace_overhead_share`) and
    /// half traced (spans).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory the traced run writes its span file into.
    pub trace_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind the latency metrics, by op type.
    pub samples: BTreeMap<&'static str, u64>,
    /// Operations attempted: load-stage puts, client ops, audit reads.
    pub attempted: u64,
    /// Typed errors, refusals, wrong answers, and acknowledged writes
    /// missing after the barrier or after crash + reopen.
    pub failed: u64,
    /// The first few failures.
    pub complaints: Vec<String>,
    /// Where the traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

/// Runs one workload once and checks every answer.
pub fn run(cfg: &RunConfig) -> Result<Outcome> {
    let w = cfg.workload;
    let mut out = Outcome::default();
    let keys = KeySet::new(cfg.seed, cfg.profile.keys);

    let loaded = load(w, &keys)?;
    out.attempted += keys.loaded() as u64;
    out.failed += loaded.failed;
    out.metrics.insert("setup_s", loaded.setup_s);
    out.metrics.insert("disk.space_amp", loaded.space_amp);
    let index_bytes = layers::index_bytes_per_key(w, &keys)?;
    out.metrics.insert("index_bytes_per_key", index_bytes);
    out.metrics
        .insert("lsm.index_filter_bytes_per_key", index_bytes);
    let db = loaded.db;

    let mut clients: Vec<Client<'_>> = (0..CLIENTS)
        .map(|id| Client::new(id, &keys, w, cfg.seed))
        .collect();
    run_phase(&db, &mut clients, cfg.profile.warmup_s, false)?;

    let plain_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let before = Counters::read(&db)?;
    let mut plain = run_phase(&db, &mut clients, plain_s, false)?;
    let after = Counters::read(&db)?;
    end_to_end(&mut out, cfg, &mut plain);
    counters(&mut out, &plain, &before, &after);

    let traced = if cfg.trace {
        Some(run_phase(&db, &mut clients, cfg.seconds - plain_s, true)?)
    } else {
        None
    };

    // The exact model, first against the live store, then against what
    // survives a power loss that tears the last in-flight write.
    db.barrier()?;
    // Every written key, and about two thousand of the loaded ones.
    let stride = (cfg.profile.keys / 2_000).max(1);
    let (checked, wrong) = audit(&db, &keys, &clients, stride, &mut out.complaints);
    let disk = db.crash(Some(cfg.seed));
    let reopen = Instant::now();
    let db = ShardedDb::open(disk, serve_options(w))?;
    out.metrics
        .insert("serve.reopen_ms", reopen.elapsed().as_secs_f64() * 1e3);
    let (rechecked, lost) = audit(&db, &keys, &clients, stride, &mut out.complaints);
    out.attempted += checked + rechecked;
    out.failed += wrong + lost;
    for c in &mut clients {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.complaints.append(&mut c.complaints);
    }

    if let Some(mut phase) = traced {
        let traced_rate = phase.ops_per_s();
        let base = out.metrics["ops_per_s"];
        out.metrics
            .insert("trace_overhead_share", 1.0 - traced_rate / base);
        out.metrics
            .insert("lsm.l0_runs_max", phase.gauges.l0_runs_max as f64);
        out.metrics.insert(
            "lsm.compaction_debt_bytes_max",
            phase.gauges.debt_bytes_max as f64,
        );
        let mut tr = phase.tracer.take().expect("traced phase carries a tracer");
        let mut gauges = layers::Gauges::new();
        layers::engine_lane(w, &keys, cfg.seed, &mut tr, &mut gauges)?;
        layers::kernel_lanes(&cfg.profile, &keys, cfg.seed, &mut tr, &mut gauges)?;
        layers::disk_lane(&db.disk_handle(), &mut tr)?;
        out.metrics.extend(gauges);
        out.trace_file = Some(spans(&mut out.metrics, cfg, &tr)?);
    }
    db.close()?;
    Ok(out)
}

/// Throughput and latency of the measured phase: every op type by name
/// (`client.*`, per-layer), and the workload's own op as the end-to-end
/// `op_p50_us` / `op_p99_us`.
fn end_to_end(out: &mut Outcome, cfg: &RunConfig, phase: &mut Phase) {
    const NAMES: [[&str; 2]; 3] = [
        ["client.get_p50_us", "client.get_p99_us"],
        ["client.put_p50_us", "client.put_p99_us"],
        ["client.scan_p50_us", "client.scan_p99_us"],
    ];
    out.metrics.insert("ops_per_s", phase.ops_per_s());
    for kind in Kind::ALL {
        let n = phase.count(kind);
        out.samples.insert(kind.name(), n);
        // An op type the mix lacks reads 0.
        for (name, p) in NAMES[kind as usize].into_iter().zip([0.50, 0.99]) {
            out.metrics
                .insert(name, phase.quantile_us(kind, p).unwrap_or(0.0));
        }
    }
    // The end-to-end percentiles need a sample that supports them; with
    // too few the run reports none and counts as incomplete.
    let op = cfg.workload.op;
    if phase.count(op) >= cfg.profile.min_samples {
        for (e2e, layer) in ["op_p50_us", "op_p99_us"]
            .into_iter()
            .zip(NAMES[op as usize])
        {
            out.metrics.insert(e2e, out.metrics[layer]);
        }
    }
}

/// Per-layer counters as deltas over the (untraced) measured phase.
fn counters(out: &mut Outcome, phase: &Phase, before: &Counters, after: &Counters) {
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let (gets, puts, scans) = (
        phase.count(Kind::Get) as f64,
        phase.count(Kind::Put),
        phase.count(Kind::Scan) as f64,
    );
    let io = |f: fn(&memtree_lsm::IoStats) -> u64| (f(&after.io) - f(&before.io)) as f64;
    let m = &mut out.metrics;
    m.insert("disk.block_reads", io(|s| s.block_reads));
    m.insert("disk.block_writes", io(|s| s.block_writes));
    m.insert("disk.syncs", io(|s| s.syncs));
    m.insert(
        "disk.block_reads_per_get",
        ratio(io(|s| s.block_reads), gets),
    );
    m.insert(
        "disk.block_reads_per_scan",
        ratio(io(|s| s.block_reads), scans),
    );
    m.insert(
        "disk.write_amp",
        ratio(io(|s| s.block_writes) * BLOCK_SIZE as f64, user_bytes(puts)),
    );
    m.insert(
        "disk.wal_amp",
        ratio(io(|s| s.file_bytes_written), user_bytes(puts)),
    );
    m.insert("disk.syncs_per_put", ratio(io(|s| s.syncs), puts as f64));
    let sv = |f: fn(&memtree_serve::ServeStats) -> u64| (f(&after.serve) - f(&before.serve)) as f64;
    m.insert("serve.shed", sv(|s| s.shed));
    m.insert("serve.deadline_misses", sv(|s| s.deadline_misses));
    m.insert("serve.overload_retries", sv(|s| s.overload_retries));
    m.insert("serve.transient_retries", sv(|s| s.transient_retries));
    m.insert("serve.max_queue_depth", after.serve.max_queue_depth as f64);
    let db = |f: fn(&memtree_lsm::DbStats) -> u64| {
        after
            .shards
            .iter()
            .zip(&before.shards)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    m.insert("lsm.compact_steps", db(|s| s.compact_steps));
    m.insert(
        "lsm.backpressure_rejections",
        db(|s| s.backpressure_rejections),
    );
    m.insert("lsm.stall_rejections", db(|s| s.stall_rejections));
}

/// Turns the spans into the `_ns` metrics and writes the trace file.
fn spans(m: &mut BTreeMap<&'static str, f64>, cfg: &RunConfig, tr: &Tracer) -> Result<PathBuf> {
    let totals = trace::summarize(tr.spans());
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    for (metric, span) in [
        ("serve.get_ns", "serve.get"),
        ("serve.put_ns", "serve.put"),
        ("serve.scan_ns", "serve.scan"),
        ("serve.publish_ns", "serve.publish"),
        ("lsm.put_ns", "lsm.put"),
        ("lsm.flush_ns", "lsm.flush"),
        ("lsm.compact_step_ns", "lsm.compact_step"),
        ("lsm.snapshot_ns", "lsm.snapshot"),
        ("disk.read_ns", "disk.read"),
        ("disk.append_ns", "disk.append"),
        ("disk.sync_ns", "disk.sync"),
        ("surf.lookup_hit_ns", "surf.lookup_hit"),
        ("surf.lookup_miss_ns", "surf.lookup_miss"),
        ("surf.move_to_next_ns", "surf.move_to_next"),
        ("surf.build_ns_per_key", "surf.build"),
        ("fst.get_ns", "fst.get"),
        ("fst.lower_bound_ns", "fst.lower_bound"),
        ("succinct.rank_ns", "succinct.rank"),
        ("succinct.select_ns", "succinct.select"),
        ("skiplist.insert_ns", "skiplist.insert"),
        ("skiplist.get_ns", "skiplist.get"),
        ("common.crc32c_ns_per_4k", "common.crc32c_4k"),
    ] {
        m.insert(metric, mean(span));
    }
    // Over the sampled ops only, so that parent and child cover the same
    // keys: the parent's mean duration, and what running first (on a cold
    // block cache) costs over running second.
    let pairs = |child: &str| {
        let spans = tr.spans();
        let (mut parent_ns, mut first_ns, mut second_ns, mut n) = (0u64, 0u64, 0u64, 0u64);
        for c in spans.iter().filter(|s| s.name == child) {
            let p = &spans[c.parent as usize - 1];
            let (c_ns, p_ns) = (c.end_ns - c.start_ns, p.end_ns - p.start_ns);
            parent_ns += p_ns;
            let (first, second) = if c.start_ns < p.start_ns {
                (c_ns, p_ns)
            } else {
                (p_ns, c_ns)
            };
            first_ns += first;
            second_ns += second;
            n += 1;
        }
        let per = |total: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        (per(parent_ns), per(first_ns) - per(second_ns))
    };
    let (get_parent, get_miss) = pairs("lsm.snapshot_get");
    let (scan_parent, scan_miss) = pairs("lsm.snapshot_scan");
    m.insert("lsm.snapshot_get_ns", mean("lsm.snapshot_get"));
    m.insert("lsm.snapshot_scan_ns", mean("lsm.snapshot_scan"));
    m.insert("serve.get_route_ns", get_parent - mean("lsm.snapshot_get"));
    m.insert(
        "serve.scan_merge_ns",
        scan_parent - mean("lsm.snapshot_scan"),
    );
    m.insert(
        "lsm.block_miss_ns",
        if get_parent > 0.0 {
            get_miss
        } else {
            scan_miss
        },
    );
    m.insert("serve.put_handoff_ns", {
        let put = mean("serve.put");
        if put == 0.0 {
            0.0
        } else {
            put - mean("lsm.put") - mean("disk.sync")
        }
    });
    m.insert(
        "trace_self_gap_share",
        trace::self_gap_share(tr.spans(), &totals),
    );

    let path = cfg
        .trace_dir
        .join(format!("trace-{}-{}.json", cfg.workload.name, cfg.seed));
    let header = [
        ("workload".to_string(), format!("{:?}", cfg.workload.name)),
        ("env".to_string(), crate::report::env_json(cfg)),
    ];
    trace::write_file(&path, &header, tr.spans(), &totals).map_err(|e| {
        memtree_common::error::MemtreeError::corruption("benchmark-trace", e.to_string())
    })?;
    Ok(path)
}
