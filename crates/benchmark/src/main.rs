//! Command line of the benchmark.
//!
//! ```text
//! memtree-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one run
//! memtree-benchmark --smoke                  every workload, plain and traced, in seconds
//! memtree-benchmark --repeat <n> [...]       n runs per workload, spread against each bound
//! memtree-benchmark --contract               print BENCHMARK.json
//! ```

use memtree_benchmark::report::{self, Better, END_TO_END};
use memtree_benchmark::run::{run, Outcome, RunConfig};
use memtree_benchmark::spec::{workload, Profile, Workload, WORKLOADS};
use memtree_benchmark::stats::{median, relative_spread};
use std::path::PathBuf;
use std::process::ExitCode;

/// Measured seconds per run when `--seconds` is not given; also the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    contract: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 0,
        contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(workload(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = value()?
                    .parse::<u8>()
                    .map_err(|e| format!("--trace: {e}"))?
                    != 0
            }
            "--repeat" => a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => a.smoke = true,
            "--contract" => a.contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Span files go under the git-ignored `target/` of the directory the
/// benchmark is run from.
fn trace_dir() -> PathBuf {
    PathBuf::from("target/memtree-benchmark")
}

/// Runs and prints one configuration; `None` when it could not finish.
fn one(cfg: &RunConfig) -> Option<Outcome> {
    match run(cfg) {
        Ok(out) => {
            report::print(cfg, &out);
            Some(out)
        }
        Err(e) => {
            eprintln!("{}: run failed: {e}", cfg.workload.name);
            None
        }
    }
}

/// `--repeat n`: n ordinary runs per workload on seeds `seed..seed+n`, as
/// the driver makes them, then each end-to-end metric's inter-quartile
/// spread as a share of its median against the metric's bound.
fn repeat(a: &Args, profile: Profile) -> bool {
    let mut ok = true;
    let chosen: Vec<&'static Workload> = a
        .workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
    for w in chosen {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..a.repeat {
            let cfg = RunConfig {
                workload: w,
                profile,
                seed: a.seed + i as u64,
                seconds: a.seconds,
                trace: false,
                trace_dir: trace_dir(),
            };
            match one(&cfg) {
                Some(out) if report::correct(cfg.trace, &out) => {
                    for (s, m) in series.iter_mut().zip(END_TO_END) {
                        s.push(out.metrics[m.name]);
                    }
                }
                _ => ok = false,
            }
        }
        for (s, m) in series.iter().zip(END_TO_END) {
            let spread = relative_spread(s).unwrap_or(f64::NAN);
            // `setup_s` is exempt from the spread rule (only its medians
            // are compared), but is printed all the same.
            let within = spread <= m.bound || m.name == "setup_s";
            ok &= within;
            println!(
                "repeat {:<15} {:<20} median {:>14.4} {:<6} spread {:>7.4} bound {:>6.3} {} {}",
                w.name,
                m.name,
                median(s).unwrap_or(f64::NAN),
                m.unit,
                spread,
                m.bound,
                if m.better == Better::Higher {
                    "higher-is-better"
                } else {
                    "lower-is-better"
                },
                if within { "ok" } else { "OVER" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memtree-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if a.contract {
        print!("{}", report::contract_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let profile = if a.smoke {
        Profile::SMOKE
    } else {
        Profile::FULL
    };
    let ok = if a.repeat > 0 {
        repeat(&a, profile)
    } else if a.smoke {
        // Every workload, plain and traced, one-second phases.
        WORKLOADS.iter().all(|w| {
            [false, true].into_iter().all(|trace| {
                let cfg = RunConfig {
                    workload: w,
                    profile,
                    seed: a.seed,
                    seconds: 1.0,
                    trace,
                    trace_dir: trace_dir(),
                };
                one(&cfg).is_some_and(|out| report::correct(cfg.trace, &out))
            })
        })
    } else {
        let Some(w) = a.workload else {
            eprintln!(
                "memtree-benchmark: --workload <name> is required (one of {:?})",
                WORKLOADS.map(|w| w.name)
            );
            return ExitCode::from(2);
        };
        let cfg = RunConfig {
            workload: w,
            profile,
            seed: a.seed,
            seconds: a.seconds,
            trace: a.trace,
            trace_dir: trace_dir(),
        };
        one(&cfg).is_some_and(|out| report::correct(cfg.trace, &out))
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
