//! `repro` — regenerate any table or figure of the thesis evaluation.
//!
//! ```sh
//! repro list                 # show every experiment id
//! repro fig3_4               # run one at standard scale
//! repro fig3_4 --quick       # run one at quick scale
//! repro all --quick          # run everything (EXPERIMENTS.md was made so)
//! ```

use memtree_bench::experiments::registry;
use memtree_bench::harness::parse_args;
use memtree_bench::Scale;

const USAGE: &str = "usage: repro <id>|all [--quick]";

fn main() {
    let args = parse_args(std::env::args().skip(1), &["--quick"], &[]).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let ids = &args.positional;
    let scale = if args.has("--quick") { Scale::quick() } else { Scale::standard() };

    let registry = registry();
    if ids.is_empty() || ids[0] == "list" {
        println!("experiments ({}):", registry.len());
        for (id, desc, _) in &registry {
            println!("  {id:<10} {desc}");
        }
        println!("\n{USAGE}");
        return;
    }
    if ids[0] == "all" {
        let started = std::time::Instant::now();
        for (id, _, run) in &registry {
            let t = std::time::Instant::now();
            run(scale);
            eprintln!("[{}] done in {:.1}s", id, t.elapsed().as_secs_f64());
        }
        eprintln!("all experiments done in {:.0}s", started.elapsed().as_secs_f64());
        return;
    }
    for id in ids {
        match registry.iter().find(|(eid, _, _)| eid == id) {
            Some((_, _, run)) => run(scale),
            None => {
                eprintln!("unknown experiment `{id}` — `repro list` shows ids");
                std::process::exit(1);
            }
        }
    }
}
