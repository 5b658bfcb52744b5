//! The umbrella experiment: run **any** registered algorithm under
//! **any** registered adversary at any size, on any execution backend —
//! from string keys alone.
//!
//! ```text
//! exp_matrix [--quick] [--json PATH] [--list] [--help]
//!            [--backend dense|threads:t=N|shard:s=N]
//!            [--algos k1,k2,…] [--adversaries k1,k2,…]
//!            [--sizes n1,n2,…] [--seeds N]
//! ```
//!
//! Defaults: every registered algorithm; `--quick` runs each once under
//! the fair schedule (the CI smoke configuration), the full mode crosses
//! every adversary too. `--list` prints both registries and exits.
//!
//! `--backend` selects the execution core: `dense` (the default flat
//! arena), `threads:t=N` (free-running OS threads — wall-clock data;
//! ignores the adversary key and is not seed-reproducible), or
//! `shard:s=N` (N coupled per-shard arenas; a pure function of the seed
//! and N, `shard:s=1` bit-identical to `dense`). JSON records carry the
//! backend key plus one
//! `kind:"throughput"` record per row (runs/sec, steps/sec).

use rr_bench::runner::RunConfig;
use rr_bench::scenario::specs::{matrix, MatrixOptions};
use rr_bench::scenario::{drive, registry};

const USAGE: &str = "\
exp_matrix — any registered algorithm × adversary × n, on any backend

usage: exp_matrix [--quick] [--json PATH] [--list] [--help]
                  [--backend dense|threads:t=N|shard:s=N]
                  [--algos k1,k2,…] [--adversaries k1,k2,…]
                  [--sizes n1,n2,…] [--seeds N]

  --quick        CI-sized sweep (each algorithm once, fair schedule)
  --json PATH    also write structured records (deterministic rows plus
                 kind:\"throughput\" speed rows) to PATH
  --backend KEY  execution core: `dense` (default; flat arena core),
                 `threads:t=N` (free-running OS threads, wall-clock
                 truth — ignores the adversary key, not
                 seed-reproducible), `shard:s=N` (N coupled per-shard
                 arenas; `shard:s=1` bit-identical to `dense`)
  --algos        comma-separated algorithm registry keys
  --adversaries  comma-separated adversary registry keys
  --sizes        comma-separated process counts (each algorithm's
                 minimum is shown by --list; smaller sizes exit 2)
  --seeds N      seeds per cell
  --list         print both registries and exit
  --list-md      print the README's generated registry key tables
                 (markdown) and exit";

/// Splits a comma-separated key list, re-joining bare `k=v` fragments
/// with the preceding key — the key grammar itself uses commas between
/// parameters, so `stall,crash:p=200,cap=25` is two keys, not three.
fn split_keys(raw: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match out.last_mut() {
            Some(last) if part.contains('=') && !part.contains(':') => {
                last.push(',');
                last.push_str(part);
            }
            _ => out.push(part.to_string()),
        }
    }
    out
}

fn print_registries() {
    // One source of truth: the same listing module the README's
    // generated key tables come from (drift-checked in readme_sync.rs).
    print!("{}", rr_bench::listing::registry_listing());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--list") {
        print_registries();
        return;
    }
    if args.iter().any(|a| a == "--list-md") {
        print!("{}", rr_bench::listing::registry_tables_markdown());
        return;
    }
    drive(|cfg: &RunConfig| {
        let mut opts = MatrixOptions::defaults(cfg);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--algos" => {
                    if let Some(v) = it.next() {
                        opts.algorithms = split_keys(v);
                    }
                }
                "--adversaries" => {
                    if let Some(v) = it.next() {
                        opts.adversaries = split_keys(v);
                    }
                }
                "--sizes" => {
                    if let Some(v) = it.next() {
                        opts.sizes = split_keys(v)
                            .iter()
                            .map(|s| {
                                s.parse().unwrap_or_else(|_| {
                                    eprintln!("exp_matrix: bad size `{s}`");
                                    std::process::exit(2);
                                })
                            })
                            .collect();
                    }
                }
                "--seeds" => {
                    if let Some(v) = it.next() {
                        opts.seeds = v.parse().unwrap_or_else(|_| {
                            eprintln!("exp_matrix: bad seed count `{v}`");
                            std::process::exit(2);
                        });
                    }
                }
                _ => {}
            }
        }
        // Validate inputs up front for a friendly error instead of a
        // mid-table panic.
        if opts.seeds == 0 {
            eprintln!("exp_matrix: --seeds must be ≥ 1");
            std::process::exit(2);
        }
        let reg = registry();
        for key in &opts.algorithms {
            let checked = reg
                .build(key)
                .and_then(|_| opts.sizes.iter().try_for_each(|&n| reg.check_size(key, n)));
            if let Err(e) = checked {
                eprintln!("exp_matrix: {e}");
                std::process::exit(2);
            }
        }
        for key in &opts.adversaries {
            if let Err(e) = rr_sched::registry::standard().prepare(key) {
                eprintln!("exp_matrix: {e}");
                std::process::exit(2);
            }
        }
        matrix(cfg, &opts)
    });
}
