//! The schedule-space explorer: bounded exhaustive DFS over every
//! registry algorithm plus a perturbation-strength fuzz sweep, through
//! the dense arena backend, with minimal-tape counterexamples.
//!
//! ```text
//! exp_explore [--quick] [--json PATH] [--help]
//!             [--algos k1,k2,…] [--sizes n1,n2,…]
//!             [--depth D] [--crashes C]
//!             [--fuzz-algo KEY] [--fuzz-n N] [--rounds R]
//!             [--strengths s1,s2,…]
//! ```
//!
//! Defaults: every registered algorithm exhaustively at n = 4 and 5
//! (depth-5 horizon; `--quick`: n = 4, depth 4), then `tight-tau:c=4`
//! fuzzed at n = 256 across strengths 0‰…1000‰. Exploration is
//! inherently serial and always runs on the dense backend, so
//! `--backend` is ignored here.
//!
//! Exit status is non-zero when any safety/budget violation was found —
//! the shrunk schedule is printed as a replayable `Tape::to_text` tape
//! and emitted as a `kind:"counterexample"` JSON record (which CI also
//! greps for).

use rr_bench::runner::RunConfig;
use rr_bench::scenario::specs::{explore, ExploreOptions};
use rr_bench::scenario::{drive, registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "\
exp_explore — schedule-space search: exhaustive DFS + fuzz, tape shrinking

usage: exp_explore [--quick] [--json PATH] [--help]
                   [--algos k1,k2,…] [--sizes n1,n2,…]
                   [--depth D] [--crashes C]
                   [--fuzz-algo KEY] [--fuzz-n N] [--rounds R]
                   [--strengths s1,s2,…]

  --quick        CI-sized search (n = 4, depth 4, 12 fuzz rounds)
  --json PATH    also write structured records (coverage rows plus
                 kind:\"throughput\" schedules/sec rows; any violation
                 adds a kind:\"counterexample\" row)
  --algos        comma-separated algorithm registry keys to exhaust
  --sizes        comma-separated process counts (below an algorithm's
                 minimum, see exp_matrix --list, exits 2)
  --depth D      DFS branching horizon (decisions that fork)
  --crashes C    crash-decision budget inside the explored choice sets
  --fuzz-algo    algorithm registry key for the fuzz sweep
  --fuzz-n N     process count for the fuzz sweep
  --rounds R     fuzz rounds per strength
  --strengths    comma-separated perturbation strengths in permille";

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("exp_explore: bad value `{v}` for {flag}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let violation_found = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&violation_found);
    drive(move |cfg: &RunConfig| {
        let mut opts = ExploreOptions::defaults(cfg);
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut next = |flag: &str| {
                it.next().map(String::as_str).unwrap_or_else(|| {
                    eprintln!("exp_explore: {flag} needs a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--algos" => {
                    opts.algorithms =
                        next("--algos").split(',').map(|s| s.trim().to_string()).collect();
                }
                "--sizes" => {
                    opts.sizes = next("--sizes")
                        .split(',')
                        .map(|s| parse_or_die("--sizes", s.trim()))
                        .collect();
                }
                "--depth" => opts.depth = parse_or_die("--depth", next("--depth")),
                "--crashes" => opts.crashes = parse_or_die("--crashes", next("--crashes")),
                "--fuzz-algo" => opts.fuzz_algorithm = next("--fuzz-algo").to_string(),
                "--fuzz-n" => opts.fuzz_n = parse_or_die("--fuzz-n", next("--fuzz-n")),
                "--rounds" => opts.fuzz_rounds = parse_or_die("--rounds", next("--rounds")),
                "--strengths" => {
                    opts.strengths = next("--strengths")
                        .split(',')
                        .map(|s| parse_or_die("--strengths", s.trim()))
                        .collect();
                }
                // RunConfig's own flags, already consumed by from_env —
                // mirror its peek rule: a following `--flag` is not a
                // value, so leave it in the stream.
                "--quick" => {}
                "--json" | "--backend" => {
                    if it.peek().is_some_and(|v| !v.starts_with("--")) {
                        it.next();
                    }
                }
                other => {
                    eprintln!("exp_explore: unknown argument `{other}` (see --help)");
                    std::process::exit(2);
                }
            }
        }
        if opts.depth == 0 {
            eprintln!("exp_explore: --depth must be ≥ 1");
            std::process::exit(2);
        }
        let reg = registry();
        let exhaustive = opts.algorithms.iter().map(|key| (key, &opts.sizes[..]));
        let fuzz = std::iter::once((&opts.fuzz_algorithm, std::slice::from_ref(&opts.fuzz_n)));
        for (key, sizes) in exhaustive.chain(fuzz) {
            let checked =
                reg.build(key).and_then(|_| sizes.iter().try_for_each(|&n| reg.check_size(key, n)));
            if let Err(e) = checked {
                eprintln!("exp_explore: {e}");
                std::process::exit(2);
            }
        }
        if let Some(bad) = opts.strengths.iter().find(|&&s| s > 1000) {
            eprintln!("exp_explore: strength {bad} exceeds 1000 permille");
            std::process::exit(2);
        }
        explore(cfg, &opts, flag)
    });
    if violation_found.load(Ordering::Relaxed) {
        eprintln!("exp_explore: counterexample tape(s) emitted — see output above");
        std::process::exit(1);
    }
}
