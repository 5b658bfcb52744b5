//! The schedule-space explorer: bounded exhaustive DFS over every
//! registry algorithm plus a perturbation-strength fuzz sweep, through
//! the dense arena backend, with minimal-tape counterexamples.
//!
//! Defaults: every registered algorithm exhaustively at n = 4 and 5
//! (depth-5 horizon; `--quick`: n = 4, depth 4), then `tight-tau:c=4`
//! fuzzed at n = 256 across strengths 0‰…1000‰. Exploration is
//! inherently serial and always runs on the dense backend.
//!
//! Exit status is non-zero when any safety/budget violation was found —
//! the shrunk schedule is printed as a replayable `Tape::to_text` tape
//! and emitted as a `kind:"counterexample"` JSON record (which CI also
//! greps for).
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::EXPLORE`].

use rr_bench::cli::{self, EXPLORE};
use rr_bench::scenario::specs::{explore, ExploreOptions};
use rr_bench::scenario::{registry, run_checked};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    cli::main(&EXPLORE, |args| {
        let defaults = ExploreOptions::defaults(&args.cfg);
        let strengths = args.counts("--strengths");
        if let Some(bad) = strengths.iter().flatten().find(|&&s| s > 1000) {
            return Err(format!("strength {bad} exceeds 1000 permille").into());
        }
        let opts = ExploreOptions {
            algorithms: args.keys("--algos").unwrap_or(defaults.algorithms),
            sizes: args.counts("--sizes").unwrap_or(defaults.sizes),
            depth: args.count("--depth").unwrap_or(defaults.depth),
            crashes: args.count("--crashes").unwrap_or(defaults.crashes),
            fuzz_algorithm: args.text("--fuzz-algo").map_or(defaults.fuzz_algorithm, String::from),
            fuzz_n: args.count("--fuzz-n").unwrap_or(defaults.fuzz_n),
            fuzz_rounds: args.count("--rounds").map_or(defaults.fuzz_rounds, |r| r as u64),
            strengths: strengths
                .map_or(defaults.strengths, |list| list.into_iter().map(|s| s as u32).collect()),
            ..defaults
        };
        if opts.depth == 0 {
            return Err("--depth must be ≥ 1".into());
        }
        let reg = registry();
        let exhaustive = opts.algorithms.iter().map(|key| (key, &opts.sizes[..]));
        let fuzz = std::iter::once((&opts.fuzz_algorithm, std::slice::from_ref(&opts.fuzz_n)));
        for (key, sizes) in exhaustive.chain(fuzz) {
            reg.build(key)?;
            sizes.iter().try_for_each(|&n| reg.check_size(key, n))?;
        }
        let violation_found = Arc::new(AtomicBool::new(false));
        run_checked(explore(&args.cfg, &opts, Arc::clone(&violation_found)), &args.cfg)?;
        if violation_found.load(Ordering::Relaxed) {
            eprintln!("exp_explore: counterexample tape(s) emitted — see output above");
            return Ok(ExitCode::from(1));
        }
        Ok(ExitCode::SUCCESS)
    })
}
