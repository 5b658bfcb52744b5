//! The umbrella experiment: run **any** registered algorithm under
//! **any** registered adversary at any size, on any execution backend —
//! from string keys alone.
//!
//! Defaults: every registered algorithm; `--quick` runs each once under
//! the fair schedule (the CI smoke configuration), the full mode crosses
//! every adversary too. `--list` prints both registries and exits.
//!
//! `--backend` selects the execution core: `dense` (the default flat
//! arena), `threads:t=N` (free-running OS threads — wall-clock data;
//! ignores the adversary key and is not seed-reproducible), or
//! `shard:s=N` (N independent sub-instances of about n/N processes, one
//! per thread; a pure function of the seed and N, `shard:s=1`
//! bit-identical to `dense`). JSON records carry the backend key plus
//! one `kind:"throughput"` record per row (runs/sec, steps/sec).
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::MATRIX`].

use rr_bench::cli::{self, MATRIX};
use rr_bench::scenario::specs::{matrix, MatrixOptions};
use rr_bench::scenario::{registry, run_checked};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(&MATRIX, |args| {
        // One source of truth: the same listing module the README's
        // generated key tables come from (drift-checked in readme_sync.rs).
        if args.has("--list") {
            io::stdout().write_all(rr_bench::listing::registry_listing().as_bytes())?;
            return Ok(ExitCode::SUCCESS);
        }
        if args.has("--list-md") {
            io::stdout().write_all(rr_bench::listing::registry_tables_markdown().as_bytes())?;
            return Ok(ExitCode::SUCCESS);
        }
        let defaults = MatrixOptions::defaults(&args.cfg);
        let opts = MatrixOptions {
            algorithms: args.keys("--algos").unwrap_or(defaults.algorithms),
            adversaries: args.keys("--adversaries").unwrap_or(defaults.adversaries),
            sizes: args.counts("--sizes").unwrap_or(defaults.sizes),
            seeds: args.count("--seeds").map_or(defaults.seeds, |s| s as u64),
        };
        // Validate inputs up front for a friendly error instead of a
        // mid-table panic.
        if opts.seeds == 0 {
            return Err("--seeds must be ≥ 1".into());
        }
        let reg = registry();
        for key in &opts.algorithms {
            reg.build(key)?;
            opts.sizes.iter().try_for_each(|&n| reg.check_size(key, n))?;
        }
        for key in &opts.adversaries {
            rr_sched::registry::standard().prepare(key).map(drop)?;
        }
        run_checked(matrix(&args.cfg, &opts), &args.cfg)?;
        Ok(ExitCode::SUCCESS)
    })
}
