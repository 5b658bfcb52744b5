//! The execution-backend shoot-out: the same batch on the flat dense
//! arena and the sharded arenas, bit-checked and wall-clocked.
//!
//! Defaults: `tight-tau:c=4` under `fair` at n = 2²⁰ with 3 seeds
//! (`--quick`: n = 2¹², 2 seeds); `n` must be at least 4, one process
//! per shard of the `shard:s=4` row. The committed `BENCH_backends.json`
//! is this binary's `--json` output — the workspace's speed trajectory.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::BACKENDS`].

use rr_bench::cli::{self, BACKENDS};
use rr_bench::scenario::specs::{backends, BackendsOptions, RACED};
use rr_bench::scenario::{registry, run_checked};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(&BACKENDS, |args| {
        let defaults = BackendsOptions::defaults(&args.cfg);
        let opts = BackendsOptions {
            algorithm: args.text("--algo").map_or(defaults.algorithm, String::from),
            adversary: args.text("--adversary").map_or(defaults.adversary, String::from),
            n: args.count("--n").unwrap_or(defaults.n),
            seeds: args.count("--seeds").map_or(defaults.seeds, |s| s as u64),
        };
        if opts.seeds == 0 {
            return Err("--seeds must be ≥ 1".into());
        }
        let reg = registry();
        reg.build(&opts.algorithm)?;
        reg.check_size(&opts.algorithm, opts.n)?;
        rr_sched::registry::standard().prepare(&opts.adversary).map(drop)?;
        RACED.iter().try_for_each(|backend| backend.check_n(opts.n))?;
        run_checked(backends(&opts), &args.cfg)?;
        Ok(ExitCode::SUCCESS)
    })
}
