//! Topology-routed renaming: the `route:` switching-network family
//! swept over topologies, sizes and crash-free schedules, measuring
//! total steps against network depth.
//!
//! Defaults: butterfly, Beneš, the PAPERS.md Beneš variant and a
//! `stages=4` override at n = 48, 256 and 1024 under the fair, random
//! and collision-maximizing schedules (`--quick`: n = 48 and 256 under
//! fair only — the CI smoke configuration). The family is geometric —
//! total steps equal `n × depth` under every crash-free schedule — so
//! one audited run per cell is exact, not sampled; the spec is always
//! dense and serial.
//!
//! The JSON records carry both `steps` and `depth` per cell; the
//! `exp_report` depth-vs-steps cross-check re-derives the identity and
//! the closed-form depth ordering from them.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::ROUTE`].

use rr_bench::cli::{self, ROUTE};
use rr_bench::scenario::specs::{route, RouteOptions};
use rr_bench::scenario::{registry, run_checked};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(&ROUTE, |args| {
        let defaults = RouteOptions::defaults(&args.cfg);
        let opts = RouteOptions {
            networks: args.keys("--nets").unwrap_or(defaults.networks),
            sizes: args.counts("--sizes").unwrap_or(defaults.sizes),
            adversaries: args.keys("--adversaries").unwrap_or(defaults.adversaries),
        };
        let reg = registry();
        for key in &opts.networks {
            if !key.starts_with("route") {
                return Err(format!("`{key}` is not a `route:` key").into());
            }
            reg.build(key)?;
        }
        for key in &opts.adversaries {
            rr_sched::registry::standard().prepare(key).map(drop)?;
        }
        if opts.sizes.contains(&0) {
            return Err("--sizes entries must be ≥ 1".into());
        }
        run_checked(route(&args.cfg, &opts), &args.cfg)?;
        Ok(ExitCode::SUCCESS)
    })
}
