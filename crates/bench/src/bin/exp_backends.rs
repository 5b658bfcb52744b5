//! The execution-backend shoot-out: the same batch on the flat dense
//! arena and the sharded arenas, bit-checked and wall-clocked.
//!
//! ```text
//! exp_backends [--quick] [--json PATH]
//!              [--algo KEY] [--adversary KEY] [--n N] [--seeds N]
//! ```
//!
//! Defaults: `tight-tau:c=4` under `fair` at n = 2²⁰ with 3 seeds
//! (`--quick`: n = 2¹², 2 seeds). The committed `BENCH_backends.json`
//! is this binary's `--json` output — the workspace's speed trajectory.

use rr_bench::runner::RunConfig;
use rr_bench::scenario::specs::{backends, BackendsOptions};
use rr_bench::scenario::{drive, registry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    drive(|cfg: &RunConfig| {
        let mut opts = BackendsOptions::defaults(cfg);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--algo" => {
                    if let Some(v) = it.next() {
                        opts.algorithm = v.clone();
                    }
                }
                "--adversary" => {
                    if let Some(v) = it.next() {
                        opts.adversary = v.clone();
                    }
                }
                "--n" => {
                    if let Some(v) = it.next() {
                        opts.n = v.parse().unwrap_or_else(|_| {
                            eprintln!("exp_backends: bad size `{v}`");
                            std::process::exit(2);
                        });
                    }
                }
                "--seeds" => {
                    if let Some(v) = it.next() {
                        opts.seeds = v.parse().unwrap_or_else(|_| {
                            eprintln!("exp_backends: bad seed count `{v}`");
                            std::process::exit(2);
                        });
                    }
                }
                _ => {}
            }
        }
        if opts.seeds == 0 {
            eprintln!("exp_backends: --seeds must be ≥ 1");
            std::process::exit(2);
        }
        let reg = registry();
        let checked =
            reg.build(&opts.algorithm).and_then(|_| reg.check_size(&opts.algorithm, opts.n));
        if let Err(e) = checked {
            eprintln!("exp_backends: {e}");
            std::process::exit(2);
        }
        backends(&opts)
    });
}
