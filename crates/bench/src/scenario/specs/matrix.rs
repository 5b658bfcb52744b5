//! The umbrella cross-product scenario: any registered algorithm under
//! any registered adversary at any size, from string keys alone — the
//! coverage the per-claim binaries never had.

use crate::runner::RunConfig;
use crate::scenario::{registry, BatchSection, Column, RowSpec, ScenarioSpec, Section};
use rr_analysis::stats::{norm_log2, upper_median};
use rr_analysis::table::fnum;

/// What to cross: all fields have `--quick`-aware defaults (see
/// [`MatrixOptions::defaults`]); the `exp_matrix` CLI overrides any of
/// them.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Algorithm registry keys.
    pub algorithms: Vec<String>,
    /// Adversary registry keys.
    pub adversaries: Vec<String>,
    /// Sizes to sweep (clamped per algorithm by its registry `n_cap`).
    pub sizes: Vec<usize>,
    /// Seeds per cell.
    pub seeds: u64,
}

impl MatrixOptions {
    /// Quick mode: every registered algorithm once, under the fair
    /// schedule at one small size — the CI smoke configuration. Full
    /// mode: every algorithm under every registered adversary over a
    /// small sweep.
    pub fn defaults(cfg: &RunConfig) -> Self {
        let reg = registry();
        let algorithms = reg.keys().iter().map(|k| k.to_string()).collect();
        let adversaries = cfg.pick(
            rr_sched::registry::standard().keys().iter().map(|k| k.to_string()).collect(),
            vec!["fair".to_string()],
        );
        Self {
            algorithms,
            adversaries,
            sizes: cfg.pick(vec![256, 1024], vec![256]),
            seeds: cfg.pick(5, 2),
        }
    }
}

/// The cross-product scenario over `opts`.
pub fn matrix(cfg: &RunConfig, opts: &MatrixOptions) -> ScenarioSpec {
    let reg = registry();
    let mut rows = Vec::new();
    for &n in &opts.sizes {
        for algo in &opts.algorithms {
            // Clamp super-linear algorithms (e.g. the Θ(n²)-register
            // splitter grid) to their registry cap.
            let n = reg.n_cap(algo).map_or(n, |cap| n.min(cap));
            for adversary in &opts.adversaries {
                rows.push(RowSpec::new(algo.clone(), adversary.clone(), n, opts.seeds));
            }
        }
    }
    let _ = cfg;
    ScenarioSpec {
        id: "MATRIX",
        claim: "algorithm × adversary × n cross-product over the registries",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: vec![
                Column::new("algorithm", |ctx| ctx.row.algorithm.clone()),
                Column::new("adversary", |ctx| ctx.row.adversary.clone()),
                Column::new("n", |ctx| ctx.row.n.to_string()),
                Column::new("seeds", |ctx| ctx.row.seeds.to_string()),
                Column::new("m/n", |ctx| fnum(ctx.algo.m(ctx.row.n) as f64 / ctx.row.n as f64, 3)),
                Column::new("steps p50", |ctx| {
                    upper_median(&ctx.stats.step_complexity).to_string()
                }),
                Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
                Column::new("max/log2 n", |ctx| {
                    fnum(norm_log2(ctx.stats.max_steps() as f64, ctx.row.n), 2)
                }),
                Column::new("mean steps", |ctx| fnum(ctx.stats.mean_mean_steps(), 2)),
                Column::new("unnamed max", |ctx| ctx.stats.max_unnamed().to_string()),
                Column::new("crashed", |ctx| ctx.stats.total_crashed().to_string()),
            ],
            rows,
        })],
        claim_check: "claim check: every cell ran under the renaming-safety audit (the \
                      harness panics on any violation); 'unnamed max' > 0 only for the \
                      almost-tight protocols and the crash schedules; 'crashed' > 0 \
                      only under crash."
            .into(),
        reproduces: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full mode sweeps the whole adversary registry; quick mode runs
    /// only the fair schedule.
    #[test]
    fn defaults_sweep_every_registry_adversary() {
        let full = MatrixOptions::defaults(&RunConfig::default());
        assert_eq!(
            full.adversaries,
            vec![
                "bursty",
                "collisions",
                "crash",
                "diurnal",
                "fair",
                "lookahead",
                "random",
                "stall",
                "victim",
            ],
            "every registry adversary, in key order"
        );
        let quick = MatrixOptions::defaults(&RunConfig { quick: true, ..RunConfig::default() });
        assert_eq!(quick.adversaries, vec!["fair"]);
    }
}
