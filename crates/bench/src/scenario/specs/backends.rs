//! The backend shoot-out: the same algorithm × adversary × n batch on
//! every execution core, timed — the scenario behind `exp_backends` and
//! the committed `BENCH_backends.json` speed trajectory.

use crate::runner::{BatchRun, BatchStats, ExecBackend, RunConfig};
use crate::scenario::{registry, Record, ScenarioSpec, Section, Value};
use rr_analysis::stats::upper_median;
use rr_analysis::table::fnum;
use rr_analysis::Table;

/// What to race. Defaults target the paper's headline configuration at
/// scale: `tight-tau` under the fair schedule at n = 2²⁰ (`--quick`
/// drops to n = 2¹² so CI finishes in seconds).
#[derive(Debug, Clone)]
pub struct BackendsOptions {
    /// Algorithm registry key.
    pub algorithm: String,
    /// Adversary registry key.
    pub adversary: String,
    /// Process count.
    pub n: usize,
    /// Seeds per backend.
    pub seeds: u64,
}

impl BackendsOptions {
    /// `--quick`-aware defaults (see the type docs).
    pub fn defaults(cfg: &RunConfig) -> Self {
        Self {
            algorithm: "tight-tau:c=4".into(),
            adversary: "fair".into(),
            n: cfg.pick(1 << 20, 1 << 12),
            seeds: cfg.pick(3, 2),
        }
    }
}

/// The backends every shoot-out races, in table order.
pub const RACED: [ExecBackend; 3] =
    [ExecBackend::Dense, ExecBackend::Shard { s: 1 }, ExecBackend::Shard { s: 4 }];

/// The shoot-out scenario: `dense`, `shard:s=1` and `shard:s=4` over
/// the identical batch, wall-clocked, with the speedup over `dense` in
/// the last column. `shard:s=1` promises bit-identity to `dense` and
/// the race asserts it (not assumes it); `shard:s=4` runs a genuinely different — but still
/// (seed, S)-deterministic — partitioned schedule, so only its
/// aggregate run count is checked. The shard counts are pinned, not
/// core-count-derived, so the table is byte-stable across machines.
/// Every row runs its seeds one after another, so the speedup column
/// compares execution cores, not seed parallelism.
/// The free-running `threads` backend is deliberately absent here: its
/// schedule is the machine's, so it answers a different question (see
/// `exp_matrix --backend threads:t=N`).
pub fn backends(opts: &BackendsOptions) -> ScenarioSpec {
    let opts = opts.clone();
    ScenarioSpec {
        id: "BACKENDS",
        claim: "one execution loop, two deterministic execution cores — shard:s=1 must match \
                dense bit-for-bit, and sharding must scale with cores",
        sections: vec![Section::custom(move |emitter| {
            let reg = registry();
            let algo =
                reg.build(&opts.algorithm).unwrap_or_else(|e| panic!("scenario BACKENDS: {e}"));
            // Clamp super-linear algorithms to their registry cap, like
            // exp_matrix — the n = 2²⁰ default would otherwise ask the
            // splitter grid for terabytes of cells.
            let opts = BackendsOptions {
                n: reg.n_cap(&opts.algorithm).map_or(opts.n, |cap| opts.n.min(cap)),
                ..opts
            };
            emitter.text(format!(
                "\n-- {} under {} at n={}, {} seeds --",
                opts.algorithm, opts.adversary, opts.n, opts.seeds
            ));
            let mut table = Table::new(vec![
                "backend",
                "steps p50",
                "total steps",
                "wall s",
                "runs/s",
                "Msteps/s",
                "speedup",
            ]);
            let mut reference: Option<(BatchStats, f64)> = None;
            for backend in RACED {
                let (stats, timing) = BatchRun::new(algo.as_ref(), opts.n)
                    .seeds(opts.seeds)
                    .adversary(&opts.adversary)
                    .backend(backend)
                    .workers(1)
                    .run()
                    .unwrap_or_else(|e| panic!("scenario BACKENDS: {e}"));
                // Only shard:s=1 promises bit-identity with the dense
                // reference; shard:s=4 runs a different (deterministic)
                // partitioned schedule.
                let speedup = match &reference {
                    None => "1.00x (baseline)".to_string(),
                    Some((dense, dense_wall)) => {
                        if backend == (ExecBackend::Shard { s: 1 }) {
                            assert_eq!(
                                dense.step_complexity,
                                stats.step_complexity,
                                "{} diverged from dense on step complexity",
                                backend.key()
                            );
                            assert_eq!(
                                dense.total_steps,
                                stats.total_steps,
                                "{} diverged from dense on total steps",
                                backend.key()
                            );
                        } else {
                            assert_eq!(dense.runs, stats.runs, "{} dropped runs", backend.key());
                        }
                        format!("{}x", fnum(dense_wall / timing.wall_secs, 2))
                    }
                };
                table.row(vec![
                    backend.key(),
                    upper_median(&stats.step_complexity).to_string(),
                    stats.total_work().to_string(),
                    fnum(timing.wall_secs, 3),
                    fnum(timing.runs_per_sec(), 2),
                    fnum(timing.steps_per_sec() / 1e6, 2),
                    speedup,
                ]);
                let fields = vec![
                    ("kind".into(), Value::Str("throughput".into())),
                    ("algorithm".into(), Value::Str(opts.algorithm.clone())),
                    ("adversary".into(), Value::Str(opts.adversary.clone())),
                    ("backend".into(), Value::Str(backend.key())),
                    ("n".into(), Value::U64(opts.n as u64)),
                    ("runs".into(), Value::U64(timing.runs)),
                    ("steps_total".into(), Value::U64(timing.steps)),
                    ("wall_ms".into(), Value::F64(timing.wall_secs * 1e3)),
                    ("runs_per_sec".into(), Value::F64(timing.runs_per_sec())),
                    ("steps_per_sec".into(), Value::F64(timing.steps_per_sec())),
                ];
                emitter.record(&Record {
                    scenario: "BACKENDS".into(),
                    section: String::new(),
                    fields,
                });
                if reference.is_none() {
                    reference = Some((stats, timing.wall_secs));
                }
            }
            emitter.text(table.to_string());
        })],
        claim_check: "claim check: the speedup column is each backend's wall-clock over the \
                      dense executor on the identical batch (shard:s=1 bit-checked against \
                      dense); shard:s=K adds multi-core scaling on top when cores allow."
            .into(),
        reproduces: vec![],
    }
}
