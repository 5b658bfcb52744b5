//! The backend shoot-out: the same algorithm × adversary × n batch on
//! every execution core, timed — the scenario behind `exp_backends` and
//! the committed `BENCH_backends.json` speed trajectory.

use crate::runner::{BatchRun, BatchStats, BatchTiming, ExecBackend, RunConfig};
use crate::scenario::{registry, Record, ScenarioSpec, Section, Value};
use rr_analysis::stats::upper_median;
use rr_analysis::table::fnum;
use rr_analysis::Table;
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;
use std::time::Instant;

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

/// The shoot-out scenario: `dense`, `shard:s=1` and `shard:s=4` over
/// the identical batch, wall-clocked, with the speedup over `dense` in
/// the last column. `shard:s=1` promises bit-identity to `dense` and
/// the race asserts it (not assumes it); `shard:s=4` runs a genuinely different — but still
/// (seed, S)-deterministic — partitioned schedule, so only its
/// aggregate run count is checked. The shard counts are pinned, not
/// core-count-derived, so the table is byte-stable across machines.
/// The free-running `threads` backend is deliberately absent here: its
/// schedule is the machine's, so it answers a different question (see
/// `exp_matrix --backend threads:t=N`).
pub fn backends(cfg: &RunConfig, opts: &BackendsOptions) -> ScenarioSpec {
    let threads = cfg.threads;
    let rng = cfg.rng;
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
            for backend in
                [ExecBackend::Dense, ExecBackend::Shard { s: 1 }, ExecBackend::Shard { s: 4 }]
            {
                let (stats, timing) = BatchRun::new(algo.as_ref(), opts.n)
                    .seeds(opts.seeds)
                    .adversary(&opts.adversary)
                    .backend(backend)
                    .rng_mode(rng)
                    .workers(threads)
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
                let mut fields = vec![
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
                if rng != RngMode::default() {
                    fields.push(("rng".into(), Value::Str(rng.key().into())));
                }
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
            if rng != RngMode::default() {
                // The whole shoot-out already ran under the requested
                // non-default mode (every record above is tagged), so
                // the dedicated default-vs-counter comparison leg would
                // compare counter against itself — skip it, loudly.
                emitter.text(format!(
                    "\n-- --rng {rng}: the table above ran entirely under the non-default \
                     stream; the default-vs-counter comparison leg is skipped --"
                ));
                return;
            }
            let (_, chacha_wall) = reference.expect("dense baseline ran first");

            // --- counter-RNG leg -----------------------------------
            // The flagged per-step cost floor: the same batch with the
            // counter RNG backend (a documented modelling change — its
            // records carry "rng":"counter"; the default rows above are
            // untouched, bit for bit). The dense row runs through an
            // explicit arena so the batched request_block macro-step
            // stats are visible.
            emitter.text(
                "\n-- counter RNG mode (modelling change: different coin stream, \
                 records tagged \"rng\":\"counter\") --",
            );
            let build = standard()
                .prepare(&opts.adversary)
                .unwrap_or_else(|e| panic!("scenario BACKENDS: {e}"));
            let mut arena = Arena::new();
            let start = Instant::now();
            let outs: Vec<_> = (0..opts.seeds)
                .map(|seed| {
                    let mut adv = build(opts.n, seed);
                    algo.run_dense_with(opts.n, seed, RngMode::Counter, adv.as_mut(), &mut arena)
                        .unwrap_or_else(|e| panic!("scenario BACKENDS: {e}"))
                })
                .collect();
            let dense_wall = start.elapsed().as_secs_f64();
            for out in &outs {
                out.verify_renaming(algo.m(opts.n))
                    .unwrap_or_else(|e| panic!("scenario BACKENDS: {e}"));
            }
            let dense_counter = BatchStats::from_outcomes(&outs, opts.n);
            let (block_claims, block_steps) = arena.block_stats();
            let mut ctable = Table::new(vec![
                "backend",
                "steps p50",
                "total steps",
                "wall s",
                "runs/s",
                "Msteps/s",
                "speedup vs dense/chacha8",
            ]);
            let timing = BatchTiming {
                wall_secs: dense_wall,
                runs: opts.seeds,
                steps: dense_counter.total_work(),
            };
            ctable.row(vec![
                ExecBackend::Dense.key(),
                upper_median(&dense_counter.step_complexity).to_string(),
                dense_counter.total_work().to_string(),
                fnum(timing.wall_secs, 3),
                fnum(timing.runs_per_sec(), 2),
                fnum(timing.steps_per_sec() / 1e6, 2),
                format!("{}x", fnum(chacha_wall / timing.wall_secs, 2)),
            ]);
            // The batched τ-CAS macro-step: how many request_block
            // claims fired and how many decisions they covered.
            // Deterministic (the dense schedule is a pure function of
            // the seeds), so the snapshot pins them — a silent change
            // to the batching heuristic moves these counts.
            emitter.record(&Record {
                scenario: "BACKENDS".into(),
                section: String::new(),
                fields: vec![
                    ("kind".into(), Value::Str("throughput".into())),
                    ("algorithm".into(), Value::Str(opts.algorithm.clone())),
                    ("adversary".into(), Value::Str(opts.adversary.clone())),
                    ("backend".into(), Value::Str(ExecBackend::Dense.key())),
                    ("n".into(), Value::U64(opts.n as u64)),
                    ("runs".into(), Value::U64(timing.runs)),
                    ("steps_total".into(), Value::U64(timing.steps)),
                    ("wall_ms".into(), Value::F64(timing.wall_secs * 1e3)),
                    ("runs_per_sec".into(), Value::F64(timing.runs_per_sec())),
                    ("steps_per_sec".into(), Value::F64(timing.steps_per_sec())),
                    ("rng".into(), Value::Str(RngMode::Counter.key().into())),
                    ("block_claims".into(), Value::U64(block_claims)),
                    ("block_steps".into(), Value::U64(block_steps)),
                ],
            });
            emitter.text(ctable.to_string());
            emitter.text(format!(
                "batched request_block (dense): {block_claims} block claims covering \
                 {block_steps} decisions"
            ));
        })],
        claim_check: "claim check: the speedup column is each backend's wall-clock over the \
                      dense executor on the identical batch (shard:s=1 bit-checked against \
                      dense); shard:s=K adds multi-core scaling on top when cores allow. The \
                      counter-RNG row is a flagged modelling change (its record carries \
                      \"rng\":\"counter\"; every default-mode number is untouched), timed \
                      against the dense/chacha8 row and reported as measured."
            .into(),
        reproduces: vec![],
    }
}
