//! The schedule-space explorer scenario behind `exp_explore`: bounded
//! exhaustive DFS over every registry algorithm plus a
//! perturbation-strength fuzz sweep, both executed **through the dense
//! arena backend** so the flat execution core is exercised under
//! schedules no hand-written adversary produces.
//!
//! Every explored branch is a replayable tape; any safety/budget
//! violation is shrunk to a minimal counterexample
//! (`rr_sched::explore::shrink_tape`), printed in `Tape::to_text` form
//! and emitted as a `kind:"counterexample"` JSON record — CI fails the
//! job when one appears. Besides the deterministic coverage records, a
//! `kind:"throughput"` record per row tracks schedules-visited/sec as a
//! speed axis.

use crate::runner::RunConfig;
use crate::scenario::{registry, Record, ScenarioSpec, Section, Value};
use rr_analysis::table::fnum;
use rr_analysis::Table;
use rr_renaming::registry::BoxedAlgorithm;
use rr_sched::explore::{Counterexample, ExhaustiveExplorer, FuzzExplorer};
use rr_sched::shard::Arena;
use rr_sched::Adversary;
use rr_sched::RunOutcome;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What to explore. All fields have `--quick`-aware defaults; the
/// `exp_explore` CLI overrides a subset.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Algorithm registry keys for the exhaustive section.
    pub algorithms: Vec<String>,
    /// Sizes for the exhaustive section (protocols need n ≥ 4).
    pub sizes: Vec<usize>,
    /// DFS branching horizon (first `depth` decisions fork).
    pub depth: usize,
    /// Crash-decision budget inside the explored choice sets.
    pub crashes: usize,
    /// Hard cap on schedules per (algorithm, n) cell.
    pub limit: u64,
    /// Algorithm registry key for the fuzz sweep.
    pub fuzz_algorithm: String,
    /// Process count for the fuzz sweep (large enough that exhaustion
    /// is hopeless — the fuzzer's home turf).
    pub fuzz_n: usize,
    /// Fuzz rounds per strength.
    pub fuzz_rounds: u64,
    /// Perturbation strengths to sweep, in permille (0 = canonical
    /// replay, 1000 = uniformly random schedule).
    pub strengths: Vec<u32>,
}

impl ExploreOptions {
    /// `--quick`-aware defaults: every registered algorithm, exhaustive
    /// at n = 4 (full mode adds n = 5 and a deeper horizon), and a
    /// five-point strength sweep on `tight-tau:c=4`.
    pub fn defaults(cfg: &RunConfig) -> Self {
        Self {
            algorithms: registry().keys().iter().map(|k| k.to_string()).collect(),
            sizes: cfg.pick(vec![4, 5], vec![4]),
            depth: cfg.pick(5, 4),
            crashes: 0,
            limit: 200_000,
            fuzz_algorithm: "tight-tau:c=4".into(),
            fuzz_n: cfg.pick(256, 48),
            fuzz_rounds: cfg.pick(80, 12),
            strengths: vec![0, 100, 300, 600, 1000],
        }
    }
}

/// Emits one counterexample: the human-readable minimal tape plus a
/// `kind:"counterexample"` record, and raises the failure flag the
/// binary turns into a non-zero exit.
fn emit_counterexample(
    emitter: &mut crate::scenario::Emitter<'_, '_>,
    found: &Arc<AtomicBool>,
    section: &str,
    algorithm: &str,
    n: usize,
    cx: &Counterexample,
) {
    found.store(true, Ordering::Relaxed);
    emitter.text(format!("COUNTEREXAMPLE [{algorithm} at n={n}]: {}", cx.reason));
    emitter.text(format!("  minimal tape: `{}`", cx.tape.to_text()));
    emitter.record(&Record {
        scenario: "EXPLORE".into(),
        section: section.into(),
        fields: vec![
            ("kind".into(), Value::Str("counterexample".into())),
            ("algorithm".into(), Value::Str(algorithm.into())),
            ("n".into(), Value::U64(n as u64)),
            ("reason".into(), Value::Str(cx.reason.clone())),
            ("tape".into(), Value::Str(cx.tape.to_text())),
        ],
    });
}

/// One run of `algo` at `(n, seed 0)` through the dense arena under the
/// given adversary, renaming-audited: the closure both explorer drivers
/// consume.
fn run_dense_audited(
    algo: &BoxedAlgorithm,
    n: usize,
    arena: &mut Arena,
    adv: &mut dyn Adversary,
) -> Result<RunOutcome, String> {
    let out = algo.run_dense(n, 0, adv, arena).map_err(|e| e.to_string())?;
    out.verify_renaming(algo.m(n)).map_err(|v| format!("renaming violation: {v}"))?;
    Ok(out)
}

/// The explorer scenario. `violation_found` is raised whenever a shrunk
/// counterexample is emitted (the binary exits non-zero on it).
pub fn explore(
    cfg: &RunConfig,
    opts: &ExploreOptions,
    violation_found: Arc<AtomicBool>,
) -> ScenarioSpec {
    let _ = cfg; // exploration is inherently serial and always dense
    let exhaustive_opts = opts.clone();
    let exhaustive_flag = Arc::clone(&violation_found);
    let fuzz_opts = opts.clone();
    let fuzz_flag = violation_found;
    ScenarioSpec {
        id: "EXPLORE",
        claim: "systematic schedule-space search: every bounded schedule of every registry \
                algorithm, plus coverage-guided fuzzing, with minimal-tape counterexamples",
        sections: vec![
            Section::custom(move |emitter| {
                let o = exhaustive_opts;
                let reg = registry();
                emitter.text(format!(
                    "\n-- exhaustive DFS: depth {}, crash budget {}, seed 0, dense backend --",
                    o.depth, o.crashes
                ));
                let mut table = Table::new(vec![
                    "algorithm",
                    "n",
                    "depth",
                    "schedules",
                    "exhausted",
                    "worst steps",
                    "sched/s",
                ]);
                let mut arena = Arena::new();
                for key in &o.algorithms {
                    let algo = reg.build(key).unwrap_or_else(|e| panic!("scenario EXPLORE: {e}"));
                    for &n in &o.sizes {
                        let n = reg.n_cap(key).map_or(n, |cap| n.min(cap));
                        let mut explorer = ExhaustiveExplorer::new(o.depth, o.crashes);
                        let start = Instant::now();
                        let report = explorer
                            .explore(o.limit, |adv| run_dense_audited(&algo, n, &mut arena, adv));
                        let wall = start.elapsed().as_secs_f64();
                        let per_sec =
                            if wall > 0.0 { report.schedules as f64 / wall } else { f64::INFINITY };
                        table.row(vec![
                            key.clone(),
                            n.to_string(),
                            o.depth.to_string(),
                            report.schedules.to_string(),
                            if report.exhausted { "yes" } else { "no" }.into(),
                            report.worst_steps.to_string(),
                            fnum(per_sec, 0),
                        ]);
                        emitter.record(&Record {
                            scenario: "EXPLORE".into(),
                            section: "exhaustive".into(),
                            fields: vec![
                                ("algorithm".into(), Value::Str(key.clone())),
                                ("adversary".into(), Value::Str("explore".into())),
                                ("backend".into(), Value::Str("dense".into())),
                                ("n".into(), Value::U64(n as u64)),
                                ("depth".into(), Value::U64(o.depth as u64)),
                                ("crashes".into(), Value::U64(o.crashes as u64)),
                                ("schedules".into(), Value::U64(report.schedules)),
                                ("exhausted".into(), Value::U64(report.exhausted as u64)),
                                ("worst_steps".into(), Value::U64(report.worst_steps)),
                                (
                                    "violations".into(),
                                    Value::U64(report.counterexample.is_some() as u64),
                                ),
                            ],
                        });
                        emitter.record(&Record {
                            scenario: "EXPLORE".into(),
                            section: "exhaustive".into(),
                            fields: vec![
                                ("kind".into(), Value::Str("throughput".into())),
                                ("algorithm".into(), Value::Str(key.clone())),
                                ("adversary".into(), Value::Str("explore".into())),
                                ("backend".into(), Value::Str("dense".into())),
                                ("n".into(), Value::U64(n as u64)),
                                ("schedules".into(), Value::U64(report.schedules)),
                                ("wall_ms".into(), Value::F64(wall * 1e3)),
                                ("schedules_per_sec".into(), Value::F64(per_sec)),
                            ],
                        });
                        if let Some(cx) = &report.counterexample {
                            emit_counterexample(
                                emitter,
                                &exhaustive_flag,
                                "exhaustive",
                                key,
                                n,
                                cx,
                            );
                        }
                    }
                }
                emitter.text(table.to_string());
            }),
            Section::custom(move |emitter| {
                let o = fuzz_opts;
                let reg = registry();
                let algo = reg
                    .build(&o.fuzz_algorithm)
                    .unwrap_or_else(|e| panic!("scenario EXPLORE: {e}"));
                emitter.text(format!(
                    "\n-- fuzz: {} at n={}, {} rounds per strength, seed 0, dense backend --",
                    o.fuzz_algorithm, o.fuzz_n, o.fuzz_rounds
                ));
                let mut table = Table::new(vec![
                    "strength permille",
                    "rounds",
                    "novel",
                    "corpus",
                    "worst steps",
                    "sched/s",
                ]);
                for &strength in &o.strengths {
                    let mut arena = Arena::new();
                    let mut fuzzer = FuzzExplorer::new(0xF00D ^ strength as u64, strength, 256);
                    let start = Instant::now();
                    let report = fuzzer.fuzz(o.fuzz_n, o.fuzz_rounds, |adv| {
                        run_dense_audited(&algo, o.fuzz_n, &mut arena, adv)
                    });
                    let wall = start.elapsed().as_secs_f64();
                    let per_sec =
                        if wall > 0.0 { report.rounds as f64 / wall } else { f64::INFINITY };
                    table.row(vec![
                        strength.to_string(),
                        report.rounds.to_string(),
                        report.novel.to_string(),
                        report.corpus_len.to_string(),
                        report.worst_steps.to_string(),
                        fnum(per_sec, 0),
                    ]);
                    emitter.record(&Record {
                        scenario: "EXPLORE".into(),
                        section: "fuzz".into(),
                        fields: vec![
                            ("algorithm".into(), Value::Str(o.fuzz_algorithm.clone())),
                            ("adversary".into(), Value::Str("fuzz".into())),
                            ("backend".into(), Value::Str("dense".into())),
                            ("n".into(), Value::U64(o.fuzz_n as u64)),
                            ("strength".into(), Value::U64(strength as u64)),
                            ("rounds".into(), Value::U64(report.rounds)),
                            ("novel".into(), Value::U64(report.novel)),
                            ("corpus".into(), Value::U64(report.corpus_len as u64)),
                            ("worst_steps".into(), Value::U64(report.worst_steps)),
                            (
                                "violations".into(),
                                Value::U64(report.counterexample.is_some() as u64),
                            ),
                        ],
                    });
                    emitter.record(&Record {
                        scenario: "EXPLORE".into(),
                        section: "fuzz".into(),
                        fields: vec![
                            ("kind".into(), Value::Str("throughput".into())),
                            ("algorithm".into(), Value::Str(o.fuzz_algorithm.clone())),
                            ("adversary".into(), Value::Str("fuzz".into())),
                            ("backend".into(), Value::Str("dense".into())),
                            ("n".into(), Value::U64(o.fuzz_n as u64)),
                            ("strength".into(), Value::U64(strength as u64)),
                            ("schedules".into(), Value::U64(report.rounds)),
                            ("wall_ms".into(), Value::F64(wall * 1e3)),
                            ("schedules_per_sec".into(), Value::F64(per_sec)),
                        ],
                    });
                    if let Some(cx) = &report.counterexample {
                        emit_counterexample(
                            emitter,
                            &fuzz_flag,
                            "fuzz",
                            &o.fuzz_algorithm,
                            o.fuzz_n,
                            cx,
                        );
                    }
                }
                emitter.text(table.to_string());
            }),
        ],
        claim_check: "claim check: 'exhausted = yes' means every schedule of the bounded tree \
                      was executed exactly once under the renaming-safety audit; the fuzz \
                      'novel' column rises with perturbation strength (the interleaving \
                      diversity axis). Any violation would appear above as a COUNTEREXAMPLE \
                      with its minimal replayable tape."
            .into(),
        reproduces: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_spec, Emitter, JsonSink, Sink, TableSink};
    use rr_sched::replay::Tape;

    /// A tiny but real end-to-end run of the spec: one cheap algorithm,
    /// shallow exhaustive tree, two fuzz rounds — asserts the rendered
    /// sections, the exhaustion report and that no violation fires.
    #[test]
    fn tiny_explore_spec_runs_clean() {
        let opts = ExploreOptions {
            algorithms: vec!["fetch-add".into()],
            sizes: vec![4],
            depth: 2,
            crashes: 1,
            limit: 1_000,
            fuzz_algorithm: "aagw".into(),
            fuzz_n: 8,
            fuzz_rounds: 2,
            strengths: vec![0, 1000],
        };
        let flag = Arc::new(AtomicBool::new(false));
        let spec = explore(&RunConfig::default(), &opts, Arc::clone(&flag));
        let mut buf = Vec::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
            run_spec(spec, &RunConfig::default(), &mut sinks);
        }
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("-- exhaustive DFS: depth 2, crash budget 1"), "{out}");
        assert!(out.contains("fetch-add"), "{out}");
        assert!(out.contains("yes"), "tree must exhaust: {out}");
        assert!(out.contains("-- fuzz: aagw at n=8, 2 rounds per strength"), "{out}");
        assert!(!out.contains("COUNTEREXAMPLE ["), "{out}");
        assert!(!flag.load(Ordering::Relaxed), "no violation expected");
    }

    /// The counterexample wiring the binary's non-zero exit hangs off:
    /// emitting one must raise the flag, print the minimal tape, and
    /// produce the `kind:"counterexample"` record CI greps for.
    #[test]
    fn emit_counterexample_raises_flag_and_records() {
        let flag = Arc::new(AtomicBool::new(false));
        let cx = Counterexample {
            tape: Tape::from_text("g1 c0").unwrap(),
            reason: "renaming violation: name 3 assigned twice".into(),
        };
        let json_path =
            std::env::temp_dir().join(format!("rr_explore_cx_{}.json", std::process::id()));
        let mut buf = Vec::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![
                Box::new(TableSink::new(&mut buf)),
                Box::new(JsonSink::new(json_path.clone())),
            ];
            let mut emitter = Emitter::new(&mut sinks);
            emit_counterexample(&mut emitter, &flag, "exhaustive", "tight-tau:c=4", 5, &cx);
            for sink in &mut sinks {
                sink.finish().unwrap();
            }
        }
        assert!(flag.load(Ordering::Relaxed), "flag must be raised");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("COUNTEREXAMPLE [tight-tau:c=4 at n=5]"), "{text}");
        assert!(text.contains("minimal tape: `g1 c0`"), "{text}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        std::fs::remove_file(&json_path).ok();
        assert!(json.contains("\"kind\":\"counterexample\""), "{json}");
        assert!(json.contains("\"tape\":\"g1 c0\""), "{json}");
        assert!(json.contains("\"reason\":\"renaming violation: name 3 assigned twice\""));
    }
}
