//! The scenario engine: declarative experiments over the registries.
//!
//! Where each `exp_*` binary used to hand-roll algorithm construction,
//! adversary wiring, seed sweeps and table printing, a scenario is now a
//! **declaration** — a [`ScenarioSpec`] naming algorithms and
//! adversaries by registry key — executed by one shared [`drive`] entry
//! point:
//!
//! 1. [`rr_renaming::AlgorithmRegistry`] + `rr_baselines` resolve
//!    algorithm keys (`"tight-tau:c=4"`, `"bitonic"`, …).
//! 2. [`rr_sched::registry`] resolves adversary keys (`"fair"`,
//!    `"crash:p=20,cap=10"`, …).
//! 3. The parallel batch runner measures every row; results stream into
//!    every attached [`Sink`] — the human table (byte-identical to the
//!    pre-engine binaries) and, with `--json <path>`, a structured
//!    record file for cross-PR perf trajectories.
//!
//! Adding an experiment is writing a spec (see [`specs`]); adding an
//! algorithm or adversary is one registry registration — every spec and
//! the `exp_matrix` cross-product pick it up by key.

pub mod sink;
pub mod spec;
pub mod specs;

pub use sink::{Emitter, JsonSink, Record, ReportSink, Sink, TableSink, Value};
pub use spec::{
    BatchSection, CellFn, ClaimCheck, Column, CustomSection, RowCtx, RowSpec, ScenarioSpec, Section,
};

use crate::runner::{BatchRun, BatchTiming, ExecBackend, RunConfig};
use rr_analysis::stats::upper_median;
use rr_renaming::registry::{AlgorithmRegistry, BoxedAlgorithm};
use std::collections::BTreeMap;

/// The full algorithm registry the engine resolves keys against: the
/// paper's protocols plus every baseline.
pub fn registry() -> AlgorithmRegistry {
    let mut reg = AlgorithmRegistry::with_paper_algorithms();
    rr_baselines::register_baselines(&mut reg);
    reg
}

/// Builds the spec from the process environment and executes it against
/// stdout (and the `--json` sink when requested) — the whole `main` of
/// every `exp_*` binary.
///
/// A spec that [`check_spec`] refuses exits 2 with one line on stderr
/// before any row runs.
pub fn drive(build: impl FnOnce(&RunConfig) -> ScenarioSpec) {
    let cfg = RunConfig::from_env();
    let spec = build(&cfg);
    if let Err(e) = check_spec(&spec, &cfg) {
        let arg0 = std::env::args().next().unwrap_or_default();
        let name = std::path::Path::new(&arg0).file_stem().map(|s| s.to_string_lossy());
        eprintln!("{}: {e}", name.as_deref().unwrap_or("scenario"));
        std::process::exit(2);
    }
    let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(TableSink::stdout())];
    if let Some(path) = &cfg.json_path {
        sinks.push(Box::new(JsonSink::new(path.clone())));
    }
    run_spec(spec, &cfg, &mut sinks);
    for sink in &mut sinks {
        sink.finish().expect("scenario sink finish failed");
    }
}

/// Checks that `cfg.backend` can run every batch row of `spec`, before
/// any of them runs.
///
/// Under `shard:s=N` a row labelled `n` runs `N` independent
/// sub-instances of about `n/N` processes, so a spec that reproduces
/// paper claims is refused for `N > 1`; and no row may have fewer
/// processes than shards.
///
/// # Errors
/// A one-line message: the claim refusal names the scenario and the
/// backend, a short row gets [`ExecBackend::check_n`]'s message.
pub fn check_spec(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<(), String> {
    if let ExecBackend::Shard { s } = cfg.backend {
        if s > 1 && !spec.reproduces.is_empty() {
            return Err(format!(
                "scenario {} checks paper claims at each row's n, but {} runs {s} independent \
                 sub-instances of about n/{s} processes; use --backend dense",
                spec.id,
                cfg.backend.key()
            ));
        }
    }
    spec.sections
        .iter()
        .flat_map(|section| match section {
            Section::Batch(batch) => batch.rows.as_slice(),
            Section::Custom(_) => &[],
        })
        .try_for_each(|row| cfg.backend.check_n(row.n))
}

/// Renders a spec to a string through the table sink — what [`drive`]
/// would print to stdout, captured for the golden tests. Worker threads
/// come from the ambient environment ([`RunConfig::default`]).
pub fn render_to_string(spec: ScenarioSpec) -> String {
    let mut buf = Vec::new();
    {
        let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
        run_spec(spec, &RunConfig::default(), &mut sinks);
    }
    String::from_utf8(buf).expect("scenario output is utf8")
}

/// Executes `spec` against `sinks` (does not call [`Sink::finish`]);
/// batch rows run with [`RunConfig::threads`] workers.
pub fn run_spec(spec: ScenarioSpec, cfg: &RunConfig, sinks: &mut [Box<dyn Sink + '_>]) {
    let reg = registry();
    let mut emitter = Emitter::new(sinks);
    emitter.text(format!("=== {}: {} ===", spec.id, spec.claim));
    for section in spec.sections {
        match section {
            Section::Batch(batch) => run_batch_section(spec.id, batch, cfg, &reg, &mut emitter),
            Section::Custom(custom) => (custom.run)(&mut emitter),
        }
    }
    if !spec.claim_check.is_empty() {
        emitter.text(format!("\n{}", spec.claim_check));
    }
}

fn run_batch_section(
    scenario: &str,
    section: BatchSection,
    cfg: &RunConfig,
    reg: &AlgorithmRegistry,
    emitter: &mut Emitter<'_, '_>,
) {
    if let Some(title) = &section.title {
        emitter.text(format!("\n-- {title} --"));
    }
    let mut table =
        rr_analysis::Table::new(section.columns.iter().map(|c| c.header.clone()).collect());
    let mut algos: BTreeMap<String, BoxedAlgorithm> = BTreeMap::new();
    for row in &section.rows {
        let algo = algos.entry(row.algorithm.clone()).or_insert_with(|| {
            reg.build(&row.algorithm).unwrap_or_else(|e| panic!("scenario {scenario}: {e}"))
        });
        let (stats, timing) = BatchRun::new(algo.as_ref(), row.n)
            .seeds(row.seeds)
            .adversary(&row.adversary)
            .backend(cfg.backend)
            .workers(cfg.threads)
            .run()
            .unwrap_or_else(|e| panic!("scenario {scenario}: {e}"));
        let ctx = RowCtx { row, algo: algo.as_ref(), stats: &stats };
        table.row(section.columns.iter().map(|c| (c.cell)(&ctx)).collect());
        emitter.record(&batch_record(scenario, &section, row, cfg, algo.as_ref().name(), &stats));
        emitter.record(&throughput_record(scenario, &section, row, cfg, &timing));
    }
    emitter.text(table.to_string());
}

/// The engine's standard structured fields for one batch row — the
/// deterministic step/space measurements a perf trajectory tracks.
fn batch_record(
    scenario: &str,
    section: &BatchSection,
    row: &RowSpec,
    cfg: &RunConfig,
    algo_name: String,
    stats: &crate::runner::BatchStats,
) -> Record {
    let fields = vec![
        ("algorithm".into(), Value::Str(row.algorithm.clone())),
        ("algorithm_name".into(), Value::Str(algo_name)),
        ("adversary".into(), Value::Str(row.adversary.clone())),
        ("backend".into(), Value::Str(cfg.backend.key())),
        ("n".into(), Value::U64(row.n as u64)),
        ("seeds".into(), Value::U64(row.seeds)),
        ("steps_p50".into(), Value::U64(upper_median(&stats.step_complexity))),
        ("steps_max".into(), Value::U64(stats.max_steps())),
        ("mean_steps".into(), Value::F64(stats.mean_mean_steps())),
        ("unnamed_max".into(), Value::U64(stats.max_unnamed() as u64)),
        ("unnamed_mean".into(), Value::F64(stats.mean_unnamed())),
        ("crashed_total".into(), Value::U64(stats.total_crashed() as u64)),
        ("violations".into(), Value::U64(stats.violations as u64)),
    ];
    Record {
        scenario: scenario.to_string(),
        section: section.title.clone().unwrap_or_default(),
        fields,
    }
}

/// One batch row's wall-clock speed, tagged `kind = "throughput"` so the
/// perf trajectory can track runs/sec and steps/sec per backend while
/// snapshot-diff tooling filters these (inherently non-deterministic)
/// records out of byte-exact comparisons.
fn throughput_record(
    scenario: &str,
    section: &BatchSection,
    row: &RowSpec,
    cfg: &RunConfig,
    timing: &BatchTiming,
) -> Record {
    let fields = vec![
        ("kind".into(), Value::Str("throughput".into())),
        ("algorithm".into(), Value::Str(row.algorithm.clone())),
        ("adversary".into(), Value::Str(row.adversary.clone())),
        ("backend".into(), Value::Str(cfg.backend.key())),
        ("n".into(), Value::U64(row.n as u64)),
        ("runs".into(), Value::U64(timing.runs)),
        ("steps_total".into(), Value::U64(timing.steps)),
        ("wall_ms".into(), Value::F64(timing.wall_secs * 1e3)),
        ("runs_per_sec".into(), Value::F64(timing.runs_per_sec())),
        ("steps_per_sec".into(), Value::F64(timing.steps_per_sec())),
    ];
    Record {
        scenario: scenario.to_string(),
        section: section.title.clone().unwrap_or_default(),
        fields,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            id: "EX",
            claim: "engine smoke",
            sections: vec![Section::Batch(BatchSection {
                title: Some("demo".into()),
                columns: vec![
                    Column::new("algorithm", |ctx| ctx.algo.name()),
                    Column::new("n", |ctx| ctx.row.n.to_string()),
                    Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
                ],
                rows: vec![
                    RowSpec::new("tight-tau:c=4", "fair", 64, 2),
                    RowSpec::new("aagw", "random", 64, 2).tagged(7),
                ],
            })],
            claim_check: "claim check: smoke only.".into(),
            reproduces: vec![],
        }
    }

    #[test]
    fn renders_header_title_table_and_claim_check() {
        let out = render_to_string(tiny_spec());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "=== EX: engine smoke ===");
        assert_eq!(lines[1], "");
        assert_eq!(lines[2], "-- demo --");
        assert!(lines[3].starts_with("algorithm"), "{out}");
        assert!(out.contains("tight-tau(c=4)"));
        assert!(out.contains("aagw-style(m=2n)"));
        assert!(out.trim_end().ends_with("claim check: smoke only."));
    }

    #[test]
    fn records_carry_standard_fields() {
        let path =
            std::env::temp_dir().join(format!("rr_scenario_rec_{}.json", std::process::id()));
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(JsonSink::new(path.clone()))];
            run_spec(tiny_spec(), &RunConfig::default(), &mut sinks);
            for s in &mut sinks {
                s.finish().unwrap();
            }
        }
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Two rows → two deterministic records + two throughput records.
        assert_eq!(body.matches("\"scenario\":\"EX\"").count(), 4);
        assert_eq!(body.matches("\"kind\":\"throughput\"").count(), 2);
        assert!(body.contains("\"section\":\"demo\""));
        assert!(body.contains("\"algorithm\":\"tight-tau:c=4\""));
        assert!(body.contains("\"adversary\":\"random\""));
        assert!(body.contains("\"backend\":\"dense\""));
        assert!(body.contains("\"steps_p50\":"));
        assert!(body.contains("\"violations\":0"));
        assert!(body.contains("\"runs_per_sec\":"));
        assert!(body.contains("\"steps_per_sec\":"));
    }

    /// The same spec run on the default dense backend and on
    /// `shard:s=1` renders the identical table and identical
    /// deterministic records — only the backend tag and the timing
    /// records differ.
    #[test]
    fn dense_backend_renders_identically() {
        let dense = render_to_string(tiny_spec());
        let mut buf = Vec::new();
        {
            let cfg = RunConfig {
                backend: crate::runner::ExecBackend::Shard { s: 1 },
                ..Default::default()
            };
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
            run_spec(tiny_spec(), &cfg, &mut sinks);
        }
        assert_eq!(dense, String::from_utf8(buf).unwrap());
    }

    #[test]
    fn deterministic_rendering() {
        assert_eq!(render_to_string(tiny_spec()), render_to_string(tiny_spec()));
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_algorithm_key_panics_with_context() {
        let spec = ScenarioSpec {
            id: "EX",
            claim: "bad key",
            sections: vec![Section::Batch(BatchSection {
                title: None,
                columns: vec![Column::new("n", |ctx| ctx.row.n.to_string())],
                rows: vec![RowSpec::new("no-such-algo", "fair", 8, 1)],
            })],
            claim_check: String::new(),
            reproduces: vec![],
        };
        render_to_string(spec);
    }

    #[test]
    fn full_registry_composes_paper_and_baselines() {
        let reg = registry();
        assert!(reg.build("tight-tau:c=4").is_ok());
        assert!(reg.build("bitonic").is_ok());
        assert!(reg.keys().len() >= 13);
    }
}
