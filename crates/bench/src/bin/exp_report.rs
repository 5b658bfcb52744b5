//! The reproduction report generator: re-runs the claim-bearing
//! experiment tiers (every catalogue spec with `ClaimCheck` metadata),
//! merges in any existing record snapshots, and writes the
//! deterministic `REPRODUCTION.md` with a PASS / FAIL / INCONCLUSIVE
//! verdict, fitted scaling curve and inline SVG chart per paper claim.
//!
//! Two modes:
//!
//! * **run** (default): executes every claim spec (E1–E7) at the
//!   `--quick` or full tier through a `ReportSink`; `--json PATH` also
//!   persists the records (the committed `BENCH_report.json`).
//! * **`--ingest`**: no execution — the report is generated purely from
//!   the `--from` files, which is how the golden test and anyone
//!   without 20 minutes regenerate the committed report.
//!
//! In both modes `--from f1,f2,…` merges additional record files (the
//! committed `BENCH_scenarios.json` / `BENCH_explore.json` /
//! `BENCH_route.json` feed the
//! matrix-safety and schedule-space cross-checks).
//!
//! Exit status: 1 if any claim or cross-check FAILs (the CI gate),
//! 2 on CLI errors; INCONCLUSIVE does not fail the run. A stdout closed
//! early (`| head`) stops the printing, not the report: `--out` and
//! `--json` are still written.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::REPORT`].

use rr_bench::cli::{self, REPORT};
use rr_bench::scenario::{self, check_writable, specs, JsonSink, ReportSink, Sink, TableSink};
use rr_report::records::Rec;
use rr_report::Verdict;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(&REPORT, |args| {
        let cfg = &args.cfg;
        let ingest = args.has("--ingest");
        let from = args.keys("--from").unwrap_or_default();
        if ingest {
            if from.is_empty() {
                return Err("--ingest needs --from <files>".into());
            }
            // Nothing runs in ingest mode, so these flags would be
            // silently ignored — reject them instead of misleading the
            // user.
            if let Some(flag) = ["--json", "--backend"].into_iter().find(|f| args.has(f)) {
                return Err(
                    format!("{flag} has no effect with --ingest (nothing is executed)").into()
                );
            }
        }
        // Both output paths are checked, and every --from file is read,
        // before anything runs.
        let out_path = args.text("--out").unwrap_or("REPRODUCTION.md");
        check_writable(out_path.as_ref())?;
        let mut from_recs: Vec<Rec> = Vec::new();
        for file in &from {
            let body = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read --from file `{file}`: {e}"))?;
            from_recs
                .extend(rr_report::parse_records(&body).map_err(|e| format!("`{file}`: {e}"))?);
        }
        let mut recs: Vec<Rec> = Vec::new();
        let mut inputs: Vec<String> = Vec::new();
        let mut printed = Ok(());

        if !ingest {
            let claim_specs: Vec<_> =
                specs::catalogue(cfg).into_iter().filter(|s| !s.reproduces.is_empty()).collect();
            for spec in &claim_specs {
                scenario::check_spec(spec, cfg)?;
            }
            let mut report_sink = ReportSink::new();
            {
                let mut sinks: Vec<Box<dyn Sink + '_>> =
                    vec![Box::new(TableSink::stdout()), Box::new(&mut report_sink)];
                if let Some(path) = &cfg.json_path {
                    check_writable(path)?;
                    sinks.push(Box::new(JsonSink::new(path.clone())));
                }
                for spec in claim_specs {
                    scenario::run_spec(spec, cfg, &mut sinks);
                }
                printed = scenario::finish_all(&mut sinks);
            }
            inputs.push(match &cfg.json_path {
                Some(path) => path.display().to_string(),
                None => format!("live run ({} tier)", if cfg.quick { "quick" } else { "full" }),
            });
            recs.extend(report_sink.records().iter().map(scenario::Record::to_report_rec));
        }
        recs.extend(from_recs);
        inputs.extend(from);

        let report = rr_report::generate(&recs, inputs);
        std::fs::write(out_path, report.to_markdown())
            .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;

        let worst = report.worst_verdict();
        let mut summary = format!("\n=== REPORT: statistical claim verdicts -> {out_path} ===\n");
        for c in &report.claims {
            let _ = writeln!(summary, "  {:12} {:4}  {}", c.id, c.scenario, c.verdict.label());
        }
        for c in &report.cross {
            let _ = writeln!(summary, "  {:17}  {}", "cross-check", c.verdict.label());
        }
        let _ = writeln!(summary, "overall: {}", worst.label());
        printed = printed.and_then(|()| io::stdout().write_all(summary.as_bytes()));
        if worst == Verdict::Fail {
            eprintln!("exp_report: at least one claim FAILED — see {out_path}");
            return Ok(ExitCode::from(1));
        }
        printed?;
        Ok(ExitCode::SUCCESS)
    })
}
