//! The reproduction report generator: re-runs the claim-bearing
//! experiment tiers (every catalogue spec with `ClaimCheck` metadata),
//! merges in any existing record snapshots, and writes the
//! deterministic `REPRODUCTION.md` with a PASS / FAIL / INCONCLUSIVE
//! verdict, fitted scaling curve and inline SVG chart per paper claim.
//!
//! ```text
//! exp_report [--quick] [--json PATH] [--out PATH] [--backend KEY]
//!            [--from f1,f2,…] [--ingest] [--help]
//! ```
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
//! 2 on CLI errors; INCONCLUSIVE does not fail the run.

use rr_bench::runner::RunConfig;
use rr_bench::scenario::{self, specs, JsonSink, ReportSink, Sink, TableSink};
use rr_report::records::Rec;
use rr_report::Verdict;

const USAGE: &str = "\
exp_report — generate REPRODUCTION.md with statistical claim verdicts

usage: exp_report [--quick] [--json PATH] [--out PATH] [--backend KEY]
                  [--from f1,f2,…] [--ingest] [--help]

  --quick        CI-sized claim tiers (the committed BENCH_report.json shape)
  --json PATH    also write the freshly measured records to PATH
  --out PATH     where to write the report (default REPRODUCTION.md)
  --backend KEY  execution core for the re-run (dense | threads:t=N | shard:s=N)
  --from LIST    comma-separated record files to merge (e.g. the committed
                 BENCH_scenarios.json,BENCH_explore.json,BENCH_route.json for
                 the cross-checks)
  --ingest       do not run anything — report purely from --from files
                 (--json/--backend would have no effect and are rejected)

exit status: 1 if any verdict is FAIL, 2 on CLI errors.";

fn fail(msg: &str) -> ! {
    eprintln!("exp_report: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut out_path = String::from("REPRODUCTION.md");
    let mut from: Vec<String> = Vec::new();
    let mut ingest = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {}
            "--ingest" => ingest = true,
            // Mirror RunConfig's peek rule: a following `--flag` is not
            // a value.
            "--json" | "--backend" => {
                if it.peek().is_some_and(|v| !v.starts_with("--")) {
                    it.next();
                }
            }
            "--out" => match it.next() {
                Some(v) if !v.starts_with("--") => out_path = v.clone(),
                _ => fail("--out needs a path"),
            },
            "--from" => match it.next() {
                Some(v) if !v.starts_with("--") => {
                    from.extend(v.split(',').filter(|s| !s.is_empty()).map(String::from));
                }
                _ => fail("--from needs a comma-separated file list"),
            },
            other => fail(&format!("unknown argument `{other}` (see --help)")),
        }
    }
    if ingest {
        if from.is_empty() {
            fail("--ingest needs --from <files>");
        }
        // Nothing runs in ingest mode, so these flags would be silently
        // ignored — reject them instead of misleading the user.
        for flag in ["--json", "--backend"] {
            if args.iter().any(|a| a == flag) {
                fail(&format!("{flag} has no effect with --ingest (nothing is executed)"));
            }
        }
    }

    let cfg = RunConfig::from_env();
    let mut recs: Vec<Rec> = Vec::new();
    let mut inputs: Vec<String> = Vec::new();

    if !ingest {
        let mut report_sink = ReportSink::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> =
                vec![Box::new(TableSink::stdout()), Box::new(&mut report_sink)];
            if let Some(path) = &cfg.json_path {
                sinks.push(Box::new(JsonSink::new(path.clone())));
            }
            for spec in specs::catalogue(&cfg) {
                if spec.reproduces.is_empty() {
                    continue;
                }
                scenario::run_spec(spec, &cfg, &mut sinks);
            }
            for sink in &mut sinks {
                sink.finish().expect("exp_report sink finish failed");
            }
        }
        inputs.push(match &cfg.json_path {
            Some(path) => path.display().to_string(),
            None => format!("live run ({} tier)", if cfg.quick { "quick" } else { "full" }),
        });
        recs.extend(report_sink.records().iter().map(scenario::Record::to_report_rec));
    }
    for file in &from {
        let body = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(&format!("cannot read --from file `{file}`: {e}")));
        let parsed =
            rr_report::parse_records(&body).unwrap_or_else(|e| fail(&format!("`{file}`: {e}")));
        recs.extend(parsed);
        inputs.push(file.clone());
    }

    let report = rr_report::generate(&recs, inputs);
    std::fs::write(&out_path, report.to_markdown())
        .unwrap_or_else(|e| fail(&format!("cannot write `{out_path}`: {e}")));

    println!("\n=== REPORT: statistical claim verdicts -> {out_path} ===");
    for c in &report.claims {
        println!("  {:12} {:4}  {}", c.id, c.scenario, c.verdict.label());
    }
    for c in &report.cross {
        println!("  {:17}  {}", "cross-check", c.verdict.label());
    }
    let worst = report.worst_verdict();
    println!("overall: {}", worst.label());
    if worst == Verdict::Fail {
        eprintln!("exp_report: at least one claim FAILED — see {out_path}");
        std::process::exit(1);
    }
}
