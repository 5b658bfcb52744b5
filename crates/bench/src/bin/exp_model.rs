//! The lock-free-core model checker: exhaustively explores every
//! atomic-operation interleaving of bounded `ConcurrentTauRegister` /
//! `AtomicTasArray` scenarios and checks each outcome for
//! linearizability against the sequential oracle.
//!
//! Defaults: every registered scenario. `--quick` skips the largest
//! (`collect`) scenario — the CI smoke shape. Exit status is non-zero
//! when any interleaving fails its checker; the minimal failing trace
//! is printed in `ModelTrace::to_text` form. A stdout closed early
//! (`| head`) stops the printing, not the checks or their verdict.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::MODEL`].

use rr_bench::cli::Failure;
use rr_bench::cli::{self, MODEL};
use rr_bench::modelcheck::{scenario_by_key, scenarios, ModelScenario};
use rr_sched::ModelReport;
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(&MODEL, |args| {
        let mut list = match args.keys("--scenarios") {
            Some(keys) => keys.iter().map(|k| scenario_by_key(k)).collect::<Result<_, _>>()?,
            None => scenarios(),
        };
        if args.cfg.quick {
            list.retain(|s| s.key != "collect");
        }
        if let Some(limit) = args.count("--limit") {
            for s in &mut list {
                s.limit = limit as u64;
            }
        }
        run(&list, &mut io::stdout().lock())
    })
}

/// Checks each scenario in turn and prints its row; exit 1 on a failure.
/// A failed write stops the printing; every scenario still runs.
fn run(list: &[ModelScenario], w: &mut impl Write) -> Result<ExitCode, Failure> {
    let mut printed = header(w);
    let mut failed = false;
    for s in list {
        let report = s.run();
        printed = printed.and_then(|()| row(w, s.key, &report));
        failed |= !report.passed();
    }
    if failed {
        eprintln!("exp_model: non-linearizable interleaving(s) found — see traces above");
        return Ok(ExitCode::from(1));
    }
    printed?;
    Ok(ExitCode::SUCCESS)
}

fn header(w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "=== exp_model: exhaustive interleaving checks (lock-free core) ===")?;
    writeln!(
        w,
        "{:<12} {:>14} {:>8} {:>10} {:>9}  verdict",
        "scenario", "interleavings", "pruned", "exhausted", "failures"
    )
}

/// One scenario's row, then its minimal counterexample if it failed.
fn row(w: &mut impl Write, key: &str, report: &ModelReport) -> io::Result<()> {
    writeln!(
        w,
        "{:<12} {:>14} {:>8} {:>10} {:>9}  {}",
        key,
        report.interleavings,
        report.pruned,
        report.exhausted,
        report.failures,
        if !report.passed() {
            "FAIL"
        } else if report.exhausted {
            "PASS (exhaustive)"
        } else {
            "PASS (bounded)"
        }
    )?;
    if let Some(trace) = &report.counterexample {
        writeln!(w, "  minimal counterexample ({}): {}", trace.reason, trace.to_text())?;
    }
    Ok(())
}
