//! The lock-free-core model checker: exhaustively explores every
//! atomic-operation interleaving of bounded `ConcurrentTauRegister` /
//! `AtomicTasArray` scenarios and checks each outcome for
//! linearizability against the sequential oracle.
//!
//! ```text
//! exp_model [--quick] [--scenarios k1,k2,…] [--limit N] [--help]
//! ```
//!
//! Defaults: every registered scenario. `--quick` skips the largest
//! (`collect`) scenario — the CI smoke shape. Exit status is non-zero
//! when any interleaving fails its checker; the minimal failing trace
//! is printed in `ModelTrace::to_text` form.

use rr_bench::modelcheck::{scenario_by_key, scenarios, ModelScenario};

const USAGE: &str = "\
exp_model — exhaustive interleaving checker for the lock-free core

usage: exp_model [--quick] [--scenarios k1,k2,…] [--limit N] [--help]

  --quick        CI-sized run (skips the heaviest scenario)
  --scenarios    comma-separated scenario keys (see below)
  --limit N      override each scenario's execution budget

scenarios:
  collect        2 acquirers + concurrent quota_and_bits collector
  tas            3 TAS contenders, two on one register + one independent
  tas-collide    3 TAS contenders all hammering one register
  tau            2 τ-register acquirers on distinct bits
  tau-collide    2 τ-register acquirers racing for the same bit
  tau-quota      2 acquirers, quota τ=1: exactly one may win";

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("exp_model: bad value `{v}` for {flag}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut quick = false;
    let mut picked: Option<Vec<ModelScenario>> = None;
    let mut limit: Option<u64> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("exp_model: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--limit" => limit = Some(parse_or_die("--limit", next("--limit"))),
            "--scenarios" => {
                let list = next("--scenarios")
                    .split(',')
                    .map(|k| {
                        scenario_by_key(k.trim()).unwrap_or_else(|e| {
                            eprintln!("exp_model: {e}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                picked = Some(list);
            }
            other => {
                eprintln!("exp_model: unknown argument `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    let mut list = picked.unwrap_or_else(scenarios);
    if quick {
        list.retain(|s| s.key != "collect");
    }
    if let Some(limit) = limit {
        for s in &mut list {
            s.limit = limit;
        }
    }

    println!("=== exp_model: exhaustive interleaving checks (lock-free core) ===");
    println!(
        "{:<12} {:>14} {:>8} {:>10} {:>9}  verdict",
        "scenario", "interleavings", "pruned", "exhausted", "failures"
    );
    let mut failed = false;
    for s in &list {
        let report = s.run();
        println!(
            "{:<12} {:>14} {:>8} {:>10} {:>9}  {}",
            s.key,
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
        );
        if let Some(trace) = &report.counterexample {
            println!("  minimal counterexample ({}): {}", trace.reason, trace.to_text());
        }
        failed |= !report.passed();
    }
    if failed {
        eprintln!("exp_model: non-linearizable interleaving(s) found — see traces above");
        std::process::exit(1);
    }
}
