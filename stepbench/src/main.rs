//! `stepbench` command line.
//!
//! ```text
//! stepbench --workload NAME --seed N --seconds S --trace 0|1
//! stepbench --workload all ...         every workload, one process each
//! stepbench --pins NAME [--seeds K]    print the recorded-totals table
//! stepbench --describe                 print the computed working sets
//! ```
//!
//! A measuring run prints each metric by name with its unit, then, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

#![forbid(unsafe_code)]

use stepbench::trace::{self, Metric};
use stepbench::workload::{self, Workload, WORKLOADS};
use stepbench::{pins, ratio};

const USAGE: &str = "usage: stepbench --workload NAME|all --seed N --seconds S --trace 0|1
       stepbench --pins NAME [--seeds K]
       stepbench --describe";

fn fail(msg: &str) -> ! {
    eprintln!("stepbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn workload_named(name: &str) -> &'static Workload {
    workload::find(name).unwrap_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        fail(&format!("unknown workload `{name}` (known: {})", known.join(", ")))
    })
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let value = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    value.parse().unwrap_or_else(|_| fail(&format!("bad value `{value}` for {flag}")))
}

/// Prints `metrics` one per line, then the result object.
fn report(metrics: &[Metric], tally: workload::Tally) {
    for m in metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn measure(w: &Workload, seed: u64, seconds: f64, traced: bool) {
    eprintln!("stepbench: {} seed {seed} for {seconds} s, trace {}", w.name, u8::from(traced));
    if traced {
        let t = trace::traced(w, seed, seconds);
        eprintln!("stepbench: {} traced reps", t.reps);
        report(&t.metrics, t.tally);
        return;
    }
    let e = workload::end_to_end(w, seed, seconds);
    let failed_frac = ratio(e.tally.failed as f64, e.tally.attempted as f64);
    eprintln!("stepbench: {} reps, calibration factor {}", e.reps, e.calibration);
    // The result object carries `ok_frac` instead: a metric there must
    // never read 0.
    println!("{:<32} {:>20} ratio", "failed_frac", failed_frac);
    let metric = |name, value, unit| Metric { name, value, unit };
    report(
        &[
            metric("steps_per_s", e.steps_per_s, "steps/s"),
            metric("wall_s", e.wall_s, "s"),
            metric("setup_s", e.setup_s, "s"),
            metric("peak_rss_mb", e.peak_rss_mib, "MiB"),
            metric("ok_frac", 1.0 - failed_frac, "ratio"),
        ],
        e.tally,
    );
}

/// Measures every workload in a fresh process of its own, so peak
/// memory does not carry over from one workload to the next. Exits
/// non-zero if any of them did.
fn measure_all(args: &[String]) -> ! {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate this executable: {e}")));
    let at = 1 + args.iter().position(|a| a == "--workload").expect("--workload was given");
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut child_args = args.to_vec();
        child_args[at] = w.name.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", w.name)));
        all_ok &= status.success();
    }
    std::process::exit(if all_ok { 0 } else { 1 })
}

/// Prints `w`'s recorded-totals table for seeds `0..seeds` as Rust
/// source for `pins.rs`.
fn print_pins(w: &Workload, seeds: u64) {
    let (algos, adversary) = workload::resolve(w);
    let mut arena = rr_sched::shard::Arena::new();
    let ident = w.name.to_uppercase().replace('-', "_");
    println!("const {ident}: &[&[Pin]] = &[");
    for seed in 0..seeds {
        let row: Vec<String> = w
            .families
            .iter()
            .zip(&algos)
            .map(|(f, algo)| {
                let (out, m) =
                    workload::run_public(algo, f.n, seed, &adversary, w.shards, &mut arena)
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", f.key));
                out.verify_renaming(m).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", f.key));
                format!("({}, {})", out.total_steps(), workload::unnamed(&out))
            })
            .collect();
        println!("    &[{}],", row.join(", "));
    }
    println!("];");
}

fn describe() {
    let proc_bytes = std::mem::size_of::<rr_renaming::TightProcess>();
    for w in WORKLOADS.iter().filter(|w| w.tight) {
        let n = w.families[0].n;
        println!(
            "{}: size_of::<TightProcess>() = {proc_bytes} B x n = {n} -> {} B (computed)",
            w.name,
            proc_bytes * n
        );
    }
    println!("recorded totals cover seeds 0..{}", pins::PIN_SEEDS);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut pins_for, mut pin_seeds) = (None, pins::PIN_SEEDS.max(1));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(parse::<String>(flag, it.next())),
            "--seed" => seed = Some(parse::<u64>(flag, it.next())),
            "--seconds" => seconds = Some(parse::<f64>(flag, it.next())),
            "--trace" => {
                traced = Some(match parse::<u8>(flag, it.next()) {
                    0 => false,
                    1 => true,
                    other => fail(&format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--pins" => pins_for = Some(workload_named(&parse::<String>(flag, it.next()))),
            "--seeds" => pin_seeds = parse(flag, it.next()),
            "--describe" => return describe(),
            "--help" | "-h" => return println!("{USAGE}"),
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = pins_for {
        return print_pins(w, pin_seeds);
    }
    match (workload, seed, seconds, traced) {
        (Some(w), Some(seed), Some(seconds), Some(traced))
            if seconds > 0.0 && seconds.is_finite() =>
        {
            if w == "all" {
                measure_all(&args)
            }
            measure(workload_named(&w), seed, seconds, traced)
        }
        _ => fail("--workload, --seed, --seconds (finite, > 0) and --trace are all required"),
    }
}
