//! Crash tolerance: the model allows any number of processes to crash at
//! any point (§II-A). This example crashes an escalating fraction — up to
//! 90% — always at the worst moment (right after the adversary has seen
//! the victim's winning coin flip) and shows every *survivor* still gets
//! a distinct name.
//!
//! Run with: `cargo run --release --example crash_tolerance`

use randomized_renaming::renaming::traits::{Cor7, RenamingAlgorithm};
use randomized_renaming::renaming::TightRenaming;
use randomized_renaming::sched::adversary::{CrashAdversary, FairAdversary};
use randomized_renaming::sched::shard::Arena;

fn main() {
    let n = 1024;
    println!("n = {n}: escalating crash storms (victims picked after their coin flips)\n");
    println!(
        "{:<16} {:>10} {:>9} {:>7} {:>16} {:>12}",
        "algorithm", "crash cap", "crashed", "named", "step complexity", "names leaked"
    );

    for (label, algo) in [
        ("tight-tau(c=4)", Box::new(TightRenaming::calibrated(4)) as Box<dyn RenamingAlgorithm>),
        ("cor7(l=1)", Box::new(Cor7 { ell: 1 })),
    ] {
        for pct in [0usize, 10, 30, 60, 90] {
            let m = algo.m(n);
            let mut adv = CrashAdversary::new(
                FairAdversary::default(),
                0.1,
                n * pct / 100,
                1234 + pct as u64,
            );
            let out = algo.run_dense(n, 2024, &mut adv, &mut Arena::new()).expect("run failed");
            out.verify_renaming(m).expect("safety violated under crashes");
            let crashed = out.crashed.iter().filter(|&&c| c).count();
            let named = out.names.iter().filter(|x| x.is_some()).count();
            assert_eq!(named, n - crashed, "every survivor must be named");
            // A crashed process may have died between winning a TAS and
            // halting; its name is "leaked" (consumed but unheld). The
            // guarantee is about survivors, and leaks ≤ crashes.
            println!(
                "{label:<16} {:>9}% {crashed:>9} {named:>7} {:>16} {:>12}",
                pct,
                out.step_complexity(),
                format!("≤{crashed}"),
            );
        }
        println!();
    }
    println!(
        "survivors are always fully and distinctly named; crashed winners \
         merely waste their own name, exactly as the model prices crashes."
    );
}
