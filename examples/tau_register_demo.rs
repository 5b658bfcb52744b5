//! Cycle-by-cycle trace of the counting device (§II-C): watch requests
//! arrive, preliminary bits get set, and the discard phase unset the
//! supernumerary ones so that never more than τ bits survive.
//!
//! Run with: `cargo run --release --example tau_register_demo`

use randomized_renaming::tau::device::{BitOutcome, CountingDevice};
use randomized_renaming::tau::ConcurrentTauRegister;

fn main() {
    // A small device so the bit strings are readable: 8 TAS bits, τ = 3.
    let mut device = CountingDevice::new(8, 3);
    println!("counting device: width 8, τ = 3 (at most 3 confirmed winners ever)\n");

    let cycles: Vec<Vec<(usize, usize)>> = vec![
        // Cycle 0: p0 and p1 pick distinct bits — both admitted.
        vec![(0, 1), (1, 6)],
        // Cycle 1: four processes, two of them colliding on bit 4, and
        // only one quota slot left: the discard phase must unset all but
        // the lowest new bit.
        vec![(2, 4), (3, 4), (4, 2), (5, 7)],
        // Cycle 2: the device is full — everyone loses.
        vec![(6, 0), (7, 3)],
        // Cycle 3: empty cycle, nothing changes.
        vec![],
    ];
    for reqs in &cycles {
        let report = device.clock_cycle(reqs);
        // The processes whose request ended with `outcome`.
        let tags = |outcome| {
            let tags = report.outcomes.iter().filter(|&&(_, o)| o == outcome);
            tags.map(|(t, _)| format!("p{t}")).collect::<Vec<_>>().join(" ")
        };
        // Register values as 8-bit strings, the paper's position 1 on the left.
        println!(
            "cycle {:>3}  in/out {:08b} -> {:08b}  discarded {:08b}  won [{}]  lost [{}]",
            report.cycle,
            report.before,
            report.after,
            report.discarded,
            tags(BitOutcome::Won),
            tags(BitOutcome::Lost),
        );
    }
    println!(
        "\nfinal in_reg/out_reg = {:08b} (popcount {} ≤ τ = {})",
        device.confirmed(),
        device.confirmed_count(),
        device.tau()
    );

    // Now the full τ-register: admitted processes claim names.
    println!("\nτ-register with base name 100:");
    let reg = ConcurrentTauRegister::new(8, 3, 100);
    for (pid, bit) in [(0usize, 1usize), (1, 6), (2, 4), (3, 5)] {
        match reg.acquire(bit) {
            Ok((name, _)) => println!("  p{pid} won bit {bit} and claimed name {name}"),
            Err(_) => println!("  p{pid} lost at bit {bit} (quota or bit taken)"),
        }
    }
    // Every admitted process claims exactly one slot.
    println!("  slots claimed: {}/{}", reg.confirmed_count(), reg.tau());
}
