//! Small-scale executable versions of the paper's quantitative claims —
//! the same checks the E-series experiments run at full size, shrunk so
//! `cargo test` alone validates the headline results.

use randomized_renaming::analysis::ballsbins::{lemma3_bound, simulate_lemma3};
use randomized_renaming::renaming::traits::{Cor7, Cor9, LooseL6, LooseL8, RenamingAlgorithm};
use randomized_renaming::renaming::{Lemma6Schedule, Lemma8Schedule, TightRenaming};
use randomized_renaming::sched::adversary::FairAdversary;
use randomized_renaming::sched::shard::Arena;
use randomized_renaming::sched::virtual_exec::RunOutcome;

fn run_fair(algo: &dyn RenamingAlgorithm, n: usize, seed: u64) -> RunOutcome {
    let m = algo.m(n);
    let out = algo.run_dense(n, seed, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
    out.verify_renaming(m).unwrap();
    out
}

#[test]
fn theorem5_step_complexity_is_logarithmic_quick() {
    // Fast CI cut of the test below: 16× growth in n, 2 seeds.
    let mut worst_ratio: f64 = 0.0;
    for n in [1usize << 8, 1 << 12] {
        for seed in 0..2 {
            let out = run_fair(&TightRenaming::calibrated(4), n, seed);
            assert_eq!(out.gave_up_count(), 0);
            let ratio = out.step_complexity() as f64 / (n as f64).log2();
            worst_ratio = worst_ratio.max(ratio);
        }
    }
    assert!(worst_ratio < 12.0, "Theorem 5 ratio blew up: {worst_ratio}");
}

/// The tier-1 promotion of `theorem5_step_complexity_is_logarithmic`:
/// instead of sampling a few seeds under the fair schedule, exhaust
/// **every** schedule of a bounded tree (an `ExhaustiveExplorer` of
/// depth 5) at n ≤ 6 and bound the *worst-case* step complexity over
/// all of them. The large randomized sweep stays `slow-tests`-gated
/// below.
#[test]
fn theorem5_exhaustive_small_n_worst_case() {
    use randomized_renaming::sched::explore::ExhaustiveExplorer;
    use randomized_renaming::sched::Arena;

    let algo = TightRenaming::calibrated(4);
    let mut arena = Arena::new();
    for n in [4usize, 5, 6] {
        // Fixed workload, so any tree-shape drift panics.
        let mut explorer = ExhaustiveExplorer::new(5, 0);
        let mut worst = 0u64;
        while let Some(mut adv) = explorer.next_adversary() {
            let out = algo
                .run_dense(n, 0, &mut adv, &mut arena)
                .unwrap_or_else(|e| panic!("n={n}: {e}\n  tape: `{}`", adv.tape().to_text()));
            out.verify_renaming(algo.m(n))
                .unwrap_or_else(|v| panic!("n={n}: {v}\n  tape: `{}`", adv.tape().to_text()));
            assert_eq!(out.gave_up_count(), 0, "tight renaming never gives up (n={n})");
            worst = worst.max(out.step_complexity());
            explorer.record(&adv);
        }
        assert!(explorer.visited() > 0);
        // Worst case over the whole bounded schedule space stays within
        // a small constant × n — far below the 200·n·(log₂ n + 16)
        // step budget, and schedule-independent in order of magnitude.
        assert!(
            worst <= 4 * n as u64,
            "n={n}: exhaustive worst-case step complexity {worst} blew past 4n"
        );
    }
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "multi-second sweep; run with --features slow-tests (or -- --ignored)"
)]
fn theorem5_step_complexity_is_logarithmic() {
    // Step complexity / log2(n) bounded by a constant across a 64×
    // growth in n (5 seeds each).
    let mut worst_ratio: f64 = 0.0;
    for n in [1usize << 8, 1 << 11, 1 << 14] {
        for seed in 0..5 {
            let out = run_fair(&TightRenaming::calibrated(4), n, seed);
            assert_eq!(out.gave_up_count(), 0);
            let ratio = out.step_complexity() as f64 / (n as f64).log2();
            worst_ratio = worst_ratio.max(ratio);
        }
    }
    assert!(worst_ratio < 12.0, "Theorem 5 ratio blew up: {worst_ratio}");
}

#[test]
fn theorem5_space_is_linear() {
    use randomized_renaming::renaming::TightPlan;
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        let plan = TightPlan::calibrated(n, 4);
        let space = plan.total_bits() + plan.total_names();
        assert!(space <= 4 * n, "space {space} not O(n) at n={n}");
    }
}

#[test]
fn lemma3_holds_at_c_4() {
    // c = 4 = 2ℓ+2 at ℓ=1 ⇒ violation probability ≤ 1/n; at 5000 trials
    // and n = 4096 we expect zero violations.
    let r = simulate_lemma3(1 << 12, 4, 5000, 1);
    assert_eq!(r.violations, 0);
    assert!(lemma3_bound(1 << 12, 4) < 1.0 / 4096.0);
}

#[test]
fn lemma6_unnamed_bound_holds() {
    for ell in [1u32, 2] {
        let n = 1 << 12;
        let bound = Lemma6Schedule::new(n, ell).unnamed_bound;
        for seed in 0..5 {
            let out = run_fair(&LooseL6 { ell }, n, seed);
            assert!(
                (out.gave_up_count() as f64) <= bound,
                "l={ell} seed={seed}: {} > {bound}",
                out.gave_up_count()
            );
        }
    }
}

#[test]
fn lemma6_steps_within_schedule() {
    let n = 1 << 12;
    for ell in [1u32, 2, 3] {
        let schedule = Lemma6Schedule::new(n, ell);
        let out = run_fair(&LooseL6 { ell }, n, 3);
        assert!(out.step_complexity() <= schedule.total_steps);
    }
}

#[test]
fn lemma8_unnamed_and_steps() {
    let n = 1 << 12;
    for ell in [1u32, 2] {
        let schedule = Lemma8Schedule::new(n, ell);
        let out = run_fair(&LooseL8 { ell }, n, 9);
        assert!(out.step_complexity() <= schedule.total_steps());
        // Bound with a small constant for finite-n slack (the paper's
        // bound is asymptotic).
        let bound = 4.0 * schedule.unnamed_bound + schedule.capacity() as f64 * 0.0 + 8.0;
        assert!(
            (out.gave_up_count() as f64) <= bound + (n - schedule.capacity()) as f64,
            "l={ell}: unnamed {}",
            out.gave_up_count()
        );
    }
}

#[test]
fn corollary7_full_renaming_in_its_space() {
    for ell in [1u32, 2] {
        let n = 1 << 12;
        let algo = Cor7 { ell };
        let out = run_fair(&algo, n, 5);
        assert_eq!(out.gave_up_count(), 0, "Cor 7 must name everyone");
        // Step complexity ≪ log n (the poly-log-log claim, coarsely).
        assert!(
            out.step_complexity() < 20 * ((n as f64).log2() as u64),
            "steps {}",
            out.step_complexity()
        );
    }
}

#[test]
fn corollary9_full_renaming_in_its_space() {
    for ell in [1u32, 2] {
        let n = 1 << 12;
        let algo = Cor9 { ell };
        let out = run_fair(&algo, n, 5);
        assert_eq!(out.gave_up_count(), 0, "Cor 9 must name everyone");
        let m = algo.m(n);
        // (1 + o(1))·n: the slack is ≤ 2n/log n at ℓ=1.
        assert!(m - n <= 2 * n / 12 + 1);
    }
}

#[test]
fn loose_is_asymptotically_cheaper_than_tight() {
    // The motivation table of §I: loose renaming at (1+o(1))n names is
    // markedly cheaper than tight renaming even at modest n.
    let n = 1 << 14;
    let tight = run_fair(&TightRenaming::calibrated(4), n, 2);
    let loose = run_fair(&Cor9 { ell: 1 }, n, 2);
    assert!(
        loose.step_complexity() * 2 < tight.step_complexity(),
        "loose {} vs tight {}",
        loose.step_complexity(),
        tight.step_complexity()
    );
}
