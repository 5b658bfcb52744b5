//! Property tests over the tape machinery: for registry adversaries and
//! the schedule-space searchers' schedules, (1) recording a run's
//! decision tape and replaying it through [`ReplayAdversary`] reproduces
//! a bit-identical [`BatchStats`] — schedules are faithful, storable
//! artifacts (the f64 fields are compared by bits, not tolerance) — and
//! (2) ddmin-shrunk tapes keep failing and replay to identical
//! [`RunOutcome`]s, so a shrunk counterexample is as trustworthy an
//! artifact as the original.

use proptest::prelude::*;
use rr_bench::runner::{run_once, BatchStats, ExecBackend};
use rr_renaming::traits::{LooseL6, RenamingAlgorithm};
use rr_renaming::TightRenaming;
use rr_sched::explore::{shrink_tape, ExhaustiveExplorer, FuzzExplorer, TolerantReplay};
use rr_sched::registry::{standard, ParsedKey};
use rr_sched::replay::{RecordingAdversary, ReplayAdversary, Tape};
use rr_sched::shard::Arena;
use rr_sched::virtual_exec::RunOutcome;
use rr_sched::Adversary;

/// Five registry strategies (crash in both a light and a heavy
/// parameterization) and the schedule-space searchers' first schedules
/// (see [`adversary`]).
const ADVERSARIES: &[&str] = &[
    "fair",
    "random",
    "collisions",
    "stall",
    "crash:p=100,cap=10",
    "crash:p=500,cap=50",
    "explore:depth=6",
    "explore:depth=4,crashes=2",
    "fuzz:rounds=8,strength=400",
];

/// A fresh adversary for one `ADVERSARIES` entry at `(n, seed)`. A
/// registry key builds through the registry; `explore:depth=D,crashes=C`
/// is an `ExhaustiveExplorer`'s first schedule and
/// `fuzz:rounds=R,strength=S` a fresh `FuzzExplorer`'s round for `seed`
/// — the schedules a searcher hands out first, so each tape is
/// deterministic.
fn adversary(key: &str, n: usize, seed: u64) -> Box<dyn Adversary> {
    let parsed = ParsedKey::parse(key).expect("well-formed key");
    let get = |name, default| parsed.get(name, default).expect("numeric parameter");
    match parsed.name.as_str() {
        "explore" => Box::new(
            ExhaustiveExplorer::new(get("depth", 6), get("crashes", 0))
                .next_adversary()
                .expect("a fresh explorer has a first schedule"),
        ),
        "fuzz" => Box::new(
            FuzzExplorer::new(0, get("strength", 250) as u32, get("rounds", 64))
                .next_adversary(seed),
        ),
        _ => standard().build(key, n, seed).expect("registry key"),
    }
}

fn assert_bit_identical(a: &BatchStats, b: &BatchStats, what: &str) {
    assert_eq!(a.step_complexity, b.step_complexity, "{what}: step_complexity");
    assert_eq!(a.unnamed, b.unnamed, "{what}: unnamed");
    assert_eq!(a.crashed, b.crashed, "{what}: crashed");
    assert_eq!(a.runs, b.runs, "{what}: runs");
    assert_eq!(a.violations, b.violations, "{what}: violations");
    let ab: Vec<u64> = a.mean_steps.iter().map(|f| f.to_bits()).collect();
    let bb: Vec<u64> = b.mean_steps.iter().map(|f| f.to_bits()).collect();
    assert_eq!(ab, bb, "{what}: mean_steps bits");
}

/// One audited run of `algo` on the dense backend in the default RNG
/// mode under `adversary`.
fn audited_run(
    algo: &dyn RenamingAlgorithm,
    n: usize,
    seed: u64,
    adversary: &mut dyn Adversary,
) -> RunOutcome {
    run_once(algo, n, seed, ExecBackend::Dense, adversary, &mut Arena::new())
}

fn record_then_replay(algo: &dyn RenamingAlgorithm, n: usize, seed: u64, key: &str) {
    let mut recorder = RecordingAdversary::new(adversary(key, n, seed));
    let recorded_out = audited_run(algo, n, seed, &mut recorder);
    let tape = recorder.into_tape();
    assert_eq!(tape.len() as u64, recorded_out.decisions, "{key}: tape covers every decision");

    let mut replayer = ReplayAdversary::new(tape);
    let replayed_out = audited_run(algo, n, seed, &mut replayer);

    let recorded = BatchStats::from_outcomes([&recorded_out], n);
    let replayed = BatchStats::from_outcomes([&replayed_out], n);
    assert_bit_identical(&recorded, &replayed, &format!("{} under {key}", algo.name()));
    // The raw outcomes must agree too, not just the aggregates.
    assert_eq!(recorded_out.names, replayed_out.names, "{key}: names");
    assert_eq!(recorded_out.steps, replayed_out.steps, "{key}: steps");
    assert_eq!(recorded_out.crashed, replayed_out.crashed, "{key}: crashed");
}

proptest! {
    /// Tight renaming (no legitimate give-ups) under every adversary.
    #[test]
    fn tape_replay_is_bit_identical_for_tight(n in 24usize..96, seed in 0u64..1000) {
        let algo = TightRenaming::calibrated(4);
        for key in ADVERSARIES {
            record_then_replay(&algo, n, seed, key);
        }
    }

    /// An almost-tight protocol (exercises the unnamed counts) under
    /// every adversary.
    #[test]
    fn tape_replay_is_bit_identical_for_almost_tight(n in 24usize..96, seed in 0u64..1000) {
        let algo = LooseL6 { ell: 1 };
        for key in ADVERSARIES {
            record_then_replay(&algo, n, seed, key);
        }
    }
}

/// Replays `tape` tolerantly against a fresh instance of `algo`.
fn tolerant_replay(algo: &dyn RenamingAlgorithm, n: usize, seed: u64, tape: &Tape) -> RunOutcome {
    algo.run_dense(n, seed, &mut TolerantReplay::new(tape.clone()), &mut Arena::new())
        .expect("tolerant replay within the default budget")
}

fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.names, b.names, "{what}: names");
    assert_eq!(a.steps, b.steps, "{what}: steps");
    assert_eq!(a.crashed, b.crashed, "{what}: crashed");
    assert_eq!(a.gave_up, b.gave_up, "{what}: gave_up");
    assert_eq!(a.decisions, b.decisions, "{what}: decisions");
}

proptest! {
    /// Shrinking soundness, outcome flavor: take a recorded failing tape
    /// (failure = "the schedule forces the recorded worst-case step
    /// complexity"), ddmin it, and check the shrunk tape (1) still fails,
    /// (2) is no longer than the original, and (3) replays to the
    /// **identical** `RunOutcome` every time — a shrunk counterexample is
    /// as deterministic an artifact as the original failing tape.
    #[test]
    fn shrunk_tapes_keep_failing_and_replay_identically(n in 12usize..40, seed in 0u64..200) {
        let algo = TightRenaming::calibrated(4);
        for key in ADVERSARIES {
            let mut recorder = RecordingAdversary::new(adversary(key, n, seed));
            let original_out = audited_run(&algo, n, seed, &mut recorder);
            let tape = recorder.into_tape();
            let worst = original_out.step_complexity();
            let fails = |t: &Tape| tolerant_replay(&algo, n, seed, t).step_complexity() >= worst;
            prop_assert!(fails(&tape), "{key}: the original failing tape must fail");

            let shrunk = shrink_tape(&tape, fails);
            prop_assert!(shrunk.len() <= tape.len(), "{key}: shrinking never grows a tape");
            let replay_a = tolerant_replay(&algo, n, seed, &shrunk);
            let replay_b = tolerant_replay(&algo, n, seed, &shrunk);
            prop_assert!(
                replay_a.step_complexity() >= worst,
                "{key}: shrunk tape no longer exhibits the failure"
            );
            assert_outcomes_identical(&replay_a, &replay_b, &format!("{key} shrunk replay"));
        }
    }

    /// Shrinking soundness, executor-error flavor: replaying under a
    /// step budget below the recorded run's total work fails with the
    /// budget error; the ddmin-shrunk tape reproduces the **identical**
    /// failure, deterministically, for every adversary above.
    #[test]
    fn shrunk_tapes_reproduce_identical_budget_failures(n in 12usize..40, seed in 0u64..200) {
        let algo = TightRenaming::calibrated(4);
        for key in ADVERSARIES {
            let mut recorder = RecordingAdversary::new(adversary(key, n, seed));
            let out = audited_run(&algo, n, seed, &mut recorder);
            let tape = recorder.into_tape();
            let budget = out.total_steps() / 2;
            let failing_run = |adv: &mut dyn Adversary| -> Result<RunOutcome, String> {
                let mut processes = algo.instantiate(n, seed).processes;
                Arena::new().run(&mut processes, adv, budget).map_err(|e| e.to_string())
            };
            let original_err = failing_run(&mut ReplayAdversary::new(tape.clone()))
                .expect_err("half the work cannot fit the budget");

            let shrunk = shrink_tape(&tape, |t| {
                failing_run(&mut TolerantReplay::new(t.clone())).is_err()
            });
            let shrunk_err = failing_run(&mut TolerantReplay::new(shrunk.clone()))
                .expect_err("shrunk tape must keep failing");
            prop_assert_eq!(
                &shrunk_err, &original_err,
                "{} at n={}, seed {}: shrunk failure diverged", key, n, seed
            );
            let again = failing_run(&mut TolerantReplay::new(shrunk.clone()))
                .expect_err("replaying a shrunk tape is deterministic");
            prop_assert_eq!(&again, &shrunk_err, "{}: shrunk replay not deterministic", key);
        }
    }
}
