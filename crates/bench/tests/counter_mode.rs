//! Property coverage for the counter RNG backend across the full
//! algorithm registry.
//!
//! `rng:mode=counter` is a flagged modelling change: processes draw
//! from a SplitMix64 counter stream (amortized coin blocks, mask-path
//! index draws) instead of the reproduction-grade ChaCha8 stream. The
//! change is allowed to move step counts — it must **never** move
//! safety. For random `(algorithm, n, seed, adversary)` cells of the
//! registry matrix the counter-mode run must still rename uniquely
//! into the declared space, stay within the step budget, and keep the
//! step totals in the same envelope the default stream satisfies (the
//! Lemma-bound claim checks in `rr-report` read these totals; a draw
//! loop that redraws forever or a coin block that repeats would blow
//! the envelope long before it corrupts a name).

use proptest::prelude::*;
use rr_bench::runner::{run_once, ExecBackend};
use rr_bench::scenario::registry;
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;

/// Keys whose protocols are total under the fair schedule (every
/// process names itself; the loose lemma stages leave stragglers by
/// design and are excluded).
const TOTAL_UNDER_FAIR: &[&str] = &[
    "aagw",
    "adaptive",
    "bitonic",
    "cor7",
    "cor9",
    "fetch-add",
    "linear-scan",
    "route",
    "splitter-grid",
    "tight-tau",
    "tight-tau-paper",
    "uniform",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety and step-envelope over random registry cells in counter
    /// mode. `run_once` already panics on a renaming-safety
    /// violation; the properties are also spelled out so a failure
    /// names what broke.
    #[test]
    fn counter_mode_preserves_safety_across_the_registry(
        key_idx in 0usize..14,
        n_exp in 4u32..9,
        seed in 0u64..1000,
        adv_idx in 0usize..3,
    ) {
        let reg = registry();
        let mut keys = reg.keys();
        keys.sort_unstable();
        prop_assert_eq!(keys.len(), 14, "registry drifted; widen key_idx");
        let key = keys[key_idx];
        let n = 1usize << n_exp;
        let adversary = ["fair", "random", "stall"][adv_idx];

        let algo = reg.build(key).unwrap();
        let mut adv = standard().build(adversary, n, seed).unwrap();
        let out = run_once(
            algo.as_ref(),
            n,
            seed,
            RngMode::Counter,
            ExecBackend::Dense,
            adv.as_mut(),
            &mut Arena::new(),
        );

        // Unique names, valid range — the invariant the mode may never move.
        let m = algo.m(n);
        let mut names: Vec<usize> = out.names.iter().flatten().copied().collect();
        for &name in &names {
            prop_assert!(name < m, "{key}: name {name} outside m={m} (n={n}, seed {seed})");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        prop_assert_eq!(names.len(), before, "{} assigned a duplicate name", key);

        // Step envelope: within the declared budget, like the default
        // stream (the executor would have errored far above this).
        prop_assert!(out.step_complexity() <= algo.step_budget(n));

        // Totality where the protocol promises it.
        if adversary == "fair" && TOTAL_UNDER_FAIR.contains(&key) {
            prop_assert_eq!(
                out.gave_up_count(), 0,
                "{} must stay total under the fair schedule in counter mode", key
            );
        }
    }

    /// The counter stream must not change the *order* of work: at the
    /// same cell, counter-mode total steps stay within a generous
    /// constant factor of the ChaCha8 totals (a rejection loop that
    /// redraws forever, or a coin block that replays, blows this long
    /// before any Lemma-envelope claim check would see it).
    #[test]
    fn counter_mode_step_totals_stay_in_the_default_envelope(
        key_idx in 0usize..14,
        n_exp in 6u32..9,
        seed in 0u64..1000,
    ) {
        let reg = registry();
        let mut keys = reg.keys();
        keys.sort_unstable();
        let key = keys[key_idx];
        let n = 1usize << n_exp;

        let algo = reg.build(key).unwrap();
        let run = |rng| {
            let mut adv = standard().build("fair", n, seed).unwrap();
            run_once(
                algo.as_ref(),
                n,
                seed,
                rng,
                ExecBackend::Dense,
                adv.as_mut(),
                &mut Arena::new(),
            )
            .total_steps()
        };
        let chacha = run(RngMode::ChaCha8).max(1);
        let counter = run(RngMode::Counter).max(1);
        prop_assert!(
            counter <= 8 * chacha && chacha <= 8 * counter,
            "{key}: counter-mode totals left the default envelope at n={n}, seed {seed}: \
             {counter} vs {chacha}"
        );
    }
}
