//! Property-based integration tests (proptest): renaming safety and the
//! τ-register invariants hold for arbitrary sizes, seeds and schedules.

use proptest::prelude::*;
use randomized_renaming::baselines::{BitonicRenaming, UniformProbing};
use randomized_renaming::renaming::traits::{Cor7, Cor9, LooseL6, LooseL8, RenamingAlgorithm};
use randomized_renaming::renaming::TightRenaming;
use randomized_renaming::sched::adversary::{
    Adversary, CollisionMaximizer, CrashAdversary, FairAdversary, RandomAdversary,
};
use randomized_renaming::sched::shard::Arena;
use randomized_renaming::tau::CountingDevice;

fn algo_by_index(i: u8) -> Box<dyn RenamingAlgorithm> {
    match i % 8 {
        0 => Box::new(TightRenaming::calibrated(4)),
        1 => Box::new(TightRenaming::paper_exact(4)),
        2 => Box::new(LooseL6 { ell: 1 }),
        3 => Box::new(LooseL8 { ell: 1 }),
        4 => Box::new(Cor7 { ell: 1 }),
        5 => Box::new(Cor9 { ell: 1 }),
        6 => Box::new(BitonicRenaming),
        _ => Box::new(UniformProbing::double()),
    }
}

fn adversary_by_index(i: u8, seed: u64) -> Box<dyn Adversary> {
    match i % 4 {
        0 => Box::new(FairAdversary::default()),
        1 => Box::new(RandomAdversary::new(seed)),
        2 => Box::new(CollisionMaximizer::default()),
        _ => Box::new(CrashAdversary::new(RandomAdversary::new(seed), 0.05, 16, seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fundamental safety property, fuzzed across the whole space of
    /// (algorithm, adversary, n, seed).
    #[test]
    fn renaming_safety_holds_everywhere(
        algo_i in 0u8..8,
        adv_i in 0u8..4,
        n in 8usize..200,
        seed in 0u64..1000,
    ) {
        let algo = algo_by_index(algo_i);
        let m = algo.m(n);
        let mut adv = adversary_by_index(adv_i, seed);
        let out = algo.run_dense(n, seed, adv.as_mut(), &mut Arena::new()).unwrap();
        prop_assert!(out.verify_renaming(m).is_ok());
        if !algo.almost_tight() {
            prop_assert_eq!(out.gave_up_count(), 0);
        }
    }

    /// Tight protocols emit exactly the names [0, n) when nobody crashes.
    #[test]
    fn tight_names_are_a_permutation(
        variant in 0u8..2,
        n in 8usize..150,
        seed in 0u64..500,
    ) {
        let algo: Box<dyn RenamingAlgorithm> = if variant == 0 {
            Box::new(TightRenaming::calibrated(4))
        } else {
            Box::new(TightRenaming::paper_exact(4))
        };
        let out = algo.run_dense(n, seed, &mut RandomAdversary::new(seed), &mut Arena::new()).unwrap();
        let mut names: Vec<usize> = out.names.iter().flatten().copied().collect();
        names.sort_unstable();
        prop_assert_eq!(names, (0..n).collect::<Vec<_>>());
    }

    /// The counting device never exceeds τ and only monotonically sets
    /// bits, for arbitrary cycle schedules (public-API version of the
    /// rr-tau unit property).
    #[test]
    fn device_quota_safety(
        width in 1u32..=64,
        tau_raw in 0u32..=64,
        schedule in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u32..64), 0..12), 0..12),
    ) {
        let tau = tau_raw.min(width);
        let mut device = CountingDevice::new(width, tau);
        let mut prev = 0u64;
        for batch in schedule {
            let reqs: Vec<(usize, usize)> = batch
                .into_iter()
                .map(|(t, b)| (t, (b % width) as usize))
                .collect();
            device.clock_cycle(&reqs);
            prop_assert!(device.confirmed_count() <= tau);
            prop_assert_eq!(device.confirmed() & prev, prev);
            prev = device.confirmed();
        }
    }

    /// Crash storms: survivors are always fully named; names never
    /// duplicate no matter how many processes die.
    #[test]
    fn survivors_always_named(
        n in 16usize..128,
        budget in 0usize..64,
        seed in 0u64..300,
    ) {
        let algo = TightRenaming::calibrated(4);
        let mut adv = CrashAdversary::new(FairAdversary::default(), 0.3, budget, seed);
        let out = algo.run_dense(n, seed, &mut adv, &mut Arena::new()).unwrap();
        let crashed = out.crashed.iter().filter(|&&c| c).count();
        let named = out.names.iter().filter(|x| x.is_some()).count();
        prop_assert_eq!(named + crashed, n);
        prop_assert!(out.verify_renaming(n).is_ok());
    }
}
