//! Integration tests for the model extensions: adaptive renaming and
//! long-lived renaming.

use randomized_renaming::renaming::adaptive::AdaptiveRenaming;
use randomized_renaming::renaming::longlived::{LongLivedClient, ReleasableTasArray};
use randomized_renaming::renaming::traits::RenamingAlgorithm;
use randomized_renaming::sched::adversary::{CrashAdversary, FairAdversary, RandomAdversary};
use randomized_renaming::sched::shard::Arena;
use std::collections::HashSet;

#[test]
fn adaptive_under_crashes_names_all_survivors() {
    let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(256, 1024, 3);
    let mut adv = CrashAdversary::new(FairAdversary::default(), 0.05, 50, 9);
    let out = Arena::new().run(&mut procs, &mut adv, 1 << 28).unwrap();
    out.verify_renaming(shared.layout().total).unwrap();
    let crashed = out.crashed.iter().filter(|&&c| c).count();
    let named = out.names.iter().filter(|x| x.is_some()).count();
    assert_eq!(named + crashed, 256);
}

#[test]
fn adaptive_name_usage_is_linear_in_k_across_seeds() {
    for seed in 0..5 {
        for k in [16usize, 128] {
            let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(k, 4096, seed);
            let out =
                Arena::new().run(&mut procs, &mut RandomAdversary::new(seed), 1 << 28).unwrap();
            out.verify_renaming(shared.layout().total).unwrap();
            assert_eq!(out.gave_up_count(), 0);
            let max_name = out.names.iter().flatten().max().copied().unwrap();
            assert!(max_name < 12 * k, "k={k} seed={seed}: max name {max_name}");
        }
    }
}

#[test]
fn adaptive_through_renaming_algorithm_trait() {
    let m = RenamingAlgorithm::m(&AdaptiveRenaming, 128);
    let out = AdaptiveRenaming
        .run_dense(128, 7, &mut FairAdversary::default(), &mut Arena::new())
        .unwrap();
    out.verify_renaming(m).unwrap();
    assert_eq!(out.gave_up_count(), 0);
}

#[test]
fn longlived_names_stay_distinct_across_generations() {
    // Interleaved acquire/release with different hold patterns: at no
    // point may two clients hold the same name.
    let n = 48;
    let names = ReleasableTasArray::new(n * 2);
    let mut clients: Vec<_> = (0..n).map(|p| LongLivedClient::new(p, 11)).collect();
    for round in 0..200 {
        // Odd clients churn every round; even clients hold for two.
        for c in clients.iter_mut() {
            if c.held().is_none() {
                c.acquire(&names);
            }
        }
        let held: HashSet<_> = clients.iter().filter_map(|c| c.held()).collect();
        assert_eq!(held.len(), n, "duplicate held names in round {round}");
        for c in clients.iter_mut() {
            let release_now = c.pid() % 2 == 1 || round % 2 == 1;
            if release_now && c.held().is_some() {
                c.release(&names);
            }
        }
    }
}

#[test]
fn longlived_amortized_cost_independent_of_history() {
    let n = 128;
    let names = ReleasableTasArray::new(2 * n);
    let mut clients: Vec<_> = (0..n).map(|p| LongLivedClient::new(p, 5)).collect();
    let mut window_costs = Vec::new();
    for _window in 0..4 {
        let before: u64 = clients.iter().map(|c| c.stats().0).sum();
        for _ in 0..100 {
            for c in clients.iter_mut() {
                c.acquire(&names);
            }
            for c in clients.iter_mut() {
                c.release(&names);
            }
        }
        let after: u64 = clients.iter().map(|c| c.stats().0).sum();
        window_costs.push((after - before) as f64 / (100 * n) as f64);
    }
    // No upward drift: last window within 25% of the first.
    assert!(
        window_costs[3] < window_costs[0] * 1.25 + 0.2,
        "amortized cost drifts: {window_costs:?}"
    );
}
