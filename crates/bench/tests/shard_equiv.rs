//! Property coverage for the sharded execution core: the round-robin
//! partition plus the deterministic global merge must be *lossless*.
//!
//! Under an adversary that never reads the cross-shard view (`random`
//! consumes only its own RNG and the local active set), each shard of a
//! coupled run is indistinguishable from a standalone dense run of the
//! same sub-instance at `shard_seed(seed, s)`. So for random
//! `(n, S, seed)` the merged outcome must equal the `S` standalone runs
//! stitched back through [`ShardMap`]: per-pid step counts preserved
//! exactly, names offset by each shard's namespace prefix, and the
//! total decision count the sum of the parts.

use proptest::prelude::*;
use rr_bench::runner::run_once_sharded;
use rr_bench::scenario::registry;
use rr_sched::ids::{LocalIdx, Pid, ShardId, ShardMap};
use rr_sched::registry::standard;
use rr_sched::shard::{shard_seed, Arena};
use rr_shmem::rng::RngMode;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partition + merge preserves per-pid step counts and offsets
    /// names by the shard namespace prefix, for random (n, S, seed).
    #[test]
    fn shard_merge_preserves_per_pid_outcomes(
        n in 8usize..96,
        s in 1usize..6,
        seed in 0u64..1000,
    ) {
        let s = s.min(n);
        let reg = registry();
        let algo = reg.build("tight-tau:c=4").unwrap();
        let build = standard().prepare("random").unwrap();

        let merged = run_once_sharded(
            algo.as_ref(),
            n,
            seed,
            RngMode::default(),
            &|n_s, sub_seed| build(n_s, sub_seed),
            s,
        );

        let map = ShardMap::new(s);
        let mut name_offset = 0usize;
        let mut decisions = 0u64;
        for shard in map.shard_ids() {
            let n_s = map.shard_len(shard, n);
            let sub_seed = shard_seed(seed, shard);
            let mut adversary = build(n_s, sub_seed);
            let standalone = algo
                .run_dense(n_s, sub_seed, adversary.as_mut(), &mut Arena::new())
                .unwrap();
            decisions += standalone.decisions;
            for l in (0..n_s).map(LocalIdx::new) {
                let p = map.global_of(shard, l);
                // The standalone sub-run's pid space *is* the shard's
                // local slot space.
                let lp = Pid::new(l.index());
                prop_assert_eq!(
                    merged.steps[p], standalone.steps[lp],
                    "steps diverged at pid {} (shard {}, slot {})", p, shard, l
                );
                prop_assert_eq!(
                    merged.names[p],
                    standalone.names[lp].map(|name| name + name_offset),
                    "name diverged at pid {} (shard {}, slot {})", p, shard, l
                );
                prop_assert_eq!(
                    merged.crashed[p], standalone.crashed[lp],
                    "crash flag diverged at pid {} (shard {}, slot {})", p, shard, l
                );
            }
            name_offset += algo.m(n_s);
        }
        prop_assert_eq!(merged.decisions, decisions, "merge must sum shard decision counts");
    }

    /// The merged outcome is a pure function of (seed, S): running the
    /// identical configuration twice gives bit-identical outcomes.
    #[test]
    fn sharded_run_is_deterministic(
        n in 8usize..96,
        s in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Cor9's schedule construction needs n ≥ 4 in every shard.
        let s = s.min(n / 4).max(1);
        let reg = registry();
        let algo = reg.build("cor9").unwrap();
        let build = standard().prepare("random").unwrap();
        let run = || {
            run_once_sharded(algo.as_ref(), n, seed, RngMode::default(), &|n_s, sub| build(n_s, sub), s)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.names, b.names);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.crashed, b.crashed);
        prop_assert_eq!(a.decisions, b.decisions);
    }
}

/// Shard seeds must decorrelate the sub-instances (identical seeds would
/// make every shard's pid-0 coin stream identical — a modelling bug the
/// striped partition is meant to avoid) while keeping shard 0 at the
/// caller's seed so s=1 degenerates to the serial run.
#[test]
fn shard_seeds_are_identity_at_zero_and_distinct() {
    assert_eq!(shard_seed(42, ShardId::new(0)), 42);
    let seeds: Vec<u64> = (0..8).map(|s| shard_seed(42, ShardId::new(s))).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len(), "shard seeds must be pairwise distinct");
}
