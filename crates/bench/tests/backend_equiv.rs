//! Cross-backend equivalence: the contract that makes `--backend` a
//! free choice rather than a different experiment.
//!
//! * Boxed processes (`Box<dyn Process>`, what the `threads` backend
//!   and heterogeneous workloads run) must reproduce the typed dense
//!   run **bit for bit** for every registry algorithm under every
//!   registry adversary — same outcome, same RNG draws. This pins the
//!   `Box<P>` forwarding of `announce`, `step` and `rng_words` against
//!   typed dispatch.
//! * `shard:s=1` is the degenerate partition (one shard, identity
//!   sub-seed, identity pid map) and must be bit-identical to `dense`.
//! * `threads` is free-running (the machine schedules), so its step
//!   counts are not reproducible — but it must still satisfy
//!   `verify_renaming` and account for every process.
//!
//! Both key axes are enumerated **from the registries**, never from a
//! hand-written list: a future algorithm or adversary key lands in the
//! sweep the moment it is registered and can never be silently skipped.
//! Every adversary is swept through its registry `example` key, so
//! parameterized strategies are exercised with their parameters bound.

mod common;

use common::swept_adversary_keys;
use rr_bench::runner::{BatchRun, BatchStats, ExecBackend};
use rr_bench::scenario::registry;
use rr_renaming::registry::BoxedAlgorithm;
use rr_sched::process::Process;
use rr_sched::registry::standard;
use rr_sched::shard::Arena;

/// Sizes small enough that the full registry × adversary sweep stays in
/// CI territory while still exercising multi-round protocol behaviour.
const N: usize = 64;
const SEEDS: u64 = 2;

fn batch(
    algo: &BoxedAlgorithm,
    n: usize,
    seeds: u64,
    adv_key: &str,
    backend: ExecBackend,
    workers: usize,
) -> BatchStats {
    BatchRun::new(algo.as_ref(), n)
        .seeds(seeds)
        .adversary(adv_key)
        .backend(backend)
        .workers(workers)
        .stats()
        .unwrap()
}

fn assert_bit_identical(a: &BatchStats, b: &BatchStats, ctx: &str) {
    assert_eq!(a.step_complexity, b.step_complexity, "{ctx}");
    assert_eq!(a.total_steps, b.total_steps, "{ctx}");
    assert_eq!(a.unnamed, b.unnamed, "{ctx}");
    assert_eq!(a.crashed, b.crashed, "{ctx}");
    assert_eq!(a.runs, b.runs, "{ctx}");
    assert_eq!(a.violations, b.violations, "{ctx}");
    // f64 equality is bit equality — no tolerance.
    let ab: Vec<u64> = a.mean_steps.iter().map(|f| f.to_bits()).collect();
    let bb: Vec<u64> = b.mean_steps.iter().map(|f| f.to_bits()).collect();
    assert_eq!(ab, bb, "{ctx}");
}

/// The virtual path — the boxed [`Instance`](rr_renaming::traits::Instance)
/// processes on an arena — against the typed dense `run_dense` path,
/// seed by seed: the full outcome and the summed RNG words must agree.
#[test]
fn dense_matches_virtual_bit_for_bit_for_every_algorithm_and_adversary() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        for adv_key in swept_adversary_keys() {
            for seed in 0..SEEDS {
                let ctx = format!("{algo_key} under {adv_key}, seed {seed}");
                let mut adv = standard().build(adv_key, N, seed).unwrap();
                let mut processes = algo.instantiate(N, seed).processes;
                let boxed = Arena::new()
                    .run(&mut processes, adv.as_mut(), algo.step_budget(N))
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // `Process::rng_words` with `Self = Box<_>`: method
                // syntax on a box would call the trait object
                // directly and skip the forwarding under test.
                let boxed_words: u64 = processes.iter().filter_map(Process::rng_words).sum();

                let mut adv = standard().build(adv_key, N, seed).unwrap();
                let (typed, typed_words) = algo
                    .run_dense_with_draws(N, seed, adv.as_mut(), &mut Arena::new())
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));

                assert_eq!(boxed.names, typed.names, "{ctx}: names");
                assert_eq!(boxed.steps, typed.steps, "{ctx}: steps");
                assert_eq!(boxed.crashed, typed.crashed, "{ctx}: crashed");
                assert_eq!(boxed.gave_up, typed.gave_up, "{ctx}: gave_up");
                assert_eq!(boxed.decisions, typed.decisions, "{ctx}: decisions");
                assert_eq!(boxed_words, typed_words, "{ctx}: rng words");
            }
        }
    }
}

/// The shard backend with a single shard must be indistinguishable from
/// the serial dense core, for every registry cell: `shard_seed` leaves
/// shard 0's seed untouched and the partition is the identity — so any
/// divergence here is a sharding bug, not a modelling choice.
#[test]
fn shard_with_one_shard_matches_dense_bit_for_bit_for_every_algorithm_and_adversary() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        for adv_key in swept_adversary_keys() {
            let dense = batch(&algo, N, SEEDS, adv_key, ExecBackend::Dense, 1);
            let shard = batch(&algo, N, SEEDS, adv_key, ExecBackend::Shard { s: 1 }, 1);
            assert_bit_identical(&dense, &shard, &format!("{algo_key} under {adv_key}"));
        }
    }
}

/// `shard:s=K` for K > 1 is not bit-identical to dense — the partition
/// changes every sub-instance — but it must be a pure function of
/// (seed, K): the same stats whatever the batch worker count, and the
/// renaming audit must pass for every registry algorithm.
#[test]
fn shard_with_many_shards_is_deterministic_for_every_algorithm() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        let a = batch(&algo, N, 2, "random", ExecBackend::Shard { s: 4 }, 1);
        let b = batch(&algo, N, 2, "random", ExecBackend::Shard { s: 4 }, 2);
        assert_bit_identical(&a, &b, &format!("{algo_key}: shard:s=4 across worker counts"));
    }
}

/// Every registry algorithm must pass the renaming audit on the threads
/// backend, with every process accounted for: named, gave up, or (for
/// pids absent from the sparse slot range — none here) crash-equivalent.
/// For the full protocols the name count must equal the dense
/// backend's (= n); the almost-tight protocols may split differently
/// between named and gave-up under free-running schedules, but the
/// partition must still be total.
#[test]
fn threads_backend_verifies_every_algorithm() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        let n = 32;
        // BatchRun::run already panics on verify_renaming failure; it
        // returning is the audit passing.
        let stats = batch(&algo, n, 2, "fair", ExecBackend::Threads { t: 4 }, 1);
        assert_eq!(stats.runs, 2, "{algo_key}");
        assert_eq!(stats.violations, 0, "{algo_key}");
        for (unnamed, crashed) in stats.unnamed.iter().zip(&stats.crashed) {
            assert_eq!(*crashed, 0, "{algo_key}: threads backend never crashes present pids");
            if !algo.almost_tight() {
                assert_eq!(*unnamed, 0, "{algo_key}: full protocol must name all n");
            } else {
                assert!(*unnamed <= n, "{algo_key}");
            }
        }
    }
}
