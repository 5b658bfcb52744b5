//! Cross-backend equivalence: the contract that makes `--backend` a
//! free choice rather than a different experiment.
//!
//! * Boxed processes (`Box<dyn Process>`, what the `threads` backend
//!   and heterogeneous workloads run) must reproduce the typed dense
//!   run **bit for bit** for every registry algorithm under every
//!   adversary family the engine schedules deterministically, in every
//!   RNG mode — same outcome, same RNG draws, same batched τ-CAS
//!   claims. This pins the `Box<P>` forwarding of `tau_host`,
//!   `step_claimed` and `rng_words` against typed dispatch.
//! * `shard:s=1` is the degenerate partition (one shard, identity
//!   sub-seed, zero cross-shard traffic) and must be bit-identical to
//!   `dense`.
//! * That identity holds in every RNG mode: under `rng:mode=counter`
//!   the deterministic baselines (which draw no coins) and the
//!   randomized protocols alike build their typed processes through the
//!   same `build`, so no backend can fall back to a different path.
//! * `threads` is free-running (the machine schedules), so its step
//!   counts are not reproducible — but it must still satisfy
//!   `verify_renaming` and account for every process.
//!
//! Both key axes are enumerated **from the registries**, never from a
//! hand-written list: a future algorithm or adversary key lands in the
//! sweep the moment it is registered and can never be silently skipped.
//! The only exclusions are the schedule-space searchers `explore` and
//! `fuzz`, whose builders are stateful across a prepared batch (each
//! seed continues one shared walk), so two separately-prepared batches
//! are *defined* to diverge — there is no cross-backend identity to
//! assert. Every other adversary is swept through its registry
//! `example` key, so parameterized strategies are exercised with their
//! parameters bound.

use rr_bench::runner::{BatchRun, BatchStats, ExecBackend};
use rr_bench::scenario::registry;
use rr_renaming::registry::BoxedAlgorithm;
use rr_sched::process::Process;
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;

/// Sizes small enough that the full registry × adversary sweep stays in
/// CI territory while still exercising multi-round protocol behaviour.
const N: usize = 64;
const SEEDS: u64 = 2;

/// Every deterministically-schedulable adversary, as its registry
/// example key — the full registry minus the stateful searchers.
fn swept_adversary_keys() -> Vec<&'static str> {
    let swept: Vec<&'static str> = standard()
        .entries()
        .iter()
        .filter(|(name, ..)| !matches!(*name, "explore" | "fuzz"))
        .map(|&(_, _, example)| example)
        .collect();
    // The exclusion list is exactly the two searchers: a new registry
    // key is swept automatically, and this guard makes shrinking the
    // sweep a loud, deliberate edit.
    assert_eq!(swept.len(), standard().keys().len() - 2, "unexpected sweep exclusion");
    assert!(swept.len() >= 9, "adversary registry shrank: {swept:?}");
    swept
}

fn batch(
    algo: &BoxedAlgorithm,
    n: usize,
    seeds: u64,
    adv_key: &str,
    backend: ExecBackend,
    workers: usize,
) -> BatchStats {
    batch_rng(algo, n, seeds, adv_key, backend, RngMode::default(), workers)
}

fn batch_rng(
    algo: &BoxedAlgorithm,
    n: usize,
    seeds: u64,
    adv_key: &str,
    backend: ExecBackend,
    rng: RngMode,
    workers: usize,
) -> BatchStats {
    BatchRun::new(algo.as_ref(), n)
        .seeds(seeds)
        .adversary(adv_key)
        .backend(backend)
        .rng_mode(rng)
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
/// processes on an arena — against the typed dense `run_dense_with`
/// path, seed by seed: the full outcome, the summed RNG words and the
/// arena's batched-claim counters must all agree.
#[test]
fn dense_matches_virtual_bit_for_bit_for_every_algorithm_and_adversary() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        for adv_key in swept_adversary_keys() {
            for rng in RngMode::ALL {
                for seed in 0..SEEDS {
                    let ctx = format!("{algo_key} under {adv_key}, rng {rng}, seed {seed}");
                    let mut adv = standard().build(adv_key, N, seed).unwrap();
                    let mut boxed_arena = Arena::new();
                    let mut processes = algo.instantiate_with(N, seed, rng).processes;
                    let boxed = boxed_arena
                        .run(&mut processes, adv.as_mut(), algo.step_budget(N))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    // `Process::rng_words` with `Self = Box<_>`: method
                    // syntax on a box would call the trait object
                    // directly and skip the forwarding under test.
                    let boxed_words: u64 = processes.iter().filter_map(Process::rng_words).sum();

                    let mut adv = standard().build(adv_key, N, seed).unwrap();
                    let mut typed_arena = Arena::new();
                    let (typed, typed_words) = algo
                        .run_dense_with_draws(N, seed, rng, adv.as_mut(), &mut typed_arena)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));

                    assert_eq!(boxed.names, typed.names, "{ctx}: names");
                    assert_eq!(boxed.steps, typed.steps, "{ctx}: steps");
                    assert_eq!(boxed.crashed, typed.crashed, "{ctx}: crashed");
                    assert_eq!(boxed.gave_up, typed.gave_up, "{ctx}: gave_up");
                    assert_eq!(boxed.decisions, typed.decisions, "{ctx}: decisions");
                    assert_eq!(boxed_words, typed_words, "{ctx}: rng words");
                    assert_eq!(
                        boxed_arena.block_stats(),
                        typed_arena.block_stats(),
                        "{ctx}: block stats"
                    );
                }
            }
        }
    }
}

/// The shard backend with a single shard must be indistinguishable from
/// the serial dense core, for every registry cell: `shard_seed` leaves
/// shard 0's seed untouched, the partition is the identity, and the
/// coupler never adds remote names — so any divergence here is a
/// sharding bug, not a modelling choice.
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

/// The same identity under the counter RNG stream: `dense` and
/// `shard:s=1` agree bit for bit for every registry cell, deterministic
/// baselines included.
#[test]
fn counter_mode_backends_match_bit_for_bit_for_every_algorithm_and_adversary() {
    let reg = registry();
    for algo_key in reg.keys() {
        let algo = reg.build(algo_key).unwrap();
        for adv_key in swept_adversary_keys() {
            let run = |backend| batch_rng(&algo, N, SEEDS, adv_key, backend, RngMode::Counter, 1);
            let ctx = format!("{algo_key} under {adv_key}, rng counter");
            assert_bit_identical(
                &run(ExecBackend::Dense),
                &run(ExecBackend::Shard { s: 1 }),
                &format!("{ctx}: shard"),
            );
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
