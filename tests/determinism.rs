//! Reproducibility: the arena executor is a deterministic function of
//! (algorithm, n, seed, adversary) — the property every committed
//! `BENCH_*.json` snapshot and `REPRODUCTION.md` rely on.

use randomized_renaming::renaming::traits::{Cor7, Cor9, LooseL6, LooseL8, RenamingAlgorithm};
use randomized_renaming::renaming::TightRenaming;
use randomized_renaming::sched::adversary::RandomAdversary;
use randomized_renaming::sched::shard::Arena;
use randomized_renaming::sched::virtual_exec::RunOutcome;

fn run_once(algo: &dyn RenamingAlgorithm, n: usize, seed: u64) -> RunOutcome {
    algo.run_dense(n, seed, &mut RandomAdversary::new(seed ^ 0xAB), &mut Arena::new()).unwrap()
}

fn fingerprint(out: &RunOutcome) -> (Vec<Option<usize>>, Vec<u64>, u64) {
    (out.names.clone().into_vec(), out.steps.clone().into_vec(), out.decisions)
}

#[test]
fn identical_seeds_identical_runs() {
    let algos: Vec<Box<dyn RenamingAlgorithm>> = vec![
        Box::new(TightRenaming::calibrated(4)),
        Box::new(LooseL6 { ell: 2 }),
        Box::new(LooseL8 { ell: 1 }),
        Box::new(Cor7 { ell: 1 }),
        Box::new(Cor9 { ell: 1 }),
    ];
    for algo in &algos {
        let a = run_once(algo.as_ref(), 256, 42);
        let b = run_once(algo.as_ref(), 256, 42);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{} not deterministic", algo.name());
    }
}

#[test]
fn different_seeds_differ() {
    let algo = TightRenaming::calibrated(4);
    let a = run_once(&algo, 256, 1);
    let b = run_once(&algo, 256, 2);
    assert_ne!(fingerprint(&a), fingerprint(&b), "seed must matter");
}

#[test]
fn pid_streams_are_independent_of_population() {
    // The per-process RNG derivation (seed, pid) must not depend on n:
    // the first coin of pid 7 is the same in a 64- and a 256-process run.
    use randomized_renaming::shmem::rng::{ProcessRng, StreamKey};
    let key = StreamKey::new(9);
    let mut small = ProcessRng::new(7);
    let mut large = ProcessRng::new(7);
    for _ in 0..16 {
        assert_eq!(small.index(&key, 1000), large.index(&key, 1000));
    }
}
