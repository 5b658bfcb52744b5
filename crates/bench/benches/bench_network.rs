//! Benchmarks of the comparator-network baseline: network construction
//! cost and full renaming runs, against the τ-register protocol at equal
//! n — the wall-clock side of the paper's O(log n) vs O(log² n) claim.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_baselines::network::ComparatorNetwork;
use rr_baselines::BitonicRenaming;
use rr_renaming::traits::RenamingAlgorithm;
use rr_renaming::TightRenaming;
use rr_sched::adversary::FairAdversary;
use rr_sched::shard::Arena;
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitonic_construction");
    for w in [1usize << 8, 1 << 12, 1 << 16] {
        g.bench_function(format!("width={w}"), |b| {
            b.iter(|| black_box(ComparatorNetwork::bitonic(w).size()))
        });
    }
    g.finish();
}

fn run_algo(algo: &dyn RenamingAlgorithm, n: usize) -> u64 {
    algo.run_dense(n, 1, &mut FairAdversary::default(), &mut Arena::new()).unwrap().total_steps()
}

fn bench_network_vs_tau(c: &mut Criterion) {
    let mut g = c.benchmark_group("tight_full_run");
    g.sample_size(10);
    for n in [1usize << 8, 1 << 10] {
        g.bench_function(format!("bitonic,n={n}"), |b| {
            b.iter(|| black_box(run_algo(&BitonicRenaming, n)))
        });
        g.bench_function(format!("tau,n={n}"), |b| {
            b.iter(|| black_box(run_algo(&TightRenaming::calibrated(4), n)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_construction, bench_network_vs_tau);
criterion_main!(benches);
