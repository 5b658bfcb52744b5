//! Wall-clock benchmark of the loose-renaming protocols (Lemma 6,
//! Lemma 8, Corollary 9) against uniform probing, in the arena
//! executor and on threads. The loose protocols do a constant number of
//! probes per process, so total time should scale ~linearly in n with a
//! tiny constant.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_baselines::UniformProbing;
use rr_renaming::traits::{Cor9, LooseL6, LooseL8, RenamingAlgorithm};
use rr_sched::adversary::FairAdversary;
use rr_sched::shard::Arena;
use std::hint::black_box;

fn run_algo(algo: &dyn RenamingAlgorithm, n: usize) -> u64 {
    algo.run_dense(n, 1, &mut FairAdversary::default(), &mut Arena::new()).unwrap().total_steps()
}

fn bench_loose_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("loose_dense");
    g.sample_size(10);
    let n = 1usize << 12;
    let algos: Vec<Box<dyn RenamingAlgorithm>> = vec![
        Box::new(LooseL6 { ell: 2 }),
        Box::new(LooseL8 { ell: 1 }),
        Box::new(Cor9 { ell: 1 }),
        Box::new(UniformProbing::double()),
    ];
    for algo in &algos {
        g.bench_function(format!("{},n={n}", algo.name()), |b| {
            b.iter(|| black_box(run_algo(algo.as_ref(), n)))
        });
    }
    g.finish();
}

fn bench_loose_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("cor9_scaling");
    g.sample_size(10);
    for n in [1usize << 10, 1 << 13, 1 << 16] {
        g.bench_function(format!("n={n}"), |b| b.iter(|| black_box(run_algo(&Cor9 { ell: 1 }, n))));
    }
    g.finish();
}

criterion_group!(benches, bench_loose_dense, bench_loose_scaling);
criterion_main!(benches);
