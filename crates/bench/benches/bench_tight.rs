//! Wall-clock benchmark of §III tight renaming: the arena executor
//! (model-faithful, single thread) and free-running OS threads over the
//! same state machines. Sweep over n; the per-element cost should grow
//! only logarithmically.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_renaming::TightRenaming;
use rr_sched::adversary::FairAdversary;
use rr_sched::process::Process;
use rr_sched::run_threads_bounded;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;
use std::hint::black_box;

fn bench_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("tight_dense");
    g.sample_size(10);
    for n in [1usize << 8, 1 << 10, 1 << 12] {
        g.bench_function(format!("n={n}"), |b| {
            b.iter(|| {
                let (_s, mut procs) =
                    TightRenaming::calibrated(4).instantiate_shared_rng(n, 1, RngMode::default());
                let out =
                    Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 32).unwrap();
                black_box(out.step_complexity())
            })
        });
    }
    g.finish();
}

fn bench_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("tight_threads");
    g.sample_size(10);
    for n in [1usize << 8, 1 << 10] {
        g.bench_function(format!("n={n},threads=8"), |b| {
            b.iter(|| {
                let (_s, procs) =
                    TightRenaming::calibrated(4).instantiate_shared_rng(n, 1, RngMode::default());
                let boxed: Vec<Box<dyn Process + Send>> =
                    procs.into_iter().map(|p| Box::new(p) as Box<dyn Process + Send>).collect();
                let out = run_threads_bounded(boxed, 8, 1 << 26);
                black_box(out.names.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dense, bench_threads);
criterion_main!(benches);
