//! Microbenchmarks of the counting device and the concurrent τ-register:
//! cost of one clock cycle (the "constant slowdown" the paper claims)
//! and of an acquire through the lock-free front end.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_tau::{ConcurrentTauRegister, CountingDevice};
use std::hint::black_box;

fn bench_clock_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("device_clock_cycle");
    for batch in [1usize, 8, 32, 64] {
        let reqs: Vec<(usize, usize)> = (0..batch).map(|t| (t, t % 64)).collect();
        g.bench_function(format!("batch={batch}"), |b| {
            b.iter(|| {
                // Fresh device per iteration so the quota never binds.
                let mut d = CountingDevice::new(64, 64);
                black_box(d.clock_cycle(black_box(&reqs)).win_count())
            })
        });
    }
    g.finish();
}

fn bench_discard_path(c: &mut Criterion) {
    // Worst case: every cycle overflows the quota and runs the
    // shift-select discard.
    let reqs: Vec<(usize, usize)> = (0..64).map(|t| (t, t % 64)).collect();
    c.bench_function("device_cycle_with_discard", |b| {
        b.iter(|| {
            let mut d = CountingDevice::new(64, 4);
            black_box(d.clock_cycle(black_box(&reqs)).win_count())
        })
    });
}

fn bench_rtl_select(c: &mut Criterion) {
    c.bench_function("rtl_shift_select", |b| {
        let mut x = 0x9e3779b97f4a7c15u64;
        b.iter(|| {
            x = x.rotate_left(7) ^ 0xdeadbeef;
            black_box(rr_tau::device::rtl::shift_select(black_box(x & 0xFFFF_FFFF), 7, 32))
        })
    });
}

fn bench_concurrent_acquire(c: &mut Criterion) {
    let mut g = c.benchmark_group("tau_register_acquire");
    g.sample_size(20);
    for threads in [1usize, 4, 16] {
        g.bench_function(format!("threads={threads}"), |b| {
            b.iter(|| {
                let reg = ConcurrentTauRegister::new(64, 32, 0);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let reg = &reg;
                        s.spawn(move || {
                            for bit in 0..(32 / threads).max(1) {
                                black_box(reg.acquire((t * 7 + bit) % 64).ok());
                            }
                        });
                    }
                });
                black_box(reg.confirmed_count())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_clock_cycle,
    bench_discard_path,
    bench_rtl_select,
    bench_concurrent_acquire
);
criterion_main!(benches);
