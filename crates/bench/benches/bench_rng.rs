//! Microbenchmarks for the per-process RNG: coin flips and index draws
//! on the ChaCha8 stream.
//!
//! Every benchmark body first asserts the draw-schedule contract it is
//! timing — words per coin, cross-instance determinism — so the speed
//! numbers can never drift away from a correctness regression silently.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_shmem::rng::ProcessRng;
use std::hint::black_box;

const FLIPS: usize = 1 << 12;
const DRAWS: usize = 1 << 12;

/// The pinned per-draw word cost: a coin burns one 32-bit cipher draw
/// (the historical schedule, kept bit-exact), and the stream is a pure
/// function of (seed, pid).
fn assert_draw_schedule() {
    let mut chacha = ProcessRng::new(7, 3);
    let before = chacha.words_drawn();
    chacha.coin();
    assert_eq!(chacha.words_drawn() - before, 1, "a ChaCha8 coin is one 32-bit draw");

    let draw = |mut rng: ProcessRng| {
        (0..64).map(|i| if i % 2 == 0 { rng.index(97) as u64 } else { rng.coin() as u64 }).sum()
    };
    let a: u64 = draw(ProcessRng::new(11, 5));
    let b: u64 = draw(ProcessRng::new(11, 5));
    assert_eq!(a, b, "same (seed, pid) must replay the same stream");
}

fn bench_coin(c: &mut Criterion) {
    assert_draw_schedule();
    let mut g = c.benchmark_group("rng_coin");
    g.sample_size(20);
    g.bench_function(format!("chacha8/flips={FLIPS}"), |b| {
        b.iter(|| {
            let mut rng = ProcessRng::new(42, 9);
            let mut heads = 0u64;
            for _ in 0..FLIPS {
                heads += u64::from(rng.coin());
            }
            black_box(heads)
        })
    });
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng_index");
    g.sample_size(20);
    // A power-of-two bound and a general one.
    for bound in [1usize << 20, (1 << 20) - 7] {
        g.bench_function(format!("chacha8/bound={bound}/draws={DRAWS}"), |b| {
            b.iter(|| {
                let mut rng = ProcessRng::new(42, 9);
                let mut acc = 0usize;
                for _ in 0..DRAWS {
                    acc = acc.wrapping_add(rng.index(bound));
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_coin, bench_index);
criterion_main!(benches);
