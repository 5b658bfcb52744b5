//! Microbenchmarks for the word-packed status bitmap behind the dense
//! and shard backends: next-runnable scan, runnable popcount, status
//! transitions, each against a scalar per-pid reference loop, and the
//! `fair` adversary's batch against the per-grant `next_runnable` loop
//! it replaced.
//!
//! Every benchmark body first asserts that the packed answer equals the
//! scalar-scan answer on the same roster, so the speed numbers can
//! never drift away from a correctness regression silently.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_sched::ids::Pid;
use rr_sched::{Adversary, Decision, FairAdversary, RunView, Status, StatusBitmap, ViewFixture};
use rr_shmem::Access;
use std::hint::black_box;

const N: usize = 1 << 16;

/// A roster with a deterministic mix of halted pids: every 7th pid is
/// Named, every 13th GaveUp, every 31st Crashed (first match wins).
fn mixed_roster(n: usize) -> StatusBitmap {
    let mut bm = StatusBitmap::new();
    bm.reset(n);
    for i in 0..n {
        let status = if i % 7 == 0 {
            Status::Named
        } else if i % 13 == 0 {
            Status::GaveUp
        } else if i % 31 == 0 {
            Status::Crashed
        } else {
            continue;
        };
        bm.set(Pid::new(i), status);
    }
    bm
}

/// Scalar reference: first runnable pid at or after `from`, wrapping
/// like the packed scanner's caller would.
fn scalar_next_runnable(bm: &StatusBitmap, from: usize) -> Option<usize> {
    (from..bm.len()).find(|&i| bm.get(Pid::new(i)) == Status::Running)
}

fn scalar_runnable_count(bm: &StatusBitmap) -> usize {
    (0..bm.len()).filter(|&i| bm.get(Pid::new(i)) == Status::Running).count()
}

/// An endgame roster: only every 503rd pid still runnable, the regime
/// where the scheduler spends its time once most processes have named
/// themselves and the scan must skip long halted stretches.
fn sparse_roster(n: usize) -> StatusBitmap {
    let mut bm = StatusBitmap::new();
    bm.reset(n);
    for i in 0..n {
        if i % 503 != 0 {
            bm.set(Pid::new(i), Status::Named);
        }
    }
    bm
}

fn bench_next_runnable(c: &mut Criterion) {
    let mut g = c.benchmark_group("bits_next_runnable");
    g.sample_size(20);
    for (tag, bm) in [("mixed", mixed_roster(N)), ("sparse", sparse_roster(N))] {
        for from in [0usize, N / 2, N - 1] {
            assert_eq!(
                bm.next_runnable(from).map(Pid::index),
                scalar_next_runnable(&bm, from),
                "packed next_runnable({from}) must match the scalar scan on the {tag} roster"
            );
        }
        g.bench_function(format!("packed/{tag}/n={N}"), |b| {
            b.iter(|| {
                let mut cursor = 0usize;
                let mut found = 0u64;
                while let Some(pid) = bm.next_runnable(cursor) {
                    cursor = pid.index() + 1;
                    found += 1;
                }
                black_box(found)
            })
        });
        g.bench_function(format!("scalar/{tag}/n={N}"), |b| {
            b.iter(|| {
                let mut cursor = 0usize;
                let mut found = 0u64;
                while let Some(i) = scalar_next_runnable(&bm, cursor) {
                    cursor = i + 1;
                    found += 1;
                }
                black_box(found)
            })
        });
    }
    g.finish();
}

fn bench_runnable_count(c: &mut Criterion) {
    let bm = mixed_roster(N);
    assert_eq!(
        bm.runnable_count(),
        scalar_runnable_count(&bm),
        "packed popcount must match the scalar scan"
    );
    let mut g = c.benchmark_group("bits_runnable_count");
    g.sample_size(20);
    g.bench_function(format!("packed/n={N}"), |b| b.iter(|| black_box(bm.runnable_count())));
    g.bench_function(format!("scalar/n={N}"), |b| b.iter(|| black_box(scalar_runnable_count(&bm))));
    g.finish();
}

fn bench_status_transition(c: &mut Criterion) {
    // Parity: after identically driving packed and Vec<Status> rosters
    // through the same halt sequence, every pid agrees.
    let mut bm = StatusBitmap::new();
    bm.reset(N);
    let mut vec_roster = vec![Status::Running; N];
    for i in (0..N).step_by(3) {
        let status = if i % 2 == 0 { Status::Named } else { Status::Crashed };
        bm.set(Pid::new(i), status);
        vec_roster[i] = status;
    }
    for (i, &status) in vec_roster.iter().enumerate() {
        assert_eq!(bm.get(Pid::new(i)), status, "status transition parity at pid {i}");
    }

    let mut g = c.benchmark_group("bits_status_transition");
    g.sample_size(20);
    g.bench_function(format!("packed/n={N}"), |b| {
        b.iter(|| {
            let mut bm = StatusBitmap::new();
            bm.reset(N);
            for i in 0..N {
                bm.set(Pid::new(i), Status::Named);
            }
            black_box(bm.runnable_count())
        })
    });
    g.bench_function(format!("scalar/n={N}"), |b| {
        b.iter(|| {
            let mut roster = vec![Status::Running; N];
            for slot in roster.iter_mut() {
                *slot = Status::Named;
            }
            black_box(roster.iter().filter(|&&s| s == Status::Running).count())
        })
    });
    g.finish();
}

/// Decisions the executor asks for per batch (`DECISION_BATCH`).
const BATCH: usize = 32;

/// A view in which exactly `bm`'s runnable pids are runnable.
fn fixture(bm: &StatusBitmap) -> ViewFixture {
    ViewFixture::new(
        (0..bm.len()).map(|i| bm.is_runnable(Pid::new(i)).then_some(Access::Local)).collect(),
    )
}

/// Reference: `fair`'s batch as one `next_runnable` call per grant, each
/// reloading and re-masking the runnable word.
fn per_grant_batch(view: &RunView<'_>, cursor: &mut usize, out: &mut Vec<Decision>, max: usize) {
    let start = out.len();
    let mut from = *cursor;
    while out.len() - start < max {
        match view.next_runnable(from) {
            Some(pid) => {
                out.push(Decision::Grant(pid));
                from = pid.index() + 1;
            }
            None => break,
        }
    }
    if out.len() == start {
        let pid = view.next_runnable(0).expect("a runnable pid");
        out.push(Decision::Grant(pid));
        from = pid.index() + 1;
    }
    *cursor = from;
}

/// One lap of `fair` over the roster, batch by batch: as many grants
/// as there are runnable pids.
fn bench_fair_decide_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("fair");
    g.sample_size(20);
    for n in [1usize << 12, 1 << 18] {
        for (tag, bm) in [("dense", mixed_roster(n)), ("sparse", sparse_roster(n))] {
            let fx = fixture(&bm);
            let view = fx.view();
            let live = view.runnable_count();
            // Parity: three laps, batch for batch.
            let (mut adv, mut cursor) = (FairAdversary::default(), 0usize);
            let (mut got, mut expect) = (Vec::new(), Vec::new());
            for _ in 0..3 * live.div_ceil(BATCH) + 3 {
                got.clear();
                expect.clear();
                adv.decide_batch(&view, &mut got, BATCH);
                per_grant_batch(&view, &mut cursor, &mut expect, BATCH);
                assert_eq!(got, expect, "fair batch must match the per-grant scan on {tag} n={n}");
            }
            g.bench_function(format!("decide_batch/walk/{tag}/n={n}"), |b| {
                let mut out = Vec::with_capacity(BATCH);
                b.iter(|| {
                    let mut adv = FairAdversary::default();
                    let mut granted = 0;
                    while granted < live {
                        out.clear();
                        adv.decide_batch(&view, &mut out, BATCH);
                        granted += out.len();
                    }
                    black_box(granted)
                })
            });
            g.bench_function(format!("decide_batch/per_grant/{tag}/n={n}"), |b| {
                let mut out = Vec::with_capacity(BATCH);
                b.iter(|| {
                    let mut cursor = 0;
                    let mut granted = 0;
                    while granted < live {
                        out.clear();
                        per_grant_batch(&view, &mut cursor, &mut out, BATCH);
                        granted += out.len();
                    }
                    black_box(granted)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_next_runnable,
    bench_runnable_count,
    bench_status_transition,
    bench_fair_decide_batch
);
criterion_main!(benches);
