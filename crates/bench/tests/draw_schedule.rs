//! Golden draw-schedule certificates: steps and RNG words per algorithm.
//!
//! Every randomized process now reports how many RNG words it drew
//! ([`rr_sched::process::Process::rng_words`]). This test pins, for
//! every registry algorithm at one fixed `(n, seed)` under the fair
//! schedule, the pair `(total steps, total RNG words drawn)`. Any
//! change to a hot path's draw schedule (an extra coin, a redrawn index,
//! a reordered probe) moves a number here and must be a deliberate,
//! visible edit.
//!
//! Words are 32-bit ChaCha8 cipher draws: a coin burns a whole draw (the
//! historical schedule, kept bit-exact) and an index draw takes two.

use rr_bench::scenario::registry;
use rr_sched::adversary::FairAdversary;
use rr_sched::process::Process;
use rr_sched::shard::Arena;

/// Runs `key` at `(n, seed)` on the dense arena under the fair
/// schedule and returns `(total_steps, Σ rng_words)`.
fn draw_schedule(key: &str, n: usize, seed: u64) -> (u64, u64) {
    let algo = registry().build(key).unwrap_or_else(|e| panic!("{key}: {e}"));
    let mut inst = algo.instantiate(n, seed);
    let mut arena = Arena::new();
    let out = arena
        .run(&mut inst.processes, &mut FairAdversary::default(), algo.step_budget(n))
        .unwrap_or_else(|e| panic!("{key}: {e}"));
    out.verify_renaming(inst.m).unwrap_or_else(|e| panic!("{key}: {e}"));
    let words: u64 = inst.processes.iter().map(|p| p.rng_words().unwrap_or(0)).sum();
    (out.total_steps(), words)
}

const N: usize = 256;
const SEED: u64 = 1;

/// The pinned schedule: `(key, steps, words)`. Deterministic baselines
/// draw nothing.
#[test]
fn per_algorithm_draw_schedule_is_pinned() {
    let pinned: &[(&str, u64, u64)] = &[
        ("aagw", 471, 942),
        ("adaptive", 8222, 14448),
        ("bitonic", 9216, 0),
        ("cor7", 550, 1100),
        ("cor9", 1670, 3340),
        ("fetch-add", 256, 0),
        ("linear-scan", 32896, 0),
        ("loose-l6", 524, 1048),
        ("loose-l8", 1612, 3224),
        // Beneš depth at width 256 is 2·8 − 1 = 15; full occupancy puts
        // every process through one switch per stage: 256·15 = 3840.
        ("route", 3840, 0),
        ("splitter-grid", 131584, 0),
        ("tight-tau", 4360, 6272),
        ("tight-tau-paper", 62728, 512),
        ("uniform", 343, 686),
    ];
    let reg = registry();
    let mut keys = reg.keys();
    keys.sort_unstable();
    assert_eq!(
        keys,
        pinned.iter().map(|&(k, ..)| k).collect::<Vec<_>>(),
        "algorithm registry drifted"
    );
    let actual: Vec<(&str, u64, u64)> = pinned
        .iter()
        .map(|&(key, ..)| {
            let (steps, words) = draw_schedule(key, N, SEED);
            (key, steps, words)
        })
        .collect();
    assert_eq!(actual, pinned, "draw schedule drifted — every change here must be deliberate");
}

/// Deterministic algorithms report no draw count at all (`None`, not
/// `Some(0)`) — the registry's randomized/deterministic split is
/// visible in the words column.
#[test]
fn deterministic_algorithms_report_no_draws() {
    for key in ["bitonic", "fetch-add", "linear-scan", "route", "splitter-grid"] {
        let algo = registry().build(key).unwrap();
        let inst = algo.instantiate(64, 0);
        for p in &inst.processes {
            assert_eq!(p.rng_words(), None, "{key} should draw nothing");
        }
    }
}
