//! Golden draw-schedule certificates: steps and RNG words per algorithm.
//!
//! Every randomized process now reports how many RNG words it drew
//! ([`rr_sched::process::Process::rng_words`]). This test pins, for
//! every registry algorithm at one fixed `(n, seed)` under the fair
//! schedule, the pair `(total steps, total RNG words drawn)` — in the
//! default ChaCha8 mode **and** in counter mode. Any change to a hot
//! path's draw schedule (an extra coin, a redrawn index, a reordered
//! probe) moves a number here and must be a deliberate, visible edit.
//!
//! Units are mode-specific by design: ChaCha8 counts 32-bit cipher
//! draws (a coin burns a whole draw — the historical schedule, kept
//! bit-exact); counter mode counts 64-bit mixer words (coins are served
//! from a cached 64-bit block, 64 flips per word). The per-algorithm
//! ratio between the two columns is the amortization the counter
//! backend buys.

use rr_bench::scenario::registry;
use rr_sched::adversary::FairAdversary;
use rr_sched::process::Process;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;

/// Runs `key` at `(n, seed)` on the dense arena under the fair
/// schedule and returns `(total_steps, Σ rng_words)`.
fn draw_schedule(key: &str, n: usize, seed: u64, rng: RngMode) -> (u64, u64) {
    let algo = registry().build(key).unwrap_or_else(|e| panic!("{key}: {e}"));
    let mut inst = algo.instantiate_with(n, seed, rng);
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

/// The pinned schedule: `(key, steps, chacha8 words, steps under
/// counter mode, counter words)`. Deterministic baselines draw nothing
/// and must agree between modes step for step.
#[test]
fn per_algorithm_draw_schedule_is_pinned() {
    let pinned: &[(&str, u64, u64, u64, u64)] = &[
        ("aagw", 471, 942, 476, 476),
        ("adaptive", 8222, 14448, 8224, 7226),
        ("bitonic", 9216, 0, 9216, 0),
        ("cor7", 550, 1100, 574, 574),
        ("cor9", 1670, 3340, 1686, 1686),
        ("fetch-add", 256, 0, 256, 0),
        ("linear-scan", 32896, 0, 32896, 0),
        ("loose-l6", 524, 1048, 536, 536),
        ("loose-l8", 1612, 3224, 1623, 1623),
        // Beneš depth at width 256 is 2·8 − 1 = 15; full occupancy puts
        // every process through one switch per stage: 256·15 = 3840.
        ("route", 3840, 0, 3840, 0),
        ("splitter-grid", 131584, 0, 131584, 0),
        ("tight-tau", 4360, 6272, 4360, 3136),
        ("tight-tau-paper", 62728, 512, 62728, 256),
        ("uniform", 343, 686, 350, 350),
    ];
    let reg = registry();
    let mut keys = reg.keys();
    keys.sort_unstable();
    assert_eq!(
        keys,
        pinned.iter().map(|&(k, ..)| k).collect::<Vec<_>>(),
        "algorithm registry drifted"
    );
    let actual: Vec<(&str, u64, u64, u64, u64)> = pinned
        .iter()
        .map(|&(key, ..)| {
            let (steps, words) = draw_schedule(key, N, SEED, RngMode::ChaCha8);
            let (c_steps, c_words) = draw_schedule(key, N, SEED, RngMode::Counter);
            (key, steps, words, c_steps, c_words)
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

/// The amortized coin block pays: for every randomized algorithm the
/// counter-mode word count is below the ChaCha8 draw count at the same
/// size (coins cost 1/64th of a word instead of a full draw, and the
/// power-of-two index fast path never redraws).
#[test]
fn counter_mode_draws_fewer_words() {
    for key in ["aagw", "adaptive", "cor7", "cor9", "loose-l6", "loose-l8", "tight-tau", "uniform"]
    {
        let (_, chacha) = draw_schedule(key, N, SEED, RngMode::ChaCha8);
        let (_, counter) = draw_schedule(key, N, SEED, RngMode::Counter);
        assert!(
            counter < chacha,
            "{key}: counter mode drew {counter} words vs {chacha} chacha draws"
        );
    }
}
