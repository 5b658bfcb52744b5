//! Literal golden for the uniformly random schedule: `tight-tau:c=4`
//! under `random` at n = 4096, seeds 0–2. Step totals barely move from
//! one schedule to another, so each seed also pins a digest of every
//! process's `(name, steps)` and the decision count: a change to which
//! pid runs when (a batch that drifts from the sequential decisions, a
//! roster recapture at a different decision, an extra draw) moves the
//! digest.

use rr_bench::scenario::registry;
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use rr_shmem::rng::mix64;

const N: usize = 4096;

/// `(total steps, digest of (name, steps) per pid, decisions)`.
fn pin(seed: u64) -> (u64, u64, u64) {
    let algo = registry().build("tight-tau:c=4").expect("registry key builds");
    let mut adversary = standard().build("random", N, seed).expect("registry key builds");
    let out =
        algo.run_dense(N, seed, adversary.as_mut(), &mut Arena::new()).expect("run completes");
    out.verify_renaming(algo.m(N)).expect("renaming is safe");
    let digest = out.names.iter().zip(out.steps.iter()).fold(0u64, |h, (name, &steps)| {
        let name = name.map_or(u64::MAX, |x| x as u64);
        mix64(mix64(h ^ name) ^ steps)
    });
    (out.total_steps(), digest, out.decisions)
}

#[test]
fn random_schedule_is_pinned() {
    let pinned = [
        (90_800, 0x526f_83a0_0900_7110, 90_800),
        (90_796, 0xf6fb_a2ff_b5b7_9750, 90_796),
        (90_814, 0x0504_1bbe_e888_d4ad, 90_814),
    ];
    let actual: Vec<(u64, u64, u64)> = (0..3).map(pin).collect();
    assert_eq!(actual, pinned, "the random schedule drifted");
}
