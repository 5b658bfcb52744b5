//! Property test pinning the [`Adversary::decide_batch`] contract for
//! every adversary in the standard registry.
//!
//! The contract (see the trait doc): from one unrefreshed view, a
//! batch of length `k ≤ max` must be *exactly* the decisions that `k`
//! sequential [`Adversary::decide`] calls on an identically-seeded
//! twin would have made against that same frozen view — never zero
//! decisions, and never granting the same pid twice in one batch.
//!
//! The oracle is literally that twin: for each registry key we build
//! the strategy twice with the same `(n, seed)`, drive one through
//! `decide_batch` and the other through sequential `decide` calls over
//! a seeded stream of randomized fixtures, and require the streams to
//! stay identical round after round (so batching can also never skew
//! the strategy's *future* state). Half the fixtures leave stale roster
//! slots, as the executor's roster has between recaptures, so `random`
//! also rejects stale draws and cuts batches at its recapture headroom.

use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng};
use rr_sched::adversary::{Adversary, Decision, ViewFixture};
use rr_sched::registry::standard;
use rr_sched::{entity_vec, EntityVec, Pid};
use rr_shmem::intent::Access;

/// A randomized announcement table with at least one runnable process;
/// in half the fixtures some of the runnable pids then halt, leaving
/// their roster slots stale.
fn random_fixture(rng: &mut ChaCha8Rng, n: usize) -> ViewFixture {
    let mut announced: EntityVec<Pid, Option<Access>> = entity_vec![None; n];
    loop {
        for pid in 0..n {
            let ann = match rng.random_range(0..6u32) {
                0 => None,
                1 => Some(Access::Local),
                2 => Some(Access::Tas {
                    array: rng.random_range(0..2),
                    index: rng.random_range(0..4),
                }),
                3 => Some(Access::Read {
                    array: rng.random_range(0..2),
                    index: rng.random_range(0..4),
                }),
                4 => Some(Access::TauRequest {
                    register: rng.random_range(0..2),
                    bit: rng.random_range(0..4),
                }),
                _ => Some(Access::Tas { array: 0, index: 0 }),
            };
            announced[Pid::from(pid)] = ann;
        }
        let runnable: Vec<Pid> =
            announced.iter_enumerated().filter_map(|(p, a)| a.map(|_| p)).collect();
        if let Some((_last, rest)) = runnable.split_last() {
            // The last runnable pid always stays runnable.
            let stale = rng.random_bool(0.5);
            let halted: Vec<Pid> =
                rest.iter().copied().filter(|_| stale && rng.random_bool(0.6)).collect();
            return ViewFixture::with_stale(announced, &halted);
        }
    }
}

fn granted_pids(batch: &[Decision]) -> Vec<Pid> {
    batch
        .iter()
        .filter_map(|d| match d {
            Decision::Grant(p) => Some(*p),
            Decision::Crash(_) => None,
        })
        .collect()
}

#[test]
fn decide_batch_matches_sequential_decide_for_every_registry_key() {
    let registry = standard();
    let keys = registry.keys();
    assert!(keys.len() >= 7, "expected the full standard registry, got {keys:?}");
    // `random` batches cut short over stale slots: the rejection and
    // headroom paths must both have run.
    let mut random_stale_cuts = 0;
    for key in keys {
        for seed in 0..8u64 {
            for n in [1usize, 2, 3, 5, 9, 17] {
                let mut batched = registry.build(key, n, seed).expect("registry key builds");
                let mut oracle = registry.build(key, n, seed).expect("registry key builds");
                let mut fixture_rng = ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 32);
                for round in 0..12 {
                    let fx = random_fixture(&mut fixture_rng, n);
                    let view = fx.view();
                    let max = 1 + (round % 4);
                    let mut batch = Vec::new();
                    batched.decide_batch(&view, &mut batch, max);
                    assert!(
                        !batch.is_empty() && batch.len() <= max,
                        "{key}: batch size {} outside 1..={max}",
                        batch.len()
                    );
                    let mut grants = granted_pids(&batch);
                    grants.sort_unstable();
                    let before = grants.len();
                    grants.dedup();
                    assert_eq!(
                        before,
                        grants.len(),
                        "{key}: a pid was granted twice in one batch (seed {seed}, n {n})"
                    );
                    if key == "random" && view.slot_count() > view.runnable_count() {
                        random_stale_cuts += usize::from(batch.len() < max);
                    }
                    let expected: Vec<Decision> =
                        batch.iter().map(|_| oracle.decide(&view)).collect();
                    assert_eq!(
                        batch, expected,
                        "{key}: batch diverged from sequential decide (seed {seed}, n {n}, round {round})"
                    );
                }
            }
        }
    }
    assert!(random_stale_cuts > 0, "no `random` batch was cut short over stale slots");
}
