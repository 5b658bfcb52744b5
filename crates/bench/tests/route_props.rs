//! Property coverage for the topology-routed renaming family and the
//! adversary zoo's batching contract.
//!
//! The `route:` family is parameterized along three axes (topology,
//! stage override, occupancy); the pinned unit tests cover the corners,
//! and these properties cover the interior: for *random* cells the
//! protocol must rename uniquely into the declared space, stay total
//! under crash-free schedules, and cost exactly `n × depth` steps —
//! with `depth` matching the topology's closed form whenever no
//! override is given. The last property extends the registry-wide
//! twin-oracle suite (`rr-sched`'s `adversary_batch`) from the zoo's
//! default parameters to *random* parameters: `decide_batch` must be
//! exactly the prefix of sequential `decide` calls an identically-built
//! twin would make against the same frozen view.

use proptest::prelude::*;
use rr_baselines::{RouteRenaming, RouteTopology};
use rr_bench::runner::{run_once, ExecBackend};
use rr_renaming::traits::RenamingAlgorithm;
use rr_sched::adversary::{Decision, ViewFixture};
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use rr_sched::{entity_vec, EntityVec, Pid};
use rr_shmem::intent::Access;
use rr_shmem::rng::RngMode;

fn topology(idx: usize) -> RouteTopology {
    [RouteTopology::Benes, RouteTopology::Butterfly, RouteTopology::Variant][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (topology, stages, n, seed, schedule) cells: unique
    /// in-range names, totality, and the exact `steps = n × depth`
    /// identity — the schedule decides who wins each switch, never how
    /// many switches are crossed.
    #[test]
    fn random_route_cells_rename_uniquely_in_range(
        t in 0usize..3,
        stages_raw in 0usize..13,
        n in 1usize..49,
        seed in 0u64..500,
        adv_idx in 0usize..3,
    ) {
        // 0 encodes "no override" (the closed-form depth).
        let stages = if stages_raw == 0 { None } else { Some(stages_raw) };
        let algo = RouteRenaming { topology: topology(t), stages };
        let adversary = ["fair", "random", "collisions"][adv_idx];
        let mut adv = standard().build(adversary, n, seed).unwrap();
        let out = run_once(
            &algo,
            n,
            seed,
            RngMode::ChaCha8,
            ExecBackend::Dense,
            adv.as_mut(),
            &mut Arena::new(),
        );

        let m = algo.m(n);
        let mut names: Vec<usize> = out.names.iter().flatten().copied().collect();
        prop_assert_eq!(
            names.len(), n,
            "route({}) must stay total under the crash-free `{}` schedule",
            algo.topology.label(), adversary
        );
        for &name in &names {
            prop_assert!(name < m, "name {name} outside m={m} (n={n}, seed {seed})");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        prop_assert_eq!(names.len(), before, "duplicate name assigned");

        let depth = algo.depth(n) as u64;
        prop_assert_eq!(
            out.total_steps(), n as u64 * depth,
            "steps must equal n × depth under any crash-free schedule"
        );
    }

    /// Without a `stages` override the depth is the topology's closed
    /// form at the instantiated width — at full and partial occupancy —
    /// and equals the bit schedule's length; across topologies the
    /// closed forms order butterfly ≤ Beneš < variant (strict between
    /// butterfly and Beneš once q ≥ 2).
    #[test]
    fn depth_matches_the_closed_form(t in 0usize..3, q in 1u32..9) {
        let topo = topology(t);
        let width = 1usize << q;
        prop_assert_eq!(topo.bit_schedule(q).len(), topo.closed_form_depth(width));

        let algo = RouteRenaming { topology: topo, stages: None };
        prop_assert_eq!(algo.depth(width), topo.closed_form_depth(width));
        // Any partial occupancy that rounds up to the same width.
        let n = width / 2 + 1;
        prop_assert_eq!(algo.m(n), width);
        prop_assert_eq!(algo.depth(n), topo.closed_form_depth(width));

        let fly = RouteTopology::Butterfly.closed_form_depth(width);
        let benes = RouteTopology::Benes.closed_form_depth(width);
        let variant = RouteTopology::Variant.closed_form_depth(width);
        prop_assert!(fly <= benes && benes < variant);
        if q >= 2 {
            prop_assert!(fly < benes);
        }
    }
}

/// Decodes a fixture cell: 0 = not runnable, anything else an announced
/// access (the zoo strategies only read runnability, but realistic
/// announcements keep the view honest).
fn access(code: u8) -> Option<Access> {
    match code {
        0 => None,
        1 => Some(Access::Local),
        2 => Some(Access::Tas { array: 0, index: 1 }),
        3 => Some(Access::Read { array: 1, index: 0 }),
        _ => Some(Access::TauRequest { register: 0, bit: 2 }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Twin-oracle over *random* zoo parameters: `rr-sched`'s
    /// `adversary_batch` suite pins the batching contract for every
    /// registry key at its default parameters; this property draws the
    /// parameters too. A batch of length `k` must be exactly the
    /// decisions `k` sequential `decide` calls on an identically-built
    /// twin make against the same frozen view, never empty and never
    /// granting a pid twice — round after round, so batching can never
    /// skew the strategy's future state either.
    #[test]
    fn zoo_decide_batch_is_the_sequential_prefix_for_random_parameters(
        which in 0usize..4,
        a in 0usize..64,
        b in 0usize..64,
        n in 1usize..12,
        seed in 0u64..64,
        rounds in proptest::collection::vec(proptest::collection::vec(0u8..6, 12..13), 1..8),
    ) {
        let key = match which {
            0 => format!("lookahead:k={}", 1 + a % 8),
            1 => format!("bursty:len={},gap={}", 1 + a % 6, b % 5),
            2 => format!("diurnal:period={}", 2 + a % 16),
            _ => format!("victim:pid={}", a % 7),
        };
        let mut batched = standard().build(&key, n, seed).unwrap();
        let mut oracle = standard().build(&key, n, seed).unwrap();
        for (round, codes) in rounds.iter().enumerate() {
            let mut announced: EntityVec<Pid, Option<Access>> = entity_vec![None; n];
            for pid in 0..n {
                announced[Pid::from(pid)] = access(codes[pid]);
            }
            if announced.iter().all(Option::is_none) {
                announced[Pid::from(0usize)] = Some(Access::Local);
            }
            let fx = ViewFixture::new(announced);
            let view = fx.view();
            let max = 1 + round % 4;

            let mut batch = Vec::new();
            batched.decide_batch(&view, &mut batch, max);
            prop_assert!(!batch.is_empty(), "{key}: a batch is never empty");
            prop_assert!(batch.len() <= max, "{key}: batch of {} exceeds max {max}", batch.len());
            let mut granted: Vec<Pid> = batch
                .iter()
                .filter_map(|d| match d {
                    Decision::Grant(p) => Some(*p),
                    Decision::Crash(_) => None,
                })
                .collect();
            granted.sort_unstable();
            let unique = granted.len();
            granted.dedup();
            prop_assert_eq!(granted.len(), unique, "{} granted a pid twice in one batch", &key);

            for (i, decision) in batch.iter().enumerate() {
                let expected = oracle.decide(&view);
                prop_assert_eq!(
                    decision, &expected,
                    "{} diverged from its sequential twin at round {round}, decision {i}",
                    &key
                );
            }
        }
    }
}
