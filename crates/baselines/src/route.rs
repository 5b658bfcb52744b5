//! Topology-routed renaming: multistage switching networks.
//!
//! The comparator-network baseline ([`crate::network`]) instantiates a
//! *sorting* network; this module instantiates classical *switching*
//! topologies — the butterfly, the Beneš network, and the doubled-core
//! Beneš variant studied in "A New Variant of Benes Network: Its
//! Topological Characterisation and Comparative Analysis" (see
//! PAPERS.md) — as renaming protocols. Each 2×2 switch is one TAS
//! register: a process enters on the wire of its initial name, performs
//! the TAS at every switch it meets (winner exits on the low wire,
//! loser on the high wire), and its final wire is its new name.
//! Distinctness is a property of TAS splitters alone, not of the
//! routing structure (checked over arbitrary stage-bit schedules by the
//! proptests in [`crate::network`]), so *any* stage schedule is safe —
//! which is what makes the family parameterizable.
//!
//! Every stage pairs all `W = 2^q` wires along one address bit, so a
//! network is its bit schedule (a [`ComparatorNetwork`] stores only
//! that, finding each switch in closed form). Under full occupancy each
//! process meets exactly one switch per stage and per-process step
//! complexity **equals the network depth** — the depth-vs-steps
//! trade-off the `ROUTE` experiment measures:
//!
//! | topology | stage bit schedule | depth |
//! |---|---|---|
//! | `butterfly` | `q-1 … 0` | `q` |
//! | `benes` | `q-1 … 0, 1 … q-1` | `2q − 1` |
//! | `variant` | `q-1 … 0, 0 … q-1` (doubled core stage) | `2q` |
//!
//! The `stages=K` parameter overrides the depth by cycling the
//! topology's bit schedule to exactly `K` stages — shallower prefixes
//! and deeper repetitions are both legal networks.

use crate::network::{ComparatorNetwork, NetworkProcess, NetworkShared};
use rr_renaming::traits::RenamingProtocol;
use std::sync::Arc;

/// TAS address space of the route family's switches — distinct from the
/// comparator-network baseline's array 3, so adversaries that group by
/// announced target can tell the families apart.
pub const ROUTE_TAS_ARRAY: u32 = 4;

/// Which multistage switching topology to route through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTopology {
    /// Beneš rearrangeable network: `2q − 1` stages.
    Benes,
    /// Butterfly (banyan) network: `q` stages.
    Butterfly,
    /// The PAPERS.md Beneš variant with a doubled core stage: `2q`
    /// stages.
    Variant,
}

impl RouteTopology {
    /// Parses a `net=` parameter value.
    ///
    /// # Errors
    /// Returns the registry's pinned message on anything but
    /// `benes`/`butterfly`/`variant`.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "benes" => Ok(Self::Benes),
            "butterfly" => Ok(Self::Butterfly),
            "variant" => Ok(Self::Variant),
            other => Err(format!("route net must be benes|butterfly|variant, got `{other}`")),
        }
    }

    /// Stable label used in keys and algorithm names.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Benes => "benes",
            Self::Butterfly => "butterfly",
            Self::Variant => "variant",
        }
    }

    /// The address bit switched at each stage, for width `2^q`
    /// (`q ≥ 1`). The schedule's length is the closed-form depth.
    pub fn bit_schedule(&self, q: u32) -> Vec<u32> {
        let down = (0..q).rev();
        match self {
            Self::Butterfly => down.collect(),
            Self::Benes => down.chain(1..q).collect(),
            Self::Variant => down.chain(0..q).collect(),
        }
    }

    /// Closed-form depth for `width = 2^q` wires: butterfly `q`, Beneš
    /// `2q − 1`, variant `2q`.
    pub fn closed_form_depth(&self, width: usize) -> usize {
        let q = width.trailing_zeros() as usize;
        match self {
            Self::Butterfly => q,
            Self::Benes => 2 * q - 1,
            Self::Variant => 2 * q,
        }
    }
}

/// Builds the switching network for `topology` over `width` wires,
/// optionally overriding the stage count by cycling the topology's bit
/// schedule.
///
/// # Panics
/// Panics unless `width` is a power of two ≥ 2 and `stages` (when
/// given) is ≥ 1 — the registry factory validates both before calling.
pub fn route_network(
    topology: RouteTopology,
    width: usize,
    stages: Option<usize>,
) -> ComparatorNetwork {
    assert!(width.is_power_of_two() && width >= 2, "route needs a power-of-two width");
    let schedule = topology.bit_schedule(width.trailing_zeros());
    let depth = stages.unwrap_or(schedule.len());
    assert!(depth >= 1, "route needs at least one stage");
    let bits = (0..depth).map(|s| schedule[s % schedule.len()]).collect();
    ComparatorNetwork::from_bits(width, bits)
}

/// Topology-routed renaming as a [`RenamingProtocol`]: width = next
/// power of two ≥ n (so `m < 2n`, tight at powers of two), exactly like
/// the bitonic baseline — only the stage schedule differs.
#[derive(Debug, Clone, Copy)]
pub struct RouteRenaming {
    /// The switching topology routed through.
    pub topology: RouteTopology,
    /// Stage-count override (`None` = the topology's closed form).
    pub stages: Option<usize>,
}

impl RouteRenaming {
    /// Parses a `route[:net=…][,stages=K]` key — the registry factory
    /// and the `ROUTE` experiment spec (which needs the geometry, not
    /// just the boxed algorithm) share this one grammar.
    ///
    /// # Errors
    /// Pinned messages for unknown parameters, unknown topologies and
    /// `stages < 1` — see the `parse_errors` suite in `rr-bench`.
    pub fn from_key(k: &rr_sched::registry::ParsedKey) -> Result<Self, String> {
        k.check_known(&["net", "stages"])?;
        let topology = RouteTopology::parse(&k.get("net", "benes".to_string())?)?;
        // `stages` has no natural in-band default (the closed form
        // depends on n), so absence is detected via an empty-string
        // sentinel and the value re-parsed by hand with the registry's
        // standard invalid-parameter message.
        let raw = k.get("stages", String::new())?;
        let stages = if raw.is_empty() {
            None
        } else {
            let v: usize = raw
                .parse()
                .map_err(|_| format!("parameter `stages={raw}` of `route` is invalid"))?;
            if v == 0 {
                return Err("route stages must be >= 1, got 0".to_string());
            }
            Some(v)
        };
        Ok(Self { topology, stages })
    }

    /// Network depth at size `n` — the `stages` override, or the
    /// topology's closed form at width `m(n)`.
    pub fn depth(&self, n: usize) -> usize {
        self.stages.unwrap_or_else(|| self.topology.closed_form_depth(self.m(n)))
    }
}

impl RenamingProtocol for RouteRenaming {
    type Proc = NetworkProcess;

    fn name(&self) -> String {
        match self.stages {
            None => format!("route({})", self.topology.label()),
            Some(k) => format!("route({},stages={k})", self.topology.label()),
        }
    }

    fn m(&self, n: usize) -> usize {
        n.next_power_of_two().max(2)
    }

    /// Deterministic: draws no coins, so the seed is ignored.
    fn build(&self, n: usize, _seed: u64) -> Vec<NetworkProcess> {
        let net = route_network(self.topology, self.m(n), self.stages);
        let shared = Arc::new(NetworkShared::new(net));
        (0..n)
            .map(|pid| NetworkProcess::with_array(pid, Arc::clone(&shared), ROUTE_TAS_ARRAY))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::{CollisionMaximizer, FairAdversary, RandomAdversary};
    use rr_sched::process::Process;
    use rr_sched::shard::Arena;

    #[test]
    fn closed_form_depths() {
        // width 8, q = 3.
        assert_eq!(RouteTopology::Butterfly.closed_form_depth(8), 3);
        assert_eq!(RouteTopology::Benes.closed_form_depth(8), 5);
        assert_eq!(RouteTopology::Variant.closed_form_depth(8), 6);
        // Degenerate width 2, q = 1.
        assert_eq!(RouteTopology::Butterfly.closed_form_depth(2), 1);
        assert_eq!(RouteTopology::Benes.closed_form_depth(2), 1);
        assert_eq!(RouteTopology::Variant.closed_form_depth(2), 2);
    }

    #[test]
    fn network_structure_matches_schedule() {
        for (topo, depth) in
            [(RouteTopology::Butterfly, 3), (RouteTopology::Benes, 5), (RouteTopology::Variant, 6)]
        {
            let net = route_network(topo, 8, None);
            assert_eq!(net.depth(), depth, "{}", topo.label());
            // Every stage pairs all 8 wires: 4 switches per stage.
            assert_eq!(net.size(), depth * 4, "{}", topo.label());
            for l in 0..net.depth() {
                for w in 0..8 {
                    let (_, c) = net.comparator_at(l, w);
                    assert!(c.lo == w || c.hi == w, "{} layer {l}", topo.label());
                }
            }
        }
    }

    #[test]
    fn benes_core_is_symmetric() {
        // The Beneš bit schedule is a palindrome around the single core
        // stage; the variant doubles that core.
        assert_eq!(RouteTopology::Benes.bit_schedule(3), vec![2, 1, 0, 1, 2]);
        assert_eq!(RouteTopology::Variant.bit_schedule(3), vec![2, 1, 0, 0, 1, 2]);
        assert_eq!(RouteTopology::Butterfly.bit_schedule(3), vec![2, 1, 0]);
    }

    #[test]
    fn stages_override_cycles_the_schedule() {
        // Truncation below the closed form…
        assert_eq!(route_network(RouteTopology::Benes, 8, Some(2)).depth(), 2);
        // …and repetition above it are both legal networks.
        let deep = route_network(RouteTopology::Butterfly, 8, Some(7));
        assert_eq!(deep.depth(), 7);
        assert_eq!(deep.size(), 7 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_rejected() {
        route_network(RouteTopology::Benes, 8, Some(0));
    }

    #[test]
    fn full_occupancy_is_tight_renaming_with_steps_equal_depth() {
        for topo in [RouteTopology::Benes, RouteTopology::Butterfly, RouteTopology::Variant] {
            let n = 16;
            let algo = RouteRenaming { topology: topo, stages: None };
            let out =
                algo.run_dense(n, 0, &mut RandomAdversary::new(7), &mut Arena::new()).unwrap();
            out.verify_renaming(n).unwrap_or_else(|e| panic!("{}: {e}", topo.label()));
            let mut names: Vec<_> = out.names.iter().map(|x| x.unwrap()).collect();
            names.sort_unstable();
            assert_eq!(names, (0..n).collect::<Vec<_>>(), "{}", topo.label());
            let depth = algo.depth(n) as u64;
            assert!(out.steps.iter().all(|&s| s == depth), "{}", topo.label());
        }
    }

    #[test]
    fn partial_occupancy_names_distinct() {
        // 11 processes in a width-16 variant network under the
        // collision maximizer: distinct names < 16.
        let algo = RouteRenaming { topology: RouteTopology::Variant, stages: None };
        assert_eq!(RenamingAlgorithm::m(&algo, 11), 16);
        let out =
            algo.run_dense(11, 0, &mut CollisionMaximizer::default(), &mut Arena::new()).unwrap();
        out.verify_renaming(16).unwrap();
    }

    #[test]
    fn single_process_percolates_to_wire_zero() {
        let algo = RouteRenaming { topology: RouteTopology::Benes, stages: None };
        let mut procs = algo.build(1, 0);
        // Alone, the process wins every switch and exits on wire 0 — but
        // it entered on wire 0, so route from a different wire directly.
        let net = route_network(RouteTopology::Benes, 8, None);
        let shared = Arc::new(NetworkShared::new(net));
        let mut p = NetworkProcess::with_array(6, Arc::clone(&shared), ROUTE_TAS_ARRAY);
        let (name, _steps) = rr_sched::process::run_to_completion(&mut p, 1000);
        assert_eq!(name, Some(0));
        let (name0, _) = rr_sched::process::run_to_completion(&mut procs[0], 1000);
        assert_eq!(name0, Some(0));
    }

    #[test]
    fn announces_on_the_route_array() {
        let algo = RouteRenaming { topology: RouteTopology::Butterfly, stages: None };
        let mut procs = algo.build(4, 0);
        match procs[0].announce() {
            rr_shmem::Access::Tas { array, .. } => assert_eq!(array, ROUTE_TAS_ARRAY),
            other => panic!("unexpected announce {other:?}"),
        }
    }

    #[test]
    fn names_encode_topology_and_stages() {
        assert_eq!(
            RenamingAlgorithm::name(&RouteRenaming {
                topology: RouteTopology::Benes,
                stages: None
            }),
            "route(benes)"
        );
        assert_eq!(
            RenamingAlgorithm::name(&RouteRenaming {
                topology: RouteTopology::Butterfly,
                stages: Some(5)
            }),
            "route(butterfly,stages=5)"
        );
    }

    #[test]
    fn total_under_fair() {
        let algo = RouteRenaming { topology: RouteTopology::Variant, stages: None };
        let out = algo.run_dense(24, 0, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
        assert_eq!(out.gave_up_count(), 0);
        out.verify_renaming(32).unwrap();
    }

    #[test]
    fn parse_accepts_exactly_the_three_topologies() {
        assert_eq!(RouteTopology::parse("benes").unwrap(), RouteTopology::Benes);
        assert_eq!(RouteTopology::parse("butterfly").unwrap(), RouteTopology::Butterfly);
        assert_eq!(RouteTopology::parse("variant").unwrap(), RouteTopology::Variant);
        assert_eq!(
            RouteTopology::parse("omega").unwrap_err(),
            "route net must be benes|butterfly|variant, got `omega`"
        );
    }
}
