//! Comparator-network renaming — the baseline of Alistarh et al.
//! (PODC 2011, reference \[7\] of the paper), which the τ-register
//! construction is designed to beat.
//!
//! Their transformation turns any sorting network into a renaming
//! protocol: each comparator is one TAS register ("splitter"); a process
//! enters the network on the wire of its initial name and, at every
//! comparator it meets, performs the TAS — the winner leaves on the
//! comparator's min-wire, the loser on the max-wire. At most one process
//! ever occupies a wire per layer (inputs are distinct and each
//! comparator maps its ≤ 2 visitors injectively to its two outputs), so
//! final wires are distinct: the final wire *is* the new name. Step
//! complexity = number of comparators on the path ≤ network depth.
//!
//! The paper's comparison target instantiates this with the AKS network
//! (depth `O(log n)`, galactic constants); we instantiate with
//! **Batcher's bitonic network** (depth `log W·(log W+1)/2`, constant 1)
//! — same code path, buildable — and provide the analytic AKS depth in
//! [`crate::aks_model`] for the crossover tables. See README "Deviations
//! from the paper", item 6.
//!
//! Every stage of the bitonic network, and of every [`crate::route`]
//! topology, is a butterfly stage: it pairs wire `i` with `i ^ 2^b` for
//! one address bit `b`. So a [`ComparatorNetwork`] stores only its
//! stage-bit schedule, one `u32` per stage, and finds each comparator
//! and its TAS index in closed form; a build costs O(depth) words
//! instead of two width-sized tables per stage. Networks whose stages
//! are not butterfly stages cannot be represented.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_shmem::Access;
use std::sync::Arc;

/// A single comparator between wires `lo < hi` within one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comparator {
    /// The min-output wire.
    pub lo: usize,
    /// The max-output wire.
    pub hi: usize,
}

/// A butterfly-stage comparator network: stage `l` pairs every wire `i`
/// with `i ^ 2^bits[l]`, so the whole network is its stage-bit schedule
/// and each comparator is found in closed form.
///
/// Comparator ids are global (for TAS register addressing): stage `l`
/// owns ids `l·W/2 .. (l+1)·W/2`, in increasing order of the low wire.
#[derive(Debug, Clone)]
pub struct ComparatorNetwork {
    width: usize,
    /// `bits[l]` — the address bit stage `l` switches.
    bits: Vec<u32>,
}

impl ComparatorNetwork {
    /// Builds a network over `width` wires from its stage-bit schedule.
    ///
    /// # Panics
    /// Panics unless `width` is a power of two ≥ 2 and every bit
    /// addresses a wire (`2^bit < width`).
    pub fn from_bits(width: usize, bits: Vec<u32>) -> Self {
        assert!(width.is_power_of_two() && width >= 2, "network needs a power-of-two width");
        let q = width.trailing_zeros();
        if let Some(b) = bits.iter().find(|&&b| b >= q) {
            panic!("stage bit {b} is outside a {width}-wire network");
        }
        Self { width, bits }
    }

    /// Batcher's bitonic sorting network for `width` wires
    /// (power of two): merge stage `s = 1..=q` switches bits
    /// `s−1, …, 0`. For renaming only the (lo, hi) ordering matters, so
    /// every comparator sends its winner to the lower wire.
    ///
    /// # Panics
    /// Panics unless `width` is a power of two ≥ 2.
    pub fn bitonic(width: usize) -> Self {
        let q = width.trailing_zeros();
        Self::from_bits(width, (1..=q).flat_map(|s| (0..s).rev()).collect())
    }

    /// Number of wires.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Network depth (number of layers).
    pub fn depth(&self) -> usize {
        self.bits.len()
    }

    /// Total number of comparators (= TAS registers required).
    pub fn size(&self) -> usize {
        self.depth() * (self.width / 2)
    }

    /// Comparator touching `wire` in `layer`, with its global id: the
    /// low wire's rank among the wires whose bit `b` is clear, offset by
    /// the layer's first id.
    pub fn comparator_at(&self, layer: usize, wire: usize) -> (usize, Comparator) {
        let b = self.bits[layer];
        let mask = 1usize << b;
        let lo = wire & !mask;
        let rank = ((lo >> (b + 1)) << b) | (lo & (mask - 1));
        (layer * (self.width / 2) + rank, Comparator { lo, hi: lo | mask })
    }
}

/// Shared memory for a network-renaming run: one TAS per comparator.
#[derive(Debug)]
pub struct NetworkShared {
    /// The network structure.
    pub network: ComparatorNetwork,
    /// `splitters[cid]` — the TAS register of comparator `cid`.
    pub splitters: AtomicTasArray,
}

impl NetworkShared {
    /// Builds the splitter array for `network`.
    pub fn new(network: ComparatorNetwork) -> Self {
        let splitters = AtomicTasArray::new(network.size());
        Self { network, splitters }
    }
}

/// A process traversing the splitter network from wire `pid`.
pub struct NetworkProcess {
    pid: usize,
    shared: Arc<NetworkShared>,
    layer: usize,
    wire: usize,
    array: u32,
}

impl NetworkProcess {
    /// Process entering on wire `pid`, announcing on TAS array id 3
    /// (the comparator-network address space).
    pub fn new(pid: usize, shared: Arc<NetworkShared>) -> Self {
        Self::with_array(pid, shared, 3)
    }

    /// Process entering on wire `pid`, announcing on TAS `array` — lets
    /// network families (bitonic vs [`crate::route`]) stay
    /// distinguishable to adversaries that group by announced target.
    pub fn with_array(pid: usize, shared: Arc<NetworkShared>, array: u32) -> Self {
        assert!(pid < shared.network.width(), "initial wire out of range");
        Self { pid, shared, layer: 0, wire: pid, array }
    }
}

impl Process for NetworkProcess {
    fn announce(&mut self) -> Access {
        if self.layer < self.shared.network.depth() {
            Access::Tas {
                array: self.array,
                index: self.shared.network.comparator_at(self.layer, self.wire).0,
            }
        } else {
            Access::Local
        }
    }

    fn step(&mut self) -> StepOutcome {
        let network = &self.shared.network;
        if self.layer == network.depth() {
            return StepOutcome::Done(self.wire);
        }
        let (cid, comp) = network.comparator_at(self.layer, self.wire);
        let won = self.shared.splitters.tas(cid);
        self.wire = if won { comp.lo } else { comp.hi };
        self.layer += 1;
        // Exiting the last comparator ends the protocol — the final wire
        // is the name; no extra step is charged.
        if self.layer == network.depth() {
            StepOutcome::Done(self.wire)
        } else {
            StepOutcome::Continue
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }
}

/// Network renaming as a [`RenamingProtocol`]: width = next power of two
/// ≥ n, so `m < 2n` (tight `m = n` when `n` is a power of two).
#[derive(Debug, Clone, Copy)]
pub struct BitonicRenaming;

impl RenamingProtocol for BitonicRenaming {
    type Proc = NetworkProcess;

    fn name(&self) -> String {
        "bitonic-network".into()
    }

    fn m(&self, n: usize) -> usize {
        n.next_power_of_two().max(2)
    }

    /// Deterministic: draws no coins, so the seed is ignored.
    fn build(&self, n: usize, _seed: u64) -> Vec<NetworkProcess> {
        let shared = Arc::new(NetworkShared::new(ComparatorNetwork::bitonic(self.m(n))));
        (0..n).map(|pid| NetworkProcess::new(pid, Arc::clone(&shared))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::{CollisionMaximizer, FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    #[test]
    fn bitonic_structure() {
        let net = ComparatorNetwork::bitonic(8);
        // Depth = log W (log W + 1)/2 = 3·4/2 = 6.
        assert_eq!(net.depth(), 6);
        // Size = depth · W/2 = 6·4 = 24.
        assert_eq!(net.size(), 24);
        assert_eq!(net.width(), 8);
        // Every layer pairs all 8 wires (bitonic is a full butterfly),
        // each comparator with one id of its own layer.
        for l in 0..net.depth() {
            for w in 0..8 {
                let (id, c) = net.comparator_at(l, w);
                assert!(c.lo == w || c.hi == w);
                assert_eq!(net.comparator_at(l, c.lo ^ c.hi ^ w), (id, c));
                assert!((4 * l..4 * (l + 1)).contains(&id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bitonic_width_must_be_pow2() {
        ComparatorNetwork::bitonic(6);
    }

    #[test]
    #[should_panic(expected = "stage bit 2 is outside a 4-wire network")]
    fn stage_bit_beyond_width_rejected() {
        ComparatorNetwork::from_bits(4, vec![0, 2]);
    }

    /// The comparator layers Batcher's construction lists for `width`
    /// wires: for each block size `k` and distance `j`, every wire `i`
    /// paired with `i ^ j` above it.
    fn bitonic_layers(width: usize) -> Vec<Vec<Comparator>> {
        let mut layers = Vec::new();
        let mut k = 2;
        while k <= width {
            let mut j = k / 2;
            while j >= 1 {
                let layer = (0..width)
                    .filter(|&i| i ^ j > i)
                    .map(|i| Comparator { lo: i, hi: i ^ j })
                    .collect();
                layers.push(layer);
                j /= 2;
            }
            k *= 2;
        }
        layers
    }

    /// The switch layers of a `route` topology: stage `s` pairs every
    /// wire with its bit `schedule[s mod len]` clear to the wire with it
    /// set.
    fn route_layers(
        topology: crate::route::RouteTopology,
        width: usize,
        stages: Option<usize>,
    ) -> Vec<Vec<Comparator>> {
        let schedule = topology.bit_schedule(width.trailing_zeros());
        (0..stages.unwrap_or(schedule.len()))
            .map(|s| {
                let mask = 1usize << schedule[s % schedule.len()];
                (0..width)
                    .filter(|i| i & mask == 0)
                    .map(|i| Comparator { lo: i, hi: i | mask })
                    .collect()
            })
            .collect()
    }

    /// Asserts that `net` finds, at every `(layer, wire)`, the comparator
    /// and global id a per-layer wire table over `layers` gives: ids
    /// numbered layer by layer in list order.
    fn assert_matches_table(net: &ComparatorNetwork, layers: &[Vec<Comparator>], what: &str) {
        assert_eq!(net.depth(), layers.len(), "{what}");
        let mut base = 0;
        for (l, layer) in layers.iter().enumerate() {
            let mut table = vec![None; net.width()];
            for (ci, &c) in layer.iter().enumerate() {
                assert!(table[c.lo].is_none() && table[c.hi].is_none(), "{what}: wire reuse");
                table[c.lo] = Some((base + ci, c));
                table[c.hi] = Some((base + ci, c));
            }
            for (w, entry) in table.into_iter().enumerate() {
                assert_eq!(Some(net.comparator_at(l, w)), entry, "{what}: layer {l} wire {w}");
            }
            base += layer.len();
        }
        assert_eq!(net.size(), base, "{what}");
    }

    /// The closed form gives the same comparator and id as the tables the
    /// layered constructor built, for every width 2…256, bitonic and every
    /// `route` topology with and without a `stages` override; so announced
    /// TAS indices are unchanged.
    #[test]
    fn closed_form_matches_the_comparator_tables() {
        use crate::route::{route_network, RouteTopology};
        for q in 1..=8u32 {
            let width = 1usize << q;
            assert_matches_table(
                &ComparatorNetwork::bitonic(width),
                &bitonic_layers(width),
                &format!("bitonic({width})"),
            );
            for topology in [RouteTopology::Benes, RouteTopology::Butterfly, RouteTopology::Variant]
            {
                let closed = topology.closed_form_depth(width);
                for stages in [None, Some(1), Some(2), Some(3), Some(closed + 3)] {
                    assert_matches_table(
                        &route_network(topology, width, stages),
                        &route_layers(topology, width, stages),
                        &format!("route({},{width},{stages:?})", topology.label()),
                    );
                }
            }
        }
    }

    #[test]
    fn full_network_run_is_tight_renaming() {
        let n = 16;
        let out = BitonicRenaming
            .run_dense(n, 0, &mut FairAdversary::default(), &mut Arena::new())
            .unwrap();
        out.verify_renaming(16).unwrap();
        let mut names: Vec<_> = out.names.iter().map(|x| x.unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn step_complexity_equals_depth_for_full_occupancy() {
        // With every wire occupied, every process meets a comparator in
        // every layer: steps = depth exactly.
        let n = 32;
        let net_depth = ComparatorNetwork::bitonic(32).depth() as u64;
        let out = BitonicRenaming
            .run_dense(n, 0, &mut RandomAdversary::new(4), &mut Arena::new())
            .unwrap();
        assert_eq!(out.step_complexity(), net_depth);
        assert!(out.steps.iter().all(|&s| s == net_depth));
    }

    #[test]
    fn partial_occupancy_names_distinct() {
        // 10 processes in a width-16 network: distinct names < 16.
        assert_eq!(RenamingAlgorithm::m(&BitonicRenaming, 10), 16);
        let out = BitonicRenaming
            .run_dense(10, 0, &mut CollisionMaximizer::default(), &mut Arena::new())
            .unwrap();
        out.verify_renaming(16).unwrap();
    }

    #[test]
    fn depth_grows_quadratically_in_log() {
        let d = |w: usize| ComparatorNetwork::bitonic(w).depth();
        assert_eq!(d(2), 1);
        assert_eq!(d(4), 3);
        assert_eq!(d(16), 10);
        assert_eq!(d(1024), 55); // 10·11/2
    }

    #[test]
    fn single_process_reaches_wire_zero() {
        // Alone in the network, a process wins every comparator and
        // percolates to the lowest wire.
        let shared = Arc::new(NetworkShared::new(ComparatorNetwork::bitonic(8)));
        let mut p = NetworkProcess::new(5, Arc::clone(&shared));
        let (name, _steps) = rr_sched::process::run_to_completion(&mut p, 1000);
        assert_eq!(name, Some(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rr_sched::adversary::RandomAdversary;
    use rr_sched::shard::Arena;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Any occupancy of any bitonic width yields distinct in-range
        /// names under any schedule.
        #[test]
        fn network_names_distinct(
            width_log in 1u32..8,
            occupancy_frac in 1usize..100,
            seed in 0u64..500,
        ) {
            let width = 1usize << width_log;
            let n = (width * occupancy_frac / 100).max(1).min(width);
            let shared = Arc::new(NetworkShared::new(ComparatorNetwork::bitonic(width)));
            let mut procs: Vec<NetworkProcess> =
                (0..n).map(|pid| NetworkProcess::new(pid, Arc::clone(&shared))).collect();
            let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(seed), 1 << 22).unwrap();
            prop_assert!(out.verify_renaming(width).is_ok());
            // Steps never exceed the depth.
            let depth = shared.network.depth() as u64;
            prop_assert!(out.steps.iter().all(|&s| s <= depth));
        }

        /// Arbitrary stage-bit schedules (not just bitonic or a routing
        /// topology: any bits, depth 0–12) at any occupancy still give
        /// distinct names — distinctness is a property of TAS splitters,
        /// not of the sorting structure.
        #[test]
        fn arbitrary_networks_are_renaming_safe(
            width_log in 1u32..6,
            raw_bits in proptest::collection::vec(0u32..u32::MAX, 0..13),
            occupancy in 1usize..=32,
            seed in 0u64..200,
        ) {
            let width = 1usize << width_log;
            let n = occupancy.min(width);
            let bits = raw_bits.iter().map(|b| b % width_log).collect();
            let shared = Arc::new(NetworkShared::new(ComparatorNetwork::from_bits(width, bits)));
            let mut procs: Vec<NetworkProcess> =
                (0..n).map(|pid| NetworkProcess::new(pid, Arc::clone(&shared))).collect();
            let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(seed), 1 << 22).unwrap();
            prop_assert!(out.verify_renaming(width).is_ok());
            prop_assert_eq!(out.gave_up_count(), 0);
            let depth = shared.network.depth() as u64;
            prop_assert!(out.steps.iter().all(|&s| s <= depth.max(1)));
        }
    }
}
