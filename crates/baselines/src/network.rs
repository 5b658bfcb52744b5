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

/// A comparator network as layers of disjoint comparators.
#[derive(Debug, Clone)]
pub struct ComparatorNetwork {
    width: usize,
    layers: Vec<Vec<Comparator>>,
    /// `wire_map[layer][wire]` → index of the comparator touching `wire`
    /// in `layer` (dense lookup), or `usize::MAX`.
    wire_map: Vec<Vec<usize>>,
    /// Comparator ids are global (for TAS register addressing):
    /// `layer_base[l] + index_within_layer`.
    layer_base: Vec<usize>,
    total: usize,
}

impl ComparatorNetwork {
    /// Builds a network from layers.
    ///
    /// # Panics
    /// Panics if a layer reuses a wire or a comparator is degenerate.
    pub fn new(width: usize, layers: Vec<Vec<Comparator>>) -> Self {
        let mut wire_map = Vec::with_capacity(layers.len());
        let mut layer_base = Vec::with_capacity(layers.len());
        let mut total = 0usize;
        for layer in &layers {
            let mut map = vec![usize::MAX; width];
            for (ci, c) in layer.iter().enumerate() {
                assert!(c.lo < c.hi && c.hi < width, "bad comparator {c:?}");
                assert!(map[c.lo] == usize::MAX && map[c.hi] == usize::MAX, "wire reuse");
                map[c.lo] = ci;
                map[c.hi] = ci;
            }
            wire_map.push(map);
            layer_base.push(total);
            total += layer.len();
        }
        Self { width, layers, wire_map, layer_base, total }
    }

    /// Batcher's bitonic sorting network for `width` wires
    /// (power of two).
    ///
    /// # Panics
    /// Panics unless `width` is a power of two ≥ 2.
    pub fn bitonic(width: usize) -> Self {
        assert!(width.is_power_of_two() && width >= 2, "bitonic needs a power-of-two width");
        let mut layers = Vec::new();
        let mut k = 2;
        while k <= width {
            let mut j = k / 2;
            while j >= 1 {
                let mut layer = Vec::new();
                for i in 0..width {
                    let partner = i ^ j;
                    if partner > i {
                        // Direction of the bitonic stage (ascending when
                        // the k-block bit is clear). For renaming only
                        // the (lo, hi) ordering matters; we normalize so
                        // winners always move toward the lower wire.
                        layer.push(Comparator { lo: i, hi: partner });
                    }
                }
                layers.push(layer);
                j /= 2;
            }
            k *= 2;
        }
        Self::new(width, layers)
    }

    /// Number of wires.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Network depth (number of layers).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of comparators (= TAS registers required).
    pub fn size(&self) -> usize {
        self.total
    }

    /// Comparator touching `wire` in `layer`, with its global id.
    pub fn comparator_at(&self, layer: usize, wire: usize) -> Option<(usize, Comparator)> {
        let ci = self.wire_map[layer][wire];
        (ci != usize::MAX).then(|| (self.layer_base[layer] + ci, self.layers[layer][ci]))
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

    /// Skips layers with no comparator on the current wire (free — pure
    /// routing), stopping at the next comparator or the network end.
    fn advance_to_comparator(&mut self) -> Option<(usize, Comparator)> {
        while self.layer < self.shared.network.depth() {
            if let Some(hit) = self.shared.network.comparator_at(self.layer, self.wire) {
                return Some(hit);
            }
            self.layer += 1;
        }
        None
    }
}

impl Process for NetworkProcess {
    fn announce(&mut self) -> Access {
        match self.advance_to_comparator() {
            Some((cid, _)) => Access::Tas { array: self.array, index: cid },
            None => Access::Local,
        }
    }

    fn step(&mut self) -> StepOutcome {
        match self.advance_to_comparator() {
            Some((cid, comp)) => {
                let won = self.shared.splitters.tas(cid);
                self.wire = if won { comp.lo } else { comp.hi };
                self.layer += 1;
                // Exiting the last comparator ends the protocol — the
                // final wire is the name; no extra step is charged.
                match self.advance_to_comparator() {
                    Some(_) => StepOutcome::Continue,
                    None => StepOutcome::Done(self.wire),
                }
            }
            None => StepOutcome::Done(self.wire),
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
        // Every layer pairs all 8 wires (bitonic is a full butterfly).
        for l in 0..net.depth() {
            for w in 0..8 {
                assert!(net.comparator_at(l, w).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bitonic_width_must_be_pow2() {
        ComparatorNetwork::bitonic(6);
    }

    #[test]
    #[should_panic(expected = "wire reuse")]
    fn layer_wire_reuse_rejected() {
        ComparatorNetwork::new(
            4,
            vec![vec![Comparator { lo: 0, hi: 1 }, Comparator { lo: 1, hi: 2 }]],
        );
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

        /// Random legal layered networks (not just bitonic) still give
        /// distinct names — distinctness is a property of TAS splitters,
        /// not of the sorting structure.
        #[test]
        fn arbitrary_networks_are_renaming_safe(
            width in 2usize..24,
            layer_seeds in proptest::collection::vec(0u64..u64::MAX, 0..12),
            seed in 0u64..200,
        ) {
            use rand::{RngExt, SeedableRng};
            // Build random disjoint comparator layers.
            let layers: Vec<Vec<Comparator>> = layer_seeds
                .iter()
                .map(|&ls| {
                    let mut rng = rand::rngs::ChaCha8Rng::seed_from_u64(ls);
                    let mut wires: Vec<usize> = (0..width).collect();
                    // Fisher-Yates then pair up a random prefix.
                    for i in (1..wires.len()).rev() {
                        let j = rng.random_range(0..=i);
                        wires.swap(i, j);
                    }
                    let pairs = rng.random_range(0..=width / 2);
                    (0..pairs)
                        .map(|k| {
                            let a = wires[2 * k];
                            let b = wires[2 * k + 1];
                            Comparator { lo: a.min(b), hi: a.max(b) }
                        })
                        .collect()
                })
                .collect();
            let net = ComparatorNetwork::new(width, layers);
            let shared = Arc::new(NetworkShared::new(net));
            let mut procs: Vec<NetworkProcess> =
                (0..width).map(|pid| NetworkProcess::new(pid, Arc::clone(&shared))).collect();
            let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(seed), 1 << 22).unwrap();
            prop_assert!(out.verify_renaming(width).is_ok());
        }
    }
}
