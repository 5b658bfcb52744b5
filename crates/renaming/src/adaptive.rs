//! Adaptive loose renaming: the participant count is *not* known.
//!
//! §IV of the paper remarks that "one can also apply the framework of
//! \[8\] to transform our algorithms into adaptive algorithms when the
//! number of active processes … is not known in advance", at the cost of
//! an `O((1+ε)k)` name space. This module implements that transform with
//! the classic doubling-guess construction:
//!
//! The name space is an infinite-in-principle sequence of *estimate
//! segments*; segment `j` is sized for the guess `k̂ = 2^j` and laid out
//! as a Corollary-9-style area (primary `2^j` names + finisher spare).
//! A process starts at segment `j₀ = 0` and runs the loose protocol
//! sized for `2^j` inside segment `j` (a [`Chain`] of Lemma 6 and the
//! finisher); if the chain gives up (more than `2^j` participants — the
//! guess was too low), it moves to segment `j+1`. With `k` actual
//! participants every process succeeds by segment `⌈log₂ k⌉ + O(1)`
//! w.h.p., so
//!
//! * names come from `[0, O(k))` — the segments up to the successful one
//!   total `Σ_{j≤log k+O(1)} c·2^j = O(k)` names (adaptive name space);
//! * step complexity is `O(log k · (log log k)²)` — a `log k` factor
//!   above the non-adaptive Corollary 9 because our transform re-runs
//!   the guess ladder instead of \[8\]'s binary-search-with-backtracking.
//!   The gap is README "Deviations from the paper", item 5; the paper
//!   itself notes the
//!   transform "would not result in an improvement compared to \[8\]".

use crate::aagw::{AagwProcess, SpareShared};
use crate::loose_l6::{L6Process, LooseShared};
use crate::params::Lemma6Schedule;
use crate::phase::Chain;
use crate::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::Access;
use std::sync::Arc;

/// Layout of the estimate segments inside one flat name space.
#[derive(Debug, Clone)]
pub struct AdaptiveLayout {
    /// `base[j]` — first name of segment `j`.
    pub bases: Vec<usize>,
    /// `primary[j]` — size of segment `j`'s primary area (`2^j`).
    pub primaries: Vec<usize>,
    /// `spare[j]` — size of segment `j`'s finisher area.
    pub spares: Vec<usize>,
    /// Total names across all segments.
    pub total: usize,
}

impl AdaptiveLayout {
    /// Segments for guesses `2^0 .. 2^max_guess_log`.
    ///
    /// Each segment gets a primary area of `2^j` names plus a finisher
    /// spare of `2^j` names (ε = 1 per segment keeps the per-segment
    /// finisher fast; the *total* space is still `O(k)` for the segments
    /// a k-participant execution can ever reach).
    pub fn new(max_guess_log: u32) -> Self {
        let mut bases = Vec::new();
        let mut primaries = Vec::new();
        let mut spares = Vec::new();
        let mut total = 0usize;
        for j in 0..=max_guess_log {
            let primary = 1usize << j;
            let spare = 1usize << j;
            bases.push(total);
            primaries.push(primary);
            spares.push(spare);
            total += primary + spare;
        }
        Self { bases, primaries, spares, total }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.bases.len()
    }

    /// Names consumed if every process finishes by segment `j` —
    /// the adaptive name-space bound `O(2^j)`.
    pub fn names_through(&self, j: usize) -> usize {
        self.bases[j] + self.primaries[j] + self.spares[j]
    }
}

/// Per-segment shared memory.
#[derive(Debug)]
struct Segment {
    /// The primary registers and the segment's Lemma 6 schedule and
    /// stream key.
    primary: Arc<LooseShared>,
    /// The finisher area, its plan and its stream key, based at the
    /// segment's primary size so the segment's [`Chain`] returns names
    /// relative to the segment.
    spare: Arc<SpareShared>,
}

/// Shared memory for an adaptive run: all segments.
#[derive(Debug)]
pub struct AdaptiveShared {
    layout: AdaptiveLayout,
    segments: Vec<Segment>,
}

impl AdaptiveShared {
    /// Builds all segments of `layout`, with the streams of `seed`.
    pub fn new(layout: AdaptiveLayout, seed: u64) -> Self {
        let segments = (0..layout.segments())
            .map(|j| {
                let primary_size = layout.primaries[j];
                let spare_size = layout.spares[j];
                // Schedules need n ≥ 4; tiny guesses borrow the n = 4
                // schedule (a handful of probes — correct, just coarse).
                let sched_n = primary_size.max(4);
                // Distinct streams per (process, segment) so ladder
                // retries are independent.
                let seed = seed ^ ((j as u64 + 1) << 32);
                Segment {
                    primary: Arc::new(LooseShared::new(
                        primary_size,
                        Lemma6Schedule::new(sched_n, 1),
                        seed,
                    )),
                    spare: Arc::new(SpareShared::new(primary_size, spare_size, seed ^ 0x5eed)),
                }
            })
            .collect();
        Self { layout, segments }
    }

    /// The layout in force.
    pub fn layout(&self) -> &AdaptiveLayout {
        &self.layout
    }

    /// Process `pid`'s Lemma 6 stage in segment `j`, chained to the
    /// segment's finisher.
    fn chain(&self, pid: usize, j: usize) -> Chain<L6Process, AagwProcess> {
        let seg = &self.segments[j];
        let primary = L6Process::new(pid, Arc::clone(&seg.primary));
        let spare = Arc::clone(&seg.spare);
        // Only the top segment keeps the deterministic sweep (it is the
        // global termination guarantee); lower segments climb instead.
        let finisher = if j + 1 == self.segments.len() {
            AagwProcess::new(pid, spare)
        } else {
            AagwProcess::without_sweep(pid, spare)
        };
        Chain::new(primary, finisher)
    }
}

/// One adaptive process: walks the guess ladder.
pub struct AdaptiveProcess {
    pid: usize,
    shared: Arc<AdaptiveShared>,
    segment: usize,
    /// The current segment's stages.
    chain: Chain<L6Process, AagwProcess>,
    /// RNG draws spent in segments already left (the live chain holds
    /// only the current segment's counts).
    words_spent: u64,
}

impl AdaptiveProcess {
    /// Process `pid` starting at segment 0.
    pub fn new(pid: usize, shared: Arc<AdaptiveShared>) -> Self {
        let chain = shared.chain(pid, 0);
        Self { pid, shared, segment: 0, chain, words_spent: 0 }
    }

    /// Segment the process is currently working in (experiments read it).
    pub fn current_segment(&self) -> usize {
        self.segment
    }
}

impl Process for AdaptiveProcess {
    fn announce(&mut self) -> Access {
        self.chain.announce()
    }

    fn step(&mut self) -> StepOutcome {
        match self.chain.step() {
            StepOutcome::Continue => StepOutcome::Continue,
            StepOutcome::Done(local) => {
                StepOutcome::Done(self.shared.layout.bases[self.segment] + local)
            }
            StepOutcome::GaveUp => {
                // Segment full: the guess was too low; climb.
                let next = self.segment + 1;
                assert!(
                    next < self.shared.segments.len(),
                    "guess ladder exhausted: layout sized for fewer participants"
                );
                self.words_spent += self.chain.rng_words().unwrap_or(0);
                self.segment = next;
                self.chain = self.shared.chain(self.pid, next);
                StepOutcome::Continue
            }
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }

    fn rng_words(&self) -> Option<u64> {
        Some(self.words_spent + self.chain.rng_words().unwrap_or(0))
    }
}

/// Adaptive loose renaming as a [`RenamingProtocol`].
///
/// `build(n, …)` sizes the ladder for up to `n` participants but
/// the *processes do not know n* — they start at guess 1 and climb. Use
/// [`AdaptiveRenaming::instantiate_participants`] to run only `k ≤ n`
/// participants against the same ladder and observe the adaptive
/// name-space bound `O(k)`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveRenaming;

impl AdaptiveRenaming {
    /// Builds a ladder sized for `max_n` and processes for `k`
    /// participants (`k ≤ max_n`).
    pub fn instantiate_participants(
        &self,
        k: usize,
        max_n: usize,
        seed: u64,
    ) -> (Arc<AdaptiveShared>, Vec<AdaptiveProcess>) {
        assert!(k >= 1 && k <= max_n);
        // Segments up to 2^(⌈log₂ max_n⌉ + 1): one guess beyond max_n so
        // the w.h.p. straggler bound of the top segment has headroom.
        let max_guess_log = (usize::BITS - (max_n - 1).leading_zeros()).max(1) + 1;
        let shared = Arc::new(AdaptiveShared::new(AdaptiveLayout::new(max_guess_log), seed));
        let procs = (0..k).map(|pid| AdaptiveProcess::new(pid, Arc::clone(&shared))).collect();
        (shared, procs)
    }
}

impl RenamingProtocol for AdaptiveRenaming {
    type Proc = AdaptiveProcess;

    fn name(&self) -> String {
        "adaptive(doubling)".into()
    }

    fn m(&self, n: usize) -> usize {
        let max_guess_log = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1) + 1;
        AdaptiveLayout::new(max_guess_log).total
    }

    fn step_budget(&self, n: usize) -> u64 {
        // log k guesses, each a bounded loose protocol; ⌈log₂⌉ like the
        // default budget so n just past a power of two is not shaved.
        400 * (n as u64) * ((n.max(2) as f64).log2().ceil() as u64 + 16)
    }

    fn build(&self, n: usize, seed: u64) -> Vec<AdaptiveProcess> {
        self.instantiate_participants(n, n, seed).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RenamingAlgorithm;
    use rr_sched::adversary::{FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    fn run_adaptive(k: usize, max_n: usize, seed: u64) -> (Vec<usize>, u64, usize) {
        let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(k, max_n, seed);
        let out = Arena::new()
            .run(
                &mut procs,
                &mut FairAdversary::default(),
                RenamingAlgorithm::step_budget(&AdaptiveRenaming, max_n),
            )
            .unwrap();
        out.verify_renaming(shared.layout().total).unwrap();
        assert_eq!(out.gave_up_count(), 0, "adaptive renaming must name everyone");
        let names: Vec<usize> = out.names.iter().flatten().copied().collect();
        (names, out.step_complexity(), shared.layout().total)
    }

    #[test]
    fn all_participants_named_distinctly() {
        let (names, _, _) = run_adaptive(100, 1024, 3);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn name_space_adapts_to_k_not_max_n() {
        // 10 participants on a ladder sized for 4096: names must come
        // from the low segments — O(k), not O(max_n).
        let (names, _, total) = run_adaptive(10, 4096, 5);
        let max_name = *names.iter().max().unwrap();
        assert!(
            max_name < 128,
            "10 participants should finish in the small segments (max name {max_name})"
        );
        assert!(total > 8192, "the ladder itself is big; adaptivity is about *used* names");
    }

    #[test]
    fn used_names_scale_linearly_with_k() {
        let mut prev_max = 0;
        for k in [8usize, 32, 128, 512] {
            let (names, _, _) = run_adaptive(k, 2048, 7);
            let max_name = *names.iter().max().unwrap();
            assert!(max_name < 12 * k, "k={k}: max name {max_name} is not O(k)");
            assert!(max_name >= prev_max / 8, "sanity: usage grows with k");
            prev_max = max_name;
        }
    }

    #[test]
    fn step_complexity_grows_mildly_in_k() {
        let (_, steps_small, _) = run_adaptive(16, 4096, 9);
        let (_, steps_big, _) = run_adaptive(1024, 4096, 9);
        // log k · polyloglog k: 64× more participants ⇒ comfortably less
        // than a 64× step increase.
        assert!(steps_big < steps_small * 16, "{steps_small} -> {steps_big}");
    }

    /// Each name lies in the segment its process finished in, and the
    /// per-segment name counts of a fixed-seed run are pinned, split
    /// into the segment's primary area (from `bases[j]`) and its
    /// finisher area (after the primary): the segment-to-name offset is
    /// what this checks.
    #[test]
    fn names_fall_in_the_finishing_segment() {
        let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(100, 1024, 3);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        let layout = shared.layout();
        out.verify_renaming(layout.total).unwrap();
        let mut per_segment = vec![(0, 0); layout.segments()];
        for (p, name) in procs.iter().zip(out.names.iter()) {
            let (j, name) = (p.current_segment(), name.expect("everyone is named"));
            assert!(
                (layout.bases[j]..layout.names_through(j)).contains(&name),
                "pid {} named {name} outside segment {j}",
                p.pid()
            );
            if name < layout.bases[j] + layout.primaries[j] {
                per_segment[j].0 += 1;
            } else {
                per_segment[j].1 += 1;
            }
        }
        // All 100 names are in segments 0..=6.
        let pinned = [(1, 0), (2, 0), (4, 0), (8, 0), (16, 8), (32, 24), (5, 0)];
        assert_eq!(per_segment[..pinned.len()], pinned);
    }

    #[test]
    fn safety_under_random_adversary() {
        let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(64, 256, 2);
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(11), 1 << 26).unwrap();
        out.verify_renaming(shared.layout().total).unwrap();
    }

    #[test]
    fn trait_instantiation_works() {
        let inst = RenamingAlgorithm::instantiate(&AdaptiveRenaming, 64, 1);
        assert_eq!(inst.n, 64);
        assert!(inst.m >= 128);
    }

    #[test]
    fn layout_arithmetic() {
        let layout = AdaptiveLayout::new(3);
        assert_eq!(layout.segments(), 4);
        // Segments: 1+1, 2+2, 4+4, 8+8 ⇒ bases 0, 2, 6, 14; total 30.
        assert_eq!(layout.bases, vec![0, 2, 6, 14]);
        assert_eq!(layout.total, 30);
        assert_eq!(layout.names_through(1), 6);
    }
}
