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
//! sized for `2^j` inside segment `j`; if the segment is exhausted
//! (more than `2^j` participants — the guess was too low), it moves to
//! segment `j+1`. With `k` actual participants every process succeeds by
//! segment `⌈log₂ k⌉ + O(1)` w.h.p., so
//!
//! * names come from `[0, O(k))` — the segments up to the successful one
//!   total `Σ_{j≤log k+O(1)} c·2^j = O(k)` names (adaptive name space);
//! * step complexity is `O(log k · (log log k)²)` — a `log k` factor
//!   above the non-adaptive Corollary 9 because our transform re-runs
//!   the guess ladder instead of \[8\]'s binary-search-with-backtracking.
//!   The gap is documented in DESIGN.md; the paper itself notes the
//!   transform "would not result in an improvement compared to \[8\]".

use crate::aagw::{AagwProcess, SpareShared};
use crate::loose_l6::{L6Process, LooseShared};
use crate::params::{FinisherPlan, Lemma6Schedule};
use crate::phase::{PhaseOutcome, PhaseProcess};
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
    primary: Arc<LooseShared>,
    spare: Arc<SpareShared>,
    schedule: Lemma6Schedule,
    plan: FinisherPlan,
    /// First name of the primary area (names are offset by this).
    base: usize,
}

/// Shared memory for an adaptive run: all segments.
#[derive(Debug)]
pub struct AdaptiveShared {
    layout: AdaptiveLayout,
    segments: Vec<Segment>,
}

impl AdaptiveShared {
    /// Builds all segments of `layout`.
    pub fn new(layout: AdaptiveLayout) -> Self {
        let segments = (0..layout.segments())
            .map(|j| {
                let primary_size = layout.primaries[j];
                let spare_size = layout.spares[j];
                // Schedules need n ≥ 4; tiny guesses borrow the n = 4
                // schedule (a handful of probes — correct, just coarse).
                let sched_n = primary_size.max(4);
                Segment {
                    primary: Arc::new(LooseShared::new(primary_size)),
                    spare: Arc::new(SpareShared::new(0, spare_size)),
                    schedule: Lemma6Schedule::new(sched_n, 1),
                    plan: FinisherPlan::new(spare_size),
                    base: layout.bases[j],
                }
            })
            .collect();
        Self { layout, segments }
    }

    /// The layout in force.
    pub fn layout(&self) -> &AdaptiveLayout {
        &self.layout
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Primary,
    Finisher,
}

/// One adaptive process: walks the guess ladder.
pub struct AdaptiveProcess {
    pid: usize,
    seed: u64,
    shared: Arc<AdaptiveShared>,
    segment: usize,
    stage: Stage,
    inner_primary: Option<L6Process>,
    inner_finisher: Option<AagwProcess>,
    /// RNG draws spent in segments already left (the live inners hold
    /// only the current segment's counts).
    words_spent: u64,
}

impl AdaptiveProcess {
    /// Process `pid` starting at segment 0.
    pub fn new(pid: usize, seed: u64, shared: Arc<AdaptiveShared>) -> Self {
        let mut p = Self {
            pid,
            seed,
            shared,
            segment: 0,
            stage: Stage::Primary,
            inner_primary: None,
            inner_finisher: None,
            words_spent: 0,
        };
        p.enter_segment(0);
        p
    }

    /// Segment the process is currently working in (experiments read it).
    pub fn current_segment(&self) -> usize {
        self.segment
    }

    fn enter_segment(&mut self, j: usize) {
        self.words_spent += self.inner_primary.as_ref().and_then(|p| p.rng_words()).unwrap_or(0)
            + self.inner_finisher.as_ref().and_then(|p| p.rng_words()).unwrap_or(0);
        self.segment = j;
        self.stage = Stage::Primary;
        let seg = &self.shared.segments[j];
        // Distinct stream per (process, segment) so ladder retries are
        // independent.
        let seed = self.seed ^ ((j as u64 + 1) << 32);
        self.inner_primary =
            Some(L6Process::new(self.pid, seed, Arc::clone(&seg.primary), seg.schedule.clone()));
        let last = j + 1 == self.shared.segments.len();
        // Only the top segment keeps the deterministic sweep (it is the
        // global termination guarantee); lower segments climb instead.
        self.inner_finisher = Some(if last {
            AagwProcess::new(self.pid, seed ^ 0x5eed, Arc::clone(&seg.spare), seg.plan.clone())
        } else {
            AagwProcess::without_sweep(
                self.pid,
                seed ^ 0x5eed,
                Arc::clone(&seg.spare),
                seg.plan.clone(),
            )
        });
    }

    fn segment_base(&self) -> usize {
        self.shared.segments[self.segment].base
    }

    fn spare_base(&self) -> usize {
        self.segment_base() + self.shared.layout.primaries[self.segment]
    }
}

impl Process for AdaptiveProcess {
    fn announce(&mut self) -> Access {
        match self.stage {
            Stage::Primary => self.inner_primary.as_mut().unwrap().announce(),
            Stage::Finisher => self.inner_finisher.as_mut().unwrap().announce(),
        }
    }

    fn step(&mut self) -> StepOutcome {
        match self.stage {
            Stage::Primary => match self.inner_primary.as_mut().unwrap().poll() {
                PhaseOutcome::Continue => StepOutcome::Continue,
                PhaseOutcome::Done(local) => StepOutcome::Done(self.segment_base() + local),
                PhaseOutcome::Exhausted => {
                    self.stage = Stage::Finisher;
                    StepOutcome::Continue
                }
            },
            Stage::Finisher => match self.inner_finisher.as_mut().unwrap().poll() {
                PhaseOutcome::Continue => StepOutcome::Continue,
                PhaseOutcome::Done(local) => StepOutcome::Done(self.spare_base() + local),
                PhaseOutcome::Exhausted => {
                    // Segment full: the guess was too low; climb.
                    let next = self.segment + 1;
                    assert!(
                        next < self.shared.segments.len(),
                        "guess ladder exhausted: layout sized for fewer participants"
                    );
                    self.enter_segment(next);
                    StepOutcome::Continue
                }
            },
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }

    fn rng_words(&self) -> Option<u64> {
        let live = self.inner_primary.as_ref().and_then(|p| p.rng_words()).unwrap_or(0)
            + self.inner_finisher.as_ref().and_then(|p| p.rng_words()).unwrap_or(0);
        Some(self.words_spent + live)
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
        let shared = Arc::new(AdaptiveShared::new(AdaptiveLayout::new(max_guess_log)));
        let procs =
            (0..k).map(|pid| AdaptiveProcess::new(pid, seed, Arc::clone(&shared))).collect();
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
