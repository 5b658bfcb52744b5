//! The finisher: loose renaming of `o(n)` stragglers into a dedicated
//! spare name space, in the style of Alistarh–Aspnes–Giakkoupis–Woelfel
//! (PODC 2013, reference \[8\] of the paper).
//!
//! Corollaries 7 and 9 name the stragglers of Lemmas 6/8 inside a spare
//! space of twice their w.h.p. count. Our finisher (the substitution is
//! documented in DESIGN.md) walks geometric segments of the spare space —
//! segment `j` has `spare/2^j` names and a probe budget of `j + 2` —
//! so the straggler population decays doubly exponentially across
//! segments and every process finishes within `O((log log n)²)` probes
//! w.h.p.; a deterministic full scan of the spare space guarantees
//! termination even if every random probe loses.
//!
//! The fallback's single full pass is sound: spare names are never
//! released, so a pass that fails at every register certifies that all
//! `spare` names were taken — impossible while stragglers number at most
//! `spare/2` (the w.h.p. regime). Outside that regime the process reports
//! `Exhausted` and the run is counted as a w.h.p. failure.

use crate::params::FinisherPlan;
use crate::phase::{PhaseOutcome, PhaseProcess};
use rr_shmem::rng::ProcessRng;
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_shmem::Access;
use std::sync::Arc;

/// Shared spare name space: `spare` TAS registers whose register `i`
/// corresponds to name `base + i`.
#[derive(Debug)]
pub struct SpareShared {
    /// First name in the spare space (e.g. `n`).
    pub base: usize,
    /// The spare registers.
    pub registers: AtomicTasArray,
}

impl SpareShared {
    /// Spare space of `spare` names starting at `base`.
    pub fn new(base: usize, spare: usize) -> Self {
        Self { base, registers: AtomicTasArray::new(spare) }
    }

    /// Spare names already claimed.
    pub fn claimed(&self) -> usize {
        self.registers.count_set()
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Random probing in segment `seg` (0-based), `spent` probes used.
    Segment { seg: usize, spent: u32 },
    /// Deterministic fallback sweep at `cursor`, having started at
    /// `start` (one full wrap allowed).
    Sweep { cursor: usize, start: usize, visited: usize },
}

/// One finisher stage.
pub struct AagwProcess {
    pid: usize,
    rng: ProcessRng,
    shared: Arc<SpareShared>,
    plan: FinisherPlan,
    state: State,
    pending: Option<usize>,
    /// Whether the deterministic full sweep runs after the random
    /// segments. Standalone finishers sweep (termination guarantee);
    /// the adaptive guess ladder disables it on non-final segments,
    /// where "spare exhausted" just means "guess too low — climb"
    /// and a sweep would cost O(segment) instead of O(1) amortized.
    sweep: bool,
}

impl AagwProcess {
    /// Finisher for process `pid` over `shared`.
    ///
    /// # Panics
    /// Panics if the plan's spare size differs from the shared space.
    pub fn new(pid: usize, seed: u64, shared: Arc<SpareShared>, plan: FinisherPlan) -> Self {
        assert_eq!(plan.spare, shared.registers.len(), "plan/space size mismatch");
        let state = if plan.segments() == 0 {
            State::Sweep { cursor: 0, start: 0, visited: 0 }
        } else {
            State::Segment { seg: 0, spent: 0 }
        };
        Self {
            pid,
            rng: ProcessRng::new(seed, pid),
            shared,
            plan,
            state,
            pending: None,
            sweep: true,
        }
    }

    /// A finisher that reports `Exhausted` instead of falling back to the
    /// deterministic sweep (used by the adaptive guess ladder on
    /// non-final segments).
    pub fn without_sweep(
        pid: usize,
        seed: u64,
        shared: Arc<SpareShared>,
        plan: FinisherPlan,
    ) -> Self {
        let mut p = Self::new(pid, seed, shared, plan);
        p.sweep = false;
        p
    }

    fn draw_target(&mut self) -> usize {
        match self.state {
            State::Segment { seg, .. } => {
                self.plan.offsets[seg] + self.rng.index(self.plan.sizes[seg])
            }
            State::Sweep { cursor, .. } => cursor,
        }
    }

    /// Enters the sweep at a random start position (spreads concurrent
    /// sweepers).
    fn enter_sweep(&mut self) -> State {
        let start = self.rng.index(self.shared.registers.len());
        State::Sweep { cursor: start, start, visited: 0 }
    }
}

impl PhaseProcess for AagwProcess {
    fn announce(&mut self) -> Access {
        if !self.sweep && matches!(self.state, State::Sweep { .. }) {
            return Access::Local;
        }
        if self.pending.is_none() {
            let t = self.draw_target();
            self.pending = Some(t);
        }
        Access::Tas { array: 2, index: self.pending.unwrap() }
    }

    fn poll(&mut self) -> PhaseOutcome {
        if !self.sweep && matches!(self.state, State::Sweep { .. }) {
            return PhaseOutcome::Exhausted;
        }
        let idx = match self.pending.take() {
            Some(i) => i,
            None => self.draw_target(),
        };
        let won = self.shared.registers.tas(idx);
        if won {
            return PhaseOutcome::Done(self.shared.base + idx);
        }
        self.state = match self.state {
            State::Segment { seg, spent } => {
                let spent = spent + 1;
                if spent < self.plan.probes[seg] {
                    State::Segment { seg, spent }
                } else if seg + 1 < self.plan.segments() {
                    State::Segment { seg: seg + 1, spent: 0 }
                } else {
                    self.enter_sweep()
                }
            }
            State::Sweep { cursor, start, visited } => {
                let visited = visited + 1;
                if visited >= self.shared.registers.len() {
                    // One full pass failed: the spare space is (or was,
                    // at each probe instant) fully claimed — the w.h.p.
                    // straggler bound did not hold.
                    return PhaseOutcome::Exhausted;
                }
                State::Sweep { cursor: (cursor + 1) % self.shared.registers.len(), start, visited }
            }
        };
        PhaseOutcome::Continue
    }

    fn pid(&self) -> usize {
        self.pid
    }

    fn rng_words(&self) -> Option<u64> {
        Some(self.rng.words_drawn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::AlmostTight;
    use rr_sched::adversary::{FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    fn finish(k: usize, spare: usize, seed: u64) -> rr_sched::virtual_exec::RunOutcome {
        let shared = Arc::new(SpareShared::new(1000, spare));
        let plan = FinisherPlan::new(spare);
        let mut procs: Vec<_> = (0..k)
            .map(|pid| AlmostTight(AagwProcess::new(pid, seed, Arc::clone(&shared), plan.clone())))
            .collect();
        Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap()
    }

    #[test]
    fn all_stragglers_finish_in_half_full_spare() {
        let out = finish(256, 512, 5);
        assert_eq!(out.gave_up_count(), 0);
        out.verify_renaming(1000 + 512).unwrap();
        // Names are inside the spare window.
        for name in out.names.iter().flatten() {
            assert!((1000..1512).contains(name));
        }
    }

    #[test]
    fn step_complexity_stays_double_logarithmic_ish() {
        // At k = 512, spare = 1024: random probes should resolve nearly
        // everyone before the sweep; max steps ≪ spare.
        let out = finish(512, 1024, 9);
        assert_eq!(out.gave_up_count(), 0);
        assert!(
            out.step_complexity() < 200,
            "finisher took {} steps — sweep must be rare",
            out.step_complexity()
        );
    }

    #[test]
    fn oversubscribed_spare_reports_exhaustion_not_livelock() {
        // 64 stragglers, 32 spare names: 32 must give up after a full
        // sweep; nobody loops forever.
        let out = finish(64, 32, 1);
        let named = out.names.iter().filter(|n| n.is_some()).count();
        assert_eq!(named, 32);
        assert_eq!(out.gave_up_count(), 32);
    }

    #[test]
    fn tiny_spare_sweeps_deterministically() {
        let out = finish(3, 4, 2);
        assert_eq!(out.gave_up_count(), 0);
        out.verify_renaming(1004).unwrap();
    }

    #[test]
    fn safety_under_random_adversary() {
        let shared = Arc::new(SpareShared::new(0, 128));
        let plan = FinisherPlan::new(128);
        let mut procs: Vec<_> = (0..64)
            .map(|pid| AlmostTight(AagwProcess::new(pid, 3, Arc::clone(&shared), plan.clone())))
            .collect();
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(8), 1 << 26).unwrap();
        out.verify_renaming(128).unwrap();
        assert_eq!(shared.claimed(), 64);
    }
}
