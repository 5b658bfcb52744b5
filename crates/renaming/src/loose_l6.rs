//! Lemma 6: `n/(log log n)^ℓ`-almost-tight renaming by uniform probing
//! with doubling rounds.
//!
//! The protocol runs `ℓ·⌈log log log n⌉` rounds; round `i` gives every
//! still-unnamed process `2^i` probes, each a TAS of a uniformly random
//! register among **all** `n` registers. Round `i` is *successful* if at
//! most `n/2^i` processes remain unnamed afterwards; the proof shows all
//! rounds succeed w.h.p., leaving at most `2n/(log log n)^ℓ` unnamed
//! after `O((log log n)^ℓ)` total probes.
//!
//! The round structure matters only for the analysis — operationally the
//! process just performs `total_steps` uniform probes — but we keep the
//! per-round bookkeeping so the E4 experiment can report per-round
//! unnamed counts against the `n/2^i` target.

use crate::params::Lemma6Schedule;
use crate::phase::{PhaseOutcome, PhaseProcess};
use rr_shmem::rng::ProcessRng;
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_shmem::Access;
use std::sync::Arc;

/// Shared memory: the primary name space as one TAS array.
#[derive(Debug)]
pub struct LooseShared {
    /// Register `i` holds name `i`.
    pub registers: AtomicTasArray,
}

impl LooseShared {
    /// `n` primary registers.
    pub fn new(n: usize) -> Self {
        Self { registers: AtomicTasArray::new(n) }
    }

    /// Names already claimed.
    pub fn claimed(&self) -> usize {
        self.registers.count_set()
    }
}

/// One Lemma 6 stage.
pub struct L6Process {
    pid: usize,
    rng: ProcessRng,
    shared: Arc<LooseShared>,
    schedule: Lemma6Schedule,
    /// Probes spent so far (drives the round bookkeeping).
    spent: u64,
    /// Pending random target (announce/poll idempotency).
    pending: Option<usize>,
}

impl L6Process {
    /// Process `pid` over `shared`, following `schedule`.
    pub fn new(pid: usize, seed: u64, shared: Arc<LooseShared>, schedule: Lemma6Schedule) -> Self {
        Self { pid, rng: ProcessRng::new(seed, pid), shared, schedule, spent: 0, pending: None }
    }

    /// The round (1-based) that probe number `spent` (0-based) falls in.
    pub fn round_of(&self, spent: u64) -> u32 {
        let mut acc = 0u64;
        for i in 1..=self.schedule.rounds {
            acc += self.schedule.steps_in_round(i);
            if spent < acc {
                return i;
            }
        }
        self.schedule.rounds
    }
}

impl PhaseProcess for L6Process {
    fn announce(&mut self) -> Access {
        if self.spent >= self.schedule.total_steps {
            // Exhausted; poll() will report it. Announce a no-op.
            return Access::Local;
        }
        let idx = *self.pending.get_or_insert_with(|| self.rng.index(self.shared.registers.len()));
        Access::Tas { array: 0, index: idx }
    }

    fn poll(&mut self) -> PhaseOutcome {
        if self.spent >= self.schedule.total_steps {
            return PhaseOutcome::Exhausted;
        }
        let idx = match self.pending.take() {
            Some(i) => i,
            None => self.rng.index(self.shared.registers.len()),
        };
        self.spent += 1;
        if self.shared.registers.tas(idx) {
            PhaseOutcome::Done(idx)
        } else if self.spent >= self.schedule.total_steps {
            // The losing final probe doubles as the exhaustion report, so
            // step complexity is exactly the schedule's probe count.
            PhaseOutcome::Exhausted
        } else {
            PhaseOutcome::Continue
        }
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

    fn instance(n: usize, ell: u32, seed: u64) -> (Arc<LooseShared>, Vec<AlmostTight<L6Process>>) {
        let shared = Arc::new(LooseShared::new(n));
        let schedule = Lemma6Schedule::new(n, ell);
        let procs = (0..n)
            .map(|pid| {
                AlmostTight(L6Process::new(pid, seed, Arc::clone(&shared), schedule.clone()))
            })
            .collect();
        (shared, procs)
    }

    #[test]
    fn unnamed_within_lemma_bound() {
        let n = 1 << 12;
        let schedule = Lemma6Schedule::new(n, 1);
        let (_shared, mut procs) = instance(n, 1, 42);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        out.verify_renaming(n).unwrap();
        let unnamed = out.gave_up_count();
        assert!(
            (unnamed as f64) <= schedule.unnamed_bound,
            "unnamed {unnamed} exceeds bound {}",
            schedule.unnamed_bound
        );
        // And the protocol genuinely names the vast majority.
        assert!(unnamed < n / 3, "unnamed = {unnamed}");
    }

    #[test]
    fn step_complexity_is_schedule_bound() {
        let n = 1 << 10;
        let schedule = Lemma6Schedule::new(n, 2);
        let (_shared, mut procs) = instance(n, 2, 5);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        assert!(out.step_complexity() <= schedule.total_steps);
        // Someone must have worked (everyone probes at least once).
        assert!(out.steps.iter().all(|&s| s >= 1));
    }

    #[test]
    fn larger_ell_names_more() {
        let n = 1 << 12;
        let run_ell = |ell| {
            let (_s, mut procs) = instance(n, ell, 7);
            Arena::new()
                .run(&mut procs, &mut FairAdversary::default(), 1 << 26)
                .unwrap()
                .gave_up_count()
        };
        let u1 = run_ell(1);
        let u3 = run_ell(3);
        assert!(u3 <= u1, "ℓ=3 left {u3} unnamed vs {u1} at ℓ=1");
    }

    #[test]
    fn named_set_matches_claimed_registers() {
        let n = 512;
        let (shared, mut procs) = instance(n, 2, 9);
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(1), 1 << 26).unwrap();
        let named = out.names.iter().filter(|x| x.is_some()).count();
        assert_eq!(named, shared.claimed());
    }

    #[test]
    fn round_of_is_consistent_with_schedule() {
        let shared = Arc::new(LooseShared::new(1 << 10));
        let schedule = Lemma6Schedule::new(1 << 10, 2);
        let p = L6Process::new(0, 0, shared, schedule.clone());
        assert_eq!(p.round_of(0), 1);
        assert_eq!(p.round_of(1), 1);
        assert_eq!(p.round_of(2), 2); // round 1 has 2^1 = 2 probes
        assert_eq!(p.round_of(schedule.total_steps - 1), schedule.rounds);
    }

    #[test]
    fn exhausted_stage_announces_local() {
        let shared = Arc::new(LooseShared::new(16));
        // Fill everything so no probe can ever win.
        for i in 0..16 {
            shared.registers.tas(i);
        }
        let schedule = Lemma6Schedule::new(16, 1);
        let mut p = L6Process::new(0, 0, Arc::clone(&shared), schedule.clone());
        for _ in 0..schedule.total_steps - 1 {
            let _ = p.announce();
            assert_eq!(p.poll(), PhaseOutcome::Continue);
        }
        let _ = p.announce();
        assert_eq!(p.poll(), PhaseOutcome::Exhausted);
        // Further polls keep reporting exhaustion; announce is a no-op.
        assert_eq!(p.announce(), Access::Local);
        assert_eq!(p.poll(), PhaseOutcome::Exhausted);
    }
}
