//! Lemma 8: `n/(log n)^ℓ`-almost-tight renaming via geometric clusters.
//!
//! The `n` registers are partitioned into `⌈log log n⌉` clusters, cluster
//! `j` holding `n/2^j` registers. The protocol runs one phase per
//! cluster; in phase `j` every unnamed process performs `2ℓ·log log n`
//! probes, each a TAS of a uniformly random register *of cluster `j`
//! only*. Entering phase `j ≥ 2` at most `n/2^{j−1}` processes are still
//! active w.h.p., so each cluster faces at most twice its size in
//! contenders; the proof bounds the survivors after all phases by
//! `n/(log n)^ℓ` w.h.p., with `2ℓ(log log n)²` total steps.

use crate::loose_l6::LooseShared;
use crate::params::Lemma8Schedule;
use crate::phase::{PhaseOutcome, PhaseProcess};
use rr_shmem::rng::ProcessRng;
use rr_shmem::tas::TasMemory;
use rr_shmem::Access;
use std::sync::Arc;

/// One Lemma 8 stage.
pub struct L8Process {
    pid: usize,
    rng: ProcessRng,
    shared: Arc<LooseShared>,
    schedule: Lemma8Schedule,
    /// Current phase, 0-based (`phase == phases` ⇒ exhausted).
    phase: u32,
    /// Probes spent within the current phase.
    spent_in_phase: u64,
    pending: Option<usize>,
}

impl L8Process {
    /// Process `pid` over `shared`, following `schedule`.
    pub fn new(pid: usize, seed: u64, shared: Arc<LooseShared>, schedule: Lemma8Schedule) -> Self {
        Self {
            pid,
            rng: ProcessRng::new(seed, pid),
            shared,
            schedule,
            phase: 0,
            spent_in_phase: 0,
            pending: None,
        }
    }

    /// The phase this process is currently in (0-based), for experiments.
    pub fn current_phase(&self) -> u32 {
        self.phase
    }

    fn exhausted(&self) -> bool {
        self.phase >= self.schedule.phases
    }

    fn draw_target(&mut self) -> usize {
        let j = self.phase as usize;
        let offset = self.schedule.cluster_offsets[j];
        let size = self.schedule.cluster_sizes[j];
        offset + self.rng.index(size)
    }
}

impl PhaseProcess for L8Process {
    fn announce(&mut self) -> Access {
        if self.exhausted() {
            return Access::Local;
        }
        if self.pending.is_none() {
            let t = self.draw_target();
            self.pending = Some(t);
        }
        Access::Tas { array: 0, index: self.pending.unwrap() }
    }

    fn poll(&mut self) -> PhaseOutcome {
        if self.exhausted() {
            return PhaseOutcome::Exhausted;
        }
        let idx = match self.pending.take() {
            Some(i) => i,
            None => self.draw_target(),
        };
        self.spent_in_phase += 1;
        if self.spent_in_phase >= self.schedule.steps_per_phase {
            self.phase += 1;
            self.spent_in_phase = 0;
        }
        if self.shared.registers.tas(idx) {
            PhaseOutcome::Done(idx)
        } else if self.exhausted() {
            // The losing final probe doubles as the exhaustion report.
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

    fn instance(n: usize, ell: u32, seed: u64) -> (Arc<LooseShared>, Vec<AlmostTight<L8Process>>) {
        let shared = Arc::new(LooseShared::new(n));
        let schedule = Lemma8Schedule::new(n, ell);
        let procs = (0..n)
            .map(|pid| {
                AlmostTight(L8Process::new(pid, seed, Arc::clone(&shared), schedule.clone()))
            })
            .collect();
        (shared, procs)
    }

    #[test]
    fn unnamed_within_lemma_bound_with_slack() {
        // The asymptotic bound n/(log n)^ℓ has constants the paper does
        // not optimize; at n = 2^12, ℓ = 1, ask for ≤ 4·n/log n.
        let n = 1 << 12;
        let (_s, mut procs) = instance(n, 1, 21);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        out.verify_renaming(n).unwrap();
        let unnamed = out.gave_up_count() as f64;
        let bound = n as f64 / (n as f64).log2();
        assert!(unnamed <= 4.0 * bound, "unnamed {unnamed} vs 4·bound {}", 4.0 * bound);
    }

    #[test]
    fn step_complexity_is_exactly_bounded() {
        let n = 1 << 10;
        let schedule = Lemma8Schedule::new(n, 2);
        let (_s, mut procs) = instance(n, 2, 3);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        assert!(out.step_complexity() <= schedule.total_steps());
    }

    #[test]
    fn probes_stay_inside_current_cluster() {
        let n = 256;
        let shared = Arc::new(LooseShared::new(n));
        let schedule = Lemma8Schedule::new(n, 1);
        let mut p = L8Process::new(0, 9, Arc::clone(&shared), schedule.clone());
        // Fill every register so the process never wins and walks all
        // phases; check each announced index lies in the right cluster.
        for i in 0..n {
            shared.registers.tas(i);
        }
        loop {
            let phase = p.current_phase();
            match p.announce() {
                Access::Tas { index, .. } => {
                    let j = phase as usize;
                    let lo = schedule.cluster_offsets[j];
                    let hi = lo + schedule.cluster_sizes[j];
                    assert!(
                        (lo..hi).contains(&index),
                        "phase {j} probe {index} outside [{lo}, {hi})"
                    );
                }
                Access::Local => break,
                other => panic!("unexpected access {other}"),
            }
            if p.poll() == PhaseOutcome::Exhausted {
                break;
            }
        }
        assert!(p.current_phase() >= schedule.phases);
    }

    #[test]
    fn larger_ell_names_more() {
        let n = 1 << 12;
        let run_ell = |ell| {
            let (_s, mut procs) = instance(n, ell, 13);
            Arena::new()
                .run(&mut procs, &mut FairAdversary::default(), 1 << 26)
                .unwrap()
                .gave_up_count()
        };
        assert!(run_ell(2) <= run_ell(1));
    }

    #[test]
    fn safety_under_random_adversary() {
        let (_s, mut procs) = instance(1 << 10, 1, 17);
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(2), 1 << 26).unwrap();
        out.verify_renaming(1 << 10).unwrap();
    }
}
