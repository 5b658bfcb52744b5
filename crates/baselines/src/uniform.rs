//! Uniform random probing: the simplest loose-renaming baseline.
//!
//! With `m = (1+ε)n` registers, a process TASes uniformly random
//! registers until it wins one. Expected steps are `O(1/ε)` but the
//! w.h.p. step complexity is `Θ(log n / log(1+ε))` — the gap to the
//! paper's `O((log log n)^ℓ)` protocols that the E8 comparison table
//! exhibits.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::rng::ProcessRng;
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_shmem::Access;
use std::sync::Arc;

/// One uniform-probing process.
pub struct UniformProcess {
    pid: usize,
    rng: ProcessRng,
    mem: Arc<AtomicTasArray>,
    pending: Option<usize>,
    /// Safety valve: probes before giving up (≫ w.h.p. bound).
    budget: u64,
}

impl UniformProcess {
    /// Process `pid` probing `mem`.
    pub fn new(pid: usize, seed: u64, mem: Arc<AtomicTasArray>, budget: u64) -> Self {
        Self { pid, rng: ProcessRng::new(seed, pid), mem, pending: None, budget }
    }
}

impl Process for UniformProcess {
    fn announce(&mut self) -> Access {
        let idx = *self.pending.get_or_insert_with(|| self.rng.index(self.mem.len()));
        Access::Tas { array: 0, index: idx }
    }

    fn step(&mut self) -> StepOutcome {
        let idx = match self.pending.take() {
            Some(i) => i,
            None => self.rng.index(self.mem.len()),
        };
        if self.budget == 0 {
            return StepOutcome::GaveUp;
        }
        self.budget -= 1;
        if self.mem.tas(idx) {
            StepOutcome::Done(idx)
        } else {
            StepOutcome::Continue
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }

    fn rng_words(&self) -> Option<u64> {
        Some(self.rng.words_drawn())
    }
}

/// Uniform probing into `m = ⌈(1+ε)n⌉` names.
#[derive(Debug, Clone, Copy)]
pub struct UniformProbing {
    /// The slack ε > 0.
    pub epsilon: f64,
}

impl UniformProbing {
    /// Classic ε = 1 (double space) configuration.
    pub fn double() -> Self {
        Self { epsilon: 1.0 }
    }
}

impl RenamingProtocol for UniformProbing {
    type Proc = UniformProcess;

    fn name(&self) -> String {
        format!("uniform(eps={})", self.epsilon)
    }

    fn m(&self, n: usize) -> usize {
        ((1.0 + self.epsilon) * n as f64).ceil() as usize
    }

    fn build(&self, n: usize, seed: u64) -> Vec<UniformProcess> {
        assert!(self.epsilon > 0.0, "uniform probing needs m > n");
        let mem = Arc::new(AtomicTasArray::new(self.m(n)));
        // W.h.p. bound is O(log n / log(1+ε)); budget 100× that.
        let budget = (100.0 * (n.max(2) as f64).log2() / (1.0 + self.epsilon).log2()).ceil() as u64;
        (0..n).map(|pid| UniformProcess::new(pid, seed, Arc::clone(&mem), budget)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::{FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    fn run_uniform(n: usize, eps: f64, seed: u64) -> rr_sched::virtual_exec::RunOutcome {
        let algo = UniformProbing { epsilon: eps };
        let m = RenamingAlgorithm::m(&algo, n);
        let out =
            algo.run_dense(n, seed, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
        out.verify_renaming(m).unwrap();
        out
    }

    #[test]
    fn everyone_named_with_double_space() {
        let out = run_uniform(1 << 10, 1.0, 3);
        assert_eq!(out.gave_up_count(), 0);
    }

    #[test]
    fn small_epsilon_takes_longer_but_succeeds() {
        let out_tight = run_uniform(1 << 10, 0.1, 5);
        let out_loose = run_uniform(1 << 10, 1.0, 5);
        assert_eq!(out_tight.gave_up_count(), 0);
        assert!(
            out_tight.step_complexity() >= out_loose.step_complexity(),
            "tighter space can't be faster: {} vs {}",
            out_tight.step_complexity(),
            out_loose.step_complexity()
        );
    }

    #[test]
    fn name_space_size() {
        assert_eq!(RenamingAlgorithm::m(&UniformProbing { epsilon: 1.0 }, 100), 200);
        assert_eq!(RenamingAlgorithm::m(&UniformProbing { epsilon: 0.5 }, 100), 150);
        assert_eq!(UniformProbing::double().epsilon, 1.0);
    }

    #[test]
    fn safety_under_random_adversary() {
        let algo = UniformProbing::double();
        let out = algo.run_dense(256, 9, &mut RandomAdversary::new(4), &mut Arena::new()).unwrap();
        out.verify_renaming(512).unwrap();
    }

    #[test]
    #[should_panic(expected = "m > n")]
    fn zero_epsilon_rejected() {
        UniformProbing { epsilon: 0.0 }.instantiate(4, 0);
    }
}
