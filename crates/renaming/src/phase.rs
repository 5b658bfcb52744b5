//! Phase composition: almost-tight protocols and their finishers.
//!
//! The paper's loose-renaming results compose two stages: an
//! *almost-tight* stage (Lemma 6 or Lemma 8) that names all but `o(n)`
//! processes in the primary space `[0, n)`, and the algorithm of \[8\] run
//! on a spare space to finish the stragglers (Corollaries 7 and 9). Every
//! stage is a plain [`Process`]; one that runs out of budget without a
//! name returns [`StepOutcome::GaveUp`], which is the measured quantity
//! of Lemmas 6/8 when the stage runs alone. [`Chain`] hands such a
//! process to a second stage (the finisher), yielding the full loose
//! renaming of the corollaries.

use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::Access;

/// Run stage `A`, then stage `B` for processes `A` leaves unnamed. `B`'s
/// own `GaveUp` ends the process (for the finishers in this workspace
/// that means the w.h.p. spare-space guarantee failed; the experiments
/// count it as a run failure).
#[derive(Debug)]
pub struct Chain<A, B> {
    first: A,
    second: B,
    in_second: bool,
}

impl<A: Process, B: Process> Chain<A, B> {
    /// Chains `first` then `second`.
    ///
    /// # Panics
    /// Panics if the two stages disagree about the pid.
    pub fn new(first: A, second: B) -> Self {
        assert_eq!(first.pid(), second.pid(), "chained stages must share a pid");
        Self { first, second, in_second: false }
    }

    /// Whether the process has fallen through to the finisher.
    pub fn in_finisher(&self) -> bool {
        self.in_second
    }
}

impl<A: Process, B: Process> Process for Chain<A, B> {
    fn announce(&mut self) -> Access {
        if self.in_second {
            self.second.announce()
        } else {
            self.first.announce()
        }
    }

    fn step(&mut self) -> StepOutcome {
        if self.in_second {
            return self.second.step();
        }
        match self.first.step() {
            StepOutcome::GaveUp => {
                // The step consumed by the failed last probe of stage A
                // has been charged; the switch itself is free (local
                // computation), matching the paper's accounting.
                self.in_second = true;
                StepOutcome::Continue
            }
            outcome => outcome,
        }
    }

    fn pid(&self) -> Pid {
        self.first.pid()
    }

    fn rng_words(&self) -> Option<u64> {
        match (self.first.rng_words(), self.second.rng_words()) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_sched::process::run_to_completion;

    /// Stage that fails `fail_steps` probes then returns `then`
    /// (`Done(name)` or `GaveUp`).
    struct FixedStage {
        pid: usize,
        fail_steps: u32,
        then: StepOutcome,
        taken: u32,
    }

    impl Process for FixedStage {
        fn announce(&mut self) -> Access {
            Access::Local
        }

        fn step(&mut self) -> StepOutcome {
            if self.taken < self.fail_steps {
                self.taken += 1;
                StepOutcome::Continue
            } else {
                self.then
            }
        }

        fn pid(&self) -> Pid {
            Pid::new(self.pid)
        }
    }

    #[test]
    fn chain_switches_to_finisher() {
        let a = FixedStage { pid: 1, fail_steps: 2, then: StepOutcome::GaveUp, taken: 0 };
        let b = FixedStage { pid: 1, fail_steps: 1, then: StepOutcome::Done(42), taken: 0 };
        let mut p = Chain::new(a, b);
        assert!(!p.in_finisher());
        let (name, steps) = run_to_completion(&mut p, 100);
        assert_eq!(name, Some(42));
        // 2 failed probes + 1 give-up step + 1 finisher fail + 1 win.
        assert_eq!(steps, 5);
        assert!(p.in_finisher());
    }

    #[test]
    fn chain_skips_finisher_when_first_succeeds() {
        let a = FixedStage { pid: 2, fail_steps: 0, then: StepOutcome::Done(9), taken: 0 };
        let b = FixedStage { pid: 2, fail_steps: 0, then: StepOutcome::Done(1), taken: 0 };
        let mut p = Chain::new(a, b);
        let (name, steps) = run_to_completion(&mut p, 100);
        assert_eq!(name, Some(9));
        assert_eq!(steps, 1);
        assert!(!p.in_finisher());
    }

    #[test]
    fn chain_double_exhaust_gives_up() {
        let a = FixedStage { pid: 0, fail_steps: 1, then: StepOutcome::GaveUp, taken: 0 };
        let b = FixedStage { pid: 0, fail_steps: 1, then: StepOutcome::GaveUp, taken: 0 };
        let (name, _) = run_to_completion(&mut Chain::new(a, b), 100);
        assert_eq!(name, None);
    }

    #[test]
    #[should_panic(expected = "share a pid")]
    fn chain_pid_mismatch_panics() {
        let a = FixedStage { pid: 0, fail_steps: 0, then: StepOutcome::GaveUp, taken: 0 };
        let b = FixedStage { pid: 1, fail_steps: 0, then: StepOutcome::GaveUp, taken: 0 };
        Chain::new(a, b);
    }
}
