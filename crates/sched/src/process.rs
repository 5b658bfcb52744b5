//! The process abstraction: renaming protocols as polled state machines.
//!
//! The paper charges one *step* per shared-memory access (test-and-set or
//! read of one register / TAS bit). To make that cost model enforceable —
//! and to let an adaptive adversary interleave processes at access
//! granularity — every algorithm in this workspace is a [`Process`] state
//! machine: [`Process::announce`] publishes the next access (performing
//! any coin flips, so the adversary legally sees them), and
//! [`Process::step`] executes exactly that access.
//!
//! One representation, two executors: `rr-sched::shard::Arena` polls
//! processes under an adversary (the paper's model, exact step counts,
//! scales to n = 2²⁰ without threads), and `rr-sched::thread_exec` drives
//! each process on its own OS thread against real atomics (wall-clock
//! benchmarks).

use crate::ids::Pid;
use rr_shmem::Access;

/// Result of executing one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process needs more steps.
    Continue,
    /// The process acquired this name and halts.
    Done(usize),
    /// The process exhausted its step budget without a name and halts —
    /// the legitimate outcome of the paper's *k-almost-tight* protocols
    /// (Lemmas 6 and 8), whose point is that only `o(n)` processes end
    /// this way.
    GaveUp,
}

/// Kept only because the standalone `stepbench` package names it; the
/// next change to that benchmark removes it. Nothing implements it.
pub trait TauBatchHost {}

/// A renaming participant as a pollable state machine.
///
/// # Contract
/// * `announce` is idempotent until the following `step`: executors may
///   call it repeatedly (e.g. to rebuild an adversary view) and must see
///   the same access. Coin flips happen on the *first* announce after a
///   step, then stick.
/// * `step` performs exactly one shared-memory access — the announced one.
/// * `touch` changes nothing: no coin flip, no write, no access an
///   adversary could see. Executors may call it any number of times
///   between steps, or never.
/// * After `Done` is returned, none of these methods is called again.
pub trait Process: Send {
    /// Publish the next shared-memory access.
    fn announce(&mut self) -> Access;

    /// Execute the announced access.
    fn step(&mut self) -> StepOutcome;

    /// The process id (stable, `0..n`).
    fn pid(&self) -> Pid;

    /// Loads what the next [`Process::step`] will read, and nothing
    /// else: a cache hint, not a step. The arena calls it on every
    /// grantee of a scattered batch before the first of them steps, so
    /// their cache and TLB misses overlap instead of each waiting behind
    /// the previous step's locked read-modify-write (see
    /// [`crate::shard::Arena::run`]). The default does nothing, which is
    /// always correct; a process whose step reads shared memory it has
    /// not announced yet (a register chosen by its state) gains by
    /// loading it here, but must never draw a coin to find it.
    fn touch(&self) {}

    /// Kept only because the standalone `stepbench` package calls it;
    /// the next change to that benchmark removes it. Always `None`:
    /// nothing overrides it.
    fn tau_host(&self) -> Option<&dyn TauBatchHost> {
        None
    }

    /// Kept only because the standalone `stepbench` package calls it;
    /// the next change to that benchmark removes it. Unreachable: every
    /// τ-request runs through [`Process::step`].
    fn step_claimed(&mut self, _won: bool) -> StepOutcome {
        unreachable!("step_claimed on a process without a tau_host")
    }

    /// Raw RNG draws made so far, if this process draws randomness —
    /// the per-process draw-schedule fingerprint the draws-per-step
    /// goldens sum and pin, in 32-bit cipher words (see
    /// `ProcessRng::words_drawn`). Deterministic processes return
    /// `None`.
    fn rng_words(&self) -> Option<u64> {
        None
    }
}

/// Boxed processes delegate, so the flat arena core
/// ([`crate::shard::Arena`]) drives `Vec<Box<dyn Process>>` workloads
/// (the `threads` backend's instances, heterogeneous test fixtures) with
/// the same loop that runs monomorphized slices.
impl<P: Process + ?Sized> Process for Box<P> {
    fn announce(&mut self) -> Access {
        (**self).announce()
    }

    fn step(&mut self) -> StepOutcome {
        (**self).step()
    }

    fn pid(&self) -> Pid {
        (**self).pid()
    }

    fn touch(&self) {
        (**self).touch()
    }

    fn rng_words(&self) -> Option<u64> {
        (**self).rng_words()
    }
}

/// Drives one process to completion without any scheduling, returning
/// `(name_or_gave_up, steps_taken)`. Test helper and building block for
/// the free-running executor.
///
/// # Panics
/// Panics if the process exceeds `max_steps` (livelock guard).
pub fn run_to_completion<P: Process + ?Sized>(p: &mut P, max_steps: u64) -> (Option<usize>, u64) {
    let mut steps = 0;
    loop {
        let _ = p.announce();
        steps += 1;
        assert!(steps <= max_steps, "process {} exceeded {max_steps} steps", p.pid());
        match p.step() {
            StepOutcome::Continue => {}
            StepOutcome::Done(name) => return (Some(name), steps),
            StepOutcome::GaveUp => return (None, steps),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rr_shmem::tas::TasMemory;

    /// A trivially simple process: scans registers left to right until it
    /// wins one. Used to exercise the executors before the real
    /// algorithms exist.
    pub struct ScanProcess<M: TasMemory> {
        pub pid: usize,
        pub mem: std::sync::Arc<M>,
        pub cursor: usize,
    }

    impl<M: TasMemory + Send + Sync> Process for ScanProcess<M> {
        fn announce(&mut self) -> Access {
            Access::Tas { array: 0, index: self.cursor }
        }

        fn step(&mut self) -> StepOutcome {
            let idx = self.cursor;
            self.cursor += 1;
            if self.mem.tas(idx) {
                StepOutcome::Done(idx)
            } else {
                StepOutcome::Continue
            }
        }

        fn pid(&self) -> Pid {
            Pid::new(self.pid)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ScanProcess;
    use super::*;
    use rr_shmem::tas::AtomicTasArray;
    use std::sync::Arc;

    #[test]
    fn run_to_completion_counts_steps() {
        let mem = Arc::new(AtomicTasArray::new(8));
        mem.tas(0);
        mem.tas(1);
        let mut p = ScanProcess { pid: 0, mem, cursor: 0 };
        let (name, steps) = run_to_completion(&mut p, 100);
        assert_eq!(name, Some(2));
        assert_eq!(steps, 3);
    }

    #[test]
    fn gave_up_is_reported() {
        struct Quitter;
        impl Process for Quitter {
            fn announce(&mut self) -> Access {
                Access::Local
            }
            fn step(&mut self) -> StepOutcome {
                StepOutcome::GaveUp
            }
            fn pid(&self) -> Pid {
                Pid::new(0)
            }
        }
        let (name, steps) = run_to_completion(&mut Quitter, 10);
        assert_eq!(name, None);
        assert_eq!(steps, 1);
    }

    use rr_shmem::Access;

    #[test]
    #[should_panic(expected = "exceeded")]
    fn livelock_guard_fires() {
        // A scan over an exhausted array walks off the end — the guard
        // must fire before the out-of-bounds panic can be mistaken for
        // normal behaviour... except tas() panics first; so use max 1.
        let mem = Arc::new(AtomicTasArray::new(4));
        mem.tas(0);
        mem.tas(1);
        mem.tas(2);
        let mut p = ScanProcess { pid: 0, mem, cursor: 0 };
        run_to_completion(&mut p, 1);
    }

    use rr_shmem::tas::TasMemory;
}
