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

/// Shared memory that can serve a *block* of announced
/// [`Access::TauRequest`] steps from one batched τ-register CAS.
///
/// Implemented by workload shared-memory structs (e.g. the tight
/// protocol's `TightShared`) and consumed by the arena's macro-step
/// dispatch: when a contiguous run of granted decisions all announce
/// requests on the same τ-register of the same host object, the
/// executor claims the whole run through [`TauBatchHost::request_block`]
/// (≈ one CAS) and hands each process its outcome via
/// [`Process::step_claimed`]. The block must answer exactly as the same
/// bits fed one at a time in order — the contiguity of the run is what
/// makes a single commit point bit-identical to sequential execution.
pub trait TauBatchHost {
    /// Claims `bits` on τ-register `register` as one linearizable
    /// block, pushing one outcome per entry (in order) onto `wins`.
    fn request_block(&self, register: usize, bits: &[usize], wins: &mut Vec<bool>);
}

/// A renaming participant as a pollable state machine.
///
/// # Contract
/// * `announce` is idempotent until the following `step`: executors may
///   call it repeatedly (e.g. to rebuild an adversary view) and must see
///   the same access. Coin flips happen on the *first* announce after a
///   step, then stick.
/// * `step` performs exactly one shared-memory access — the announced one.
/// * After `Done` is returned, neither method is called again.
pub trait Process: Send {
    /// Publish the next shared-memory access.
    fn announce(&mut self) -> Access;

    /// Execute the announced access.
    fn step(&mut self) -> StepOutcome;

    /// The process id (stable, `0..n`).
    fn pid(&self) -> Pid;

    /// The shared memory backing this process's announced
    /// [`Access::TauRequest`] steps, if the executor may serve them
    /// from a batched [`TauBatchHost::request_block`]. Two processes
    /// are batched together only when both return the *same object*
    /// (compared by address). Default: no batching.
    fn tau_host(&self) -> Option<&dyn TauBatchHost> {
        None
    }

    /// Executes the announced τ-request step with `won` — the outcome
    /// the executor already claimed for this process through
    /// [`TauBatchHost::request_block`]. Must apply exactly the state
    /// transition [`Process::step`] would after an identical
    /// per-request outcome, without touching the register again.
    ///
    /// Only called when [`Process::tau_host`] returned a host and the
    /// announced access was a τ-request; the default is therefore
    /// unreachable.
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

    fn tau_host(&self) -> Option<&dyn TauBatchHost> {
        (**self).tau_host()
    }

    fn step_claimed(&mut self, won: bool) -> StepOutcome {
        (**self).step_claimed(won)
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
