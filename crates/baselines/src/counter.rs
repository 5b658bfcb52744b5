//! Ideal fetch-and-increment renaming — the hardware upper bound.
//!
//! A single fetch-and-add register renames in exactly one step per
//! process. The paper's TAS-register model deliberately excludes it (TAS
//! is the weaker primitive the lower bounds are about), but the
//! τ-register proposal is itself "new hardware", so the E8 table shows
//! fetch-add as the limit the τ-register approaches: O(1) vs O(log n)
//! steps, at the cost of a stronger primitive and a single hot spot.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::rng::RngMode;
use rr_shmem::Access;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One fetch-add process.
pub struct CounterProcess {
    pid: usize,
    counter: Arc<AtomicUsize>,
    limit: usize,
}

impl Process for CounterProcess {
    fn announce(&mut self) -> Access {
        // The counter is "register 0" of its own array class.
        Access::Tas { array: 4, index: 0 }
    }

    fn step(&mut self) -> StepOutcome {
        let name = self.counter.fetch_add(1, Ordering::Relaxed);
        assert!(name < self.limit, "more fetch-add claims than processes");
        StepOutcome::Done(name)
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }
}

/// Fetch-and-increment tight renaming (`m = n`, 1 step).
#[derive(Debug, Clone, Copy)]
pub struct FetchAddRenaming;

impl RenamingProtocol for FetchAddRenaming {
    type Proc = CounterProcess;

    fn name(&self) -> String {
        "fetch-add".into()
    }

    fn m(&self, n: usize) -> usize {
        n
    }

    /// Deterministic: draws no coins, so the seed and the RNG mode are
    /// ignored.
    fn build(&self, n: usize, _seed: u64, _rng: RngMode) -> Vec<CounterProcess> {
        let counter = Arc::new(AtomicUsize::new(0));
        (0..n).map(|pid| CounterProcess { pid, counter: Arc::clone(&counter), limit: n }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::FairAdversary;
    use rr_sched::shard::Arena;

    #[test]
    fn one_step_tight_renaming() {
        let out = FetchAddRenaming
            .run_dense(64, 0, &mut FairAdversary::default(), &mut Arena::new())
            .unwrap();
        out.verify_renaming(64).unwrap();
        assert_eq!(out.step_complexity(), 1);
        let mut names: Vec<_> = out.names.iter().map(|x| x.unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_counter_still_distinct() {
        let inst = FetchAddRenaming.instantiate(128, 0);
        let out = rr_sched::thread_exec::run_threads(inst.processes, 10);
        out.verify_renaming(128).unwrap();
    }
}
