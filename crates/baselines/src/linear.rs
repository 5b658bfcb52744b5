//! Deterministic linear-scan renaming — the Θ(n) lower-bound witness.
//!
//! The paper contrasts its randomized bounds with the deterministic
//! world: "the lower bound is known to be Ω(n) and, thus, exponentially
//! worse" (§I.A). This baseline realizes that gap for the E11 table: a
//! process simply scans the name space from a starting point and takes
//! the first register it wins. With all processes starting at 0 (no
//! initial symmetry to exploit), the k-th winner pays k steps and the
//! step complexity is exactly n.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_shmem::Access;
use std::sync::Arc;

/// Where scans begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStart {
    /// Everyone starts at register 0 — the adversarial worst case.
    Zero,
    /// Process `p` starts at register `p` — stale initial names help, but
    /// the adversary can still force Θ(n) by crashing or stalling.
    OwnPid,
}

/// One scanning process.
pub struct ScanProcess {
    pid: usize,
    mem: Arc<AtomicTasArray>,
    cursor: usize,
    remaining: usize,
}

impl ScanProcess {
    /// Process `pid` scanning `mem` from `start`.
    pub fn new(pid: usize, mem: Arc<AtomicTasArray>, start: ScanStart) -> Self {
        let cursor = match start {
            ScanStart::Zero => 0,
            ScanStart::OwnPid => pid % mem.len(),
        };
        let remaining = mem.len();
        Self { pid, mem, cursor, remaining }
    }
}

impl Process for ScanProcess {
    fn announce(&mut self) -> Access {
        Access::Tas { array: 0, index: self.cursor }
    }

    fn step(&mut self) -> StepOutcome {
        if self.remaining == 0 {
            // Full wrap without a win: more processes than names.
            return StepOutcome::GaveUp;
        }
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.mem.len();
        self.remaining -= 1;
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

/// Linear scan as a tight (`m = n`) deterministic renaming algorithm.
#[derive(Debug, Clone, Copy)]
pub struct LinearScan {
    /// Scan start policy.
    pub start: ScanStart,
}

impl RenamingProtocol for LinearScan {
    type Proc = ScanProcess;

    fn name(&self) -> String {
        match self.start {
            ScanStart::Zero => "linear-scan(0)".into(),
            ScanStart::OwnPid => "linear-scan(pid)".into(),
        }
    }

    fn m(&self, n: usize) -> usize {
        n
    }

    fn step_budget(&self, n: usize) -> u64 {
        // Θ(n) per process by design.
        4 * (n as u64) * (n as u64) + 1024
    }

    /// Deterministic: draws no coins, so the seed is ignored.
    fn build(&self, n: usize, _seed: u64) -> Vec<ScanProcess> {
        let mem = Arc::new(AtomicTasArray::new(n));
        (0..n).map(|pid| ScanProcess::new(pid, Arc::clone(&mem), self.start)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::{FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    #[test]
    fn zero_start_is_theta_n() {
        let n = 128;
        let algo = LinearScan { start: ScanStart::Zero };
        let out = algo.run_dense(n, 0, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
        out.verify_renaming(n).unwrap();
        // The last winner scanned the whole space.
        assert_eq!(out.step_complexity(), n as u64);
        assert_eq!(out.gave_up_count(), 0);
    }

    #[test]
    fn pid_start_is_fast_when_uncontended() {
        let n = 128;
        let algo = LinearScan { start: ScanStart::OwnPid };
        let out = algo.run_dense(n, 0, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
        out.verify_renaming(n).unwrap();
        // Distinct starting points: everyone wins the first probe.
        assert_eq!(out.step_complexity(), 1);
    }

    #[test]
    fn safety_under_random_adversary() {
        let algo = LinearScan { start: ScanStart::Zero };
        let out = algo.run_dense(64, 0, &mut RandomAdversary::new(7), &mut Arena::new()).unwrap();
        out.verify_renaming(64).unwrap();
    }

    #[test]
    fn names() {
        assert_eq!(
            RenamingAlgorithm::name(&LinearScan { start: ScanStart::Zero }),
            "linear-scan(0)"
        );
        assert_eq!(
            RenamingAlgorithm::name(&LinearScan { start: ScanStart::OwnPid }),
            "linear-scan(pid)"
        );
    }
}
