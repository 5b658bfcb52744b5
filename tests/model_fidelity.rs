//! Model-fidelity checks: the announce/step contract that makes the
//! adversary *adaptive* in the paper's sense.
//!
//! The adversary is entitled to see each process's next access — coin
//! flips included — before granting it. That only means something if
//! (a) announcements are stable until the step executes, and (b) the
//! executed access is the announced one. These tests wrap real protocol
//! processes and verify both properties over full runs.

use randomized_renaming::baselines::{BitonicRenaming, UniformProbing};
use randomized_renaming::renaming::traits::{Cor9, RenamingAlgorithm};
use randomized_renaming::renaming::TightRenaming;
use randomized_renaming::sched::adversary::{Adversary, Decision, FairAdversary, RunView};
use randomized_renaming::sched::ids::{pids, Pid};
use randomized_renaming::sched::process::{Process, StepOutcome};
use randomized_renaming::sched::shard::Arena;
use randomized_renaming::shmem::Access;
use std::sync::Mutex;

/// Wraps a process; checks announce idempotency on every poll.
struct AnnounceChecker {
    inner: Box<dyn Process + Send>,
    repeats: usize,
}

impl Process for AnnounceChecker {
    fn announce(&mut self) -> Access {
        let first = self.inner.announce();
        for _ in 0..self.repeats {
            assert_eq!(
                self.inner.announce(),
                first,
                "announce() must be stable until the next step (pid {})",
                self.inner.pid()
            );
        }
        first
    }

    fn step(&mut self) -> StepOutcome {
        self.inner.step()
    }

    fn pid(&self) -> Pid {
        self.inner.pid()
    }
}

fn check_announce_stability(algo: &dyn RenamingAlgorithm, n: usize) {
    let inst = algo.instantiate(n, 3);
    let m = inst.m;
    let mut procs: Vec<AnnounceChecker> =
        inst.processes.into_iter().map(|inner| AnnounceChecker { inner, repeats: 2 }).collect();
    let out =
        Arena::new().run(&mut procs, &mut FairAdversary::default(), algo.step_budget(n)).unwrap();
    out.verify_renaming(m).unwrap();
}

#[test]
fn announcements_are_stable_for_all_protocols() {
    check_announce_stability(&TightRenaming::calibrated(4), 128);
    check_announce_stability(&TightRenaming::paper_exact(4), 128);
    check_announce_stability(&Cor9 { ell: 1 }, 128);
    check_announce_stability(&BitonicRenaming, 64);
    check_announce_stability(&UniformProbing::double(), 128);
}

/// An adversary that records every announced access it granted, so we
/// can replay the record against the memory effects.
struct Recorder {
    inner: FairAdversary,
    granted: Mutex<Vec<(Pid, Access)>>,
}

impl Adversary for Recorder {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let d = self.inner.decide(view);
        if let Decision::Grant(pid) = d {
            self.granted.lock().unwrap().push((pid, view.announced[pid].unwrap()));
        }
        d
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

#[test]
fn adversary_sees_the_coin_flips_that_actually_execute() {
    // Run uniform probing and check that the multiset of granted TAS
    // targets per pid is consistent: the winner's final name equals the
    // last TAS index it announced (i.e. the adversary really saw the
    // executed random choices).
    let algo = UniformProbing::double();
    let n = 128;
    let mut rec = Recorder { inner: FairAdversary::default(), granted: Mutex::new(Vec::new()) };
    let out = algo.run_dense(n, 9, &mut rec, &mut Arena::new()).unwrap();
    out.verify_renaming(algo.m(n)).unwrap();

    let granted = rec.granted.into_inner().unwrap();
    for pid in pids(n) {
        let last_target = granted
            .iter()
            .rev()
            .find(|(p, _)| *p == pid)
            .and_then(|(_, acc)| acc.index())
            .expect("every process was granted at least one access");
        assert_eq!(
            out.names[pid],
            Some(last_target),
            "pid {pid}: final name must be the last announced target"
        );
    }
}

#[test]
fn step_counts_equal_grants() {
    // The paper's step complexity counts shared-memory accesses; the
    // executor must charge exactly one per grant.
    let algo = TightRenaming::calibrated(4);
    let n = 256;
    let mut rec = Recorder { inner: FairAdversary::default(), granted: Mutex::new(Vec::new()) };
    let out = algo.run_dense(n, 4, &mut rec, &mut Arena::new()).unwrap();
    let granted = rec.granted.into_inner().unwrap();
    assert_eq!(granted.len() as u64, out.total_steps());
    for pid in pids(n) {
        let grants = granted.iter().filter(|(p, _)| *p == pid).count() as u64;
        assert_eq!(grants, out.steps[pid], "pid {pid}");
    }
}
