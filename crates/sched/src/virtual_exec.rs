//! What a run returns: the [`RunOutcome`] every executor produces and
//! the [`ExecError`]s an adversary-scheduled run can end with.
//!
//! The execution loop itself is [`crate::shard::Arena::run`]. It is the
//! paper's asynchronous shared-memory model: before every step the
//! adversary sees each active process's announced access (coin flips
//! included) and either grants one process its step or crashes one
//! process. The arena drives typed process slices and, through the
//! forwarding `impl Process for Box<P>`, boxed ones alike.

use crate::ids::{EntityVec, Pid};

/// Why a run ended badly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Total steps exceeded the livelock guard.
    StepBudgetExceeded {
        /// The configured cap.
        budget: u64,
    },
    /// The adversary addressed a pid that is not active.
    BadDecision {
        /// The offending decision, rendered.
        decision: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepBudgetExceeded { budget } => {
                write!(f, "execution exceeded the step budget of {budget}")
            }
            ExecError::BadDecision { decision } => {
                write!(f, "adversary issued an illegal decision: {decision}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of one run. All per-process tables are dense and keyed by
/// [`Pid`].
///
/// ```
/// use rr_sched::adversary::FairAdversary;
/// use rr_sched::ids::Pid;
/// use rr_sched::process::{Process, StepOutcome};
/// use rr_sched::shard::Arena;
/// use rr_shmem::Access;
///
/// // A process that takes `pid` steps then claims name `pid`.
/// struct Count { pid: usize, left: usize }
/// impl Process for Count {
///     fn announce(&mut self) -> Access { Access::Local }
///     fn step(&mut self) -> StepOutcome {
///         if self.left == 0 { StepOutcome::Done(self.pid) }
///         else { self.left -= 1; StepOutcome::Continue }
///     }
///     fn pid(&self) -> Pid { Pid::new(self.pid) }
/// }
///
/// // Boxed processes run on the same arena loop as typed ones.
/// let mut procs: Vec<Box<dyn Process>> = (0..4)
///     .map(|pid| Box::new(Count { pid, left: pid }) as Box<dyn Process>)
///     .collect();
/// let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1000).unwrap();
/// out.verify_renaming(4).unwrap();
/// assert_eq!(out.step_complexity(), 4); // pid 3: 3 waits + the claim
/// ```
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `names[pid]` — the name acquired, or `None` if the process crashed.
    pub names: EntityVec<Pid, Option<usize>>,
    /// `steps[pid]` — shared-memory accesses performed.
    pub steps: EntityVec<Pid, u64>,
    /// `crashed[pid]`.
    pub crashed: EntityVec<Pid, bool>,
    /// `gave_up[pid]` — the process halted unnamed of its own accord (the
    /// almost-tight protocols' legitimate "unnamed" outcome).
    pub gave_up: EntityVec<Pid, bool>,
    /// Total scheduling decisions taken.
    pub decisions: u64,
}

impl RunOutcome {
    /// Step complexity: max steps over *all* processes (crashed ones
    /// included — their steps were spent in the execution).
    pub fn step_complexity(&self) -> u64 {
        self.steps.iter().copied().max().unwrap_or(0)
    }

    /// Total work.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Number of processes that halted holding a name.
    pub fn named_count(&self) -> usize {
        self.names.iter().filter(|n| n.is_some()).count()
    }

    /// Pids of surviving (non-crashed) processes.
    pub fn survivors(&self) -> Vec<Pid> {
        self.crashed.iter_enumerated().filter(|&(_, &c)| !c).map(|(p, _)| p).collect()
    }

    /// Number of processes that gave up unnamed (the almost-tight
    /// protocols' `n − k` measure).
    pub fn gave_up_count(&self) -> usize {
        self.gave_up.iter().filter(|&&g| g).count()
    }

    /// Checks the three renaming properties for survivors: completeness
    /// (all named, unless the process legitimately gave up), uniqueness,
    /// and the name-space bound `< m`. Survivors are checked in pid
    /// order and the first violation is returned.
    ///
    /// Names seen are kept in a bit set grown to the largest name so far;
    /// each name is checked `< m` before it is inserted, so the set never
    /// outgrows the names actually produced.
    pub fn verify_renaming(&self, m: usize) -> Result<(), String> {
        let mut seen: Vec<u64> = Vec::new();
        for (pid, &name) in self.names.iter_enumerated() {
            if self.crashed[pid] {
                continue;
            }
            match name {
                None if self.gave_up[pid] => {}
                None => return Err(format!("surviving process {pid} got no name")),
                Some(name) => {
                    if name >= m {
                        return Err(format!("process {pid} got name {name} ≥ m={m}"));
                    }
                    let (word, bit) = (name / 64, 1u64 << (name % 64));
                    if word >= seen.len() {
                        seen.resize(word + 1, 0);
                    }
                    if seen[word] & bit != 0 {
                        return Err(format!("name {name} assigned twice"));
                    }
                    seen[word] |= bit;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CollisionMaximizer, CrashAdversary, FairAdversary, RandomAdversary};
    use crate::process::testutil::ScanProcess;
    use crate::process::Process;
    use crate::shard::Arena;
    use rr_shmem::tas::AtomicTasArray;
    use std::sync::Arc;

    fn scan_processes(n: usize, m: usize) -> (Vec<Box<dyn Process>>, Arc<AtomicTasArray>) {
        let mem = Arc::new(AtomicTasArray::new(m));
        let procs: Vec<Box<dyn Process>> = (0..n)
            .map(|pid| {
                Box::new(ScanProcess { pid, mem: Arc::clone(&mem), cursor: 0 }) as Box<dyn Process>
            })
            .collect();
        (procs, mem)
    }

    #[test]
    fn fair_schedule_renames_everyone() {
        let (mut procs, _mem) = scan_processes(8, 8);
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 10_000).unwrap();
        out.verify_renaming(8).unwrap();
        assert_eq!(out.survivors().len(), 8);
        // Scanning processes under round-robin: pid p wins register p
        // after p+1 probes... in fact steps are deterministic here.
        assert_eq!(out.step_complexity(), 8);
        assert_eq!(out.named_count(), 8);
    }

    #[test]
    fn random_schedule_still_safe() {
        let (mut procs, _mem) = scan_processes(16, 16);
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(99), 100_000).unwrap();
        out.verify_renaming(16).unwrap();
    }

    #[test]
    fn collision_maximizer_inflates_steps_but_safety_holds() {
        let (mut procs, _mem) = scan_processes(12, 12);
        let out =
            Arena::new().run(&mut procs, &mut CollisionMaximizer::default(), 100_000).unwrap();
        out.verify_renaming(12).unwrap();
        // Everyone scans from 0, so worst case is n probes each.
        assert!(out.step_complexity() <= 12);
    }

    #[test]
    fn crashes_leave_survivors_named() {
        let (mut procs, _mem) = scan_processes(10, 10);
        let mut adv = CrashAdversary::new(FairAdversary::default(), 0.3, 5, 42);
        let out = Arena::new().run(&mut procs, &mut adv, 100_000).unwrap();
        let crashed = out.crashed.iter().filter(|&&c| c).count();
        assert_eq!(crashed, adv.crashes());
        out.verify_renaming(10).unwrap();
        assert_eq!(out.survivors().len(), 10 - crashed);
    }

    #[test]
    fn deterministic_given_seed_and_adversary() {
        let run_once = || {
            let (mut procs, _mem) = scan_processes(8, 8);
            let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(5), 100_000).unwrap();
            (out.names.clone(), out.steps.clone())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn step_budget_enforced() {
        let (mut procs, _mem) = scan_processes(4, 4);
        let err = Arena::new().run(&mut procs, &mut FairAdversary::default(), 3).unwrap_err();
        assert!(matches!(err, ExecError::StepBudgetExceeded { budget: 3 }));
        assert!(err.to_string().contains("step budget"));
    }

    #[test]
    fn empty_run_is_trivial() {
        let mut procs: Vec<Box<dyn Process>> = Vec::new();
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 10).unwrap();
        assert_eq!(out.decisions, 0);
        assert_eq!(out.step_complexity(), 0);
        out.verify_renaming(0).unwrap();
    }

    #[test]
    fn verify_catches_missing_name() {
        let out = RunOutcome {
            names: vec![Some(0), None].into(),
            steps: vec![1, 1].into(),
            crashed: vec![false, false].into(),
            gave_up: vec![false; 2].into(),
            decisions: 2,
        };
        assert!(out.verify_renaming(2).unwrap_err().contains("no name"));
    }

    #[test]
    fn verify_catches_duplicate() {
        let out = RunOutcome {
            names: vec![Some(0), Some(0)].into(),
            steps: vec![1, 1].into(),
            crashed: vec![false, false].into(),
            gave_up: vec![false; 2].into(),
            decisions: 2,
        };
        assert!(out.verify_renaming(2).unwrap_err().contains("twice"));
    }

    #[test]
    fn verify_catches_out_of_space() {
        let out = RunOutcome {
            names: vec![Some(5)].into(),
            steps: vec![1].into(),
            crashed: vec![false].into(),
            gave_up: vec![false; 1].into(),
            decisions: 1,
        };
        assert!(out.verify_renaming(2).unwrap_err().contains("≥ m"));
    }

    /// All three error kinds, with their exact messages, reported for
    /// the first offending survivor in pid order; crashed processes are
    /// skipped, names are bounded before they are recorded.
    #[test]
    fn verify_reports_the_first_violation_in_pid_order() {
        let outcome = |names: Vec<Option<usize>>, crashed: Vec<bool>, gave_up: Vec<bool>| {
            let n = names.len();
            RunOutcome {
                names: names.into(),
                steps: vec![1; n].into(),
                crashed: crashed.into(),
                gave_up: gave_up.into(),
                decisions: n as u64,
            }
        };
        let names = vec![Some(3), Some(1), Some(3), None, Some(9), Some(130)];
        let mut crashed = vec![false; 6];
        let mut gave_up = vec![false; 6];
        let verify = |crashed: &[bool], gave_up: &[bool]| {
            outcome(names.clone(), crashed.to_vec(), gave_up.to_vec()).verify_renaming(200)
        };
        assert_eq!(verify(&crashed, &gave_up).unwrap_err(), "name 3 assigned twice");
        crashed[2] = true;
        assert_eq!(verify(&crashed, &gave_up).unwrap_err(), "surviving process 3 got no name");
        gave_up[3] = true;
        assert_eq!(verify(&crashed, &gave_up), Ok(()));
        let bounded = outcome(names.clone(), crashed.clone(), gave_up.clone());
        assert_eq!(bounded.verify_renaming(5).unwrap_err(), "process 4 got name 9 ≥ m=5");
        // A crashed holder's name is not recorded, so a survivor may hold
        // it too; a huge name fails the bound before it sizes the set.
        let out = outcome(
            vec![Some(7), Some(7), Some(usize::MAX)],
            vec![true, false, false],
            vec![false; 3],
        );
        assert_eq!(
            out.verify_renaming(8).unwrap_err(),
            format!("process 2 got name {} ≥ m=8", usize::MAX)
        );
    }

    #[test]
    fn crashed_process_excused_from_completeness() {
        let out = RunOutcome {
            names: vec![Some(0), None].into(),
            steps: vec![1, 4].into(),
            crashed: vec![false, true].into(),
            gave_up: vec![false; 2].into(),
            decisions: 5,
        };
        out.verify_renaming(2).unwrap();
        assert_eq!(out.survivors(), vec![Pid::new(0)]);
        assert_eq!(out.total_steps(), 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::adversary::{Adversary, CrashAdversary, FairAdversary, RandomAdversary};
    use crate::process::{Process, StepOutcome};
    use crate::shard::Arena;
    use proptest::prelude::*;
    use rr_shmem::Access;

    /// A fully scripted process: follows a fixed outcome tape.
    struct Scripted {
        pid: usize,
        tape: Vec<StepOutcome>,
        at: usize,
    }

    impl Process for Scripted {
        fn announce(&mut self) -> Access {
            Access::Local
        }
        fn step(&mut self) -> StepOutcome {
            let o = self.tape[self.at.min(self.tape.len() - 1)];
            self.at += 1;
            o
        }
        fn pid(&self) -> Pid {
            Pid::new(self.pid)
        }
    }

    fn build(tapes: Vec<Vec<StepOutcome>>) -> Vec<Scripted> {
        tapes.into_iter().enumerate().map(|(pid, tape)| Scripted { pid, tape, at: 0 }).collect()
    }

    fn tape_strategy() -> impl Strategy<Value = Vec<StepOutcome>> {
        // Random Continue prefix, then a terminal Done(pid-ish) or GaveUp.
        (0usize..12, 0usize..1000, proptest::bool::ANY).prop_map(|(len, name, give_up)| {
            let mut tape = vec![StepOutcome::Continue; len];
            tape.push(if give_up { StepOutcome::GaveUp } else { StepOutcome::Done(name) });
            tape
        })
    }

    proptest! {
        /// Executor bookkeeping matches the tapes exactly, under every
        /// adversary: steps = tape length, names = terminal symbol,
        /// crashed ∪ named ∪ gave_up partitions the processes.
        #[test]
        fn bookkeeping_matches_tapes(
            tapes in proptest::collection::vec(tape_strategy(), 1..24),
            adv_kind in 0u8..3,
            seed in 0u64..100,
        ) {
            let expected: Vec<(u64, StepOutcome)> = tapes
                .iter()
                .map(|t| (t.len() as u64, *t.last().unwrap()))
                .collect();
            let mut procs = build(tapes);
            let n = procs.len();
            let mut adv: Box<dyn Adversary> = match adv_kind {
                0 => Box::new(FairAdversary::default()),
                1 => Box::new(RandomAdversary::new(seed)),
                _ => Box::new(CrashAdversary::new(FairAdversary::default(), 0.3, n / 2, seed)),
            };
            let out = Arena::new().run(&mut procs, adv.as_mut(), 1 << 20).unwrap();
            for (i, &(tape_len, terminal)) in expected.iter().enumerate() {
                let pid = Pid::new(i);
                if out.crashed[pid] {
                    prop_assert!(out.names[pid].is_none());
                    prop_assert!(!out.gave_up[pid]);
                    // A crashed process stopped early.
                    prop_assert!(out.steps[pid] < tape_len);
                    continue;
                }
                prop_assert_eq!(out.steps[pid], tape_len, "pid {} steps", pid);
                match terminal {
                    StepOutcome::Done(name) => {
                        prop_assert_eq!(out.names[pid], Some(name));
                        prop_assert!(!out.gave_up[pid]);
                    }
                    StepOutcome::GaveUp => {
                        prop_assert_eq!(out.names[pid], None);
                        prop_assert!(out.gave_up[pid]);
                    }
                    StepOutcome::Continue => unreachable!(),
                }
            }
            // Decisions = total grants + crashes.
            let grants: u64 = out.steps.iter().sum();
            let crashes = out.crashed.iter().filter(|&&c| c).count() as u64;
            prop_assert_eq!(out.decisions, grants + crashes);
        }
    }
}
