//! Free-running executor: one OS thread per process, real atomics, wall
//! clock. This is the mode the Criterion benchmarks use; the state
//! machines are identical to the ones the arena executor polls, so the
//! numbers measure the same algorithm.

use crate::ids::{EntityVec, Pid};
use crate::process::{run_to_completion, Process};
use crate::virtual_exec::RunOutcome;

/// Drives every process on its own thread until all have a name.
///
/// `max_steps_per_process` is a livelock guard (the thread panics past
/// it, failing the run loudly rather than hanging a benchmark).
///
/// Returns the same [`RunOutcome`] shape as the arena executor. The
/// outcome vectors are indexed by pid, which need not be contiguous
/// (bounded waves pass sub-batches): slots whose pid was **not** in
/// `processes` are marked `crashed` — the crash-equivalent convention
/// that keeps [`RunOutcome::verify_renaming`] honest on sparse pid sets
/// (absent pids are excused from completeness, exactly like a process
/// the scheduler removed; a present pid is never marked crashed, since
/// free-running mode has no crash-injecting scheduler).
pub fn run_threads(
    processes: Vec<Box<dyn Process + Send + '_>>,
    max_steps_per_process: u64,
) -> RunOutcome {
    let n = processes.iter().map(|p| p.pid().index() + 1).max().unwrap_or(0);
    let mut names: EntityVec<Pid, Option<usize>> = crate::entity_vec![None; n];
    let mut steps: EntityVec<Pid, u64> = crate::entity_vec![0; n];
    let mut gave_up: EntityVec<Pid, bool> = crate::entity_vec![false; n];
    // Every slot starts crash-equivalent (absent); joining a process's
    // thread marks its pid present.
    let mut crashed: EntityVec<Pid, bool> = crate::entity_vec![true; n];

    std::thread::scope(|scope| {
        let handles: Vec<_> = processes
            .into_iter()
            .map(|mut p| {
                scope.spawn(move || {
                    let pid = p.pid();
                    let (name, taken) = run_to_completion(p.as_mut(), max_steps_per_process);
                    (pid, name, taken)
                })
            })
            .collect();
        for h in handles {
            let (pid, name, taken) = h.join().expect("process thread panicked");
            names[pid] = name;
            gave_up[pid] = name.is_none();
            steps[pid] = taken;
            crashed[pid] = false;
        }
    });

    RunOutcome { names, steps, crashed, gave_up, decisions: 0 }
}

/// Like [`run_threads`] but caps the number of concurrent OS threads at
/// `threads`, running processes in waves. Benchmarks use this to sweep
/// "hardware parallelism" without oversubscribing the machine when n is
/// large.
pub fn run_threads_bounded(
    processes: Vec<Box<dyn Process + Send + '_>>,
    threads: usize,
    max_steps_per_process: u64,
) -> RunOutcome {
    assert!(threads > 0);
    let n = processes.iter().map(|p| p.pid().index() + 1).max().unwrap_or(0);
    let mut names: EntityVec<Pid, Option<usize>> = crate::entity_vec![None; n];
    let mut steps: EntityVec<Pid, u64> = crate::entity_vec![0; n];
    let mut gave_up: EntityVec<Pid, bool> = crate::entity_vec![false; n];
    // Same crash-equivalent convention as [`run_threads`]: a slot stays
    // marked absent until some wave actually ran its pid.
    let mut crashed: EntityVec<Pid, bool> = crate::entity_vec![true; n];

    // Consume the queue with a cursor (the amortized-scan idiom the
    // replayers use): `drain(..take)` shifted every remaining element on
    // every wave — O(n²/threads) element moves for large n — whereas the
    // consuming iterator hands out each process exactly once.
    let mut remaining = processes.into_iter();
    loop {
        let wave: Vec<_> = remaining.by_ref().take(threads).collect();
        if wave.is_empty() {
            break;
        }
        // The merge is total over the wave's actual members: every pid
        // handed to the wave is copied back wholesale (names, gave_up,
        // *and* steps — the old name-or-gave-up filter silently dropped
        // the step counts of any process it skipped). The wave outcome's
        // own presence mask double-checks the accounting.
        let wave_pids: Vec<Pid> = wave.iter().map(|p| p.pid()).collect();
        let out = run_threads(wave, max_steps_per_process);
        for &pid in &wave_pids {
            assert!(!out.crashed[pid], "wave member {pid} missing from its own wave outcome");
            names[pid] = out.names[pid];
            gave_up[pid] = out.gave_up[pid];
            steps[pid] = out.steps[pid];
            crashed[pid] = false;
        }
    }

    RunOutcome { names, steps, crashed, gave_up, decisions: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::testutil::ScanProcess;
    use rr_shmem::tas::AtomicTasArray;
    use std::sync::Arc;

    fn scan_processes(n: usize, m: usize) -> Vec<Box<dyn Process + Send + 'static>> {
        let mem = Arc::new(AtomicTasArray::new(m));
        (0..n)
            .map(|pid| {
                Box::new(ScanProcess { pid, mem: Arc::clone(&mem), cursor: 0 })
                    as Box<dyn Process + Send>
            })
            .collect()
    }

    #[test]
    fn threads_rename_everyone_distinctly() {
        let out = run_threads(scan_processes(16, 16), 1_000);
        out.verify_renaming(16).unwrap();
        assert!(out.steps.iter().all(|&s| s >= 1));
    }

    #[test]
    fn bounded_waves_cover_all_processes() {
        let out = run_threads_bounded(scan_processes(20, 20), 4, 1_000);
        out.verify_renaming(20).unwrap();
        assert_eq!(out.named_count(), 20);
    }

    #[test]
    fn single_thread_bound_is_sequential() {
        let out = run_threads_bounded(scan_processes(5, 5), 1, 1_000);
        out.verify_renaming(5).unwrap();
        // Sequential waves: pid 0 wins reg 0 in 1 step, pid 1 probes 0
        // then wins 1, etc.
        assert_eq!(out.steps.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_input() {
        let out = run_threads(Vec::new(), 10);
        assert!(out.names.is_empty());
    }

    /// Builds scan processes for an arbitrary (possibly sparse) pid set
    /// over one shared memory.
    fn sparse_scans(
        pids: std::ops::Range<usize>,
        m: usize,
    ) -> Vec<Box<dyn Process + Send + 'static>> {
        let mem = Arc::new(AtomicTasArray::new(m));
        pids.map(|pid| {
            Box::new(ScanProcess { pid, mem: Arc::clone(&mem), cursor: 0 })
                as Box<dyn Process + Send>
        })
        .collect()
    }

    /// Regression: a sparse pid set (a bounded-wave sub-batch) used to
    /// produce phantom slots with `names = None`, `crashed = false`,
    /// `gave_up = false`, which `verify_renaming` misread as "surviving
    /// process got no name". Absent pids are crash-equivalent.
    #[test]
    fn sparse_pid_set_passes_verification() {
        let out = run_threads(sparse_scans(4..8, 4), 1_000);
        assert_eq!(out.names.len(), 8);
        out.verify_renaming(4).unwrap();
        assert!(
            out.crashed.as_slice()[..4].iter().all(|&c| c),
            "absent slots are crash-equivalent"
        );
        assert!(out.crashed.as_slice()[4..].iter().all(|&c| !c), "present pids never read crashed");
        assert_eq!(out.survivors(), (4..8).map(Pid::new).collect::<Vec<_>>());
        assert_eq!(out.named_count(), 4);
    }

    #[test]
    fn sparse_bounded_waves_pass_verification() {
        let out = run_threads_bounded(sparse_scans(3..9, 6), 2, 1_000);
        assert_eq!(out.names.len(), 9);
        out.verify_renaming(6).unwrap();
        assert!(out.crashed.as_slice()[..3].iter().all(|&c| c));
        assert!(out.crashed.as_slice()[3..].iter().all(|&c| !c));
        assert_eq!(out.named_count(), 6);
    }

    /// Regression: the wave merge used to copy a process's results only
    /// if it was named or gave up — making the merge total means steps
    /// survive for every member, and the accounting assert confirms each
    /// input pid landed in its wave's outcome.
    #[test]
    fn bounded_merge_is_total_over_wave_members() {
        /// Burns `fuel` steps, then gives up — named never.
        struct Spinner {
            pid: usize,
            fuel: u64,
        }
        impl Process for Spinner {
            fn announce(&mut self) -> rr_shmem::Access {
                rr_shmem::Access::Local
            }
            fn step(&mut self) -> crate::process::StepOutcome {
                if self.fuel == 0 {
                    return crate::process::StepOutcome::GaveUp;
                }
                self.fuel -= 1;
                crate::process::StepOutcome::Continue
            }
            fn pid(&self) -> Pid {
                Pid::new(self.pid)
            }
        }
        let procs: Vec<Box<dyn Process + Send>> = (0..6)
            .map(|pid| Box::new(Spinner { pid, fuel: pid as u64 }) as Box<dyn Process + Send>)
            .collect();
        let out = run_threads_bounded(procs, 2, 1_000);
        // Every spinner's steps are accounted: fuel Continues + the final
        // GaveUp step.
        let expect: Vec<u64> = (0..6).map(|pid| pid + 1).collect();
        assert_eq!(out.steps.as_slice(), expect.as_slice());
        assert!(out.gave_up.iter().all(|&g| g));
        assert!(out.crashed.iter().all(|&c| !c));
    }
}
