//! Sharded entity-keyed arenas — the execution core behind every backend.
//!
//! Two layers live here:
//!
//! 1. [`Arena`] — the flat struct-of-arrays execution loop. All
//!    per-process tables are [`EntityVec`]s keyed by typed [`Pid`]s;
//!    raw `usize` indexing into pid space no longer type-checks.
//! 2. [`run_sharded`] — the multi-arena engine: the pid space is
//!    partitioned round-robin by a [`ShardMap`] into `S` shards, and
//!    each shard runs its own independent sub-instance of about `n/S`
//!    processes, with its own adversary and a disjoint name range, in its
//!    own [`Arena`] on its own thread. The outcomes are merged back into
//!    global pid order. For `S > 1` this is not one `n`-process run of
//!    the protocol: each adversary sees only its own shard.
//!
//! # Determinism of the sharded execution
//!
//! The shards share no state, so each shard's outcome is a function of
//! `(n_s, shard_seed(seed, s))` alone, and OS thread scheduling can only
//! reorder when the shards finish, never what they compute. The merge
//! visits shards in index order, so the merged outcome is a pure
//! function of `(seed, S)`, which the determinism suite in `rr-bench`
//! pins across `RR_RUNNER_THREADS` settings, and `backend_equiv` pins
//! the `S = 1` case bit-identical to the serial dense backend.
//!
//! **Scheduling semantics of [`Arena::run`] are bit-identical to the
//! historical executor by construction** — same announce cadence, and a
//! [`RunView`] served from word-packed state
//! ([`crate::bits::StatusBitmap`]) whose observable surface reproduces
//! the historical tombstoned `active` vector exactly: the
//! [`crate::bits::SlotSnapshot`] roster is recaptured under the same
//! lazy-compaction threshold, so `slot_count()`/`slot(i)` return the
//! same bytes `active.len()`/`active[i]` did, and word-at-a-time
//! runnable scans enumerate the same sorted runnable set the old
//! tombstone-filtering walks did. Adversary decisions are applied in
//! *macro-step batches* ([`Adversary::decide_batch`]): strategies that
//! can commit to several grants from one view (fair and the ascending
//! zoo strategies, and random up to the recapture headroom) hand the
//! executor a straight-line run of process segments to execute without
//! re-entering the dispatch loop, and every other strategy defaults to
//! one decision per view. An adversary cannot tell which backend is
//! driving it, so step counts, crash patterns and RNG consumption all
//! reproduce exactly.

use crate::adversary::{Adversary, Decision, RunView};
use crate::bits::{SlotSnapshot, Status, StatusBitmap};
use crate::ids::{EntityVec, LocalIdx, Pid, ShardId, ShardMap};
use crate::process::{Process, StepOutcome};
use crate::virtual_exec::{ExecError, RunOutcome};
use rr_shmem::Access;

/// Decisions requested from the adversary per dispatch — one runnable
/// word's worth. Strategies that cannot batch ignore it (their default
/// [`Adversary::decide_batch`] emits exactly one decision), so this is a
/// ceiling on the macro-step length, not part of the schedule semantics.
const DECISION_BATCH: usize = 32;

/// Reusable execution scratch: the allocation-free (after warm-up) arena
/// every backend's runs execute in.
///
/// Create one per worker thread and feed it run after run — buffers grow
/// to the largest n seen and are reused verbatim afterwards:
///
/// ```
/// use rr_sched::adversary::FairAdversary;
/// use rr_sched::ids::Pid;
/// use rr_sched::process::{Process, StepOutcome};
/// use rr_sched::shard::Arena;
/// use rr_shmem::Access;
///
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
/// let mut arena = Arena::new();
/// for _seed in 0..3 {
///     // A plain Vec of concrete processes: static dispatch, no boxing.
///     let mut procs: Vec<Count> = (0..4).map(|pid| Count { pid, left: pid }).collect();
///     let out = arena.run(&mut procs, &mut FairAdversary::default(), 1000).unwrap();
///     out.verify_renaming(4).unwrap();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Arena {
    announced: EntityVec<Pid, Option<Access>>,
    status: StatusBitmap,
    slots: SlotSnapshot,
    steps: EntityVec<Pid, u64>,
    names: EntityVec<Pid, usize>,
}

impl Arena {
    /// An empty arena; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.announced.clear();
        self.announced.resize(n, None);
        self.status.reset(n);
        // Initial roster = all n pids, like the historical `active`
        // vector's `0..n` fill.
        self.slots.capture(&self.status);
        self.steps.clear();
        self.steps.resize(n, 0);
        self.names.clear();
        self.names.resize(n, usize::MAX);
    }

    /// Runs `processes` to completion under `adversary` — the shared
    /// execution loop behind every backend.
    ///
    /// `processes[i]` must be the state machine with `pid() == i` (every
    /// workload factory in this workspace builds them that way). The
    /// outcome vectors are freshly allocated (they escape the arena); all
    /// scratch is reused across calls.
    ///
    /// # Errors
    /// [`ExecError::StepBudgetExceeded`] past `step_budget` total steps,
    /// [`ExecError::BadDecision`] if the adversary addresses a pid that
    /// is not runnable.
    ///
    /// # Panics
    /// Panics if some `processes[i].pid() != i`.
    pub fn run<P, A>(
        &mut self,
        processes: &mut [P],
        adversary: &mut A,
        step_budget: u64,
    ) -> Result<RunOutcome, ExecError>
    where
        P: Process,
        A: Adversary + ?Sized,
    {
        let n = processes.len();
        self.reset(n);
        let mut named = 0usize;
        let mut decisions = 0u64;
        let mut total_steps = 0u64;

        // Initial announcements (and the pid-layout contract check).
        for (i, p) in processes.iter_mut().enumerate() {
            assert_eq!(p.pid().index(), i, "arena requires processes[i].pid() == i");
            self.announced[Pid::new(i)] = Some(p.announce());
        }

        // The slot roster keeps stale entries: halted pids stay in the
        // captured snapshot until more than half the slots are dead,
        // then one O(n/64) recapture reclaims them. The `RunView`
        // contract reflects this: `slots` is a sorted superset of the
        // runnable pids; the status bitmap (≡ `announced[pid].is_some()`)
        // is the ground truth. The recapture threshold is observable
        // (RandomAdversary rejection-samples over the roster), so it
        // must never drift from the historical executor's tombstone
        // compaction policy. The trigger is checked per *batch*, which
        // matches the historical per-decision check because a strategy
        // that reads the roster batches only within the headroom where
        // the check stays false: before decision j of a batch at most j
        // grantees have halted, so `slots ≤ 2 · (live − j)` rules the
        // recapture out (see `RandomAdversary`).
        //
        // Each batch is a macro-step: the adversary commits to up to
        // `DECISION_BATCH` decisions from one view, and the straight-line
        // process segments run back to back without re-entering the
        // dispatch loop.
        let mut live = n;
        let mut batch: Vec<Decision> = Vec::with_capacity(DECISION_BATCH);
        while live > 0 {
            if self.slots.len() > 2 * live {
                self.slots.capture(&self.status);
            }
            batch.clear();
            {
                let view =
                    RunView::new(&self.status, &self.slots, &self.announced, &self.steps, named);
                adversary.decide_batch(&view, &mut batch, DECISION_BATCH);
            }
            if batch.is_empty() {
                return Err(ExecError::BadDecision { decision: "empty decision batch".into() });
            }
            for &decision in &batch {
                decisions += 1;
                match decision {
                    Decision::Grant(pid) => {
                        if pid.index() >= n || self.announced[pid].is_none() {
                            return Err(ExecError::BadDecision {
                                decision: format!("{decision:?}"),
                            });
                        }
                        self.steps[pid] += 1;
                        total_steps += 1;
                        if total_steps > step_budget {
                            return Err(ExecError::StepBudgetExceeded { budget: step_budget });
                        }
                        match processes[pid.index()].step() {
                            StepOutcome::Continue => {
                                self.announced[pid] = Some(processes[pid.index()].announce());
                            }
                            StepOutcome::Done(name) => {
                                self.names[pid] = name;
                                self.status.set(pid, Status::Named);
                                named += 1;
                                self.announced[pid] = None;
                                live -= 1;
                            }
                            StepOutcome::GaveUp => {
                                self.status.set(pid, Status::GaveUp);
                                self.announced[pid] = None;
                                live -= 1;
                            }
                        }
                    }
                    Decision::Crash(pid) => {
                        if pid.index() >= n || self.announced[pid].is_none() {
                            return Err(ExecError::BadDecision {
                                decision: format!("{decision:?}"),
                            });
                        }
                        self.status.set(pid, Status::Crashed);
                        self.announced[pid] = None;
                        live -= 1;
                    }
                }
            }
        }

        Ok(self.outcome(decisions))
    }

    /// Kept only because the standalone `stepbench` package calls it;
    /// the next change to that benchmark removes it. Always `(0, 0)`:
    /// every τ-request runs through [`Process::step`].
    pub fn block_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Unpacks the packed bitmap state into the public [`RunOutcome`]
    /// shape.
    fn outcome(&self, decisions: u64) -> RunOutcome {
        let pids = || (0..self.status.len()).map(Pid::new);
        RunOutcome {
            names: pids()
                .map(|p| (self.status.get(p) == Status::Named).then(|| self.names[p]))
                .collect(),
            steps: self.steps.clone(),
            crashed: pids().map(|p| self.status.get(p) == Status::Crashed).collect(),
            gave_up: pids().map(|p| self.status.get(p) == Status::GaveUp).collect(),
            decisions,
        }
    }
}

/// Per-shard seed derivation: shard 0 keeps the run seed unchanged (so a
/// single-shard execution consumes randomness exactly like the serial
/// backends), later shards mix in a golden-ratio stride.
pub fn shard_seed(seed: u64, shard: ShardId) -> u64 {
    if shard.index() == 0 {
        seed
    } else {
        seed ^ (shard.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Ignored by [`run_sharded`]; kept only because the standalone
/// `stepbench` package passes it. The next change to that benchmark
/// removes it.
pub const DEFAULT_COUPLING_EVERY: u64 = 1024;

/// What [`run_sharded`] hands each shard body. It carries nothing: the
/// shards share no state.
pub struct ShardContext(());

impl ShardContext {
    /// Returns `inner` unchanged; kept only because the standalone
    /// `stepbench` package calls it. The next change to that benchmark
    /// removes it.
    pub fn couple<A: Adversary>(self, inner: A) -> A {
        inner
    }
}

/// One shard's completed sub-run: its local [`RunOutcome`] (indexed by
/// local pid) and the size `m` of its local name space.
pub struct ShardRun {
    /// The shard's local outcome; tables are indexed by local pid.
    pub outcome: RunOutcome,
    /// Name-space size of the sub-instance (local names are `< m`).
    pub m: usize,
}

/// Runs `S` independent sub-instances, one per shard of the pid space,
/// and merges the results into one outcome over all `n` pids.
///
/// `run_shard(s, n_s, ctx)` must drive shard `s`'s `n_s`-process
/// sub-instance to completion — building its processes and adversary
/// itself (seed them with [`shard_seed`]) and reporting the local
/// name-space size `m`. Shards run on one scoped thread each (`S = 1`
/// runs inline on the caller's thread) and share nothing. `every` is
/// ignored; it is kept only because the standalone `stepbench` package
/// passes it, and the next change to that benchmark removes it.
///
/// Returns the merged outcome plus the merged name-space size
/// `m_total = Σ m_s`: shard `s`'s names are offset by `Σ_{s' < s} m_s'`,
/// and all per-pid tables are scattered back to global pid order through
/// the run's [`ShardMap`]. The merged outcome is a pure function of the
/// seeds and `S` (see the module docs for the argument).
///
/// # Errors
/// The first failing shard's [`ExecError`] (by shard index, so error
/// selection is deterministic too).
pub fn run_sharded<F>(
    n: usize,
    shards: usize,
    _every: u64,
    run_shard: F,
) -> Result<(RunOutcome, usize), ExecError>
where
    F: Fn(ShardId, usize, ShardContext) -> Result<ShardRun, ExecError> + Sync,
{
    assert!(shards >= 1, "a sharded run needs at least one shard");
    let map = ShardMap::new(shards);
    let body = |s: ShardId| run_shard(s, map.shard_len(s, n), ShardContext(()));

    let results: Vec<Result<ShardRun, ExecError>> = if shards == 1 {
        vec![body(ShardId::new(0))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = map.shard_ids().map(|s| scope.spawn(move || body(s))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        })
    };

    let mut names: EntityVec<Pid, Option<usize>> = crate::entity_vec![None; n];
    let mut steps: EntityVec<Pid, u64> = crate::entity_vec![0; n];
    let mut crashed: EntityVec<Pid, bool> = crate::entity_vec![false; n];
    let mut gave_up: EntityVec<Pid, bool> = crate::entity_vec![false; n];
    let mut decisions = 0u64;
    let mut name_offset = 0usize;
    for (s, result) in results.into_iter().enumerate() {
        let run = result?;
        let s = ShardId::new(s);
        let n_s = map.shard_len(s, n);
        assert_eq!(run.outcome.names.len(), n_s, "shard {s} outcome must cover its {n_s} pids");
        for l in (0..n_s).map(LocalIdx::new) {
            let local = Pid::new(l.index());
            let global = map.global_of(s, l);
            names[global] = run.outcome.names[local].map(|name| name + name_offset);
            steps[global] = run.outcome.steps[local];
            crashed[global] = run.outcome.crashed[local];
            gave_up[global] = run.outcome.gave_up[local];
        }
        decisions += run.outcome.decisions;
        name_offset += run.m;
    }
    Ok((RunOutcome { names, steps, crashed, gave_up, decisions }, name_offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashAdversary, FairAdversary, RandomAdversary};
    use crate::process::testutil::ScanProcess;
    use crate::replay::RecordingAdversary;
    use rr_shmem::tas::AtomicTasArray;
    use std::sync::Arc;

    fn scan_processes(
        n: usize,
        m: usize,
    ) -> (Vec<ScanProcess<AtomicTasArray>>, Arc<AtomicTasArray>) {
        let mem = Arc::new(AtomicTasArray::new(m));
        let procs =
            (0..n).map(|pid| ScanProcess { pid, mem: Arc::clone(&mem), cursor: 0 }).collect();
        (procs, mem)
    }

    #[test]
    fn typed_run_matches_boxed_virtual_run_bit_for_bit() {
        for seed in 0..4u64 {
            let (mut typed, _m1) = scan_processes(24, 24);
            let mut arena = Arena::new();
            let dense = arena.run(&mut typed, &mut RandomAdversary::new(seed), 100_000).unwrap();

            let (boxed, _m2) = scan_processes(24, 24);
            let mut boxed: Vec<Box<dyn Process>> =
                boxed.into_iter().map(|p| Box::new(p) as Box<dyn Process>).collect();
            let via_box =
                Arena::new().run(&mut boxed, &mut RandomAdversary::new(seed), 100_000).unwrap();

            assert_eq!(dense.names, via_box.names, "seed {seed}");
            assert_eq!(dense.steps, via_box.steps, "seed {seed}");
            assert_eq!(dense.crashed, via_box.crashed, "seed {seed}");
            assert_eq!(dense.gave_up, via_box.gave_up, "seed {seed}");
            assert_eq!(dense.decisions, via_box.decisions, "seed {seed}");
        }
    }

    #[test]
    fn arena_buffers_are_reused_across_runs_without_leakage() {
        let mut arena = Arena::new();
        // Big run first: buffers grow.
        let (mut big, _m) = scan_processes(64, 64);
        let out = arena.run(&mut big, &mut FairAdversary::default(), 100_000).unwrap();
        out.verify_renaming(64).unwrap();
        // Small run next: outcome must be sized to the small n, with no
        // stale state from the big run.
        let (mut small, _m) = scan_processes(5, 5);
        let out = arena.run(&mut small, &mut FairAdversary::default(), 1_000).unwrap();
        assert_eq!(out.names.len(), 5);
        assert_eq!(out.steps.as_slice(), &[1, 2, 3, 4, 5]);
        out.verify_renaming(5).unwrap();
        // And a crashy run after that still accounts correctly.
        let (mut procs, _m) = scan_processes(10, 10);
        let mut adv = CrashAdversary::new(FairAdversary::default(), 0.5, 3, 7);
        let out = arena.run(&mut procs, &mut adv, 100_000).unwrap();
        assert_eq!(out.crashed.iter().filter(|&&c| c).count(), adv.crashes());
        out.verify_renaming(10).unwrap();
    }

    #[test]
    fn empty_slice_is_trivial() {
        let mut arena = Arena::new();
        let mut procs: Vec<ScanProcess<AtomicTasArray>> = Vec::new();
        let out = arena.run(&mut procs, &mut FairAdversary::default(), 10).unwrap();
        assert_eq!(out.decisions, 0);
        assert!(out.names.is_empty());
    }

    #[test]
    fn step_budget_enforced_in_arena() {
        let (mut procs, _m) = scan_processes(4, 4);
        let err = Arena::new().run(&mut procs, &mut FairAdversary::default(), 2).unwrap_err();
        assert!(matches!(err, ExecError::StepBudgetExceeded { budget: 2 }));
    }

    #[test]
    #[should_panic(expected = "pid() == i")]
    fn pid_layout_contract_enforced() {
        let mem = Arc::new(AtomicTasArray::new(4));
        let mut procs = vec![ScanProcess { pid: 3, mem, cursor: 0 }];
        let _ = Arena::new().run(&mut procs, &mut FairAdversary::default(), 10);
    }

    /// Inherits the default one-decision `decide_batch`, disabling the
    /// inner strategy's batching without touching its choices.
    struct SingleStep<A>(A);

    impl<A: Adversary> Adversary for SingleStep<A> {
        fn decide(&mut self, view: &RunView<'_>) -> Decision {
            self.0.decide(view)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// Every field of a [`RunOutcome`]: names, steps, crashed, gave up,
    /// decisions.
    type Fields = (
        EntityVec<Pid, Option<usize>>,
        EntityVec<Pid, u64>,
        EntityVec<Pid, bool>,
        EntityVec<Pid, bool>,
        u64,
    );

    /// Every field of an outcome, for whole-run equality.
    fn fields(out: &RunOutcome) -> Fields {
        (
            out.names.clone(),
            out.steps.clone(),
            out.crashed.clone(),
            out.gave_up.clone(),
            out.decisions,
        )
    }

    #[test]
    fn batched_fair_is_bit_identical_to_single_stepped_fair() {
        // Sizes straddling the 32-lane and 64-bit word boundaries, so
        // ragged tails and multi-word scans are all exercised.
        for n in [1usize, 5, 24, 31, 32, 33, 64, 65, 130] {
            let (mut procs, _m) = scan_processes(n, n);
            let batched =
                Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 20).unwrap();

            let (mut procs, _m) = scan_processes(n, n);
            let single = Arena::new()
                .run(&mut procs, &mut SingleStep(FairAdversary::default()), 1 << 20)
                .unwrap();

            assert_eq!(fields(&batched), fields(&single), "n {n}");
        }
    }

    #[test]
    fn batched_random_is_bit_identical_to_single_stepped_random() {
        // Every process halts, and the roster is recaptured each time
        // more than half of it has, so n ≥ 64 crosses at least five
        // recaptures; the batches' headroom cut must keep each one at
        // the decision where single steps meet it.
        for n in [64usize, 130, 1000] {
            for seed in 0..3u64 {
                let (mut procs, _m) = scan_processes(n, n);
                let mut batched = RandomAdversary::new(seed);
                let out = Arena::new().run(&mut procs, &mut batched, 1 << 24).unwrap();

                let (mut procs, _m) = scan_processes(n, n);
                let mut single = SingleStep(RandomAdversary::new(seed));
                let single_out = Arena::new().run(&mut procs, &mut single, 1 << 24).unwrap();
                assert_eq!(fields(&out), fields(&single_out), "n {n} seed {seed}");
                assert_eq!(
                    batched.words_consumed(),
                    single.0.words_consumed(),
                    "n {n} seed {seed}"
                );

                // Recording sees the batches and must tape the same
                // schedule.
                let tape = |adv: Box<dyn Adversary>| {
                    let mut rec = RecordingAdversary::new(adv);
                    let (mut procs, _m) = scan_processes(n, n);
                    let out = Arena::new().run(&mut procs, &mut rec, 1 << 24).unwrap();
                    (fields(&out), rec.into_tape())
                };
                assert_eq!(
                    tape(Box::new(RandomAdversary::new(seed))),
                    tape(Box::new(SingleStep(RandomAdversary::new(seed)))),
                    "recorded, n {n} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn shard_seed_keeps_shard_zero_identity() {
        assert_eq!(shard_seed(42, ShardId::new(0)), 42);
        assert_ne!(shard_seed(42, ShardId::new(1)), 42);
        assert_ne!(shard_seed(42, ShardId::new(1)), shard_seed(42, ShardId::new(2)));
    }

    /// Shard body driving a scan sub-instance: each shard gets its own
    /// n_s-register memory, so m_s = n_s and m_total = n.
    fn scan_shard(
        seed: u64,
    ) -> impl Fn(ShardId, usize, ShardContext) -> Result<ShardRun, ExecError> + Sync {
        move |s, n_s, _ctx| {
            let (mut procs, _mem) = scan_processes(n_s, n_s);
            let mut adv = RandomAdversary::new(shard_seed(seed, s));
            let outcome = Arena::new().run(&mut procs, &mut adv, 1 << 20)?;
            Ok(ShardRun { outcome, m: n_s })
        }
    }

    #[test]
    fn single_shard_is_bit_identical_to_serial_dense() {
        for seed in 0..4u64 {
            let (merged, m_total) = run_sharded(24, 1, 0, scan_shard(seed)).unwrap();
            assert_eq!(m_total, 24);
            let (mut procs, _mem) = scan_processes(24, 24);
            let dense =
                Arena::new().run(&mut procs, &mut RandomAdversary::new(seed), 1 << 20).unwrap();
            assert_eq!(merged.names, dense.names, "seed {seed}");
            assert_eq!(merged.steps, dense.steps, "seed {seed}");
            assert_eq!(merged.crashed, dense.crashed, "seed {seed}");
            assert_eq!(merged.gave_up, dense.gave_up, "seed {seed}");
            assert_eq!(merged.decisions, dense.decisions, "seed {seed}");
        }
    }

    #[test]
    fn merged_run_renames_into_offset_disjoint_namespace() {
        let (merged, m_total) = run_sharded(23, 3, 0, scan_shard(7)).unwrap();
        assert_eq!(m_total, 23);
        merged.verify_renaming(m_total).unwrap();
        assert_eq!(merged.named_count(), 23);
    }

    #[test]
    fn sharded_run_is_deterministic_across_invocations() {
        let run = || {
            let (out, m) = run_sharded(29, 4, 0, scan_shard(11)).unwrap();
            (out.names, out.steps, out.crashed, out.gave_up, out.decisions, m)
        };
        // Repeated runs race their threads differently; outcomes must not.
        let first = run();
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn merge_preserves_per_shard_step_counts_exactly() {
        // Shards share nothing, so each shard run is step-for-step the
        // standalone sub-instance run — the merge must preserve that
        // exactly, scattered to global pid order.
        let n = 22;
        let shards = 3;
        let seed = 5;
        let (merged, _m) = run_sharded(n, shards, 0, scan_shard(seed)).unwrap();
        let map = ShardMap::new(shards);
        for s in map.shard_ids() {
            let n_s = map.shard_len(s, n);
            let (mut procs, _mem) = scan_processes(n_s, n_s);
            let standalone = Arena::new()
                .run(&mut procs, &mut RandomAdversary::new(shard_seed(seed, s)), 1 << 20)
                .unwrap();
            for l in (0..n_s).map(LocalIdx::new) {
                let global = map.global_of(s, l);
                assert_eq!(
                    merged.steps[global],
                    standalone.steps[Pid::new(l.index())],
                    "shard {s} local {l}"
                );
            }
        }
    }

    #[test]
    fn failing_shard_propagates_error_without_deadlock() {
        // Shards 2 and 3 both fail; the lower shard index wins, whichever
        // thread finishes first.
        let err = run_sharded(16, 4, 0, |s, n_s, _ctx| {
            let budget = match s.index() {
                2 => 1,
                3 => 2,
                _ => 1 << 20,
            };
            let (mut procs, _mem) = scan_processes(n_s, n_s);
            let mut adv = RandomAdversary::new(shard_seed(3, s));
            let outcome = Arena::new().run(&mut procs, &mut adv, budget)?;
            Ok(ShardRun { outcome, m: n_s })
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::StepBudgetExceeded { budget: 1 }));
    }
}
