//! Schedule-space exploration: bounded exhaustive search, coverage-guided
//! fuzzing, and counterexample shrinking.
//!
//! The paper's guarantees are quantified over **all** schedules, but the
//! stock adversaries ([`crate::adversary`]) are a handful of hand-written
//! strategies — nothing systematically searches the schedule space. This
//! module closes that gap with three pieces that compose with the
//! existing [`Tape`] machinery, so every explored
//! branch is a replayable, storable artifact:
//!
//! * [`ExhaustiveExplorer`] — bounded DFS over the schedule tree. Each
//!   run is driven by a [`GuidedAdversary`] that follows a digit prefix
//!   (one digit = one choice index at one `decide()` point) and records
//!   the arity it saw at every branch point; the explorer backtracks
//!   odometer-style, so for a deterministic workload **every schedule in
//!   the bounded tree is visited exactly once**. Forking at a decision
//!   point is realized by re-execution — the standard stateless
//!   model-checking trick — which keeps the executor untouched.
//! * [`FuzzExplorer`] — a coverage-guided schedule fuzzer for sizes
//!   where exhaustion is hopeless: it replays corpus tapes through a
//!   [`MutatingReplay`] that perturbs each decision with configurable
//!   strength (the 0 → fully-random sweep axis), and keeps tapes whose
//!   per-pid step-interleaving signature
//!   ([`interleaving_signature`]) is novel.
//! * [`shrink_tape`] — ddmin-style delta debugging over a failing tape:
//!   on any safety/budget violation the offending schedule is minimized
//!   to a locally-1-minimal counterexample, replayable via
//!   [`TolerantReplay`].
//!
//! Callers drive the searchers directly, one searcher per fixed
//! workload: `exp_explore` runs both over every registry algorithm, and
//! the exhaustive tests loop on [`ExhaustiveExplorer::next_adversary`].
//! A fixed workload is what the exactly-once guarantee needs — a
//! branch point whose arity changes between runs panics instead of
//! silently skipping schedules.

use crate::adversary::{Adversary, Decision, RunView};
use crate::ids::Pid;
use crate::replay::Tape;
use crate::virtual_exec::RunOutcome;
use rand::rngs::ChaCha8Rng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::HashSet;

fn at_least_two_runnable(view: &RunView<'_>) -> bool {
    view.runnable().nth(1).is_some()
}

/// First runnable pid — the canonical fallback schedule's choice, one
/// word-scan over the view's status bitmap.
fn first_runnable(view: &RunView<'_>) -> Pid {
    view.next_runnable(0).expect("decide() requires at least one runnable process")
}

/// The nearest runnable pid at or after `want`, wrapping to the overall
/// first — how the tolerant replayers redirect a decision that names a
/// halted pid.
fn redirect(view: &RunView<'_>, want: Pid) -> Pid {
    view.next_runnable(want.index()).unwrap_or_else(|| first_runnable(view))
}

/// The tolerant-replay rule for one tape entry `want` (`None` once the
/// tape is exhausted), shared by [`TolerantReplay`] and the unperturbed
/// decisions of [`MutatingReplay`].
fn tolerate(view: &RunView<'_>, want: Option<Decision>) -> Decision {
    match want {
        Some(Decision::Grant(p)) => Decision::Grant(redirect(view, p)),
        Some(Decision::Crash(p)) if at_least_two_runnable(view) => {
            Decision::Crash(redirect(view, p))
        }
        _ => Decision::Grant(first_runnable(view)),
    }
}

/// The canonical choice list at one decision point: grant each runnable
/// pid ascending, then — crash budget permitting, and never for the last
/// runnable process — crash each runnable pid ascending. Identical views
/// always yield identical lists, which is what makes digit prefixes a
/// stable addressing scheme for schedules.
fn choices(view: &RunView<'_>, crashes_left: usize) -> Vec<Decision> {
    let grants: Vec<Pid> = view.runnable().collect();
    let mut out: Vec<Decision> = grants.iter().map(|&p| Decision::Grant(p)).collect();
    if crashes_left > 0 && grants.len() > 1 {
        out.extend(grants.iter().map(|&p| Decision::Crash(p)));
    }
    out
}

/// Follows a digit prefix through the schedule tree, recording the arity
/// observed at every branch point (and the concrete decisions, as a
/// [`Tape`]). Digits beyond the prefix default to 0; decisions beyond
/// the `depth` horizon take the canonical first choice (grant the lowest
/// runnable pid) without branching, which is what bounds the tree.
#[derive(Debug)]
pub struct GuidedAdversary {
    prefix: Vec<usize>,
    depth: usize,
    crash_budget: usize,
    crashes_used: usize,
    at: usize,
    /// `(digit, arity)` per decision within the horizon.
    trace: Vec<(u32, u32)>,
    decisions: Vec<Decision>,
}

impl GuidedAdversary {
    fn new(prefix: Vec<usize>, depth: usize, crash_budget: usize) -> Self {
        Self {
            prefix,
            depth,
            crash_budget,
            crashes_used: 0,
            at: 0,
            trace: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// The decisions made so far, as a replayable tape.
    pub fn tape(&self) -> Tape {
        Tape::from_decisions(self.decisions.clone())
    }
}

impl Adversary for GuidedAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let d = if self.at < self.depth {
            let cs = choices(view, self.crash_budget - self.crashes_used);
            let digit = self.prefix.get(self.at).copied().unwrap_or(0);
            assert!(
                digit < cs.len(),
                "schedule tree changed shape at decision {}: digit {digit} of {} choices \
                 (exhaustive exploration requires a deterministic workload)",
                self.at,
                cs.len()
            );
            let d = cs[digit];
            self.trace.push((digit as u32, cs.len() as u32));
            d
        } else {
            Decision::Grant(first_runnable(view))
        };
        self.at += 1;
        if let Decision::Crash(_) = d {
            self.crashes_used += 1;
        }
        self.decisions.push(d);
        d
    }

    fn name(&self) -> &'static str {
        "explore"
    }
}

/// A shrunk (or otherwise failing) schedule with the reason it fails.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimal failing schedule (replay via [`TolerantReplay`]).
    pub tape: Tape,
    /// What the original failing run reported.
    pub reason: String,
}

/// What a bounded exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Complete schedules executed (each distinct, for a deterministic
    /// workload), the failing one included.
    pub schedules: u64,
    /// Whether the whole bounded tree was visited (false when the
    /// `limit` was hit, or when a counterexample stopped the search
    /// before the last branch — the failing schedule itself counts as
    /// visited, so a resumed `explore` continues past it).
    pub exhausted: bool,
    /// Worst step complexity observed over all explored schedules.
    pub worst_steps: u64,
    /// The shrunk counterexample, if any run failed.
    pub counterexample: Option<Counterexample>,
}

/// The digit-prefix odometer at the heart of every exhaustive DFS in
/// this workspace: it holds the prefix addressing the next unvisited
/// leaf of a decision tree, and [`Odometer::record`] backtracks from a
/// finished descent's `(digit, arity)` branch trace by incrementing the
/// deepest digit that still has untried siblings.
///
/// Stateless re-execution makes this a complete enumeration: as long as
/// the tree is deterministic (identical prefixes observe identical
/// arities), every leaf is visited exactly once. Both
/// [`ExhaustiveExplorer`] (schedule trees) and `rr_sched::model`
/// (atomic-interleaving trees) drive their searches through this one
/// struct.
#[derive(Debug, Default)]
pub struct Odometer {
    prefix: Vec<usize>,
    exhausted: bool,
    visited: u64,
}

impl Odometer {
    /// A fresh odometer at the all-zeros prefix.
    pub fn new() -> Self {
        Self::default()
    }

    /// The digit prefix addressing the next unvisited leaf, or `None`
    /// once the tree is exhausted.
    pub fn prefix(&self) -> Option<&[usize]> {
        if self.exhausted {
            None
        } else {
            Some(&self.prefix)
        }
    }

    /// Complete descents recorded so far.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Whether the whole tree has been visited.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Consumes a finished descent's `(digit, arity)` branch trace and
    /// backtracks to the next unvisited leaf.
    pub fn record(&mut self, trace: &[(u32, u32)]) {
        self.visited += 1;
        match trace.iter().rposition(|&(digit, arity)| digit + 1 < arity) {
            None => self.exhausted = true,
            Some(i) => {
                self.prefix.clear();
                self.prefix.extend(trace[..i].iter().map(|&(d, _)| d as usize));
                self.prefix.push(trace[i].0 as usize + 1);
            }
        }
    }
}

/// Bounded exhaustive DFS over the schedule tree.
///
/// Branch points are the first `depth` scheduling decisions of a run;
/// at each, every runnable pid can be granted (and, with a `crashes`
/// budget, crashed). The explorer enumerates digit sequences via
/// [`Odometer`]: run with the current prefix, then increment the
/// deepest digit that has untried siblings. For a deterministic
/// workload this visits **every** schedule of the bounded tree exactly
/// once.
///
/// ```
/// use rr_sched::explore::ExhaustiveExplorer;
/// use rr_sched::ids::Pid;
/// use rr_sched::process::{Process, StepOutcome};
/// use rr_sched::shard::Arena;
/// use rr_shmem::Access;
///
/// struct TwoStep { pid: usize, left: usize }
/// impl Process for TwoStep {
///     fn announce(&mut self) -> Access { Access::Local }
///     fn step(&mut self) -> StepOutcome {
///         if self.left == 0 { StepOutcome::Done(self.pid) }
///         else { self.left -= 1; StepOutcome::Continue }
///     }
///     fn pid(&self) -> Pid { Pid::new(self.pid) }
/// }
///
/// // 2 processes × 2 steps each: 4!/(2!·2!) = 6 interleavings.
/// let mut explorer = ExhaustiveExplorer::new(8, 0);
/// let report = explorer.explore(1_000, |adv| {
///     let mut procs: Vec<TwoStep> = (0..2).map(|pid| TwoStep { pid, left: 1 }).collect();
///     Arena::new().run(&mut procs, adv, 100).map_err(|e| e.to_string())
/// });
/// assert_eq!(report.schedules, 6);
/// assert!(report.exhausted);
/// ```
#[derive(Debug)]
pub struct ExhaustiveExplorer {
    depth: usize,
    crash_budget: usize,
    odo: Odometer,
}

impl ExhaustiveExplorer {
    /// An explorer branching over the first `depth` decisions, with up
    /// to `crash_budget` crash decisions in the choice sets.
    ///
    /// # Panics
    /// Panics when `depth == 0` (an unbranched tree is not a search).
    pub fn new(depth: usize, crash_budget: usize) -> Self {
        assert!(depth >= 1, "explore needs depth ≥ 1");
        Self { depth, crash_budget, odo: Odometer::new() }
    }

    /// Complete schedules executed so far.
    pub fn visited(&self) -> u64 {
        self.odo.visited()
    }

    /// Whether the whole bounded tree has been visited.
    pub fn exhausted(&self) -> bool {
        self.odo.exhausted()
    }

    /// The adversary for the next unvisited schedule, or `None` once the
    /// tree is exhausted. Feed the finished adversary back through
    /// [`ExhaustiveExplorer::record`] to advance the search.
    pub fn next_adversary(&self) -> Option<GuidedAdversary> {
        let prefix = self.odo.prefix()?.to_vec();
        Some(GuidedAdversary::new(prefix, self.depth, self.crash_budget))
    }

    /// Consumes a finished run's branch trace and backtracks to the next
    /// unvisited schedule (odometer increment on the deepest digit with
    /// untried siblings).
    pub fn record(&mut self, finished: &GuidedAdversary) {
        self.odo.record(&finished.trace);
    }

    /// Drives the whole bounded search: runs schedules until the tree is
    /// exhausted, `limit` schedules were executed, or a run fails —
    /// in which case the failing tape is shrunk with [`shrink_tape`]
    /// (re-running via [`TolerantReplay`]) and returned as a minimal
    /// [`Counterexample`].
    ///
    /// `run_one` executes one run under the given adversary and returns
    /// the outcome, or `Err(reason)` on a safety/budget violation.
    pub fn explore(
        &mut self,
        limit: u64,
        mut run_one: impl FnMut(&mut dyn Adversary) -> Result<RunOutcome, String>,
    ) -> ExploreReport {
        let mut worst_steps = 0u64;
        while !self.exhausted() && self.visited() < limit {
            let mut adv = self.next_adversary().expect("not exhausted");
            match run_one(&mut adv) {
                Ok(out) => {
                    worst_steps = worst_steps.max(out.step_complexity());
                    self.record(&adv);
                }
                Err(reason) => {
                    // Advance past the failing schedule (like every
                    // successful one) so `visited` stays consistent and
                    // a caller that logs the counterexample and calls
                    // `explore` again resumes with the next branch
                    // instead of re-running this one forever.
                    self.record(&adv);
                    let tape = shrink_tape(&adv.tape(), |t| {
                        run_one(&mut TolerantReplay::new(t.clone())).is_err()
                    });
                    return ExploreReport {
                        schedules: self.visited(),
                        exhausted: self.exhausted(),
                        worst_steps,
                        counterexample: Some(Counterexample { tape, reason }),
                    };
                }
            }
        }
        ExploreReport {
            schedules: self.visited(),
            exhausted: self.exhausted(),
            worst_steps,
            counterexample: None,
        }
    }
}

/// Replays a tape, tolerating invalidity: a decision naming a halted pid
/// is redirected to the nearest runnable pid (wrapping), a crash with
/// only one process left becomes a grant, and an exhausted tape falls
/// back to granting the lowest runnable pid. Deterministic, total, and
/// — for a valid complete tape — identical to
/// [`ReplayAdversary`](crate::replay::ReplayAdversary). This is what
/// makes arbitrary *subsets* of a failing tape executable, the property
/// [`shrink_tape`] needs.
#[derive(Debug, Clone)]
pub struct TolerantReplay {
    tape: Tape,
    at: usize,
}

impl TolerantReplay {
    /// Replays `tape` from the start.
    pub fn new(tape: Tape) -> Self {
        Self { tape, at: 0 }
    }
}

impl Adversary for TolerantReplay {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let want = self.tape.decisions().get(self.at).copied();
        self.at += 1;
        tolerate(view, want)
    }

    fn name(&self) -> &'static str {
        "tolerant-replay"
    }
}

/// Minimizes a failing tape by ddmin-style delta debugging: repeatedly
/// deletes decision chunks (halving the chunk size down to 1) while
/// `fails` keeps returning `true`, and repeats the sweep after any
/// progress until a full pass removes nothing — so in the result **no
/// single decision can be removed** (1-minimal; a later deletion can
/// enable an earlier one, which a single pass would miss). `fails` is
/// typically a closure that re-runs the workload under
/// [`TolerantReplay`] and reports whether the violation persists.
pub fn shrink_tape(tape: &Tape, mut fails: impl FnMut(&Tape) -> bool) -> Tape {
    let mut current: Vec<Decision> = tape.decisions().to_vec();
    loop {
        let before = current.len();
        let mut chunk = current.len().div_ceil(2).max(1);
        loop {
            let mut i = 0;
            while i < current.len() {
                let end = (i + chunk).min(current.len());
                let candidate: Vec<Decision> =
                    current[..i].iter().chain(current[end..].iter()).copied().collect();
                if fails(&Tape::from_decisions(candidate.clone())) {
                    current = candidate;
                } else {
                    i = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        // The chunk-1 pass above tested every single deletion; a pass
        // with no progress is the 1-minimality fixpoint.
        if current.len() == before {
            break;
        }
    }
    Tape::from_decisions(current)
}

/// Replays a base tape while perturbing each decision with probability
/// `strength / 1000`: a perturbed decision grants a uniformly random
/// runnable pid instead of following the tape. Unperturbed decisions
/// follow [`TolerantReplay`] semantics, so any base tape (including the
/// empty one) is executable at any size. At strength 0 this *is* the
/// tolerant replay; at strength 1000 it is a uniformly random schedule —
/// the perturbation-strength axis the fuzzer sweeps.
#[derive(Debug)]
pub struct MutatingReplay {
    base: Tape,
    at: usize,
    strength: f64,
    rng: ChaCha8Rng,
    decisions: Vec<Decision>,
}

impl MutatingReplay {
    /// Perturbs `base` with `strength_permille / 1000` per decision,
    /// seeded.
    ///
    /// # Panics
    /// Panics when `strength_permille > 1000`.
    pub fn new(base: Tape, strength_permille: u32, seed: u64) -> Self {
        assert!(strength_permille <= 1000, "strength is a permille (0..=1000)");
        Self {
            base,
            at: 0,
            strength: strength_permille as f64 / 1000.0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            decisions: Vec::new(),
        }
    }

    /// The decisions actually made, as a replayable tape.
    pub fn tape(&self) -> Tape {
        Tape::from_decisions(self.decisions.clone())
    }
}

impl Adversary for MutatingReplay {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let want = self.base.decisions().get(self.at).copied();
        self.at += 1;
        let d = if self.strength > 0.0 && self.rng.random_bool(self.strength) {
            // Perturb: a uniformly random runnable pid (rejection-sampled
            // over the stale-slot roster, like RandomAdversary — same RNG
            // consumption as the historical tombstoned-vector sampling).
            loop {
                let i = self.rng.random_range(0..view.slot_count());
                let pid = view.slot(i);
                if view.is_runnable(pid) {
                    break Decision::Grant(pid);
                }
            }
        } else {
            tolerate(view, want)
        };
        self.decisions.push(d);
        d
    }

    fn name(&self) -> &'static str {
        "fuzz"
    }
}

fn log2_bucket(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// The fuzzer's novelty measure: a per-pid step-interleaving signature.
/// For each pid the schedule is summarized by its number of scheduling
/// *bursts* (maximal runs of consecutive grants) and its total granted
/// steps, both log₂-bucketed, plus its crash flag; the per-pid summaries
/// are folded with FNV-1a. Coarse by design: two schedules collide iff
/// every process was cut into a similar number of bursts of similar
/// size, so novelty means a structurally different interleaving — not
/// just a different tape.
pub fn interleaving_signature(tape: &Tape, n: usize) -> u64 {
    let mut bursts = vec![0u32; n];
    let mut steps = vec![0u32; n];
    let mut crashed = vec![false; n];
    let mut prev = usize::MAX;
    for &d in tape.decisions() {
        match d {
            Decision::Grant(p) if p.index() < n => {
                let p = p.index();
                steps[p] = steps[p].saturating_add(1);
                if prev != p {
                    bursts[p] = bursts[p].saturating_add(1);
                }
                prev = p;
            }
            Decision::Crash(p) if p.index() < n => {
                crashed[p.index()] = true;
                prev = usize::MAX;
            }
            _ => {}
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in 0..n {
        for word in [
            log2_bucket(bursts[p]) as u64,
            log2_bucket(steps[p]) as u64 | ((crashed[p] as u64) << 8),
        ] {
            h ^= word;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What a fuzzing campaign found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Rounds executed in this call.
    pub rounds: u64,
    /// Cumulative novel signatures found by this fuzzer.
    pub novel: u64,
    /// Current corpus size (≤ capacity).
    pub corpus_len: usize,
    /// Worst step complexity observed in this call.
    pub worst_steps: u64,
    /// The shrunk counterexample, if any round failed.
    pub counterexample: Option<Counterexample>,
}

/// Coverage-guided schedule fuzzer: each round replays a corpus tape
/// (or, while the corpus is empty, the canonical lowest-pid schedule)
/// through a [`MutatingReplay`] at the configured perturbation strength,
/// and keeps the recorded tape when its [`interleaving_signature`] is
/// novel. Violations are shrunk exactly like the exhaustive explorer's.
#[derive(Debug)]
pub struct FuzzExplorer {
    strength_permille: u32,
    capacity: usize,
    rng: ChaCha8Rng,
    corpus: Vec<Tape>,
    signatures: HashSet<u64>,
    novel: u64,
}

impl FuzzExplorer {
    /// A fuzzer with its own seed, perturbation strength (permille) and
    /// corpus capacity.
    ///
    /// # Panics
    /// Panics when `strength_permille > 1000` or `capacity == 0`.
    pub fn new(seed: u64, strength_permille: u32, capacity: usize) -> Self {
        assert!(strength_permille <= 1000, "strength is a permille (0..=1000)");
        assert!(capacity >= 1, "fuzz corpus needs capacity ≥ 1");
        Self {
            strength_permille,
            capacity,
            rng: ChaCha8Rng::seed_from_u64(seed),
            corpus: Vec::new(),
            signatures: HashSet::new(),
            novel: 0,
        }
    }

    /// Cumulative novel signatures found.
    pub fn novel(&self) -> u64 {
        self.novel
    }

    /// Current corpus size.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// The adversary for one fuzz round: a seeded mutation of a
    /// corpus-picked base tape (derived entirely from `round_seed`, so
    /// a given corpus state and round seed always produce the same
    /// schedule).
    ///
    /// The pick is one SplitMix64 finalizer application — keying up an
    /// entire ChaCha cipher to draw a single index was the fuzz loop's
    /// dominant fixed cost. The pick only needs to be a deterministic,
    /// well-spread function of `round_seed`; the modulo's bias
    /// (corpus ≤ capacity ≪ 2⁶⁴) is irrelevant to a coverage heuristic.
    pub fn next_adversary(&self, round_seed: u64) -> MutatingReplay {
        let base = if self.corpus.is_empty() {
            Tape::default()
        } else {
            let pick = (rr_shmem::rng::mix64(round_seed) % self.corpus.len() as u64) as usize;
            self.corpus[pick].clone()
        };
        MutatingReplay::new(base, self.strength_permille, round_seed)
    }

    /// Feeds one finished round's tape back: returns `true` (and retains
    /// the tape, capacity permitting) when its signature is novel.
    pub fn observe(&mut self, tape: &Tape, n: usize) -> bool {
        let novel = self.signatures.insert(interleaving_signature(tape, n));
        if novel {
            self.novel += 1;
            if self.corpus.len() < self.capacity {
                self.corpus.push(tape.clone());
            }
        }
        novel
    }

    /// Drives `rounds` fuzz rounds against an `n`-process workload.
    /// `run_one` executes one run under the given adversary; on
    /// `Err(reason)` the failing tape is shrunk via [`shrink_tape`] +
    /// [`TolerantReplay`] and returned as a minimal [`Counterexample`].
    pub fn fuzz(
        &mut self,
        n: usize,
        rounds: u64,
        mut run_one: impl FnMut(&mut dyn Adversary) -> Result<RunOutcome, String>,
    ) -> FuzzReport {
        let mut worst_steps = 0u64;
        for round in 0..rounds {
            let round_seed = self.rng.next_u64();
            let mut adv = self.next_adversary(round_seed);
            match run_one(&mut adv) {
                Ok(out) => {
                    worst_steps = worst_steps.max(out.step_complexity());
                    self.observe(&adv.tape(), n);
                }
                Err(reason) => {
                    let tape = shrink_tape(&adv.tape(), |t| {
                        run_one(&mut TolerantReplay::new(t.clone())).is_err()
                    });
                    return FuzzReport {
                        rounds: round + 1,
                        novel: self.novel,
                        corpus_len: self.corpus.len(),
                        worst_steps,
                        counterexample: Some(Counterexample { tape, reason }),
                    };
                }
            }
        }
        FuzzReport {
            rounds,
            novel: self.novel,
            corpus_len: self.corpus.len(),
            worst_steps,
            counterexample: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Process, StepOutcome};
    use crate::replay::ReplayAdversary;
    use crate::shard::Arena;
    use rr_shmem::Access;

    /// A process that takes `extra` Continue steps, then claims its pid.
    struct Count {
        pid: usize,
        extra: usize,
    }

    impl Process for Count {
        fn announce(&mut self) -> Access {
            Access::Local
        }
        fn step(&mut self) -> StepOutcome {
            if self.extra == 0 {
                StepOutcome::Done(self.pid)
            } else {
                self.extra -= 1;
                StepOutcome::Continue
            }
        }
        fn pid(&self) -> Pid {
            Pid::new(self.pid)
        }
    }

    fn counters(n: usize, extra: usize) -> Vec<Count> {
        (0..n).map(|pid| Count { pid, extra }).collect()
    }

    fn run_counters(
        n: usize,
        extra: usize,
    ) -> impl FnMut(&mut dyn Adversary) -> Result<RunOutcome, String> {
        move |adv| Arena::new().run(&mut counters(n, extra), adv, 10_000).map_err(|e| e.to_string())
    }

    /// The acceptance pin: 3 processes × 2 decisions each have exactly
    /// 6!/(2!·2!·2!) = 90 interleavings, each visited exactly once.
    #[test]
    fn exhaustive_visits_every_schedule_exactly_once_n3() {
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        let mut tapes = std::collections::HashSet::new();
        let report = explorer.explore(10_000, |adv| {
            let out =
                Arena::new().run(&mut counters(3, 1), adv, 10_000).map_err(|e| e.to_string())?;
            Ok(out)
        });
        assert!(report.exhausted);
        assert_eq!(report.schedules, 90, "6!/(2!·2!·2!) = 90 interleavings");
        assert!(report.counterexample.is_none());
        // Re-run collecting tapes to pin uniqueness, not just the count.
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        while let Some(mut adv) = explorer.next_adversary() {
            Arena::new().run(&mut counters(3, 1), &mut adv, 10_000).unwrap();
            assert!(tapes.insert(adv.tape().to_text()), "schedule revisited");
            explorer.record(&adv);
        }
        assert_eq!(tapes.len(), 90);
    }

    #[test]
    fn exhaustive_with_crash_budget_counts_crash_branches() {
        // n=2, one decision each: g0 g1 | g1 g0 | c0 g1 | c1 g0 = 4.
        let mut explorer = ExhaustiveExplorer::new(8, 1);
        let report = explorer.explore(1_000, run_counters(2, 0));
        assert!(report.exhausted);
        assert_eq!(report.schedules, 4);
        // A second crash is never offered once only one process remains.
        let mut explorer = ExhaustiveExplorer::new(8, 2);
        let report = explorer.explore(1_000, run_counters(2, 0));
        assert_eq!(report.schedules, 4);
    }

    #[test]
    fn depth_bounds_the_branching_horizon() {
        // n=2 × 2 steps = 6 full interleavings, but with depth 1 only the
        // first decision branches: 2 schedules.
        let mut explorer = ExhaustiveExplorer::new(1, 0);
        let report = explorer.explore(1_000, run_counters(2, 1));
        assert!(report.exhausted);
        assert_eq!(report.schedules, 2);
    }

    #[test]
    fn limit_stops_the_search_without_exhaustion() {
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        let report = explorer.explore(10, run_counters(3, 1));
        assert!(!report.exhausted);
        assert_eq!(report.schedules, 10);
        // The same explorer can resume and finish the remaining 80.
        let report = explorer.explore(10_000, run_counters(3, 1));
        assert!(report.exhausted);
        assert_eq!(report.schedules, 90);
    }

    #[test]
    fn worst_steps_is_the_max_over_schedules() {
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        let report = explorer.explore(10_000, run_counters(2, 2));
        // Every Count process takes exactly 3 steps under any schedule.
        assert_eq!(report.worst_steps, 3);
    }

    #[test]
    fn explore_shrinks_budget_violations_to_minimal_tapes() {
        // Budget 3 < the 4 decisions n=2 × 2 steps need: every schedule
        // fails, and the empty tape (tolerant fallback) still fails — the
        // minimal counterexample is empty.
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        let report = explorer.explore(1_000, |adv| {
            Arena::new().run(&mut counters(2, 1), adv, 3).map_err(|e| e.to_string())
        });
        let cx = report.counterexample.expect("budget violation found");
        assert!(cx.reason.contains("step budget"));
        assert!(cx.tape.is_empty(), "ddmin should reach the empty tape: {}", cx.tape.to_text());
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn tolerant_replay_matches_exact_replay_on_valid_tapes() {
        let mut explorer = ExhaustiveExplorer::new(8, 1);
        while let Some(mut adv) = explorer.next_adversary() {
            Arena::new().run(&mut counters(3, 1), &mut adv, 10_000).unwrap();
            let tape = adv.tape();
            let exact = Arena::new()
                .run(&mut counters(3, 1), &mut ReplayAdversary::new(tape.clone()), 10_000)
                .unwrap();
            let tolerant = Arena::new()
                .run(&mut counters(3, 1), &mut TolerantReplay::new(tape.clone()), 10_000)
                .unwrap();
            assert_eq!(exact.names, tolerant.names, "{}", tape.to_text());
            assert_eq!(exact.steps, tolerant.steps, "{}", tape.to_text());
            assert_eq!(exact.crashed, tolerant.crashed, "{}", tape.to_text());
            explorer.record(&adv);
        }
        assert!(explorer.exhausted());
    }

    #[test]
    fn tolerant_replay_redirects_and_extends() {
        // A tape that names halted pids and is too short: every decision
        // still executes and the run completes.
        let tape = Tape::from_text("g1 g1 g1 g1").unwrap();
        let out =
            Arena::new().run(&mut counters(3, 1), &mut TolerantReplay::new(tape), 10_000).unwrap();
        out.verify_renaming(3).unwrap();
        assert_eq!(out.decisions, 6);
    }

    #[test]
    fn shrink_finds_the_single_crucial_decision() {
        // Failure: "pid 2 crashed". The minimal schedule is one decision.
        let noisy = Tape::from_text("g0 g1 c2 g0 g1 g0").unwrap();
        let fails = |t: &Tape| {
            let out = Arena::new()
                .run(&mut counters(3, 2), &mut TolerantReplay::new(t.clone()), 10_000)
                .unwrap();
            out.crashed[Pid::new(2)]
        };
        assert!(fails(&noisy));
        let min = shrink_tape(&noisy, fails);
        assert_eq!(min.to_text(), "c2");
    }

    /// A later deletion can enable an earlier one: with a predicate that
    /// fails on everything except `[g1]`, a single ddmin pass over
    /// `[g0, g1]` would stop at `[g0]` even though the empty tape also
    /// fails. Repeating the sweep to its fixpoint must reach the true
    /// 1-minimal `[]`.
    #[test]
    fn shrink_restarts_until_one_minimal() {
        let tape = Tape::from_text("g0 g1").unwrap();
        let min = shrink_tape(&tape, |t| t.to_text() != "g1");
        assert!(min.is_empty(), "got `{}`", min.to_text());
    }

    /// A counterexample advances the DFS like any visited schedule, so a
    /// caller that logs it and calls `explore` again continues with the
    /// next branch instead of re-running the same failing schedule.
    #[test]
    fn explore_resumes_past_a_counterexample() {
        // counters(2, 0) has exactly two schedules; fail the g0-first
        // one (the canonical empty-tape fallback also grants pid 0
        // first, so the shrunk counterexample is the empty tape).
        let fail_g0_first = |adv: &mut dyn Adversary| {
            let mut probe = RecordingProbe { inner: adv, first: None };
            let out = Arena::new()
                .run(&mut counters(2, 0), &mut probe, 100)
                .map_err(|e| e.to_string())?;
            if probe.first == Some(Decision::Grant(Pid::new(0))) {
                return Err("schedule granted pid 0 first".into());
            }
            Ok(out)
        };
        let mut explorer = ExhaustiveExplorer::new(8, 0);
        let first = explorer.explore(1_000, fail_g0_first);
        let cx = first.counterexample.expect("g0-first schedule fails");
        assert!(cx.tape.is_empty(), "fallback also grants g0 first: `{}`", cx.tape.to_text());
        assert_eq!(first.schedules, 1, "the failing schedule counts as visited");
        // Resume: the second (g1-first) schedule runs clean and finishes
        // the tree — no infinite loop on the failing branch.
        let second = explorer.explore(1_000, fail_g0_first);
        assert!(second.counterexample.is_none());
        assert!(second.exhausted);
        assert_eq!(second.schedules, 2);
    }

    /// Pass-through adversary recording the first decision — lets the
    /// resume test discriminate schedules without touching internals.
    struct RecordingProbe<'a> {
        inner: &'a mut dyn Adversary,
        first: Option<Decision>,
    }

    impl Adversary for RecordingProbe<'_> {
        fn decide(&mut self, view: &RunView<'_>) -> Decision {
            let d = self.inner.decide(view);
            self.first.get_or_insert(d);
            d
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn shrink_is_identity_when_nothing_can_go() {
        let tape = Tape::from_text("c0 c1").unwrap();
        let min = shrink_tape(&tape, |t| t.len() >= 2);
        assert_eq!(min, tape);
    }

    #[test]
    fn guided_prefix_addresses_schedules_deterministically() {
        // Empty prefix = canonical serial schedule (lowest pid first).
        let mut adv = GuidedAdversary::new(vec![], 8, 0);
        Arena::new().run(&mut counters(2, 1), &mut adv, 100).unwrap();
        assert_eq!(adv.tape().to_text(), "g0 g0 g1 g1");
        // Digit 1 at the root grants pid 1 first.
        let mut adv = GuidedAdversary::new(vec![1], 8, 0);
        Arena::new().run(&mut counters(2, 1), &mut adv, 100).unwrap();
        assert_eq!(adv.tape().to_text(), "g1 g0 g0 g1");
    }

    #[test]
    fn mutating_replay_at_strength_zero_is_tolerant_replay() {
        let base = Tape::from_text("g1 g0 g1 g0").unwrap();
        let mut mr = MutatingReplay::new(base.clone(), 0, 7);
        let out_m = Arena::new().run(&mut counters(2, 1), &mut mr, 100).unwrap();
        let out_t =
            Arena::new().run(&mut counters(2, 1), &mut TolerantReplay::new(base), 100).unwrap();
        assert_eq!(out_m.names, out_t.names);
        assert_eq!(out_m.steps, out_t.steps);
        assert_eq!(mr.tape().to_text(), "g1 g0 g1 g0");
    }

    #[test]
    fn mutating_replay_is_deterministic_per_seed() {
        let go = |seed| {
            let mut mr = MutatingReplay::new(Tape::default(), 700, seed);
            Arena::new().run(&mut counters(4, 3), &mut mr, 1_000).unwrap();
            mr.tape().to_text()
        };
        assert_eq!(go(3), go(3));
        assert_ne!(go(3), go(4));
    }

    #[test]
    fn signature_is_interleaving_sensitive_but_coarse() {
        let serial = Tape::from_text("g0 g0 g0 g0 g1 g1 g1 g1").unwrap();
        let alternating = Tape::from_text("g0 g1 g0 g1 g0 g1 g0 g1").unwrap();
        let serial_swapped = Tape::from_text("g1 g1 g1 g1 g0 g0 g0 g0").unwrap();
        assert_ne!(
            interleaving_signature(&serial, 2),
            interleaving_signature(&alternating, 2),
            "bursts differ"
        );
        assert_eq!(
            interleaving_signature(&serial, 2),
            interleaving_signature(&serial_swapped, 2),
            "per-pid burst/step profile is identical"
        );
        let crashed = Tape::from_text("g0 g0 g0 g0 c1").unwrap();
        assert_ne!(interleaving_signature(&serial, 2), interleaving_signature(&crashed, 2));
    }

    #[test]
    fn fuzzer_accumulates_novel_interleavings() {
        let mut fuzzer = FuzzExplorer::new(9, 800, 32);
        let report = fuzzer.fuzz(6, 40, run_counters(6, 3));
        assert_eq!(report.rounds, 40);
        assert!(report.novel >= 2, "strength 0.8 must find > 1 interleaving shape");
        assert!(report.corpus_len >= 1 && report.corpus_len <= 32);
        assert!(report.counterexample.is_none());
        assert_eq!(report.worst_steps, 4);
    }

    #[test]
    fn fuzzer_is_deterministic_per_seed() {
        let go = |seed| {
            let mut fuzzer = FuzzExplorer::new(seed, 500, 16);
            let r = fuzzer.fuzz(5, 25, run_counters(5, 2));
            (r.novel, r.corpus_len, r.worst_steps)
        };
        assert_eq!(go(1), go(1));
    }

    #[test]
    fn fuzzer_shrinks_failures() {
        let mut fuzzer = FuzzExplorer::new(2, 300, 8);
        let report = fuzzer.fuzz(2, 10, |adv| {
            Arena::new().run(&mut counters(2, 1), adv, 2).map_err(|e| e.to_string())
        });
        let cx = report.counterexample.expect("budget 2 must fail");
        assert!(cx.reason.contains("step budget"));
        assert!(cx.tape.is_empty());
    }

    #[test]
    #[should_panic(expected = "depth ≥ 1")]
    fn zero_depth_panics() {
        let _ = ExhaustiveExplorer::new(0, 0);
    }
}
