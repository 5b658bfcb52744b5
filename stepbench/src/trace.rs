//! The traced run: one step's cost split by layer, from outside.
//!
//! Forwarding wrappers sit at the layer boundaries the public types
//! expose:
//!
//! * [`Traced`] wraps each process. It times `announce`, and `step` /
//!   `step_claimed` keyed by the announced [`Access`] kind, and forwards
//!   `tau_host`, `step_claimed` and `rng_words`, so the arena's batched
//!   τ-CAS path still runs.
//! * [`TimedAdversary`] wraps `decide_batch`. On a sharded run one sits
//!   inside `ShardContext::couple` (the strategy) and one outside it
//!   (strategy plus coupling); the difference is the coupling sync time.
//! * The build, `Arena::run` and `verify_renaming` are timed around the
//!   calls.
//!
//! Counts are exact. Announce and step calls are timed one in
//! [`SAMPLE_EVERY`] and scaled by the exact counts; adversary calls are
//! all timed. Every span has the timer's own cost removed. The arena's
//! self time is the residual — `Arena::run` wall minus the adversary,
//! announce and step spans — so the layers add up to the run wall by
//! construction.

use crate::workload::{self, checked_run, isolated, resolve, tight_renaming, Tally, Workload};
use crate::{median, ratio};
use rr_renaming::BoxedAlgorithm;
use rr_sched::adversary::{Adversary, Decision, RunView};
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome, TauBatchHost};
use rr_sched::registry::AdversaryBuilder;
use rr_sched::shard::{run_sharded, shard_seed, Arena, ShardRun, DEFAULT_COUPLING_EVERY};
use rr_sched::virtual_exec::{ExecError, RunOutcome};
use rr_shmem::rng::RngMode;
use rr_shmem::Access;
use std::cell::{Cell, RefCell};
use std::sync::Mutex;
use std::time::Instant;

/// One announce or step call in this many is timed. Odd, so the timed
/// call alternates between announce and step and rotates through the
/// positions of a 32-decision batch.
pub const SAMPLE_EVERY: u32 = 17;

/// Steps are keyed by the four [`Access`] kinds — τ request, TAS, read,
/// local, in that order — plus τ requests served from a batched
/// `request_block` claim at this index.
const CLAIMED: usize = 4;

fn kind_of(access: &Access) -> usize {
    match access {
        Access::TauRequest { .. } => 0,
        Access::Tas { .. } => 1,
        Access::Read { .. } => 2,
        Access::Local => 3,
    }
}

/// One timed call site: the exact call count plus the sampled calls and
/// their summed nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Site {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Nanoseconds of the timed calls, timer cost included.
    pub sampled_ns: u64,
}

impl Site {
    const ZERO: Site = Site { calls: 0, sampled: 0, sampled_ns: 0 };

    fn record(&mut self, ns: Option<u64>) {
        self.calls += 1;
        if let Some(ns) = ns {
            self.sampled += 1;
            self.sampled_ns += ns;
        }
    }

    fn add(&mut self, other: &Site) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Mean nanoseconds per call, with `timer_ns` removed per span.
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - timer_ns).max(0.0)
    }

    /// Estimated nanoseconds of all calls.
    pub fn total_ns(&self, timer_ns: f64) -> f64 {
        self.ns_per_call(timer_ns) * self.calls as f64
    }
}

/// Everything the wrappers record on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// `announce` calls.
    pub announce: Site,
    /// Step calls by kind: τ request, TAS, read, local, claimed.
    pub steps: [Site; 5],
    /// Adversary strategy calls (all timed).
    pub adversary: Site,
    /// Decisions the strategy returned.
    pub decisions: u64,
    /// Roster recaptures: changes of `RunView::slot_count` between
    /// strategy calls.
    pub recaptures: u64,
    /// Calls through the shard coupling (sharded runs only; all timed).
    pub coupled: Site,
    /// Grants by the announced kind the adversary saw, indexed like the
    /// first four step kinds — an independent witness of the step
    /// counts, filled only when the strategy wrapper is built with
    /// `witness`.
    pub granted: [u64; 4],
}

impl Layers {
    const ZERO: Layers = Layers {
        announce: Site::ZERO,
        steps: [Site::ZERO; 5],
        adversary: Site::ZERO,
        decisions: 0,
        recaptures: 0,
        coupled: Site::ZERO,
        granted: [0; 4],
    };

    fn add(&mut self, other: &Layers) {
        self.announce.add(&other.announce);
        for (mine, theirs) in self.steps.iter_mut().zip(&other.steps) {
            mine.add(theirs);
        }
        self.adversary.add(&other.adversary);
        self.decisions += other.decisions;
        self.recaptures += other.recaptures;
        self.coupled.add(&other.coupled);
        for (mine, theirs) in self.granted.iter_mut().zip(&other.granted) {
            *mine += theirs;
        }
    }

    /// Steps of every kind.
    pub fn step_count(&self) -> u64 {
        self.steps.iter().map(|s| s.calls).sum()
    }

    /// Nanoseconds of the strategy's decisions.
    pub fn adversary_ns(&self, timer_ns: f64) -> f64 {
        self.adversary.total_ns(timer_ns)
    }

    /// Nanoseconds the shard coupling added around the strategy: the
    /// ledger sync, waiting included. Zero on unsharded runs.
    pub fn sync_ns(&self, timer_ns: f64) -> f64 {
        if self.coupled.calls == 0 {
            return 0.0;
        }
        (self.coupled.total_ns(timer_ns) - self.adversary_ns(timer_ns)).max(0.0)
    }

    /// Nanoseconds of every timed span: adversary (with sync), announce
    /// and steps.
    pub fn span_ns(&self, timer_ns: f64) -> f64 {
        self.adversary_ns(timer_ns)
            + self.sync_ns(timer_ns)
            + self.announce.total_ns(timer_ns)
            + self.steps.iter().map(|s| s.total_ns(timer_ns)).sum::<f64>()
    }
}

thread_local! {
    static LAYERS: RefCell<Layers> = const { RefCell::new(Layers::ZERO) };
    static COUNTDOWN: Cell<u32> = const { Cell::new(SAMPLE_EVERY) };
}

/// Returns this thread's records and resets them.
fn take_layers() -> Layers {
    COUNTDOWN.with(|c| c.set(SAMPLE_EVERY));
    LAYERS.with(|l| std::mem::replace(&mut *l.borrow_mut(), Layers::ZERO))
}

fn with_layers(f: impl FnOnce(&mut Layers)) {
    LAYERS.with(|l| f(&mut l.borrow_mut()));
}

/// Runs `f`, timing it if this call is the sampled one.
#[inline]
fn sampled<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let due = COUNTDOWN.with(|c| {
        let left = c.get() - 1;
        c.set(if left == 0 { SAMPLE_EVERY } else { left });
        left == 0
    });
    if due {
        let start = Instant::now();
        let out = f();
        (out, Some(start.elapsed().as_nanos() as u64))
    } else {
        (f(), None)
    }
}

/// Median cost of an empty timed span on this machine, removed from
/// every span the wrappers record.
fn timer_ns() -> f64 {
    let spans: Vec<f64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&spans)
}

/// Forwarding process wrapper; see the module docs.
pub struct Traced<P> {
    inner: P,
    /// Kind of the last announced access, which the next step performs.
    kind: usize,
}

impl<P> Traced<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self { inner, kind: 3 }
    }
}

impl<P: Process> Process for Traced<P> {
    fn announce(&mut self) -> Access {
        let (access, ns) = sampled(|| self.inner.announce());
        self.kind = kind_of(&access);
        with_layers(|l| l.announce.record(ns));
        access
    }

    fn step(&mut self) -> StepOutcome {
        let (out, ns) = sampled(|| self.inner.step());
        let kind = self.kind;
        with_layers(|l| l.steps[kind].record(ns));
        out
    }

    fn pid(&self) -> Pid {
        self.inner.pid()
    }

    fn tau_host(&self) -> Option<&dyn TauBatchHost> {
        self.inner.tau_host()
    }

    fn step_claimed(&mut self, won: bool) -> StepOutcome {
        let (out, ns) = sampled(|| self.inner.step_claimed(won));
        with_layers(|l| l.steps[CLAIMED].record(ns));
        out
    }

    fn rng_words(&self) -> Option<u64> {
        self.inner.rng_words()
    }
}

/// Forwarding adversary wrapper; see the module docs.
pub struct TimedAdversary<A> {
    inner: A,
    /// Wraps the strategy itself (else the shard coupling around it).
    strategy: bool,
    witness: bool,
    slots_seen: usize,
}

impl<A: Adversary> TimedAdversary<A> {
    /// Wraps a strategy; with `witness`, also counts grants by the kind
    /// the view announced for them.
    pub fn strategy(inner: A, witness: bool) -> Self {
        Self { inner, strategy: true, witness, slots_seen: 0 }
    }

    /// Wraps the shard coupling around an already wrapped strategy.
    pub fn coupled(inner: A) -> Self {
        Self { inner, strategy: false, witness: false, slots_seen: 0 }
    }

    fn record(&mut self, view: &RunView<'_>, ns: u64, decisions: &[Decision]) {
        if !self.strategy {
            with_layers(|l| l.coupled.record(Some(ns)));
            return;
        }
        let recaptured = self.slots_seen != 0 && self.slots_seen != view.slot_count();
        self.slots_seen = view.slot_count();
        with_layers(|l| {
            l.adversary.record(Some(ns));
            l.decisions += decisions.len() as u64;
            l.recaptures += u64::from(recaptured);
            if self.witness {
                for d in decisions {
                    if let Decision::Grant(pid) = d {
                        if let Some(access) = view.announced[*pid] {
                            l.granted[kind_of(&access)] += 1;
                        }
                    }
                }
            }
        });
    }
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(view);
        let ns = start.elapsed().as_nanos() as u64;
        self.record(view, ns, &[decision]);
        decision
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let first = out.len();
        let start = Instant::now();
        self.inner.decide_batch(view, out, max);
        let ns = start.elapsed().as_nanos() as u64;
        self.record(view, ns, &out[first..]);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What the trace saw of one traced seed of one family (summed over
/// shards and, in a rep, over families).
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    /// The wrappers' records.
    pub layers: Layers,
    /// Seconds in the public builder.
    pub build_s: f64,
    /// Seconds inside `Arena::run` (summed over shards).
    pub run_s: f64,
    /// Seconds inside `verify_renaming` and the recorded-total check.
    pub verify_s: f64,
    /// `Arena::block_stats` of the run: block claims and the τ steps
    /// they served.
    pub block: (u64, u64),
    /// RNG words drawn, summed over processes.
    pub rng_words: u64,
    /// τ-register cycles (answered requests), typed tight builds only.
    pub tau_cycles: u64,
    /// Slowest shard's busy time (`Arena::run` less the coupling sync)
    /// over the shards' mean; 1 on unsharded runs, the largest over the
    /// runs summed into this one.
    pub shard_imbalance: f64,
}

impl TracedRun {
    fn add(&mut self, other: &TracedRun) {
        self.layers.add(&other.layers);
        self.build_s += other.build_s;
        self.run_s += other.run_s;
        self.verify_s += other.verify_s;
        self.block.0 += other.block.0;
        self.block.1 += other.block.1;
        self.rng_words += other.rng_words;
        self.tau_cycles += other.tau_cycles;
        self.shard_imbalance = self.shard_imbalance.max(other.shard_imbalance);
    }
}

fn run_wrapped<P: Process>(
    procs: Vec<P>,
    adversary: &mut dyn Adversary,
    budget: u64,
    arena: &mut Arena,
    trace: &mut TracedRun,
) -> Result<RunOutcome, ExecError> {
    let mut procs: Vec<Traced<P>> = procs.into_iter().map(Traced::new).collect();
    let start = Instant::now();
    let result = arena.run(&mut procs, adversary, budget);
    trace.run_s = start.elapsed().as_secs_f64();
    trace.rng_words = procs.iter().filter_map(|p| p.rng_words()).sum();
    result
}

/// Builds and runs one (sub-)instance under wrapped processes on the
/// calling thread, collecting that thread's records.
fn traced_instance(
    w: &Workload,
    algo: &BoxedAlgorithm,
    n: usize,
    seed: u64,
    adversary: &mut dyn Adversary,
    arena: &mut Arena,
) -> (Result<RunOutcome, ExecError>, TracedRun) {
    take_layers();
    let mut trace = TracedRun::default();
    let (claims, steps) = arena.block_stats();
    let budget = algo.step_budget(n);
    let start = Instant::now();
    let result = if w.tight {
        let (shared, procs) = tight_renaming().instantiate_shared_rng(n, seed, RngMode::default());
        trace.build_s = start.elapsed().as_secs_f64();
        let result = run_wrapped(procs, adversary, budget, arena, &mut trace);
        trace.tau_cycles = shared.registers.iter().map(|r| r.cycles()).sum();
        result
    } else {
        let procs = algo.instantiate(n, seed).processes;
        trace.build_s = start.elapsed().as_secs_f64();
        run_wrapped(procs, adversary, budget, arena, &mut trace)
    };
    let (claims_after, steps_after) = arena.block_stats();
    trace.block = (claims_after - claims, steps_after - steps);
    trace.layers = take_layers();
    (result, trace)
}

/// One traced seed of one family: the outcome, its name-space size and
/// the trace. Sharded workloads run through `run_sharded` with the
/// strategy wrapped inside and outside the coupling.
///
/// # Errors
/// The executor's [`ExecError`].
pub fn run_traced(
    w: &Workload,
    algo: &BoxedAlgorithm,
    n: usize,
    seed: u64,
    adversary: &AdversaryBuilder,
    arena: &mut Arena,
    witness: bool,
) -> Result<(RunOutcome, usize, TracedRun), ExecError> {
    if w.shards == 1 {
        let mut strategy = TimedAdversary::strategy(adversary(n, seed), witness);
        let (result, mut trace) = traced_instance(w, algo, n, seed, &mut strategy, arena);
        trace.shard_imbalance = 1.0;
        return result.map(|out| (out, algo.m(n), trace));
    }
    let shards = Mutex::new(Vec::new());
    let (out, m) = run_sharded(n, w.shards, DEFAULT_COUPLING_EVERY, |s, n_s, ctx| {
        let seed_s = shard_seed(seed, s);
        let strategy = TimedAdversary::strategy(adversary(n_s, seed_s), witness);
        let mut coupled = TimedAdversary::coupled(ctx.couple(strategy));
        let (result, trace) =
            traced_instance(w, algo, n_s, seed_s, &mut coupled, &mut Arena::new());
        shards.lock().expect("a shard panicked while recording").push(trace);
        result.map(|outcome| ShardRun { outcome, m: algo.m(n_s) })
    })?;
    let shards = shards.into_inner().expect("a shard panicked while recording");
    let busy: Vec<f64> = shards.iter().map(|t| t.run_s - t.layers.sync_ns(0.0) / 1e9).collect();
    let mut merged = TracedRun::default();
    for trace in &shards {
        merged.add(trace);
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    merged.shard_imbalance = ratio(busy.iter().copied().fold(0.0, f64::max), mean);
    Ok((out, m, merged))
}

/// Whether two outcomes are the same execution: names, per-process
/// steps, crashes, give-ups and decision count.
pub fn same_execution(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.names.as_slice() == b.names.as_slice()
        && a.steps.as_slice() == b.steps.as_slice()
        && a.crashed.as_slice() == b.crashed.as_slice()
        && a.gave_up.as_slice() == b.gave_up.as_slice()
        && a.decisions == b.decisions
}

/// One traced rep: every family of the workload at one seed.
#[derive(Debug, Clone, Default)]
pub struct TracedRep {
    /// The trace, summed over families.
    pub run: TracedRun,
    /// Steps taken.
    pub steps: u64,
    /// Names acquired.
    pub names: u64,
    /// Processes run.
    pub procs: u64,
    /// Seconds of the traced runs and their checks.
    pub traced_s: f64,
    /// Seconds of the untraced reference runs and their checks.
    pub untraced_s: f64,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The exact, seed-deterministic counts of a rep.
fn count_metrics(rep: &TracedRep) -> Vec<Metric> {
    let l = &rep.run.layers;
    let tau_steps = l.steps[0].calls + l.steps[CLAIMED].calls;
    let mut out = vec![
        Metric { name: "adversary.calls", value: l.adversary.calls as f64, unit: "count" },
        Metric {
            name: "adversary.decisions_per_call",
            value: ratio(l.decisions as f64, l.adversary.calls as f64),
            unit: "ratio",
        },
        Metric { name: "roster.recaptures", value: l.recaptures as f64, unit: "count" },
    ];
    for (kind, name) in COUNT_NAMES.iter().enumerate() {
        out.push(Metric { name, value: l.steps[kind].calls as f64, unit: "count" });
    }
    out.extend([
        Metric {
            name: "rng.words_per_step",
            value: ratio(rep.run.rng_words as f64, rep.steps as f64),
            unit: "words/step",
        },
        Metric { name: "tau.cycles", value: rep.run.tau_cycles as f64, unit: "count" },
        Metric { name: "tau.block_claims", value: rep.run.block.0 as f64, unit: "count" },
        Metric { name: "tau.block_steps", value: rep.run.block.1 as f64, unit: "count" },
        Metric {
            name: "tau.block_share",
            value: ratio(rep.run.block.1 as f64, tau_steps as f64),
            unit: "ratio",
        },
        Metric {
            name: "protocol.names_per_step",
            value: ratio(rep.names as f64, rep.steps as f64),
            unit: "names/step",
        },
    ]);
    out
}

const COUNT_NAMES: [&str; 5] = [
    "step.tau.count",
    "step.tas.count",
    "step.read.count",
    "step.local.count",
    "step.claimed.count",
];
const NS_NAMES: [&str; 5] =
    ["step.tau.ns", "step.tas.ns", "step.read.ns", "step.local.ns", "step.claimed.ns"];

/// The timed figures of a rep; `timer` is [`timer_ns`].
fn time_metrics(rep: &TracedRep, timer: f64) -> Vec<Metric> {
    let l = &rep.run.layers;
    let run_ns = rep.run.run_s * 1e9;
    let span_ns = l.span_ns(timer);
    let residual_ns = run_ns - span_ns;
    let adversary_ns = l.adversary_ns(timer);
    let mut out = vec![
        Metric {
            name: "build.ns_per_proc",
            value: ratio(rep.run.build_s * 1e9, rep.procs as f64),
            unit: "ns",
        },
        Metric {
            name: "adversary.ns_per_decision",
            value: ratio(adversary_ns, l.decisions as f64),
            unit: "ns",
        },
        Metric { name: "adversary.share", value: ratio(adversary_ns, run_ns), unit: "ratio" },
        Metric {
            name: "arena.ns_per_step",
            value: ratio(residual_ns, rep.steps as f64),
            unit: "ns",
        },
        Metric { name: "arena.share", value: ratio(residual_ns, run_ns), unit: "ratio" },
        Metric { name: "announce.ns", value: l.announce.ns_per_call(timer), unit: "ns" },
    ];
    for (kind, name) in NS_NAMES.iter().enumerate() {
        out.push(Metric { name, value: l.steps[kind].ns_per_call(timer), unit: "ns" });
    }
    out.extend([
        Metric {
            name: "verify.ns_per_proc",
            value: ratio(rep.run.verify_s * 1e9, rep.procs as f64),
            unit: "ns",
        },
        Metric { name: "shard.sync_s", value: l.sync_ns(timer) / 1e9, unit: "s" },
        Metric { name: "shard.imbalance", value: rep.run.shard_imbalance, unit: "ratio" },
        Metric {
            name: "trace.overhead",
            value: ratio(rep.traced_s, rep.untraced_s) - 1.0,
            unit: "ratio",
        },
        Metric { name: "trace.run_s", value: run_ns / 1e9, unit: "s" },
        Metric { name: "trace.layer_sum_s", value: span_ns / 1e9, unit: "s" },
        Metric { name: "trace.residual_s", value: residual_ns / 1e9, unit: "s" },
    ]);
    out
}

/// What one traced invocation reports.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Exact counts of the first rep, then the timed figures of the rep
    /// whose traced `Arena::run` time is the median.
    pub metrics: Vec<Metric>,
    /// Runs attempted and failed, untraced references included.
    pub tally: Tally,
    /// Reps measured.
    pub reps: usize,
}

/// One traced rep at `seed`: each family runs untraced through the
/// public entry point, then traced; the two must be the same execution.
fn traced_rep(
    w: &Workload,
    algos: &[BoxedAlgorithm],
    adversary: &AdversaryBuilder,
    seed: u64,
    arenas: &mut (Arena, Arena),
    tally: &mut Tally,
) -> TracedRep {
    let mut rep = TracedRep::default();
    for (family, algo) in algos.iter().enumerate() {
        let n = w.families[family].n;
        let before = arenas.0.block_stats();
        let start = Instant::now();
        let (reference, _) = checked_run(w, family, algo, seed, adversary, &mut arenas.0, tally);
        rep.untraced_s += start.elapsed().as_secs_f64();
        let after = arenas.0.block_stats();
        let reference_block = (after.0 - before.0, after.1 - before.1);

        tally.attempted += 1;
        let start = Instant::now();
        let traced = isolated(|| run_traced(w, algo, n, seed, adversary, &mut arenas.1, false));
        let verdict = match traced {
            Ok(Ok((out, m, mut trace))) => {
                let checked = Instant::now();
                let verdict = workload::check(w, family, seed, &out, m);
                trace.verify_s = checked.elapsed().as_secs_f64();
                verdict.and_then(|()| match &reference {
                    Some(r) if !same_execution(r, &out) => {
                        Err("traced run diverged from the untraced run".to_string())
                    }
                    Some(_) if w.shards == 1 && trace.block != reference_block => {
                        Err("traced run's block claims diverged from the untraced run".into())
                    }
                    Some(_) => Ok((out, trace)),
                    None => Err("untraced reference run failed".into()),
                })
            }
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => {
                arenas.1 = Arena::new();
                Err(format!("panicked: {panic}"))
            }
        };
        rep.traced_s += start.elapsed().as_secs_f64();
        match verdict {
            Ok((out, trace)) => {
                rep.run.add(&trace);
                rep.steps += out.total_steps();
                rep.names += out.named_count() as u64;
                rep.procs += n as u64;
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("stepbench: traced {} {} seed {seed}: {e}", w.name, algo.name());
            }
        }
    }
    rep
}

/// Traces `w` for about `seconds` of reps starting at seed `base`.
pub fn traced(w: &Workload, base: u64, seconds: f64) -> TraceReport {
    let timer = timer_ns();
    let (algos, adversary) = resolve(w);
    let mut arenas = (Arena::new(), Arena::new());
    let mut tally = Tally::default();
    let mut reps: Vec<TracedRep> = Vec::new();
    let start = Instant::now();
    for seed in base.. {
        reps.push(traced_rep(w, &algos, &adversary, seed, &mut arenas, &mut tally));
        let walls: Vec<f64> = reps.iter().map(|r| r.traced_s + r.untraced_s).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let mut by_run: Vec<&TracedRep> = reps.iter().collect();
    by_run.sort_by(|a, b| a.run.run_s.total_cmp(&b.run.run_s));
    let typical = by_run[(by_run.len() - 1) / 2];
    let mut metrics = count_metrics(&reps[0]);
    metrics.extend(time_metrics(typical, timer));
    TraceReport { metrics, tally, reps: reps.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_public, Family, TIGHT_KEY};

    const SMALL: usize = 1 << 9;

    fn workload(adversary: &'static str, shards: usize, families: &'static [Family]) -> Workload {
        let tight = families.iter().all(|f| f.key == TIGHT_KEY);
        Workload { name: "small", adversary, shards, tight, families }
    }

    /// Block stats and RNG words of the same build run on an arena with
    /// no wrappers at all.
    fn unwrapped(
        w: &Workload,
        algo: &BoxedAlgorithm,
        n: usize,
        seed: u64,
    ) -> (RunOutcome, (u64, u64), u64) {
        let mut arena = Arena::new();
        let mut adversary = resolve(w).1(n, seed);
        fn run<P: Process>(
            mut procs: Vec<P>,
            adv: &mut dyn Adversary,
            budget: u64,
            arena: &mut Arena,
        ) -> (RunOutcome, u64) {
            let out = arena.run(&mut procs, adv, budget).expect("unwrapped run");
            (out, procs.iter().filter_map(|p| p.rng_words()).sum())
        }
        let budget = algo.step_budget(n);
        let (out, words) = if w.tight {
            let (_shared, procs) =
                tight_renaming().instantiate_shared_rng(n, seed, RngMode::default());
            run(procs, adversary.as_mut(), budget, &mut arena)
        } else {
            run(algo.instantiate(n, seed).processes, adversary.as_mut(), budget, &mut arena)
        };
        (out, arena.block_stats(), words)
    }

    /// The exact counts a traced run records.
    fn counts(l: &Layers) -> Vec<u64> {
        let mut v: Vec<u64> = l.steps.iter().map(|s| s.calls).collect();
        v.extend([l.announce.calls, l.adversary.calls, l.coupled.calls, l.decisions, l.recaptures]);
        v.extend(l.granted);
        v
    }

    /// The traced run is the same program as the untraced one: the same
    /// execution as the public entry point, the same batched claims and
    /// RNG draws as an unwrapped run of the same build, identical counts
    /// on a second traced run, and step counts by kind that agree with
    /// the kinds the adversary saw granted.
    fn assert_same_program(w: &Workload) {
        let (algos, adversary) = resolve(w);
        for (family, algo) in algos.iter().enumerate() {
            let n = w.families[family].n;
            for seed in 0..2 {
                let ctx = format!("{} {} seed {seed}", w.adversary, w.families[family].key);
                let (public, _) =
                    run_public(algo, n, seed, &adversary, w.shards, &mut Arena::new()).unwrap();
                let (first_out, m, first) =
                    run_traced(w, algo, n, seed, &adversary, &mut Arena::new(), true).unwrap();
                let (second_out, _, second) =
                    run_traced(w, algo, n, seed, &adversary, &mut Arena::new(), true).unwrap();
                first_out.verify_renaming(m).unwrap();
                assert!(
                    same_execution(&public, &first_out),
                    "{ctx}: traced diverged from run_dense"
                );
                assert!(same_execution(&first_out, &second_out), "{ctx}");
                assert_eq!(counts(&first.layers), counts(&second.layers), "{ctx}");
                assert_eq!(
                    (first.block, first.rng_words, first.tau_cycles),
                    (second.block, second.rng_words, second.tau_cycles),
                    "{ctx}"
                );

                let l = &first.layers;
                assert_eq!(l.step_count(), first_out.total_steps(), "{ctx}");
                assert_eq!(l.granted[0], l.steps[0].calls + l.steps[CLAIMED].calls, "{ctx}");
                for kind in 1..4 {
                    assert_eq!(l.granted[kind], l.steps[kind].calls, "{ctx}: kind {kind}");
                }
                assert_eq!(first.block.1, l.steps[CLAIMED].calls, "{ctx}");
                if w.tight {
                    assert_eq!(
                        first.tau_cycles,
                        l.steps[0].calls + l.steps[CLAIMED].calls,
                        "{ctx}"
                    );
                }
                if w.shards == 1 {
                    let (plain, block, words) = unwrapped(w, algo, n, seed);
                    assert!(same_execution(&plain, &first_out), "{ctx}");
                    assert_eq!(first.block, block, "{ctx}");
                    assert_eq!(first.rng_words, words, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn traced_tight_fair_is_the_untraced_program() {
        assert_same_program(&workload("fair", 1, &[Family { key: TIGHT_KEY, n: SMALL }]));
    }

    #[test]
    fn traced_tight_random_is_the_untraced_program() {
        assert_same_program(&workload("random", 1, &[Family { key: TIGHT_KEY, n: SMALL }]));
    }

    #[test]
    fn traced_shard_run_is_the_untraced_program() {
        assert_same_program(&workload("fair", 2, &[Family { key: TIGHT_KEY, n: SMALL }]));
    }

    #[test]
    fn traced_registry_families_are_the_untraced_program() {
        let mix = crate::workload::find("registry-mix").unwrap();
        let small: Vec<Family> =
            mix.families.iter().map(|f| Family { n: SMALL.min(f.n), ..*f }).collect();
        assert_same_program(&workload("fair", 1, Box::leak(small.into_boxed_slice())));
    }

    #[test]
    fn layers_and_residual_add_up_to_the_run_wall() {
        let report = traced(&workload("fair", 1, &[Family { key: TIGHT_KEY, n: SMALL }]), 0, 0.01);
        let get = |name: &str| report.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(report.tally.failed, 0);
        assert!(get("trace.run_s") > 0.0);
        let closed = get("trace.layer_sum_s") + get("trace.residual_s");
        assert!((closed - get("trace.run_s")).abs() < 1e-9, "{closed} vs {}", get("trace.run_s"));
        assert!(get("step.tau.count") > 0.0);
    }

    #[test]
    fn sampling_times_one_call_in_sample_every() {
        take_layers();
        let timed = (0..SAMPLE_EVERY * 3).filter(|_| sampled(|| ()).1.is_some()).count();
        assert_eq!(timed, 3);
    }
}
