//! Adaptive adversaries (§II-A).
//!
//! The paper's adversary controls the order in which processes take steps
//! and which processes crash, and "is allowed to see the state of all
//! processes (including the results of coin flips) when making its
//! scheduling choices". Here that power is concrete: before every
//! decision the executor hands the adversary a [`RunView`] containing each
//! active process's *announced* next access — announcements are made
//! after the coin flip that chose the target register, so the adversary
//! schedules with full knowledge of the randomness.
//!
//! The view is served from the executor's word-packed state
//! ([`StatusBitmap`] for runnability, [`SlotSnapshot`] for the
//! slot-numbered roster that rejection-sampling strategies index), so
//! strategies that scan the runnable set do it word-at-a-time. Strategies
//! that can commit to several grants from one view implement
//! [`Adversary::decide_batch`] and the executor applies the whole batch
//! without re-entering the dispatch loop.

use crate::bits::{SlotSnapshot, StatusBitmap};
use crate::ids::{EntityVec, Pid};
use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng, UniformBelow};
use rr_shmem::Access;

/// What the adversary sees before each decision — one context struct
/// rather than a growing positional-argument list, so shard-aware fields
/// can ride along without breaking every strategy.
#[derive(Debug)]
pub struct RunView<'a> {
    /// Packed per-process lifecycle state. `status.is_runnable(pid)` /
    /// `announced[pid].is_some()` are interchangeable ground truths for
    /// runnability; the word-wide scans ([`RunView::next_runnable`],
    /// [`RunView::runnable`]) come from here.
    pub status: &'a StatusBitmap,
    /// The slot-numbered roster as of the executor's last compaction
    /// point — a sorted *superset* of the runnable pids. Slots whose pid
    /// is no longer runnable are stale and must not be granted;
    /// strategies that sample slots by index re-check
    /// [`RunView::is_runnable`]. (This reproduces, observationally, the
    /// tombstoned `active` vector earlier revisions exposed, so seeded
    /// RNG streams replay bit-identically.)
    pub slots: &'a SlotSnapshot,
    /// `announced[pid]` — the access each runnable process will perform
    /// next (`None` for finished/crashed processes).
    pub announced: &'a EntityVec<Pid, Option<Access>>,
    /// Steps taken so far, indexed by pid.
    pub steps: &'a EntityVec<Pid, u64>,
    /// Number of processes of this run that already hold a name (under
    /// the shard backend, of this shard's sub-instance).
    pub named: usize,
}

impl<'a> RunView<'a> {
    /// A view over the executor's run state.
    pub fn new(
        status: &'a StatusBitmap,
        slots: &'a SlotSnapshot,
        announced: &'a EntityVec<Pid, Option<Access>>,
        steps: &'a EntityVec<Pid, u64>,
        named: usize,
    ) -> Self {
        Self { status, slots, announced, steps, named }
    }

    /// Whether `pid` is still runnable (one load + mask).
    #[inline]
    pub fn is_runnable(&self, pid: Pid) -> bool {
        self.status.is_runnable(pid)
    }

    /// The first runnable pid with index ≥ `from`, scanned
    /// word-at-a-time.
    #[inline]
    pub fn next_runnable(&self, from: usize) -> Option<Pid> {
        self.status.next_runnable(from)
    }

    /// All runnable pids, ascending.
    pub fn runnable(&self) -> crate::bits::RunnableIter<'a> {
        self.status.runnable()
    }

    /// Number of runnable pids.
    pub fn runnable_count(&self) -> usize {
        self.status.runnable_count()
    }

    /// Number of slots in the roster (≥ the runnable count; the excess
    /// is stale slots awaiting the executor's next compaction).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The pid in roster slot `i`. May be stale — re-check
    /// [`RunView::is_runnable`] before granting.
    #[inline]
    pub fn slot(&self, i: usize) -> Pid {
        self.slots.select(i)
    }
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Let `pid` execute its announced access.
    Grant(Pid),
    /// Crash `pid`: it takes no further steps (and never gets a name).
    Crash(Pid),
}

/// An adaptive adversary strategy.
pub trait Adversary {
    /// Chooses the next decision. The view has at least one runnable
    /// process.
    fn decide(&mut self, view: &RunView<'_>) -> Decision;

    /// Appends up to `max` decisions to `out` from one view — the
    /// macro-step hook: the executor applies the whole batch without
    /// re-entering the dispatch loop.
    ///
    /// **Contract:** an override must emit *exactly* the decisions that
    /// `max` sequential [`Adversary::decide`] calls would have made
    /// (possibly fewer, never zero), accounting for the fact that the
    /// view is not refreshed mid-batch: each granted pid is granted at
    /// most once per batch, since a grantee may halt on its step.
    /// A grant can change only its own pid's runnability, so the batch
    /// may rely on every other pid keeping its status. The roster
    /// ([`RunView::slots`]) is the other mid-batch hazard: the executor
    /// recaptures it once more than half its slots are stale (`slots >
    /// 2 · live`). A rejection sampler, whose RNG stream depends on each
    /// draw's slot and runnability, may batch only as many decisions as
    /// leave no recapture inside the batch (see [`RandomAdversary`]).
    /// Strategies whose next decision depends on other mid-batch state
    /// keep this default, which batches nothing.
    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let _ = max;
        out.push(self.decide(view));
    }

    /// Strategy name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Boxed adversaries delegate — so registry-built strategies can be
/// wrapped by [`crate::replay::RecordingAdversary`] and friends.
impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        (**self).decide(view)
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        (**self).decide_batch(view, out, max)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Round-robin over active processes — the "benign" schedule.
///
/// The whole strategy is one word-scan: grant the first runnable pid at
/// or after the cursor, wrapping once past the end. Because its choices
/// depend only on *which pids are runnable* — not on slots, steps, or
/// randomness — fair can batch: from one view it commits to a strictly
/// ascending run of grants ([`Adversary::decide_batch`]), which is
/// provably what sequential `decide` calls would have granted (the
/// runnable set only shrinks mid-batch, and only by a grantee halting on
/// its own step, which never affects a *later*, strictly greater pid's
/// runnability at its grant time).
#[derive(Debug, Default)]
pub struct FairAdversary {
    cursor: usize,
}

impl Adversary for FairAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let pid = view
            .next_runnable(self.cursor)
            .or_else(|| view.next_runnable(0))
            .expect("decide() requires at least one runnable process");
        self.cursor = pid.index() + 1;
        Decision::Grant(pid)
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        // Strictly ascending grants only: no wrap inside a batch, so no
        // pid is granted twice from one (unrefreshed) view.
        let start = out.len();
        let mut from = self.cursor;
        while out.len() - start < max {
            match view.next_runnable(from) {
                Some(pid) => {
                    out.push(Decision::Grant(pid));
                    from = pid.index() + 1;
                }
                None => break,
            }
        }
        if out.len() == start {
            // Cursor past every runnable pid: wrap, as decide() would,
            // but commit to just the one grant.
            let pid =
                view.next_runnable(0).expect("decide() requires at least one runnable process");
            out.push(Decision::Grant(pid));
            from = pid.index() + 1;
        }
        self.cursor = from;
    }

    fn name(&self) -> &'static str {
        "fair"
    }
}

/// Uniformly random schedule: each decision rejection-samples roster
/// slots until one holds a runnable pid.
///
/// Batches ([`Adversary::decide_batch`]) are the sequential decisions
/// exactly, by three facts. A grant can halt only its own pid, so every
/// later draw sees the same roster and the same runnability for every
/// pid not granted earlier in the batch; a draw that hits an earlier
/// grantee (whose status the frozen view may misreport) ends the batch
/// and is retracted by rewinding the generator. And the executor's
/// recapture trigger `slots > 2 · live` stays false before decision `j`
/// while `slots ≤ 2 · (live − j)`, so a batch holds at most
/// `live + 1 − ⌈slots / 2⌉` decisions.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: ChaCha8Rng,
    /// The draw for the current roster length; rebuilt when a recapture
    /// changes it.
    slots: UniformBelow,
}

impl RandomAdversary {
    /// Seeded random schedule.
    pub fn new(seed: u64) -> Self {
        Self { rng: ChaCha8Rng::seed_from_u64(seed), slots: UniformBelow::new(1) }
    }

    /// 32-bit words drawn from the schedule's generator so far.
    pub fn words_consumed(&self) -> u64 {
        self.rng.words_consumed()
    }

    /// One decision against `view`: uniform slots until a runnable pid
    /// (< 50 % of the roster is stale by the executor's recapture
    /// policy, so ≤ 2 tries expected). Draws what
    /// `random_range(0..view.slot_count())` would.
    #[inline]
    fn draw(&mut self, view: &RunView<'_>) -> Pid {
        let count = view.slot_count() as u64;
        if self.slots.span() != count {
            self.slots = UniformBelow::new(count);
        }
        loop {
            let pid = view.slot(self.slots.sample(&mut self.rng) as usize);
            if view.is_runnable(pid) {
                return pid;
            }
        }
    }
}

impl Adversary for RandomAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        Decision::Grant(self.draw(view))
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let headroom = (view.runnable_count() + 1).saturating_sub(view.slot_count().div_ceil(2));
        let len = max.min(headroom).max(1);
        let start = out.len();
        // Bit `pid % 64` of every grant so far: a clear bit rules out a
        // repeat without scanning the batch.
        let mut seen = 0u64;
        while out.len() - start < len {
            let before = self.rng.words_consumed();
            let pid = self.draw(view);
            let bit = 1u64 << (pid.index() % 64);
            if seen & bit != 0 && out[start..].contains(&Decision::Grant(pid)) {
                // The grantee may have halted: decide afresh next batch.
                self.rng.set_words_consumed(before);
                return;
            }
            seen |= bit;
            out.push(Decision::Grant(pid));
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Maximizes collisions: finds the register announced by the most
/// processes and schedules all of them back to back, so every contested
/// TAS wastes the maximum number of steps. This is the natural attack on
/// randomized probing and exactly what the adversary's coin-flip
/// knowledge enables.
#[derive(Debug, Default)]
pub struct CollisionMaximizer {
    /// Pids queued for consecutive scheduling.
    burst: Vec<Pid>,
}

impl Adversary for CollisionMaximizer {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        // Drain the current burst first (skip pids no longer runnable).
        while let Some(pid) = self.burst.pop() {
            if view.announced.get(pid).is_some_and(|a| a.is_some()) {
                return Decision::Grant(pid);
            }
        }
        // Group runnable pids by announced target; pick the biggest
        // group.
        let mut groups: std::collections::HashMap<(u32, usize), Vec<Pid>> =
            std::collections::HashMap::new();
        for pid in view.runnable() {
            if let Some(acc) = view.announced[pid] {
                let key = match acc {
                    Access::Tas { array, index } => (array, index),
                    Access::Read { array, index } => (array, index),
                    Access::TauRequest { register, bit } => (u32::MAX, register * 64 + bit),
                    Access::Local => (u32::MAX - 1, pid.index()),
                };
                groups.entry(key).or_default().push(pid);
            }
        }
        let mut best = groups
            .into_values()
            .max_by_key(|v| (v.len(), usize::MAX - v[0].index()))
            .expect("decide() requires at least one runnable process");
        // Grant one now, queue the rest.
        let pid = best.pop().unwrap();
        self.burst = best;
        Decision::Grant(pid)
    }

    fn name(&self) -> &'static str {
        "collision-max"
    }
}

/// Stalls likely winners: processes whose announced access would *win*
/// (per the supplied probe) are scheduled last; everyone burning a wasted
/// step goes first. With the probe wired to the actual TAS state this is
/// the strongest schedule-only attack against probing algorithms.
pub struct StallWinners {
    probe: Box<dyn FnMut(&Access) -> bool>,
}

impl StallWinners {
    /// `probe(access)` should return `true` if the access would currently
    /// succeed (e.g. the targeted register is still unset).
    pub fn new(probe: Box<dyn FnMut(&Access) -> bool>) -> Self {
        Self { probe }
    }
}

impl Adversary for StallWinners {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        for pid in view.runnable() {
            if let Some(acc) = view.announced[pid] {
                if !(self.probe)(&acc) {
                    return Decision::Grant(pid);
                }
            }
        }
        // Everyone would win; grant the first runnable (some progress is
        // forced — an adversary cannot block all processes forever).
        let pid = view.next_runnable(0).expect("decide() requires at least one runnable process");
        Decision::Grant(pid)
    }

    fn name(&self) -> &'static str {
        "stall-winners"
    }
}

impl std::fmt::Debug for StallWinners {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StallWinners").finish_non_exhaustive()
    }
}

/// Crash wrapper: delegates scheduling to `inner`, but whenever a process
/// announces a *winning-kind* access (TAS / τ-request), crashes it with
/// probability `p` — the cruelest moment, since the process may have
/// already been admitted somewhere. Total crashes capped by `budget`
/// (crashing everyone would make renaming vacuous).
///
/// Keeps the default single-decision [`Adversary::decide_batch`]: the
/// crash scan (and its RNG draws) must run against a fresh view before
/// *every* decision, exactly as the recorded baselines did.
#[derive(Debug)]
pub struct CrashAdversary<A> {
    inner: A,
    p: f64,
    budget: usize,
    crashed: usize,
    rng: ChaCha8Rng,
}

impl<A: Adversary> CrashAdversary<A> {
    /// Wraps `inner`, crashing at winning-kind announces with probability
    /// `p`, at most `budget` times.
    pub fn new(inner: A, p: f64, budget: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self { inner, p, budget, crashed: 0, rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Number of processes crashed so far.
    pub fn crashes(&self) -> usize {
        self.crashed
    }
}

impl<A: Adversary> Adversary for CrashAdversary<A> {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        // Guard on the roster length (not the runnable count): this is
        // the byte the recorded baselines observed, and it only errs on
        // the side of crashing less near the end of a run.
        if self.crashed < self.budget && view.slot_count() > 1 {
            for pid in view.runnable() {
                let winning = view.announced[pid].is_some_and(|a| a.is_winning_kind());
                if winning && self.rng.random_bool(self.p) {
                    self.crashed += 1;
                    return Decision::Crash(pid);
                }
            }
        }
        self.inner.decide(view)
    }

    fn name(&self) -> &'static str {
        "crash"
    }
}

/// Oblivious adversary with a k-step lookahead window: it commits to
/// the next `k` runnable pids (ascending, wrapping once) from a single
/// view, then drains that commitment before looking again. Pids that
/// halt between commitment and grant are skipped — the window is a
/// *plan*, not a promise.
///
/// Because the committed window holds distinct pids and a grant can
/// only change the *grantee's* own runnability, draining the window is
/// batchable: [`Adversary::decide_batch`] drains the current window
/// (skipping stale entries exactly as `decide` would) and stops at the
/// refill boundary, which is provably the same grant sequence as
/// sequential `decide` calls. `k = 1` degenerates to the fair schedule.
#[derive(Debug)]
pub struct LookaheadAdversary {
    k: usize,
    cursor: usize,
    window: std::collections::VecDeque<Pid>,
}

impl LookaheadAdversary {
    /// Lookahead of `k ≥ 1` decisions.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "lookahead needs k >= 1");
        Self { k, cursor: 0, window: std::collections::VecDeque::new() }
    }

    /// Commits to up to `k` runnable pids from `view`: ascending from
    /// the cursor, wrapping once to the pids strictly below it (so the
    /// window never holds a duplicate).
    fn refill(&mut self, view: &RunView<'_>) {
        let start = self.cursor;
        let mut from = start;
        while self.window.len() < self.k {
            match view.next_runnable(from) {
                Some(pid) => {
                    self.window.push_back(pid);
                    from = pid.index() + 1;
                }
                None => break,
            }
        }
        let mut from = 0;
        while self.window.len() < self.k {
            match view.next_runnable(from) {
                Some(pid) if pid.index() < start => {
                    self.window.push_back(pid);
                    from = pid.index() + 1;
                }
                _ => break,
            }
        }
        if let Some(last) = self.window.back() {
            self.cursor = last.index() + 1;
        }
    }
}

impl Adversary for LookaheadAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        loop {
            match self.window.pop_front() {
                Some(pid) if view.is_runnable(pid) => return Decision::Grant(pid),
                Some(_) => continue, // committed pid has since halted
                None => self.refill(view),
            }
        }
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        // Drain the already-committed window only — the refill reads the
        // runnable set, which a mid-batch halt changes, so a refill
        // always starts a fresh batch. Halted entries are popped only as
        // the prefix of an actual grant: sequential `decide` calls skip
        // them exactly one-grant-at-a-time, so a trailing run of stale
        // entries must survive for the *next* decision to consume.
        let start = out.len();
        while out.len() - start < max {
            match self.window.iter().position(|&p| view.is_runnable(p)) {
                Some(skip) => {
                    self.window.drain(..skip);
                    let pid = self.window.pop_front().expect("position() found an entry");
                    out.push(Decision::Grant(pid));
                }
                None => break,
            }
        }
        if out.len() == start {
            out.push(self.decide(view));
        }
    }

    fn name(&self) -> &'static str {
        "lookahead"
    }
}

/// Bursty load: `len` fair ascending grants, then `gap` grants that all
/// hammer the lowest runnable pid, repeating. The burst phase spreads
/// steps like the fair schedule; the gap phase serializes everything
/// behind the front of the pid space — the classic duty-cycle load
/// shape that stresses protocols whose contention window assumes steady
/// interleaving.
///
/// Burst-phase grants are strictly ascending with no wrap, so they
/// batch exactly like [`FairAdversary`]; the gap phase grants the
/// lowest runnable pid, which may halt on its own grant and change the
/// *next* gap grant — so a gap decision is always a batch of one, as is
/// the burst wrap.
#[derive(Debug)]
pub struct BurstyAdversary {
    len: usize,
    gap: usize,
    cursor: usize,
    tick: usize,
}

impl BurstyAdversary {
    /// Bursts of `len ≥ 1` fair grants separated by `gap` front-hammer
    /// grants (`gap = 0` degenerates to the fair schedule).
    pub fn new(len: usize, gap: usize) -> Self {
        assert!(len >= 1, "bursty needs len >= 1");
        Self { len, gap, cursor: 0, tick: 0 }
    }
}

impl Adversary for BurstyAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let phase = self.tick % (self.len + self.gap);
        self.tick += 1;
        let pid = if phase < self.len {
            let pid = view
                .next_runnable(self.cursor)
                .or_else(|| view.next_runnable(0))
                .expect("decide() requires at least one runnable process");
            self.cursor = pid.index() + 1;
            pid
        } else {
            view.next_runnable(0).expect("decide() requires at least one runnable process")
        };
        Decision::Grant(pid)
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let phase = self.tick % (self.len + self.gap);
        if phase >= self.len {
            out.push(self.decide(view));
            return;
        }
        // Burst: strictly ascending grants, cut at the burst boundary
        // and at the end of pid space (the wrap is its own batch).
        let start = out.len();
        let room = max.min(self.len - phase);
        let mut from = self.cursor;
        while out.len() - start < room {
            match view.next_runnable(from) {
                Some(pid) => {
                    out.push(Decision::Grant(pid));
                    from = pid.index() + 1;
                }
                None => break,
            }
        }
        if out.len() == start {
            out.push(self.decide(view));
            return;
        }
        self.cursor = from;
        self.tick += out.len() - start;
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// Diurnal rate: the eligible prefix of the runnable set swells and
/// shrinks with a period-`P` duty cycle, emulating a trace whose offered
/// load follows a day/night sinusoid. The wave is an integer triangle
/// approximation of the sinusoid — kept integral on purpose, since
/// `f64::sin` is not bit-identical across platforms and every schedule
/// here must replay exactly.
///
/// Keeps the default single-decision [`Adversary::decide_batch`] on
/// purpose: the eligible prefix is indexed into the *live* runnable
/// set, which shrinks whenever a mid-batch grantee halts — batching
/// against a stale view would grant outside the window sequential
/// decisions would have used. Unlike `random`, which can stop at the
/// first draw a halt could have changed, every decision here reads the
/// whole census.
#[derive(Debug)]
pub struct DiurnalAdversary {
    period: u64,
    tick: u64,
}

impl DiurnalAdversary {
    /// Duty cycle of `period ≥ 2` decisions.
    pub fn new(period: u64) -> Self {
        assert!(period >= 2, "diurnal needs period >= 2");
        Self { period, tick: 0 }
    }
}

impl Adversary for DiurnalAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let count = view.runnable_count() as u64;
        let phase = self.tick % self.period;
        let half = self.period / 2;
        // Triangle wave over [0, period]: 0 at phase 0, peak mid-period.
        let amp = if phase < half { 2 * phase } else { 2 * (self.period - phase) };
        let eligible = (count * amp / self.period).clamp(1, count) as usize;
        let idx = (self.tick % eligible as u64) as usize;
        self.tick += 1;
        let pid =
            view.runnable().nth(idx).expect("decide() requires at least one runnable process");
        Decision::Grant(pid)
    }

    fn name(&self) -> &'static str {
        "diurnal"
    }
}

/// Targeted-victim starvation: the fair schedule over everyone *except*
/// pid `victim`, which is granted only when it is the last runnable
/// process (an adversary cannot block all processes forever). The
/// strongest schedule-only starvation attack against one process —
/// wait-free protocols must still name the victim, merely late.
///
/// A `victim ≥ n` names nobody and degenerates to the fair schedule.
/// Batching is [`FairAdversary`]'s argument verbatim with one pid
/// excluded: strictly ascending non-victim grants from one view; the
/// wrap and the victim-only endgame are single-decision batches.
#[derive(Debug)]
pub struct VictimAdversary {
    victim: usize,
    cursor: usize,
}

impl VictimAdversary {
    /// Starves `victim`.
    pub fn new(victim: usize) -> Self {
        Self { victim, cursor: 0 }
    }

    /// First runnable non-victim pid at or after `from`.
    fn next_non_victim(&self, view: &RunView<'_>, mut from: usize) -> Option<Pid> {
        while let Some(pid) = view.next_runnable(from) {
            if pid.index() != self.victim {
                return Some(pid);
            }
            from = pid.index() + 1;
        }
        None
    }
}

impl Adversary for VictimAdversary {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let pid = self
            .next_non_victim(view, self.cursor)
            .or_else(|| self.next_non_victim(view, 0))
            .unwrap_or_else(|| {
                // Only the victim is left — forced progress.
                view.next_runnable(0).expect("decide() requires at least one runnable process")
            });
        self.cursor = pid.index() + 1;
        Decision::Grant(pid)
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let start = out.len();
        let mut from = self.cursor;
        while out.len() - start < max {
            match self.next_non_victim(view, from) {
                Some(pid) => {
                    out.push(Decision::Grant(pid));
                    from = pid.index() + 1;
                }
                None => break,
            }
        }
        if out.len() == start {
            out.push(self.decide(view));
            return;
        }
        self.cursor = from;
    }

    fn name(&self) -> &'static str {
        "victim"
    }
}

/// Owns the packed state a [`RunView`] borrows — for unit tests and
/// microbenches that drive an adversary without a full executor.
///
/// Built from the announcement table alone: pids with an announced
/// access are runnable, the rest are marked halted, and the slot roster
/// is captured *after* marking (so `slot_count() == runnable_count()`).
/// [`ViewFixture::with_stale`] halts further pids after the capture,
/// leaving stale slots as the executor's roster does between
/// recaptures.
#[derive(Debug)]
pub struct ViewFixture {
    status: StatusBitmap,
    slots: SlotSnapshot,
    announced: EntityVec<Pid, Option<Access>>,
    steps: EntityVec<Pid, u64>,
    named: usize,
}

impl ViewFixture {
    /// A fixture where exactly the `Some` entries of `announced` are
    /// runnable.
    pub fn new(announced: EntityVec<Pid, Option<Access>>) -> Self {
        let n = announced.len();
        let mut status = StatusBitmap::new();
        status.reset(n);
        for (pid, ann) in announced.iter_enumerated() {
            if ann.is_none() {
                status.set(pid, crate::bits::Status::GaveUp);
            }
        }
        let mut slots = SlotSnapshot::new();
        slots.capture(&status);
        Self { status, slots, announced, steps: vec![0u64; n].into(), named: 0 }
    }

    /// A fixture whose roster was captured before the `halted` pids
    /// halted: the `Some` entries of `announced` are runnable except
    /// `halted`, whose slots are stale.
    pub fn with_stale(announced: EntityVec<Pid, Option<Access>>, halted: &[Pid]) -> Self {
        let mut fx = Self::new(announced);
        for &pid in halted {
            fx.status.set(pid, crate::bits::Status::GaveUp);
            fx.announced[pid] = None;
        }
        fx
    }

    /// A borrowed view over the fixture's state.
    pub fn view(&self) -> RunView<'_> {
        RunView::new(&self.status, &self.slots, &self.announced, &self.steps, self.named)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Status;

    fn grant(d: Decision) -> usize {
        match d {
            Decision::Grant(p) => p.index(),
            _ => panic!("expected a grant, got {d:?}"),
        }
    }

    #[test]
    fn fair_is_round_robin() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 3]);
        let mut adv = FairAdversary::default();
        let picks: Vec<_> = (0..6).map(|_| grant(adv.decide(&fx.view()))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn fair_skips_inactive() {
        let fx = ViewFixture::new(crate::entity_vec![
            None,
            Some(Access::Local),
            None,
            Some(Access::Local),
            None,
        ]);
        let mut adv = FairAdversary::default();
        let p1 = adv.decide(&fx.view());
        let p2 = adv.decide(&fx.view());
        let p3 = adv.decide(&fx.view());
        assert_eq!(p1, Decision::Grant(Pid::new(1)));
        assert_eq!(p2, Decision::Grant(Pid::new(3)));
        assert_eq!(p3, Decision::Grant(Pid::new(1)));
    }

    #[test]
    fn fair_batch_matches_sequential_decides() {
        // Against an unchanging view, a batch must be a prefix of what
        // sequential decide() calls produce — including the wrap, which
        // only ever happens as a batch of one.
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 5]);
        let mut sequential = FairAdversary::default();
        let expect: Vec<_> = (0..8).map(|_| sequential.decide(&fx.view())).collect();

        let mut batched = FairAdversary::default();
        let mut got = Vec::new();
        while got.len() < 8 {
            let want = 8 - got.len();
            batched.decide_batch(&fx.view(), &mut got, want);
        }
        assert_eq!(got, expect);
        // First batch runs to the end of pid space (5 grants), the wrap
        // is its own single-grant batch.
        let mut first = Vec::new();
        FairAdversary::default().decide_batch(&fx.view(), &mut first, 8);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn random_is_deterministic_given_seed() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 10]);
        let run = |seed| {
            let mut adv = RandomAdversary::new(seed);
            (0..20).map(|_| grant(adv.decide(&fx.view()))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_rejects_stale_slots() {
        // Roster captured while all 4 pids ran; pid 1 has since halted.
        // Sampling must reject slot 1 and re-draw, never granting it.
        let fx =
            ViewFixture::with_stale(crate::entity_vec![Some(Access::Local); 4], &[Pid::new(1)]);
        let view = fx.view();
        assert_eq!(view.slot_count(), 4);
        assert_eq!(view.runnable_count(), 3);
        let mut adv = RandomAdversary::new(3);
        for _ in 0..50 {
            assert_ne!(grant(adv.decide(&view)), 1);
        }
    }

    #[test]
    fn random_batch_stops_before_a_repeat_and_rewinds_the_draw() {
        // Three runnable pids on three slots and room for 32: the
        // headroom rule allows 3 + 1 − ⌈3/2⌉ = 2 grants, a repeat draw
        // cuts the batch to 1, and the rewound generator keeps both
        // twins in step.
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 3]);
        for seed in 0..20 {
            let mut batched = RandomAdversary::new(seed);
            let mut sequential = RandomAdversary::new(seed);
            for _ in 0..10 {
                let mut out = Vec::new();
                batched.decide_batch(&fx.view(), &mut out, 32);
                assert!((1..=2).contains(&out.len()), "{out:?}");
                let expect: Vec<_> = out.iter().map(|_| sequential.decide(&fx.view())).collect();
                assert_eq!(out, expect, "seed {seed}");
                assert_eq!(batched.words_consumed(), sequential.words_consumed(), "seed {seed}");
            }
        }
    }

    #[test]
    fn collision_maximizer_groups_by_target() {
        // pids 0,2 target register 5; pid 1 targets register 9.
        let fx = ViewFixture::new(crate::entity_vec![
            Some(Access::Tas { array: 0, index: 5 }),
            Some(Access::Tas { array: 0, index: 9 }),
            Some(Access::Tas { array: 0, index: 5 }),
        ]);
        let mut adv = CollisionMaximizer::default();
        let first = grant(adv.decide(&fx.view()));
        let second = grant(adv.decide(&fx.view()));
        let granted = [first, second];
        // Both members of the largest group come before pid 1.
        assert!(granted.contains(&0) && granted.contains(&2), "granted {granted:?}");
    }

    #[test]
    fn stall_winners_prefers_losers() {
        let fx = ViewFixture::new(crate::entity_vec![
            Some(Access::Tas { array: 0, index: 0 }), // would win
            Some(Access::Tas { array: 0, index: 1 }), // would lose
        ]);
        let mut adv = StallWinners::new(Box::new(|a: &Access| a.index() == Some(0)));
        assert_eq!(adv.decide(&fx.view()), Decision::Grant(Pid::new(1)));
    }

    #[test]
    fn stall_winners_grants_when_all_win() {
        let fx = ViewFixture::new({
            let mut v = vec![None; 5];
            v[3] = Some(Access::Tas { array: 0, index: 0 });
            v[4] = Some(Access::Tas { array: 0, index: 1 });
            v.into()
        });
        let mut adv = StallWinners::new(Box::new(|_| true));
        assert_eq!(adv.decide(&fx.view()), Decision::Grant(Pid::new(3)));
    }

    #[test]
    fn crash_adversary_respects_budget() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Tas { array: 0, index: 0 }); 10]);
        let mut adv = CrashAdversary::new(FairAdversary::default(), 1.0, 3, 1);
        let mut crashes = 0;
        for _ in 0..50 {
            if let Decision::Crash(_) = adv.decide(&fx.view()) {
                crashes += 1;
            }
        }
        assert_eq!(crashes, 3);
        assert_eq!(adv.crashes(), 3);
    }

    #[test]
    fn crash_adversary_never_crashes_last_process() {
        let fx = ViewFixture::new({
            let mut v = vec![None; 6];
            v[5] = Some(Access::Tas { array: 0, index: 0 });
            v.into()
        });
        let mut adv = CrashAdversary::new(FairAdversary::default(), 1.0, 100, 1);
        for _ in 0..10 {
            assert!(matches!(
                adv.decide(&fx.view()),
                Decision::Grant(p) if p == Pid::new(5)
            ));
        }
    }

    #[test]
    fn crash_zero_probability_never_crashes() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Tas { array: 0, index: 0 }); 4]);
        let mut adv = CrashAdversary::new(FairAdversary::default(), 0.0, 100, 1);
        for _ in 0..20 {
            assert!(matches!(adv.decide(&fx.view()), Decision::Grant(_)));
        }
    }

    #[test]
    fn lookahead_one_is_fair() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 4]);
        let mut look = LookaheadAdversary::new(1);
        let mut fair = FairAdversary::default();
        for _ in 0..10 {
            assert_eq!(look.decide(&fx.view()), fair.decide(&fx.view()));
        }
    }

    #[test]
    fn lookahead_commits_a_window_and_skips_stale_entries() {
        // Window committed over 4 runnable pids; pid 2 halts before its
        // grant. The plan skips it without re-planning.
        let mut status = StatusBitmap::new();
        status.reset(4);
        let mut slots = SlotSnapshot::new();
        slots.capture(&status);
        let announced: EntityVec<Pid, Option<Access>> = crate::entity_vec![Some(Access::Local); 4];
        let steps: EntityVec<Pid, u64> = crate::entity_vec![0; 4];
        let view = RunView::new(&status, &slots, &announced, &steps, 0);
        let mut adv = LookaheadAdversary::new(4);
        assert_eq!(grant(adv.decide(&view)), 0);
        status.set(Pid::new(2), Status::Named);
        let view = RunView::new(&status, &slots, &announced, &steps, 0);
        assert_eq!(grant(adv.decide(&view)), 1);
        assert_eq!(grant(adv.decide(&view)), 3, "halted pid 2 skipped, not granted");
    }

    #[test]
    fn lookahead_batch_is_a_prefix_of_sequential_decides() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 5]);
        let mut sequential = LookaheadAdversary::new(3);
        let expect: Vec<_> = (0..9).map(|_| sequential.decide(&fx.view())).collect();
        let mut batched = LookaheadAdversary::new(3);
        let mut got = Vec::new();
        while got.len() < 9 {
            let want = 9 - got.len();
            batched.decide_batch(&fx.view(), &mut got, want);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn bursty_alternates_fair_bursts_and_front_hammering() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 5]);
        let mut adv = BurstyAdversary::new(3, 2);
        let picks: Vec<_> = (0..10).map(|_| grant(adv.decide(&fx.view()))).collect();
        // 3 fair grants, 2 grants of the lowest pid, repeat.
        assert_eq!(picks, vec![0, 1, 2, 0, 0, 3, 4, 0, 0, 0]);
    }

    #[test]
    fn bursty_batch_stops_at_the_phase_boundary() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 5]);
        let mut adv = BurstyAdversary::new(3, 1);
        let mut out = Vec::new();
        adv.decide_batch(&fx.view(), &mut out, 10);
        assert_eq!(out.len(), 3, "burst batches never cross into the gap");
        out.clear();
        adv.decide_batch(&fx.view(), &mut out, 10);
        assert_eq!(out, vec![Decision::Grant(Pid::new(0))], "gap is a batch of one");
    }

    #[test]
    fn diurnal_stays_in_the_eligible_prefix_and_is_deterministic() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 8]);
        let run = || {
            let mut adv = DiurnalAdversary::new(8);
            (0..32).map(|_| grant(adv.decide(&fx.view()))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // At phase 0 the window collapses to a single pid.
        let mut adv = DiurnalAdversary::new(8);
        assert_eq!(grant(adv.decide(&fx.view())), 0);
        // Across a full period every grant is a legal runnable pid and
        // the mid-period window opens past the front.
        let picks = run();
        assert!(picks.iter().all(|&p| p < 8));
        assert!(picks.iter().any(|&p| p > 0), "window must open mid-period");
    }

    #[test]
    fn victim_granted_only_when_alone() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 3]);
        let mut adv = VictimAdversary::new(1);
        let picks: Vec<_> = (0..6).map(|_| grant(adv.decide(&fx.view()))).collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2], "victim 1 never granted while others run");
        // Victim alone: forced progress.
        let fx = ViewFixture::new(crate::entity_vec![None, Some(Access::Local), None]);
        assert_eq!(grant(adv.decide(&fx.view())), 1);
    }

    #[test]
    fn victim_out_of_range_degenerates_to_fair() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 3]);
        let mut adv = VictimAdversary::new(99);
        let mut fair = FairAdversary::default();
        for _ in 0..7 {
            assert_eq!(adv.decide(&fx.view()), fair.decide(&fx.view()));
        }
    }

    #[test]
    fn victim_batch_matches_sequential_decides() {
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Local); 5]);
        let mut sequential = VictimAdversary::new(2);
        let expect: Vec<_> = (0..8).map(|_| sequential.decide(&fx.view())).collect();
        let mut batched = VictimAdversary::new(2);
        let mut got = Vec::new();
        while got.len() < 8 {
            let want = 8 - got.len();
            batched.decide_batch(&fx.view(), &mut got, want);
        }
        assert_eq!(got, expect);
        assert!(got.iter().all(|&d| d != Decision::Grant(Pid::new(2))));
    }

    #[test]
    fn zoo_names_are_stable() {
        assert_eq!(LookaheadAdversary::new(2).name(), "lookahead");
        assert_eq!(BurstyAdversary::new(4, 2).name(), "bursty");
        assert_eq!(DiurnalAdversary::new(16).name(), "diurnal");
        assert_eq!(VictimAdversary::new(0).name(), "victim");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FairAdversary::default().name(), "fair");
        assert_eq!(RandomAdversary::new(0).name(), "random");
        assert_eq!(CollisionMaximizer::default().name(), "collision-max");
    }
}

#[cfg(test)]
mod stall_integration {
    use super::*;
    use crate::process::Process;
    use crate::shard::Arena;
    use rr_shmem::tas::{AtomicTasArray, TasMemory};
    use std::sync::Arc;

    /// A probing process: random-ish scan until it wins.
    struct Prober {
        pid: usize,
        mem: Arc<AtomicTasArray>,
        cursor: usize,
    }

    impl Process for Prober {
        fn announce(&mut self) -> Access {
            Access::Tas { array: 0, index: self.cursor }
        }
        fn step(&mut self) -> crate::process::StepOutcome {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % self.mem.len();
            if self.mem.tas(i) {
                crate::process::StepOutcome::Done(i)
            } else {
                crate::process::StepOutcome::Continue
            }
        }
        fn pid(&self) -> Pid {
            Pid::new(self.pid)
        }
    }

    #[test]
    fn stall_winners_with_live_memory_probe_is_safe_and_slower() {
        let n = 32;
        let mem = Arc::new(AtomicTasArray::new(n));
        let make = |mem: &Arc<AtomicTasArray>| -> Vec<Prober> {
            (0..n).map(|pid| Prober { pid, mem: Arc::clone(mem), cursor: pid }).collect()
        };
        // Baseline under fair scheduling.
        let fair_out =
            Arena::new().run(&mut make(&mem), &mut FairAdversary::default(), 1 << 20).unwrap();
        fair_out.verify_renaming(n).unwrap();

        // StallWinners wired to the *real* register state: an access
        // "would win" iff its target is still unset.
        let mem2 = Arc::new(AtomicTasArray::new(n));
        let probe_mem = Arc::clone(&mem2);
        let mut adv = StallWinners::new(Box::new(move |a: &Access| {
            a.index().is_some_and(|i| !probe_mem.is_set(i))
        }));
        let out = Arena::new().run(&mut make(&mem2), &mut adv, 1 << 20).unwrap();
        out.verify_renaming(n).unwrap();
        // The staller wastes steps but cannot prevent completion.
        assert!(out.total_steps() >= fair_out.total_steps());
    }
}
