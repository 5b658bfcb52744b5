//! Tight renaming with `(log n)`-registers (§III, Theorem 5).
//!
//! Layout: `⌈n/L⌉` τ-registers (`L = ⌈log₂ n⌉` names each, device width
//! `2L`) grouped into geometrically shrinking clusters. A process works
//! through the clusters round by round: in round `i` it requests one
//! uniformly random device TAS bit in cluster `C_i`; if admitted (the
//! counting device confirms its bit), it scans that register's `τ` name
//! slots and takes the first free one. A process that exhausts all
//! random clusters enters the paper's *final round*: a systematic scan
//! of the last cluster's TAS bits ("the processes will access each of
//! the TAS bits and eventually find a free TAS bit", §III), continuing —
//! wrapped around the whole array — until it wins. The wrap guarantees
//! termination: with `n` names for `n` processes, a full failed sweep
//! would certify `n` other winners, a contradiction (README "Deviations
//! from the paper", item 1).
//!
//! Step accounting is exactly the paper's: one step per device-bit
//! request and one per name-slot TAS.

use crate::params::{TightPlan, TightVariant};
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::rng::{ProcessRng, RngMode, StreamKey};
use rr_shmem::Access;
use rr_tau::ConcurrentTauRegister;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per-round, per-register request counts — the measurements the
/// Lemma 4 experiment (E3) reports.
#[derive(Debug)]
pub struct RequestRecorder {
    /// `counts[round][register_within_cluster]`.
    counts: Vec<Vec<AtomicU64>>,
}

impl RequestRecorder {
    /// Recorder shaped for `plan`.
    pub fn new(plan: &TightPlan) -> Self {
        let counts = plan
            .clusters
            .iter()
            .map(|cl| (0..cl.registers).map(|_| AtomicU64::new(0)).collect())
            .collect();
        Self { counts }
    }

    /// Records one request in `round` against global register `reg`.
    fn record(&self, round: usize, reg_in_cluster: usize) {
        self.counts[round][reg_in_cluster].fetch_add(1, Ordering::Relaxed);
    }

    /// Request counts for one round, indexed by register within cluster.
    pub fn round_counts(&self, round: usize) -> Vec<u64> {
        self.counts[round].iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.counts.len()
    }
}

/// Shared memory of a tight-renaming run: the τ-registers, the plan and
/// the key of the processes' random streams.
#[derive(Debug)]
pub struct TightShared {
    /// The cluster layout in force.
    pub plan: TightPlan,
    /// One τ-register per `L` names: a contiguous bank of inline
    /// registers, no per-register heap allocation.
    pub registers: Vec<ConcurrentTauRegister>,
    /// Optional request recorder (E3).
    pub recorder: Option<RequestRecorder>,
    /// The run's stream key; process `pid` draws from stream `pid`.
    key: StreamKey,
    /// Probes after which a final-round sweep gives up (≫ one full
    /// sweep; only reachable if the w.h.p. guarantee failed *and*
    /// scheduling starved the sweep repeatedly).
    sweep_budget: u32,
}

impl TightShared {
    /// Builds the registers for `plan`, with the streams of `seed`.
    ///
    /// # Panics
    /// Panics if the register count or the sweep budget, eight probes
    /// per device bit, does not fit the `u32` a [`TightProcess`] keeps
    /// for it. Rounds and slots are bounded by the register count and by
    /// `2·log n` respectively, so they fit too.
    pub fn new(plan: TightPlan, seed: u64, record: bool) -> Self {
        let count = plan.register_tau.len();
        u32::try_from(count)
            .unwrap_or_else(|_| panic!("{count} τ-registers do not fit the u32 register index"));
        let probes = 8 * plan.total_bits();
        let sweep_budget = u32::try_from(probes)
            .unwrap_or_else(|_| panic!("a sweep budget of {probes} probes does not fit a u32"));
        let recorder = record.then(|| RequestRecorder::new(&plan));
        let width = 2 * plan.l;
        let registers = plan
            .register_tau
            .iter()
            .enumerate()
            .map(|(r, &tau)| ConcurrentTauRegister::new(width, tau, plan.base_name(r)))
            .collect();
        Self { plan, registers, recorder, key: StreamKey::new(seed), sweep_budget }
    }

    /// Total names claimed so far across all registers.
    pub fn names_claimed(&self) -> usize {
        self.registers.iter().map(|r| r.confirmed_count() as usize).sum()
    }
}

/// The operation a process performs next. Derived from [`State`] on
/// demand, never stored: only a probing round's random draw has to be
/// remembered between `announce` and `step`, and it lives in the state.
#[derive(Debug, Clone, Copy)]
enum Planned {
    Request {
        reg: usize,
        bit: usize,
    },
    Slot {
        reg: usize,
        slot: usize,
    },
    /// One-step read of a register's confirmed bit map (the paper allows
    /// reading all `2·log n` bits in one operation).
    Inspect {
        reg: usize,
    },
}

/// Per-process protocol state. Register indices, rounds, slots and
/// sweep attempts are `u32` ([`TightShared::new`] checks the register
/// count and the sweep budget fit) and device bits are `u8` (a register
/// is at most 64 bits wide), which keeps the whole enum at 12 bytes.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Probing cluster `round`, its request not drawn yet.
    Round { round: u32 },
    /// Probing cluster `round` with the request `(reg, bit)` drawn (by
    /// `announce`, or by `step` when no announcement came first), so the
    /// draw is made exactly once.
    Drawn { round: u32, reg: u32, bit: u8 },
    /// Admitted at `reg`; scanning its name slots from `slot`.
    Slots { reg: u32, slot: u32 },
    /// Final-round sweep, register granularity: read `reg`'s confirmed
    /// map; if quota remains, drop into `SweepBits`.
    Sweep { reg: u32, attempts: u32 },
    /// Requesting `bit`, the lowest bit of `reg` the last read saw unset.
    /// Any lost attempt returns to `Sweep` on the *same* register for a
    /// fresh read: a loss means another process won meanwhile (stale
    /// read), so re-reading is both correct and globally bounded — at
    /// most n losses can ever occur system-wide.
    SweepBits { reg: u32, bit: u8, attempts: u32 },
}

/// One §III process: its random stream (a 40-byte half block, position
/// and pid; the key lives in [`TightShared`]), the shared memory and its
/// 12-byte protocol state — 64 bytes, one cache line's worth, so a fair
/// round over 2^20 processes streams 64 MiB of process state.
///
/// The alignment is left at the default 8 on purpose. Forced to 64 at
/// the same size, stepbench's `tight-random` read a peak RSS of 119.4
/// MiB after its set-up builds and about 16 MiB more, one process array,
/// for each further build (231.4 MiB after 11), against 41.0 MiB at the
/// default. That is most likely glibc's aligned-allocation path, which
/// keeps each freed 16 MiB array on the heap once the dynamic mmap
/// threshold has grown to 16 MiB. So a process may straddle two lines.
pub struct TightProcess {
    rng: ProcessRng,
    shared: Arc<TightShared>,
    state: State,
}

impl TightProcess {
    /// Process `pid` drawing from stream `pid` under `shared`'s key.
    pub fn new(pid: usize, shared: Arc<TightShared>) -> Self {
        // The last cluster is the paper's "final round": processes
        // access its TAS bits systematically instead of randomly
        // ("the processes will access each of the TAS bits and
        // eventually find a free TAS bit", §III). Random rounds cover
        // clusters 0 .. last−1.
        let state = if shared.plan.probing_rounds() == 0 {
            Self::final_round_state(&shared)
        } else {
            State::Round { round: 0 }
        };
        Self { rng: ProcessRng::new(pid), shared, state }
    }

    /// Entry state for the systematic final round: sweep backward from
    /// the last register — the leftovers of the singleton tail rounds
    /// concentrate at the end of the array — wrapping over the whole
    /// array only in the (w.h.p. never) case of earlier shortfalls.
    fn final_round_state(shared: &TightShared) -> State {
        State::Sweep { reg: shared.registers.len() as u32 - 1, attempts: 0 }
    }

    /// Advances the sweep cursor (backward, wrapping), respecting the
    /// attempt budget.
    fn advance_sweep(&self, reg: u32, attempts: u32) -> Option<State> {
        if attempts >= self.shared.sweep_budget {
            return None;
        }
        let next = if reg == 0 { self.shared.registers.len() as u32 - 1 } else { reg - 1 };
        Some(State::Sweep { reg: next, attempts })
    }

    /// The next operation. In a probing round this draws the request on
    /// first call and caches it in the state; every other operation is a
    /// pure function of the state.
    fn next_op(&mut self) -> Planned {
        match self.state {
            State::Round { round } => {
                let shared = &*self.shared;
                let l2 = 2 * shared.plan.l as usize;
                let cluster = shared.plan.clusters[round as usize];
                let idx = self.rng.index(&shared.key, cluster.registers * l2);
                let reg = cluster.first_register + idx / l2;
                let bit = idx % l2;
                self.state = State::Drawn { round, reg: reg as u32, bit: bit as u8 };
                Planned::Request { reg, bit }
            }
            State::Drawn { reg, bit, .. } | State::SweepBits { reg, bit, .. } => {
                Planned::Request { reg: reg as usize, bit: usize::from(bit) }
            }
            State::Slots { reg, slot } => Planned::Slot { reg: reg as usize, slot: slot as usize },
            State::Sweep { reg, .. } => Planned::Inspect { reg: reg as usize },
        }
    }
}

impl Process for TightProcess {
    fn announce(&mut self) -> Access {
        match self.next_op() {
            Planned::Request { reg, bit } => Access::TauRequest { register: reg, bit },
            Planned::Slot { reg, slot } => {
                Access::Tas { array: 1, index: self.shared.plan.base_name(reg) + slot }
            }
            Planned::Inspect { reg } => Access::Read { array: 0, index: reg },
        }
    }

    fn step(&mut self) -> StepOutcome {
        match self.next_op() {
            Planned::Request { reg, bit } => {
                let won = self.shared.registers[reg].request_bit(bit);
                if let (State::Drawn { round, .. }, Some(rec)) = (self.state, &self.shared.recorder)
                {
                    let cluster = self.shared.plan.clusters[round as usize];
                    rec.record(round as usize, reg - cluster.first_register);
                }
                if won {
                    self.state = State::Slots { reg: reg as u32, slot: 0 };
                    return StepOutcome::Continue;
                }
                self.state = match self.state {
                    State::Drawn { round, .. } => {
                        if round as usize + 1 < self.shared.plan.probing_rounds() {
                            State::Round { round: round + 1 }
                        } else {
                            // Probing rounds exhausted: systematic final-round sweep.
                            Self::final_round_state(&self.shared)
                        }
                    }
                    State::SweepBits { reg, attempts, .. } => {
                        // The requested bit lost: our snapshot was stale
                        // (someone else progressed). Re-inspect the same
                        // register; if its quota is gone the sweep moves
                        // on, otherwise we get a fresh bit map.
                        let attempts = attempts + 1;
                        if attempts >= self.shared.sweep_budget {
                            return StepOutcome::GaveUp;
                        }
                        State::Sweep { reg, attempts }
                    }
                    State::Round { .. } | State::Sweep { .. } | State::Slots { .. } => {
                        unreachable!("requests are planned only in Drawn/SweepBits states")
                    }
                };
                StepOutcome::Continue
            }
            Planned::Inspect { reg } => {
                let register = &self.shared.registers[reg];
                let (attempts, cur) = match self.state {
                    State::Sweep { reg, attempts } => (attempts + 1, reg),
                    _ => unreachable!("inspections are planned only in Sweep state"),
                };
                let (free_quota, confirmed) = register.quota_and_bits();
                let unset = !confirmed & (((1u128 << (2 * self.shared.plan.l)) - 1) as u64);
                if free_quota > 0 && unset != 0 {
                    let bit = unset.trailing_zeros() as u8;
                    self.state = State::SweepBits { reg: cur, bit, attempts };
                } else {
                    match self.advance_sweep(cur, attempts) {
                        Some(s) => self.state = s,
                        None => return StepOutcome::GaveUp,
                    }
                }
                StepOutcome::Continue
            }
            Planned::Slot { reg, slot } => {
                let register = &self.shared.registers[reg];
                if register.try_slot(slot) {
                    return StepOutcome::Done(register.base_name() + slot);
                }
                let tau = register.tau() as usize;
                let next = slot + 1;
                assert!(
                    next < tau,
                    "admitted process {} found register {reg} full: τ-invariant broken",
                    self.rng.pid()
                );
                self.state = State::Slots { reg: reg as u32, slot: next as u32 };
                StepOutcome::Continue
            }
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.rng.pid())
    }

    /// Loads the state and the confirmed word of the register it names,
    /// the line the next request, slot TAS or inspection hits. A round
    /// not yet drawn names no register, and touching never draws.
    fn touch(&self) {
        let reg = match self.state {
            State::Round { .. } => return,
            State::Drawn { reg, .. }
            | State::Slots { reg, .. }
            | State::Sweep { reg, .. }
            | State::SweepBits { reg, .. } => reg,
        };
        if let Some(register) = self.shared.registers.get(reg as usize) {
            std::hint::black_box(register.confirmed_bits());
        }
    }

    fn rng_words(&self) -> Option<u64> {
        Some(self.rng.words_drawn())
    }
}

/// Factory for §III runs.
///
/// ```
/// use rr_renaming::TightRenaming;
/// use rr_sched::adversary::FairAdversary;
/// use rr_sched::shard::Arena;
/// use rr_shmem::rng::RngMode;
///
/// let (shared, mut procs) =
///     TightRenaming::calibrated(4).instantiate_shared_rng(64, 7, RngMode::default());
/// let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 20).unwrap();
/// out.verify_renaming(64).unwrap();           // tight: names are exactly [0, 64)
/// assert_eq!(shared.names_claimed(), 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TightRenaming {
    /// Lemma 3 constant (`c ≥ 2ℓ+2` gives w.h.p. exponent ℓ).
    pub c: u32,
    /// Which cluster plan to use.
    pub variant: TightVariant,
    /// Whether to attach a [`RequestRecorder`].
    pub record: bool,
}

impl TightRenaming {
    /// The calibrated variant (Theorem 5 experiments).
    pub fn calibrated(c: u32) -> Self {
        Self { c, variant: TightVariant::Calibrated, record: false }
    }

    /// Definition 2 verbatim (Lemma 4 / E3 experiments).
    pub fn paper_exact(c: u32) -> Self {
        Self { c, variant: TightVariant::PaperExact, record: false }
    }

    /// Enables request recording.
    pub fn with_recorder(mut self) -> Self {
        self.record = true;
        self
    }

    /// Builds the shared memory and the `n` processes for one run.
    ///
    /// The [`RngMode`] marker selects nothing: the standalone `stepbench`
    /// package calls this builder under this name, and the next change to
    /// that benchmark renames it and drops the argument.
    pub fn instantiate_shared_rng(
        &self,
        n: usize,
        seed: u64,
        _: RngMode,
    ) -> (Arc<TightShared>, Vec<TightProcess>) {
        let plan = match self.variant {
            TightVariant::Calibrated => TightPlan::calibrated(n, self.c),
            TightVariant::PaperExact => TightPlan::paper_exact(n, self.c),
        };
        let shared = Arc::new(TightShared::new(plan, seed, self.record));
        let processes = (0..n).map(|pid| TightProcess::new(pid, Arc::clone(&shared))).collect();
        (shared, processes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RenamingAlgorithm;
    use rr_sched::adversary::{
        Adversary, CollisionMaximizer, CrashAdversary, Decision, FairAdversary, RandomAdversary,
        RunView,
    };
    use rr_sched::shard::Arena;

    #[test]
    fn small_run_names_everyone_distinctly() {
        let (_shared, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(64, 7, RngMode::default());
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1_000_000).unwrap();
        out.verify_renaming(64).unwrap();
        assert_eq!(out.gave_up_count(), 0);
        assert_eq!(out.names.iter().filter(|n| n.is_some()).count(), 64);
    }

    #[test]
    fn names_are_exactly_zero_to_n_minus_one() {
        let (_shared, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(100, 3, RngMode::default());
        let out = Arena::new().run(&mut procs, &mut RandomAdversary::new(3), 1_000_000).unwrap();
        let mut names: Vec<usize> = out.names.iter().map(|n| n.unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, (0..100).collect::<Vec<_>>(), "tight = full coverage of [0, n)");
    }

    #[test]
    fn step_complexity_scales_logarithmically() {
        // Ratio max_steps / log2 n should stay bounded as n quadruples.
        let mut ratios = Vec::new();
        for n in [1usize << 8, 1 << 10, 1 << 12] {
            let (_s, mut procs) =
                TightRenaming::calibrated(4).instantiate_shared_rng(n, 11, RngMode::default());
            let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 28).unwrap();
            out.verify_renaming(n).unwrap();
            ratios.push(out.step_complexity() as f64 / (n as f64).log2());
        }
        for r in &ratios {
            assert!(*r < 30.0, "ratio blew up: {ratios:?}");
        }
        // No steep growth between consecutive sizes.
        assert!(ratios[2] < ratios[0] * 2.0 + 8.0, "super-logarithmic growth: {ratios:?}");
    }

    #[test]
    fn paper_exact_terminates_via_fallback() {
        let (_s, mut procs) =
            TightRenaming::paper_exact(4).instantiate_shared_rng(256, 5, RngMode::default());
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        out.verify_renaming(256).unwrap();
        assert_eq!(out.gave_up_count(), 0);
    }

    #[test]
    fn recorder_sees_all_first_round_requests() {
        let algo = TightRenaming::calibrated(4).with_recorder();
        let (shared, mut procs) = algo.instantiate_shared_rng(512, 9, RngMode::default());
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        out.verify_renaming(512).unwrap();
        let rec = shared.recorder.as_ref().unwrap();
        let round0: u64 = rec.round_counts(0).iter().sum();
        // Every process makes exactly one round-1 request.
        assert_eq!(round0, 512);
        assert_eq!(rec.rounds(), shared.plan.rounds());
    }

    #[test]
    fn safety_under_collision_maximizer() {
        let (_s, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(128, 13, RngMode::default());
        let out =
            Arena::new().run(&mut procs, &mut CollisionMaximizer::default(), 1 << 26).unwrap();
        out.verify_renaming(128).unwrap();
    }

    #[test]
    fn crashes_only_lose_the_crashed() {
        let (_s, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(128, 17, RngMode::default());
        let mut adv = CrashAdversary::new(FairAdversary::default(), 0.02, 20, 23);
        let out = Arena::new().run(&mut procs, &mut adv, 1 << 26).unwrap();
        out.verify_renaming(128).unwrap();
        let crashed = out.crashed.iter().filter(|&&c| c).count();
        let named = out.names.iter().filter(|n| n.is_some()).count();
        assert_eq!(named, 128 - crashed);
    }

    #[test]
    fn shared_accounting_matches_outcome() {
        let (shared, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(64, 29, RngMode::default());
        let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 24).unwrap();
        // Confirmed device winners ≥ named processes (crashed winners
        // would inflate; none here).
        assert_eq!(shared.names_claimed(), 64);
        out.verify_renaming(64).unwrap();
    }

    #[test]
    fn thread_mode_matches_model_semantics() {
        let (_s, procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(64, 31, RngMode::default());
        let boxed: Vec<Box<dyn Process + Send>> =
            procs.into_iter().map(|p| Box::new(p) as Box<dyn Process + Send>).collect();
        let out = rr_sched::thread_exec::run_threads(boxed, 1 << 22);
        out.verify_renaming(64).unwrap();
        assert_eq!(out.gave_up_count(), 0);
    }

    /// Inherits the default one-decision `decide_batch`, so the arena
    /// dispatches one grant per view.
    struct SingleStep<A>(A);

    impl<A: Adversary> Adversary for SingleStep<A> {
        fn decide(&mut self, view: &RunView<'_>) -> Decision {
            self.0.decide(view)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// Fair macro-step batches are bit-identical to single steps: same
    /// names, steps, and RNG draws under the batching `FairAdversary`,
    /// a one-decision-at-a-time wrapper of it, and the same processes boxed.
    #[test]
    fn fair_batches_are_bit_identical_to_single_steps_and_boxed() {
        for algo in [TightRenaming::calibrated(4), TightRenaming::paper_exact(4)] {
            for (n, seed) in [(64usize, 7u64), (100, 3), (256, 5), (130, 11)] {
                let budget = 1u64 << 24;
                let draws = |procs: &[TightProcess]| -> u64 {
                    procs.iter().map(|p| p.rng_words().unwrap()).sum()
                };

                let (_s, mut procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
                let batched =
                    Arena::new().run(&mut procs, &mut FairAdversary::default(), budget).unwrap();
                let batched_draws = draws(&procs);

                let (_s, mut procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
                let single = Arena::new()
                    .run(&mut procs, &mut SingleStep(FairAdversary::default()), budget)
                    .unwrap();
                assert_eq!(batched.names, single.names, "{} n {n}", algo.name());
                assert_eq!(batched.steps, single.steps, "{} n {n}", algo.name());
                assert_eq!(batched_draws, draws(&procs), "{} n {n}", algo.name());

                let (_s, procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
                let mut boxed: Vec<Box<dyn Process>> =
                    procs.into_iter().map(|p| Box::new(p) as Box<dyn Process>).collect();
                let via_box =
                    Arena::new().run(&mut boxed, &mut FairAdversary::default(), budget).unwrap();
                assert_eq!(batched.names, via_box.names, "{} n {n}", algo.name());
                assert_eq!(batched.steps, via_box.steps, "{} n {n}", algo.name());
            }
        }
    }

    /// The batched `random` schedule on the headline protocol is the
    /// single-stepped one: same outcome, process draws and adversary
    /// words, across the roster recaptures (every size here crosses at
    /// least five).
    #[test]
    fn batched_random_is_bit_identical_to_single_stepped_random() {
        let draws =
            |procs: &[TightProcess]| -> u64 { procs.iter().map(|p| p.rng_words().unwrap()).sum() };
        for n in [64usize, 130, 1000, 4096] {
            for seed in 0..2u64 {
                let algo = TightRenaming::calibrated(4);
                let budget = algo.step_budget(n);
                let (_s, mut procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
                let mut batched = RandomAdversary::new(seed);
                let out = Arena::new().run(&mut procs, &mut batched, budget).unwrap();
                let batched_draws = draws(&procs);

                let (_s, mut procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
                let mut single = SingleStep(RandomAdversary::new(seed));
                let single_out = Arena::new().run(&mut procs, &mut single, budget).unwrap();
                let ctx = format!("n {n} seed {seed}");
                assert_eq!(out.names, single_out.names, "{ctx}");
                assert_eq!(out.steps, single_out.steps, "{ctx}");
                assert_eq!(out.crashed, single_out.crashed, "{ctx}");
                assert_eq!(out.gave_up, single_out.gave_up, "{ctx}");
                assert_eq!(out.decisions, single_out.decisions, "{ctx}");
                assert_eq!(batched_draws, draws(&procs), "{ctx}");
                assert_eq!(batched.words_consumed(), single.0.words_consumed(), "{ctx}");
            }
        }
    }

    /// Touches its process before and after every announce and step, and
    /// forwards the arena's touches.
    struct Touching(TightProcess);

    impl Process for Touching {
        fn announce(&mut self) -> Access {
            self.0.touch();
            let access = self.0.announce();
            self.0.touch();
            access
        }
        fn step(&mut self) -> StepOutcome {
            self.0.touch();
            let outcome = self.0.step();
            self.0.touch();
            outcome
        }
        fn pid(&self) -> Pid {
            self.0.pid()
        }
        fn touch(&self) {
            self.0.touch();
        }
    }

    /// `touch` draws nothing and changes nothing: a fresh process (whose
    /// round is not drawn yet) keeps its stream untouched, and runs that
    /// touch around every announce and step, as well as the arena's own
    /// pass under `random`, match the untouched run in outcome and in
    /// every process's draw count.
    #[test]
    fn touch_changes_no_draw_and_no_outcome() {
        let algo = TightRenaming::calibrated(4);
        let (_s, fresh) = algo.instantiate_shared_rng(64, 9, RngMode::default());
        for p in &fresh {
            p.touch();
            assert_eq!(p.rng_words(), Some(0), "pid {}", p.pid());
        }
        for (n, seed) in [(130usize, 1u64), (1000, 2)] {
            let budget = algo.step_budget(n);
            let (_s, mut plain) = algo.instantiate_shared_rng(n, seed, RngMode::default());
            let want = Arena::new()
                .run(&mut plain, &mut SingleStep(RandomAdversary::new(seed)), budget)
                .unwrap();
            let (_s, procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
            let mut touched: Vec<Touching> = procs.into_iter().map(Touching).collect();
            let got =
                Arena::new().run(&mut touched, &mut RandomAdversary::new(seed), budget).unwrap();
            let ctx = format!("n {n} seed {seed}");
            assert_eq!(got.names, want.names, "{ctx}");
            assert_eq!(got.steps, want.steps, "{ctx}");
            assert_eq!(got.decisions, want.decisions, "{ctx}");
            for (t, p) in touched.iter().zip(&plain) {
                assert_eq!(t.0.rng_words(), p.rng_words(), "{ctx} pid {}", p.pid());
            }
        }
    }

    /// The batched τ-CAS stubs kept for the standalone `stepbench`
    /// package stay inert: a `tight-tau:c=4` run under `fair` claims no
    /// block, and no process offers a host.
    #[test]
    fn batched_tau_stubs_are_inert() {
        let (_s, mut procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(1024, 3, RngMode::default());
        let mut arena = Arena::new();
        arena.run(&mut procs, &mut FairAdversary::default(), 1 << 26).unwrap();
        assert_eq!(arena.block_stats(), (0, 0));
        assert!(procs.iter().all(|p| p.tau_host().is_none()));
    }

    /// Layout guard: a fair round streams every process once, so a
    /// process stays at one cache line's worth of bytes. Its alignment
    /// stays at most 16: forced to 64, `tight-random`'s peak RSS read
    /// 119.4 MiB after set-up and grew by an array per build, against
    /// 41.0 MiB at the default (see [`TightProcess`]).
    #[test]
    fn process_fits_one_cache_line() {
        let align = std::mem::align_of::<TightProcess>();
        assert_eq!(std::mem::size_of::<TightProcess>(), 64);
        assert!(align <= 16, "{align}");
        assert!(std::mem::size_of::<State>() <= 12, "{}", std::mem::size_of::<State>());
    }

    /// The sweep budget, eight probes per device bit, must fit the `u32`
    /// attempt count a process keeps, and the plan is refused before
    /// anything is built: one 2^30-bit-wide register gives 2^33 probes.
    #[test]
    #[should_panic(expected = "a sweep budget of 8589934592 probes does not fit a u32")]
    fn sweep_budget_beyond_u32_is_rejected() {
        let mut plan = TightPlan::calibrated(64, 4);
        plan.l = 1 << 29;
        plan.register_tau = vec![1];
        TightShared::new(plan, 0, false);
    }

    #[test]
    fn pid_is_read_from_the_stream() {
        let (_s, procs) =
            TightRenaming::calibrated(4).instantiate_shared_rng(64, 7, RngMode::default());
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p.pid(), Pid::new(i));
        }
    }

    #[test]
    fn tiny_n() {
        for n in [2usize, 3, 5, 8] {
            let (_s, mut procs) =
                TightRenaming::calibrated(2).instantiate_shared_rng(n, 1, RngMode::default());
            let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 100_000).unwrap();
            out.verify_renaming(n).unwrap();
            assert_eq!(out.names.iter().filter(|x| x.is_some()).count(), n);
        }
    }
}
