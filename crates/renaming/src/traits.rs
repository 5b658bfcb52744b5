//! The uniform algorithm interface the experiment harness drives.
//!
//! Every renaming protocol (the paper's and the baselines) implements
//! [`RenamingProtocol`]: given `n` and a seed it builds the `n` typed
//! process state machines. The blanket impl turns each one into a
//! [`RenamingAlgorithm`] — the object-safe face the registry and the
//! runner use — whose dense entry point runs the typed vector in an
//! [`Arena`] and whose boxed [`Instance`] feeds the threads executor.

use crate::aagw::{AagwProcess, SpareShared};
use crate::loose_l6::{L6Process, LooseShared};
use crate::loose_l8::L8Process;
use crate::params::{spare, FinisherPlan, Lemma6Schedule, Lemma8Schedule};
use crate::phase::{AlmostTight, Chain};
use crate::tight::{TightProcess, TightRenaming};
use rr_sched::adversary::Adversary;
use rr_sched::process::Process;
use rr_sched::shard::Arena;
use rr_sched::virtual_exec::{ExecError, RunOutcome};
use rr_shmem::rng::RngMode;
use std::sync::Arc;

/// A ready-to-run renaming workload.
pub struct Instance {
    /// The `n` process state machines, pids `0..n`.
    pub processes: Vec<Box<dyn Process + Send>>,
    /// Name-space size: every emitted name must be `< m`.
    pub m: usize,
    /// Number of processes.
    pub n: usize,
}

/// A renaming protocol as a typed process factory — the one trait an
/// algorithm implements. Every [`RenamingProtocol`] is a
/// [`RenamingAlgorithm`] through the blanket impl below, so the boxed,
/// dense and sharded entry points are written once for all of them.
pub trait RenamingProtocol {
    /// The per-process state machine [`RenamingProtocol::build`] emits.
    type Proc: Process + 'static;

    /// Display name for tables.
    fn name(&self) -> String;

    /// Name-space size used for `n` processes.
    fn m(&self, n: usize) -> usize;

    /// Whether the protocol may legitimately leave processes unnamed
    /// (the almost-tight lemmas) — experiments then report the unnamed
    /// count instead of treating it as failure.
    fn almost_tight(&self) -> bool {
        false
    }

    /// A generous per-run total-step budget for the executors' livelock
    /// guard.
    fn step_budget(&self, n: usize) -> u64 {
        // 200·n·(⌈log₂ n⌉ + 16) dwarfs every protocol here w.h.p. while
        // still catching real livelock quickly. The log is rounded *up*:
        // truncation would hand n = 2^k + 1 the same budget as n = 2^k,
        // shaving the guard exactly where the protocols grow a round.
        200 * (n as u64) * ((n.max(2) as f64).log2().ceil() as u64 + 16)
    }

    /// Builds one run's shared memory and its `n` processes, pids
    /// `0..n`, drawing coins from per-process streams of `seed` (see
    /// `rr_shmem::rng`).
    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc>;
}

/// The object-safe face of a [`RenamingProtocol`]: what the registry's
/// [`crate::BoxedAlgorithm`], the batch runner and the executors call.
/// Implemented once, for every protocol, by the blanket impl below.
pub trait RenamingAlgorithm {
    /// Display name for tables.
    fn name(&self) -> String;

    /// Name-space size used for `n` processes.
    fn m(&self, n: usize) -> usize;

    /// See [`RenamingProtocol::almost_tight`].
    fn almost_tight(&self) -> bool;

    /// See [`RenamingProtocol::step_budget`].
    fn step_budget(&self, n: usize) -> u64;

    /// Builds one run's processes, boxed.
    fn instantiate(&self, n: usize, seed: u64) -> Instance;

    /// Runs one seed inside `arena` under `adversary` — the dense
    /// backend's entry point. The processes stay a typed `Vec<Proc>` (one
    /// allocation, announce/step monomorphized); the outcome is
    /// bit-identical to running the boxed [`Instance::processes`] of the
    /// same seed in an arena.
    ///
    /// # Errors
    /// Propagates the executor's [`ExecError`]s (step-budget livelock
    /// guard, illegal adversary decisions).
    fn run_dense(
        &self,
        n: usize,
        seed: u64,
        adversary: &mut dyn Adversary,
        arena: &mut Arena,
    ) -> Result<RunOutcome, ExecError>;

    /// [`RenamingAlgorithm::run_dense`], also returning the RNG words the
    /// typed processes drew (Σ [`Process::rng_words`]) — the typed side
    /// of the boxed-dispatch equivalence check.
    ///
    /// # Errors
    /// Propagates the executor's [`ExecError`]s.
    fn run_dense_with_draws(
        &self,
        n: usize,
        seed: u64,
        adversary: &mut dyn Adversary,
        arena: &mut Arena,
    ) -> Result<(RunOutcome, u64), ExecError>;
}

impl<A: RenamingProtocol> RenamingAlgorithm for A {
    fn name(&self) -> String {
        RenamingProtocol::name(self)
    }

    fn m(&self, n: usize) -> usize {
        RenamingProtocol::m(self, n)
    }

    fn almost_tight(&self) -> bool {
        RenamingProtocol::almost_tight(self)
    }

    fn step_budget(&self, n: usize) -> u64 {
        RenamingProtocol::step_budget(self, n)
    }

    fn instantiate(&self, n: usize, seed: u64) -> Instance {
        let processes = self.build(n, seed);
        Instance {
            processes: processes
                .into_iter()
                .map(|p| Box::new(p) as Box<dyn Process + Send>)
                .collect(),
            m: RenamingProtocol::m(self, n),
            n,
        }
    }

    fn run_dense(
        &self,
        n: usize,
        seed: u64,
        adversary: &mut dyn Adversary,
        arena: &mut Arena,
    ) -> Result<RunOutcome, ExecError> {
        arena.run(&mut self.build(n, seed), adversary, RenamingProtocol::step_budget(self, n))
    }

    fn run_dense_with_draws(
        &self,
        n: usize,
        seed: u64,
        adversary: &mut dyn Adversary,
        arena: &mut Arena,
    ) -> Result<(RunOutcome, u64), ExecError> {
        let mut processes = self.build(n, seed);
        let out = arena.run(&mut processes, adversary, RenamingProtocol::step_budget(self, n))?;
        Ok((out, processes.iter().filter_map(Process::rng_words).sum()))
    }
}

/// §III tight renaming (Theorem 5). `m = n`.
impl RenamingProtocol for TightRenaming {
    type Proc = TightProcess;

    fn name(&self) -> String {
        match self.variant {
            crate::params::TightVariant::Calibrated => format!("tight-tau(c={})", self.c),
            crate::params::TightVariant::PaperExact => format!("tight-tau-paper(c={})", self.c),
        }
    }

    fn m(&self, n: usize) -> usize {
        n
    }

    fn build(&self, n: usize, seed: u64) -> Vec<TightProcess> {
        self.instantiate_shared_rng(n, seed, RngMode::default()).1
    }
}

/// Lemma 6 as a standalone almost-tight protocol. `m = n`.
#[derive(Debug, Clone, Copy)]
pub struct LooseL6 {
    /// The exponent ℓ.
    pub ell: u32,
}

impl RenamingProtocol for LooseL6 {
    type Proc = AlmostTight<L6Process>;

    fn name(&self) -> String {
        format!("loose-L6(l={})", self.ell)
    }

    fn m(&self, n: usize) -> usize {
        n
    }

    fn almost_tight(&self) -> bool {
        true
    }

    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc> {
        let shared = Arc::new(LooseShared::new(n));
        let schedule = Lemma6Schedule::new(n, self.ell);
        (0..n)
            .map(|pid| {
                AlmostTight(L6Process::new(pid, seed, Arc::clone(&shared), schedule.clone()))
            })
            .collect()
    }
}

/// Lemma 8 as a standalone almost-tight protocol. `m = n`.
#[derive(Debug, Clone, Copy)]
pub struct LooseL8 {
    /// The exponent ℓ.
    pub ell: u32,
}

impl RenamingProtocol for LooseL8 {
    type Proc = AlmostTight<L8Process>;

    fn name(&self) -> String {
        format!("loose-L8(l={})", self.ell)
    }

    fn m(&self, n: usize) -> usize {
        n
    }

    fn almost_tight(&self) -> bool {
        true
    }

    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc> {
        let shared = Arc::new(LooseShared::new(n));
        let schedule = Lemma8Schedule::new(n, self.ell);
        (0..n)
            .map(|pid| {
                AlmostTight(L8Process::new(pid, seed, Arc::clone(&shared), schedule.clone()))
            })
            .collect()
    }
}

/// Corollary 7: Lemma 6 then the finisher on `[n, n + 2n/(loglog n)^ℓ)`.
#[derive(Debug, Clone, Copy)]
pub struct Cor7 {
    /// The exponent ℓ.
    pub ell: u32,
}

impl RenamingProtocol for Cor7 {
    type Proc = Chain<L6Process, AagwProcess>;

    fn name(&self) -> String {
        format!("cor7(l={})", self.ell)
    }

    fn m(&self, n: usize) -> usize {
        n + spare::cor7(n, self.ell)
    }

    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc> {
        let primary = Arc::new(LooseShared::new(n));
        let spare_size = spare::cor7(n, self.ell);
        let spare_mem = Arc::new(SpareShared::new(n, spare_size));
        let schedule = Lemma6Schedule::new(n, self.ell);
        let plan = FinisherPlan::new(spare_size);
        (0..n)
            .map(|pid| {
                let a = L6Process::new(pid, seed, Arc::clone(&primary), schedule.clone());
                let b = AagwProcess::new(pid, seed ^ 0x5eed, Arc::clone(&spare_mem), plan.clone());
                Chain::new(a, b)
            })
            .collect()
    }
}

/// Corollary 9: Lemma 8 then the finisher on `[n, n + 2n/(log n)^ℓ)`.
#[derive(Debug, Clone, Copy)]
pub struct Cor9 {
    /// The exponent ℓ.
    pub ell: u32,
}

impl RenamingProtocol for Cor9 {
    type Proc = Chain<L8Process, AagwProcess>;

    fn name(&self) -> String {
        format!("cor9(l={})", self.ell)
    }

    fn m(&self, n: usize) -> usize {
        n + spare::cor9(n, self.ell)
    }

    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc> {
        let primary = Arc::new(LooseShared::new(n));
        let spare_size = spare::cor9(n, self.ell);
        let spare_mem = Arc::new(SpareShared::new(n, spare_size));
        let schedule = Lemma8Schedule::new(n, self.ell);
        let plan = FinisherPlan::new(spare_size);
        (0..n)
            .map(|pid| {
                let a = L8Process::new(pid, seed, Arc::clone(&primary), schedule.clone());
                let b = AagwProcess::new(pid, seed ^ 0x5eed, Arc::clone(&spare_mem), plan.clone());
                Chain::new(a, b)
            })
            .collect()
    }
}

/// The finisher run standalone as a loose renaming algorithm with
/// `m = 2n` (ε = 1): the \[8\]-style comparator for E8.
#[derive(Debug, Clone, Copy)]
pub struct AagwLoose;

impl RenamingProtocol for AagwLoose {
    type Proc = AlmostTight<AagwProcess>;

    fn name(&self) -> String {
        "aagw-style(m=2n)".into()
    }

    fn m(&self, n: usize) -> usize {
        2 * n
    }

    fn build(&self, n: usize, seed: u64) -> Vec<Self::Proc> {
        let shared = Arc::new(SpareShared::new(0, 2 * n));
        let plan = FinisherPlan::new(2 * n);
        (0..n)
            .map(|pid| AlmostTight(AagwProcess::new(pid, seed, Arc::clone(&shared), plan.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{AagwLoose, Arena, Cor7, Cor9, LooseL6, LooseL8, RenamingAlgorithm, TightRenaming};
    use rr_sched::adversary::FairAdversary;

    fn check_full(algo: &dyn RenamingAlgorithm, n: usize, seed: u64) {
        let out =
            algo.run_dense(n, seed, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
        out.verify_renaming(algo.m(n)).unwrap();
        if !algo.almost_tight() {
            assert_eq!(out.gave_up_count(), 0, "{} gave up", algo.name());
        }
    }

    #[test]
    fn cor7_names_everyone_in_its_space() {
        for ell in [1, 2] {
            check_full(&Cor7 { ell }, 1 << 10, 77);
        }
    }

    #[test]
    fn cor9_names_everyone_in_its_space() {
        for ell in [1, 2] {
            check_full(&Cor9 { ell }, 1 << 10, 78);
        }
    }

    #[test]
    fn aagw_standalone_full_renaming() {
        check_full(&AagwLoose, 1 << 10, 79);
    }

    #[test]
    fn tight_through_trait() {
        check_full(&TightRenaming::calibrated(4), 256, 80);
    }

    #[test]
    fn l6_l8_almost_tight_flag() {
        assert!(LooseL6 { ell: 1 }.almost_tight());
        assert!(LooseL8 { ell: 1 }.almost_tight());
        assert!(!Cor7 { ell: 1 }.almost_tight());
        assert!(!TightRenaming::calibrated(4).almost_tight());
    }

    #[test]
    fn name_spaces_match_corollaries() {
        let n = 1 << 16;
        // Cor 7, ℓ=1: m = n + 2n/loglog n = n + n/2.
        assert_eq!(Cor7 { ell: 1 }.m(n), n + n / 2);
        // Cor 9, ℓ=1: m = n + 2n/log n = n + n/8.
        assert_eq!(Cor9 { ell: 1 }.m(n), n + n / 8);
        // The loose name spaces are (1 + o(1))·n: ratio shrinks with ℓ.
        assert!(Cor9 { ell: 2 }.m(n) - n < Cor9 { ell: 1 }.m(n) - n);
        assert_eq!(TightRenaming::calibrated(4).m(n), n);
    }

    #[test]
    fn names_render() {
        assert_eq!(Cor7 { ell: 2 }.name(), "cor7(l=2)");
        assert_eq!(Cor9 { ell: 1 }.name(), "cor9(l=1)");
        assert_eq!(LooseL6 { ell: 3 }.name(), "loose-L6(l=3)");
        assert_eq!(TightRenaming::calibrated(4).name(), "tight-tau(c=4)");
        assert_eq!(TightRenaming::paper_exact(4).name(), "tight-tau-paper(c=4)");
        assert_eq!(AagwLoose.name(), "aagw-style(m=2n)");
    }

    #[test]
    fn step_budget_scales() {
        let a = TightRenaming::calibrated(4);
        assert!(RenamingAlgorithm::step_budget(&a, 1 << 16) > 1 << 24);
    }

    /// Pins the budget at the `n = 2^k` boundaries: exact at powers of
    /// two, and rounded *up* (not truncated) one past them.
    #[test]
    fn step_budget_rounds_log_up_at_power_boundaries() {
        let a = TightRenaming::calibrated(4);
        let budget = |n: usize| RenamingAlgorithm::step_budget(&a, n);
        for k in [4u32, 10, 16, 20] {
            let n = 1usize << k;
            // At n = 2^k the log is exact: budget = 200·n·(k + 16).
            assert_eq!(budget(n), 200 * n as u64 * (k as u64 + 16), "n = 2^{k}");
            // One past the boundary the log must round up to k + 1 —
            // the old truncation handed 2^k + 1 the 2^k budget.
            assert_eq!(budget(n + 1), 200 * (n as u64 + 1) * (k as u64 + 17), "n = 2^{k}+1");
            // One below it, ⌈log₂⌉ is already k.
            assert_eq!(budget(n - 1), 200 * (n as u64 - 1) * (k as u64 + 16), "n = 2^{k}-1");
        }
        // Degenerate sizes clamp the log argument at 2.
        assert_eq!(budget(1), 200 * (1 + 16));
        assert_eq!(budget(2), 200 * 2 * (1 + 16));
    }
}
