//! Model-checked scenarios for the lock-free core.
//!
//! Each scenario instantiates a production primitive —
//! [`ConcurrentTauRegister`] or [`AtomicTasArray`] — over
//! [`TracedWord`] and hands [`rr_sched::model::check`] a bounded cast
//! of threads plus a linearizability checker against the sequential
//! oracle ([`CountingDevice`] for the τ-register, the one-winner set
//! model for TAS). The `exp_model` binary and the `model_check` golden
//! test (which pins the exact interleaving counts) both build their
//! runs from this one registry, so the CI smoke and the pinned
//! exhaustiveness certificate can never drift apart.
//!
//! The τ-register history is checked at the granularity the primitive
//! actually guarantees: `request` (the one-CAS bit acquisition),
//! `claim` (the name-slot search) and `collect` (`quota_and_bits`) are
//! each linearizable operations, and the checker asks for a sequential
//! order of those ops — respecting each thread's program order — that
//! reproduces every recorded outcome. The composite `acquire` is
//! deliberately *not* modelled as one atomic op: a thread can win its
//! device bit first but claim its name second, which a concurrent
//! collector can observe, and that is correct behavior, not a race.

use rr_sched::model::{check, ModelReport, ModelRun, TracedWord};
use rr_shmem::tas::{AtomicTasArray, TasMemory};
use rr_tau::device::{BitOutcome, CountingDevice};
use rr_tau::ConcurrentTauRegister;
use std::sync::Arc;

/// One completed atomic operation in a model history. Each model
/// thread reports the sequence of operations it performed (its program
/// order); the linearizability check interleaves those sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelOp {
    /// `ConcurrentTauRegister::request_bit(bit)`.
    Request {
        /// Requested device bit.
        bit: usize,
        /// Whether the bit was won.
        won: bool,
    },
    /// `ConcurrentTauRegister::claim_name()` after a won request
    /// (base name 0, so name == slot).
    Claim {
        /// The name-slot won.
        name: usize,
    },
    /// `ConcurrentTauRegister::quota_and_bits()` — the one-step
    /// register inspection ("collect").
    Collect {
        /// Remaining quota observed.
        quota: u32,
        /// Confirmed bit map observed.
        bits: u64,
    },
    /// `AtomicTasArray::tas(target)`.
    Tas {
        /// Register index.
        target: usize,
        /// Whether this thread won the register.
        won: bool,
    },
}

/// A named, bounded model-checking scenario.
#[derive(Debug)]
pub struct ModelScenario {
    /// Registry key (`tas`, `tau`, …).
    pub key: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// Execution budget handed to [`check`] — comfortably above every
    /// pinned tree size, so hitting it means the scenario regressed.
    pub limit: u64,
    builder: fn() -> ModelRun<Vec<ModelOp>>,
}

impl ModelScenario {
    /// Exhaustively explores the scenario and checks every outcome.
    pub fn run(&self) -> ModelReport {
        check(self.limit, self.builder)
    }
}

/// An acceptance predicate over a complete `(thread, op_index)` order.
type OrderCheck<'a> = dyn FnMut(&[(usize, usize)]) -> bool + 'a;

/// Tries every interleaving of the per-thread operation sequences
/// (program order preserved within each thread) until `ok` accepts a
/// complete order of `(thread, op_index)` pairs.
fn any_interleaving(seqs: &[Vec<ModelOp>], ok: &mut OrderCheck<'_>) -> bool {
    fn rec(
        seqs: &[Vec<ModelOp>],
        cursors: &mut [usize],
        acc: &mut Vec<(usize, usize)>,
        total: usize,
        ok: &mut OrderCheck<'_>,
    ) -> bool {
        if acc.len() == total {
            return ok(acc);
        }
        for t in 0..seqs.len() {
            if cursors[t] < seqs[t].len() {
                acc.push((t, cursors[t]));
                cursors[t] += 1;
                if rec(seqs, cursors, acc, total, ok) {
                    return true;
                }
                cursors[t] -= 1;
                acc.pop();
            }
        }
        false
    }
    let total = seqs.iter().map(Vec::len).sum();
    rec(seqs, &mut vec![0; seqs.len()], &mut Vec::with_capacity(total), total, ok)
}

/// Does some sequential order of the recorded operations — respecting
/// per-thread program order — reproduce every outcome against the
/// sequential oracle (a [`CountingDevice`] of `width`/`tau` plus
/// lowest-free name-slot assignment)?
fn tau_linearizes(width: u32, tau: u32, seqs: &[Vec<ModelOp>]) -> bool {
    any_interleaving(seqs, &mut |order| {
        let mut device = CountingDevice::new(width, tau);
        let mut slot_free = vec![true; tau as usize];
        order.iter().all(|&(t, i)| match &seqs[t][i] {
            ModelOp::Request { bit, won } => (device.request_one(*bit) == BitOutcome::Won) == *won,
            ModelOp::Claim { name } => match slot_free.iter().position(|&f| f) {
                Some(slot) => {
                    slot_free[slot] = false;
                    *name == slot
                }
                None => false,
            },
            ModelOp::Collect { quota, bits } => {
                *bits == device.confirmed() && *quota == tau - device.confirmed_count()
            }
            ModelOp::Tas { .. } => false,
        })
    })
}

/// A τ-register run: one acquirer per entry of `bits`, plus an optional
/// concurrent `quota_and_bits` collector.
fn tau_run(
    width: u32,
    tau: u32,
    bits: &'static [usize],
    collector: bool,
) -> ModelRun<Vec<ModelOp>> {
    let reg = Arc::new(ConcurrentTauRegister::<TracedWord>::with_atomics(width, tau, 0));
    let mut threads: Vec<Box<dyn FnOnce() -> Vec<ModelOp> + Send>> = bits
        .iter()
        .map(|&bit| {
            let reg = Arc::clone(&reg);
            Box::new(move || match reg.acquire(bit) {
                Ok((name, _steps)) => {
                    vec![ModelOp::Request { bit, won: true }, ModelOp::Claim { name }]
                }
                Err(_steps) => vec![ModelOp::Request { bit, won: false }],
            }) as Box<dyn FnOnce() -> Vec<ModelOp> + Send>
        })
        .collect();
    if collector {
        let reg = Arc::clone(&reg);
        threads.push(Box::new(move || {
            let (quota, bits) = reg.quota_and_bits();
            vec![ModelOp::Collect { quota, bits }]
        }));
    }
    ModelRun::new(threads, move |seqs: &[Vec<ModelOp>]| {
        if tau_linearizes(width, tau, seqs) {
            Ok(())
        } else {
            Err(format!("no sequential order explains {seqs:?}"))
        }
    })
}

/// A TAS-array run: `targets[i]` is thread i's register. The oracle is
/// the set model: every contended register has exactly one winner.
fn tas_run(slots: usize, targets: &'static [usize]) -> ModelRun<Vec<ModelOp>> {
    let arr = Arc::new(AtomicTasArray::<TracedWord>::with_atomics(slots));
    let threads = targets
        .iter()
        .map(|&target| {
            let arr = Arc::clone(&arr);
            Box::new(move || vec![ModelOp::Tas { target, won: arr.tas(target) }])
                as Box<dyn FnOnce() -> Vec<ModelOp> + Send>
        })
        .collect();
    ModelRun::new(threads, move |seqs: &[Vec<ModelOp>]| {
        for s in 0..slots {
            let (mut contenders, mut winners) = (0usize, 0usize);
            for op in seqs.iter().flatten() {
                if let ModelOp::Tas { target, won } = op {
                    if *target == s {
                        contenders += 1;
                        winners += usize::from(*won);
                    }
                }
            }
            if contenders > 0 && winners != 1 {
                return Err(format!("register {s}: {winners} winners of {contenders} contenders"));
            }
        }
        Ok(())
    })
}

fn mk_tas() -> ModelRun<Vec<ModelOp>> {
    tas_run(65, &[0, 0, 64])
}

fn mk_tas_collide() -> ModelRun<Vec<ModelOp>> {
    tas_run(1, &[0, 0, 0])
}

fn mk_tau() -> ModelRun<Vec<ModelOp>> {
    tau_run(4, 2, &[0, 1], false)
}

fn mk_tau_collide() -> ModelRun<Vec<ModelOp>> {
    tau_run(4, 2, &[2, 2], false)
}

/// One thread batching bits {0, 1} through `request_block` (the arena
/// macro-step fast path: one CAS for the whole block, per-bit fallback
/// under contention) racing a plain `request_bit(1)` acquirer. The
/// block reports one [`ModelOp::Request`] per bit — the batched CAS
/// must be explainable as those requests executed back to back, and
/// bit 1 must have exactly one winner across both threads.
fn mk_tau_block() -> ModelRun<Vec<ModelOp>> {
    let reg = Arc::new(ConcurrentTauRegister::<TracedWord>::with_atomics(4, 2, 0));
    let block = {
        let reg = Arc::clone(&reg);
        Box::new(move || {
            let mut wins = Vec::new();
            reg.request_block(&[0, 1], &mut wins);
            wins.iter().zip([0usize, 1]).map(|(&won, bit)| ModelOp::Request { bit, won }).collect()
        }) as Box<dyn FnOnce() -> Vec<ModelOp> + Send>
    };
    let single = {
        let reg = Arc::clone(&reg);
        Box::new(move || vec![ModelOp::Request { bit: 1, won: reg.request_bit(1) }])
            as Box<dyn FnOnce() -> Vec<ModelOp> + Send>
    };
    ModelRun::new(vec![block, single], move |seqs: &[Vec<ModelOp>]| {
        if tau_linearizes(4, 2, seqs) {
            Ok(())
        } else {
            Err(format!("no sequential order explains {seqs:?}"))
        }
    })
}

fn mk_tau_quota() -> ModelRun<Vec<ModelOp>> {
    tau_run(4, 1, &[0, 1], false)
}

fn mk_collect() -> ModelRun<Vec<ModelOp>> {
    tau_run(4, 2, &[0, 1], true)
}

/// All registered scenarios, key-ascending.
pub fn scenarios() -> Vec<ModelScenario> {
    vec![
        ModelScenario {
            key: "collect",
            summary: "2 acquirers + concurrent quota_and_bits collector (τ=2, width 4)",
            limit: 500_000,
            builder: mk_collect,
        },
        ModelScenario {
            key: "tas",
            summary: "3 TAS contenders, two on one register + one on another word",
            limit: 10_000,
            builder: mk_tas,
        },
        ModelScenario {
            key: "tas-collide",
            summary: "3 TAS contenders all hammering one register",
            limit: 10_000,
            builder: mk_tas_collide,
        },
        ModelScenario {
            key: "tau",
            summary: "2 τ-register acquirers on distinct bits (τ=2, width 4)",
            limit: 100_000,
            builder: mk_tau,
        },
        ModelScenario {
            key: "tau-block",
            summary: "batched request_block on bits {0,1} racing a request_bit(1) acquirer",
            limit: 100_000,
            builder: mk_tau_block,
        },
        ModelScenario {
            key: "tau-collide",
            summary: "2 τ-register acquirers racing for the same bit",
            limit: 100_000,
            builder: mk_tau_collide,
        },
        ModelScenario {
            key: "tau-quota",
            summary: "2 acquirers, quota τ=1: exactly one may win",
            limit: 100_000,
            builder: mk_tau_quota,
        },
    ]
}

/// Looks up one scenario by key.
///
/// # Errors
/// Returns a message listing the known keys on an unknown one.
pub fn scenario_by_key(key: &str) -> Result<ModelScenario, String> {
    let all = scenarios();
    let known: Vec<&str> = all.iter().map(|s| s.key).collect();
    all.into_iter()
        .find(|s| s.key == key)
        .ok_or_else(|| format!("unknown model scenario `{key}` (known: {})", known.join(", ")))
}
