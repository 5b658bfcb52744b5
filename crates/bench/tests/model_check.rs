//! Golden certificates for the lock-free-core model checker.
//!
//! Pins the exact interleaving-tree size of every registered scenario
//! (`interleavings` = distinct Mazurkiewicz-trace representatives,
//! `pruned` = sleep-set-cut redundant executions) and demonstrates that
//! a deliberately-broken primitive produces a **minimal** rendered
//! counterexample trace. A drift in any pinned count means the
//! primitives' atomic-operation structure changed — which is exactly
//! the kind of silent hot-path change this layer exists to catch.

use rr_bench::modelcheck::{scenario_by_key, scenarios};
use rr_sched::model::{check, ModelRun, TracedWord};
use rr_shmem::atomics::AtomicWord;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Every registered scenario is linearizable, explored to exhaustion,
/// with the tree sizes pinned.
#[test]
fn all_scenarios_exhaustively_linearizable() {
    let pinned = [
        ("collect", 28, 34),
        ("tas", 2, 3),
        ("tas-collide", 6, 0),
        ("tau", 8, 5),
        ("tau-collide", 4, 5),
        ("tau-quota", 4, 5),
    ];
    let all = scenarios();
    assert_eq!(
        all.iter().map(|s| s.key).collect::<Vec<_>>(),
        pinned.iter().map(|&(k, _, _)| k).collect::<Vec<_>>(),
        "scenario registry drifted"
    );
    for (scenario, (_, interleavings, pruned)) in all.iter().zip(pinned) {
        let report = scenario.run();
        assert!(
            report.passed(),
            "{}: non-linearizable trace: {:?}",
            scenario.key,
            report.counterexample.map(|t| (t.to_text(), t.reason))
        );
        assert!(report.exhausted, "{}: hit the execution budget", scenario.key);
        assert_eq!(report.interleavings, interleavings, "{}: tree size drifted", scenario.key);
        assert_eq!(report.pruned, pruned, "{}: pruning drifted", scenario.key);
    }
}

#[test]
fn unknown_scenario_key_lists_alternatives() {
    assert_eq!(
        scenario_by_key("livelock").unwrap_err(),
        "unknown model scenario `livelock` (known: collect, tas, tas-collide, tau, tau-collide, \
         tau-quota)"
    );
    assert_eq!(scenario_by_key("tau").unwrap().key, "tau");
}

/// A test-and-set built the broken way: load, test, then store — the
/// textbook lost-update race the real `fetch_or` TAS avoids.
struct BrokenTas {
    word: TracedWord,
}

impl BrokenTas {
    fn tas(&self, index: usize) -> bool {
        let bit = 1u64 << index;
        let v = self.word.load(Ordering::Acquire);
        if v & bit != 0 {
            return false;
        }
        self.word.store(v | bit, Ordering::Release);
        true
    }
}

/// The broken TAS double-wins under some interleaving, and the checker
/// reports the *minimal* failing trace: both loads before either
/// store — 4 events, 2 context switches — rendered `Tape::to_text`
/// style.
#[test]
fn broken_tas_yields_minimal_counterexample() {
    let report = check(1_000, || {
        let broken = Arc::new(BrokenTas { word: TracedWord::new(0) });
        let a = Arc::clone(&broken);
        let b = Arc::clone(&broken);
        ModelRun::new(
            vec![
                Box::new(move || a.tas(0)) as Box<dyn FnOnce() -> bool + Send>,
                Box::new(move || b.tas(0)),
            ],
            |wins: &[bool]| {
                let w = wins.iter().filter(|&&b| b).count();
                if w == 1 {
                    Ok(())
                } else {
                    Err(format!("{w} winners of one register"))
                }
            },
        )
    });
    assert!(report.exhausted);
    assert!(report.failures > 0, "the broken TAS must lose under some interleaving");
    let trace = report.counterexample.expect("counterexample");
    assert_eq!(trace.reason, "2 winners of one register");
    assert_eq!(trace.events.len(), 4, "minimal trace is load,load,store,store");
    assert_eq!(trace.context_switches(), 2);
    assert_eq!(trace.to_text(), "t0:a0.load=0 t1:a0.load=0 t1:a0.store=1 t0:a0.store=1");
}

/// A τ-register bit request built the broken way: blind `fetch_or`
/// with a load-time quota test — two concurrent requesters can both
/// pass the quota check and overshoot τ. The sequential
/// `CountingDevice` oracle rejects the outcome.
struct BrokenQuota {
    state: TracedWord,
    tau: u32,
}

impl BrokenQuota {
    fn request_bit(&self, bit: usize) -> bool {
        let b = 1u64 << bit;
        let cur = self.state.load(Ordering::Acquire);
        if cur & b != 0 || cur.count_ones() >= self.tau {
            return false;
        }
        self.state.fetch_or(b, Ordering::AcqRel);
        true
    }
}

#[test]
fn broken_quota_check_is_caught() {
    let report = check(1_000, || {
        let reg = Arc::new(BrokenQuota { state: TracedWord::new(0), tau: 1 });
        let a = Arc::clone(&reg);
        let b = Arc::clone(&reg);
        ModelRun::new(
            vec![
                Box::new(move || a.request_bit(0)) as Box<dyn FnOnce() -> bool + Send>,
                Box::new(move || b.request_bit(1)),
            ],
            |wins: &[bool]| {
                let w = wins.iter().filter(|&&b| b).count();
                if w <= 1 {
                    Ok(())
                } else {
                    Err(format!("{w} winners exceed τ=1"))
                }
            },
        )
    });
    assert!(report.exhausted);
    assert!(report.failures > 0, "the broken quota check must overshoot τ");
    let trace = report.counterexample.expect("counterexample");
    assert_eq!(trace.reason, "2 winners exceed τ=1");
    // Minimal shape: both loads pass the quota test before either RMW.
    assert_eq!(trace.events.len(), 4);
    assert_eq!(trace.context_switches(), 2);
}

/// The real primitives under the same harness sizes as the broken
/// ones: zero failures — the contrast that makes the counterexamples
/// above meaningful.
#[test]
fn real_primitives_pass_where_broken_ones_fail() {
    use rr_shmem::tas::{AtomicTasArray, TasMemory};

    let report = check(1_000, || {
        let arr = Arc::new(AtomicTasArray::<TracedWord>::with_atomics(1));
        let a = Arc::clone(&arr);
        let b = Arc::clone(&arr);
        ModelRun::new(
            vec![
                Box::new(move || a.tas(0)) as Box<dyn FnOnce() -> bool + Send>,
                Box::new(move || b.tas(0)),
            ],
            |wins: &[bool]| {
                let w = wins.iter().filter(|&&b| b).count();
                if w == 1 {
                    Ok(())
                } else {
                    Err(format!("{w} winners"))
                }
            },
        )
    });
    assert!(report.passed() && report.exhausted);
    assert_eq!(report.interleavings, 2);
}
