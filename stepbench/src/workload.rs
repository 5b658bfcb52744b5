//! The four workloads and their untraced end-to-end measurement.
//!
//! A *rep* runs one seed of every family of a workload through the
//! public entry points, checks each outcome, and times the whole thing.
//! Reps repeat with consecutive seeds `base, base + 1, …` until the run
//! time is spent; the reported figures are medians over the reps.

use crate::calibrate::Calibration;
use crate::{median, pins, ratio};
use rr_bench::scenario::registry;
use rr_renaming::{BoxedAlgorithm, TightRenaming};
use rr_sched::ids::ShardMap;
use rr_sched::registry::{standard, AdversaryBuilder};
use rr_sched::shard::{run_sharded, shard_seed, Arena, ShardRun, DEFAULT_COUPLING_EVERY};
use rr_sched::virtual_exec::{ExecError, RunOutcome};
use rr_shmem::rng::RngMode;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// One algorithm of a workload: its registry key and the size it runs at.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// Algorithm registry key.
    pub key: &'static str,
    /// Process count.
    pub n: usize,
}

/// A named set of inputs: families, one adversary, one backend.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Adversary registry key.
    pub adversary: &'static str,
    /// Shards of the `shard:s=N` backend; 1 runs `run_dense` on one
    /// reused arena.
    pub shards: usize,
    /// Every family is [`TIGHT_KEY`], so set-up and tracing build through
    /// [`TightRenaming::instantiate_shared_rng`] (typed processes, and the
    /// shared τ-registers stay visible to the trace).
    pub tight: bool,
    /// The families one rep runs, in order.
    pub families: &'static [Family],
}

/// The paper's headline protocol (Theorem 5) as a registry key.
pub const TIGHT_KEY: &str = "tight-tau:c=4";

/// The protocol [`TIGHT_KEY`] names, for the typed builder.
pub fn tight_renaming() -> TightRenaming {
    TightRenaming::calibrated(4)
}

const TIGHT_N: usize = 1 << 20;

/// One default key per registry family. Most run at n = 2^16; the
/// quadratic or budget-bound ones run smaller (see `README.md`).
const REGISTRY_MIX: [Family; 14] = [
    Family { key: "aagw", n: 1 << 16 },
    Family { key: "adaptive", n: 1 << 14 },
    Family { key: "cor7:l=1", n: 1 << 16 },
    Family { key: "cor9:l=1", n: 1 << 16 },
    Family { key: "loose-l6:l=1", n: 1 << 16 },
    Family { key: "loose-l8:l=1", n: 1 << 16 },
    Family { key: TIGHT_KEY, n: 1 << 16 },
    Family { key: "tight-tau-paper:c=4", n: 1 << 12 },
    Family { key: "bitonic", n: 1 << 16 },
    Family { key: "fetch-add", n: 1 << 16 },
    Family { key: "uniform:eps=1", n: 1 << 16 },
    Family { key: "linear-scan:start=zero", n: 1 << 12 },
    Family { key: "route:net=benes", n: 1 << 16 },
    Family { key: "splitter-grid", n: 1 << 12 },
];

/// Every workload the benchmark defines.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tight-fair",
        adversary: "fair",
        shards: 1,
        tight: true,
        families: &[Family { key: TIGHT_KEY, n: TIGHT_N }],
    },
    Workload {
        name: "tight-random",
        adversary: "random",
        shards: 1,
        tight: true,
        families: &[Family { key: TIGHT_KEY, n: 1 << 18 }],
    },
    Workload {
        name: "registry-mix",
        adversary: "fair",
        shards: 1,
        tight: false,
        families: &REGISTRY_MIX,
    },
    Workload {
        name: "tight-fair-shard2",
        adversary: "fair",
        shards: 2,
        tight: true,
        families: &[Family { key: TIGHT_KEY, n: TIGHT_N }],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Builds of one run that the set-up time is the median of.
pub const SETUP_SAMPLES: u64 = 9;

/// Runs `f`, turning a panic into an error message so one bad run
/// cannot abort the batch.
pub fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// One seed of one family through the public entry points: `run_dense`
/// on `arena`, or `run_sharded` with a fresh arena per shard (as the
/// `shard:s=N` backend runs it). Returns the outcome and the name-space
/// size it must rename into.
///
/// # Errors
/// The executor's [`ExecError`] (step budget, illegal decision).
pub fn run_public(
    algo: &BoxedAlgorithm,
    n: usize,
    seed: u64,
    adversary: &AdversaryBuilder,
    shards: usize,
    arena: &mut Arena,
) -> Result<(RunOutcome, usize), ExecError> {
    if shards == 1 {
        let out = algo.run_dense(n, seed, adversary(n, seed).as_mut(), arena)?;
        return Ok((out, algo.m(n)));
    }
    run_sharded(n, shards, DEFAULT_COUPLING_EVERY, |s, n_s, ctx| {
        let sub_seed = shard_seed(seed, s);
        let mut coupled = ctx.couple(adversary(n_s, sub_seed));
        algo.run_dense(n_s, sub_seed, &mut coupled, &mut Arena::new())
            .map(|outcome| ShardRun { outcome, m: algo.m(n_s) })
    })
}

/// Processes of `out` that hold no name (crashed or gave up).
pub fn unnamed(out: &RunOutcome) -> u64 {
    (out.names.len() - out.named_count()) as u64
}

/// The output check every run passes through: renaming safety against
/// `m`, then the recorded totals when this seed has them.
///
/// # Errors
/// A message naming the violated property or the drifted total.
pub fn check(
    w: &Workload,
    family: usize,
    seed: u64,
    out: &RunOutcome,
    m: usize,
) -> Result<(), String> {
    out.verify_renaming(m)?;
    let got = (out.total_steps(), unnamed(out));
    match pins::expected(w.name, family, seed) {
        Some(want) if want != got => {
            Err(format!("(steps, unnamed) = {got:?}, recorded {want:?} for seed {seed}"))
        }
        _ => Ok(()),
    }
}

/// Runs attempted and runs that failed (panic, `ExecError`, safety
/// violation or a drifted recorded total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs started.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
}

/// One checked run of one family, with the seconds its run call took;
/// the outcome is `None` when the run failed (the failure is counted in
/// `tally` and reported on stderr).
pub fn checked_run(
    w: &Workload,
    family: usize,
    algo: &BoxedAlgorithm,
    seed: u64,
    adversary: &AdversaryBuilder,
    arena: &mut Arena,
    tally: &mut Tally,
) -> (Option<RunOutcome>, f64) {
    let fam = w.families[family];
    tally.attempted += 1;
    let start = Instant::now();
    let result = isolated(|| run_public(algo, fam.n, seed, adversary, w.shards, arena));
    let run_s = start.elapsed().as_secs_f64();
    if result.is_err() {
        // A panic may leave the scratch half-updated; start afresh.
        *arena = Arena::new();
    }
    let verdict = match result {
        Ok(Ok((out, m))) => check(w, family, seed, &out, m).map(|()| out),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(format!("panicked: {panic}")),
    };
    let out = verdict
        .map_err(|e| {
            tally.failed += 1;
            eprintln!("stepbench: {} {} n={} seed {seed}: {e}", w.name, fam.key, fam.n);
        })
        .ok();
    (out, run_s)
}

/// Seconds the public builder takes to build one run of `algo` at `n`
/// (every shard's sub-instance, summed). The built memory is dropped
/// outside the timed span.
fn build_seconds(w: &Workload, algo: &BoxedAlgorithm, n: usize, seed: u64) -> f64 {
    fn timed<T>(build: impl FnOnce() -> T) -> f64 {
        let start = Instant::now();
        let built = build();
        let secs = start.elapsed().as_secs_f64();
        drop(built);
        secs
    }
    let map = ShardMap::new(w.shards);
    map.shard_ids()
        .map(|s| {
            let (n_s, seed_s) = (map.shard_len(s, n), shard_seed(seed, s));
            if w.tight {
                timed(|| tight_renaming().instantiate_shared_rng(n_s, seed_s, RngMode::default()))
            } else {
                timed(|| algo.instantiate(n_s, seed_s))
            }
        })
        .sum()
}

/// Resolves every family's algorithm and the workload's adversary.
///
/// # Panics
/// Panics on a key the registries reject — a defect of this benchmark,
/// not of a run.
pub fn resolve(w: &Workload) -> (Vec<BoxedAlgorithm>, AdversaryBuilder) {
    let reg = registry();
    let algos = w
        .families
        .iter()
        .map(|f| reg.build(f.key).unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    let adversary = standard().prepare(w.adversary).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (algos, adversary)
}

/// Median over [`SETUP_SAMPLES`] seeds of the time to build one rep's
/// processes and shared memory, summed over the workload's families.
pub fn setup_seconds(w: &Workload, base: u64) -> f64 {
    let (algos, _) = resolve(w);
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|i| {
            w.families
                .iter()
                .zip(&algos)
                .map(|(f, algo)| build_seconds(w, algo, f.n, base + i))
                .sum()
        })
        .collect();
    median(&samples)
}

/// What one untraced rep measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Steps of the runs that passed their checks.
    pub steps: u64,
    /// Wall time of the per-seed run calls (build included).
    pub run_s: f64,
    /// Wall time of the whole rep: registry lookup, build, run, checks.
    pub wall_s: f64,
}

/// One untraced rep of `w` with `seed`.
pub fn run_rep(w: &Workload, seed: u64, arena: &mut Arena, tally: &mut Tally) -> Rep {
    let start = Instant::now();
    let (algos, adversary) = resolve(w);
    let mut rep = Rep::default();
    for (family, algo) in algos.iter().enumerate() {
        let (out, run_s) = checked_run(w, family, algo, seed, &adversary, arena, tally);
        rep.run_s += run_s;
        rep.steps += out.map_or(0, |o| o.total_steps());
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep
}

/// The end-to-end figures of one invocation. Times and rates are
/// scaled to the reference machine speed by `calibration`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median over reps of steps / run-call seconds.
    pub steps_per_s: f64,
    /// Median rep wall time.
    pub wall_s: f64,
    /// Median build time of one rep.
    pub setup_s: f64,
    /// The factor the raw times were multiplied by (see
    /// [`crate::calibrate`]).
    pub calibration: f64,
    /// Peak resident memory of the process.
    pub peak_rss_mib: f64,
    /// Runs attempted and failed.
    pub tally: Tally,
    /// Reps measured.
    pub reps: usize,
}

/// Measures `w` for about `seconds` of reps starting at seed `base`,
/// after [`setup_seconds`], sampling the calibration suite before the
/// set-up and before every rep. At least one rep always runs.
pub fn end_to_end(w: &Workload, base: u64, seconds: f64) -> EndToEnd {
    let start = Instant::now();
    let mut calibration = Calibration::default();
    calibration.sample();
    let setup_s = setup_seconds(w, base);
    let mut arena = Arena::new();
    let mut tally = Tally::default();
    let (mut rates, mut walls, mut laps) = (Vec::new(), Vec::new(), Vec::new());
    for seed in base.. {
        let lap = Instant::now();
        calibration.sample();
        let rep = run_rep(w, seed, &mut arena, &mut tally);
        eprintln!("stepbench: seed {seed}: run {:.4} s, wall {:.4} s", rep.run_s, rep.wall_s);
        rates.push(ratio(rep.steps as f64, rep.run_s));
        walls.push(rep.wall_s);
        laps.push(lap.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&laps) > seconds {
            break;
        }
    }
    let factor = calibration.factor();
    EndToEnd {
        steps_per_s: median(&rates) / factor,
        wall_s: median(&walls) * factor,
        setup_s: setup_s * factor,
        calibration: factor,
        peak_rss_mib: crate::peak_rss_mib().unwrap_or(0.0),
        tally,
        reps: walls.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;

    #[test]
    fn every_workload_resolves_and_the_typed_builder_is_the_registry_key() {
        for w in &WORKLOADS {
            assert_eq!(resolve(w).0.len(), w.families.len(), "{}", w.name);
            assert_eq!(w.tight, w.families.iter().all(|f| f.key == TIGHT_KEY), "{}", w.name);
        }
        assert_eq!(registry().build(TIGHT_KEY).unwrap().name(), tight_renaming().name());
    }

    #[test]
    fn registry_mix_runs_every_family_once() {
        let mix = find("registry-mix").unwrap();
        let mut names: Vec<&str> =
            mix.families.iter().map(|f| f.key.split(':').next().unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, registry().keys());
    }

    #[test]
    fn a_drifted_total_is_a_failed_run_not_a_crash() {
        // tight-fair's totals are recorded at n = 2^20, so a small run drifts.
        let small = Workload {
            families: &[Family { key: TIGHT_KEY, n: 64 }],
            ..*find("tight-fair").unwrap()
        };
        let (algos, adversary) = resolve(&small);
        let mut tally = Tally::default();
        let (out, _) =
            checked_run(&small, 0, &algos[0], 0, &adversary, &mut Arena::new(), &mut tally);
        assert!(out.is_none());
        assert_eq!(tally, Tally { attempted: 1, failed: 1 });
    }

    #[test]
    fn panics_become_errors() {
        assert_eq!(isolated::<()>(|| panic!("boom")), Err("boom".to_string()));
        assert_eq!(isolated(|| 7), Ok(7));
    }

    #[test]
    fn end_to_end_checks_every_run() {
        let small = Workload {
            name: "small",
            families: &[Family { key: TIGHT_KEY, n: 256 }],
            ..*find("tight-fair-shard2").unwrap()
        };
        let e = end_to_end(&small, 5, 0.01);
        assert!(e.reps >= 1 && e.steps_per_s > 0.0 && e.setup_s > 0.0 && e.wall_s > 0.0);
        assert_eq!(e.tally, Tally { attempted: e.reps as u64, failed: 0 });
    }
}
