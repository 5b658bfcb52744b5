//! Shared machinery for the experiment layer: run an algorithm across
//! seeds under a chosen adversary, collect the renaming-relevant
//! statistics, and fail loudly on any safety violation.

use rr_renaming::traits::RenamingAlgorithm;
use rr_sched::adversary::Adversary;
use rr_sched::registry::{standard, ParsedKey};
use rr_sched::shard::{run_sharded, shard_seed, Arena, ShardRun};
use rr_sched::thread_exec::run_threads_bounded;
use rr_sched::virtual_exec::RunOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Aggregated statistics over a batch of seeded runs.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Per-run step complexity (max steps over processes).
    pub step_complexity: Vec<u64>,
    /// Per-run total steps (work) across all processes.
    pub total_steps: Vec<u64>,
    /// Per-run mean steps per process.
    pub mean_steps: Vec<f64>,
    /// Per-run unnamed (gave-up) counts.
    pub unnamed: Vec<usize>,
    /// Per-run crashed counts.
    pub crashed: Vec<usize>,
    /// Runs whose renaming audit failed (should stay 0).
    pub violations: usize,
    /// Number of runs.
    pub runs: usize,
}

impl BatchStats {
    /// Maximum step complexity over all runs.
    pub fn max_steps(&self) -> u64 {
        self.step_complexity.iter().copied().max().unwrap_or(0)
    }

    /// Mean of per-run step complexities.
    pub fn mean_max_steps(&self) -> f64 {
        if self.step_complexity.is_empty() {
            return 0.0;
        }
        self.step_complexity.iter().sum::<u64>() as f64 / self.step_complexity.len() as f64
    }

    /// Mean of per-run mean steps.
    pub fn mean_mean_steps(&self) -> f64 {
        if self.mean_steps.is_empty() {
            return 0.0;
        }
        self.mean_steps.iter().sum::<f64>() / self.mean_steps.len() as f64
    }

    /// Mean unnamed count.
    pub fn mean_unnamed(&self) -> f64 {
        if self.unnamed.is_empty() {
            return 0.0;
        }
        self.unnamed.iter().sum::<usize>() as f64 / self.unnamed.len() as f64
    }

    /// Max unnamed count.
    pub fn max_unnamed(&self) -> usize {
        self.unnamed.iter().copied().max().unwrap_or(0)
    }

    /// Total crashes over all runs.
    pub fn total_crashed(&self) -> usize {
        self.crashed.iter().sum()
    }

    /// Total work (shared-memory accesses) over all runs — the numerator
    /// of a backend's steps/sec throughput.
    pub fn total_work(&self) -> u64 {
        self.total_steps.iter().sum()
    }

    /// Assembles stats from already-executed outcomes, in order — the
    /// same aggregation the batch runners perform, exposed so tests
    /// (e.g. record/replay equivalence) can compare batches built from
    /// arbitrary adversaries field-for-field.
    pub fn from_outcomes<'a>(outcomes: impl IntoIterator<Item = &'a RunOutcome>, n: usize) -> Self {
        assemble(outcomes.into_iter().map(|out| measure(out, n)).collect())
    }
}

/// Which execution core a batch drives — the `--backend` axis of the
/// experiment layer.
///
/// | key | core | determinism |
/// |---|---|---|
/// | `dense` | flat arena, typed processes, scratch reuse | exact, adversary-scheduled, seed-reproducible |
/// | `threads:t=N` | free-running OS threads (≤ N concurrent) | wall-clock only; safety audited, steps not reproducible; ignores the adversary key |
/// | `shard:s=N` | S independent sub-instances of about n/S processes, one arena and thread each, merged with disjoint name ranges | pure function of `(seed, S)` regardless of thread timing; `s=1` bit-identical to `dense` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The flat arena core with monomorphized process storage and
    /// cross-seed scratch reuse ([`RenamingAlgorithm::run_dense`]
    /// in an [`rr_sched::shard::Arena`]). The default.
    #[default]
    Dense,
    /// Free-running OS threads, at most `t` concurrent
    /// ([`rr_sched::thread_exec::run_threads_bounded`]). No adversary:
    /// scheduling is the machine's. Step counts are real but not
    /// seed-reproducible; renaming safety is still audited.
    Threads {
        /// Max concurrent OS threads.
        t: usize,
    },
    /// Sharded entity-keyed arenas ([`rr_sched::shard::run_sharded`]):
    /// the pid space is partitioned round-robin into `s` shards, and
    /// each shard runs an independent sub-instance of about `n/s`
    /// processes, with its own adversary and a disjoint name range, in
    /// its own arena on its own thread. For `s > 1` that is not one
    /// `n`-process run, so claim scenarios refuse it. The merged
    /// outcome is a pure function of `(seed, s)` — thread scheduling
    /// cannot change it — and `s = 1` is bit-identical to `dense`.
    Shard {
        /// Number of shards (each runs on its own thread).
        s: usize,
    },
}

impl ExecBackend {
    /// Parses a backend key: `dense`, `threads` /
    /// `threads:t=N` (default `t = 8`), or `shard` / `shard:s=N`
    /// (default `s` = the machine's available parallelism), following
    /// the registry key grammar.
    ///
    /// # Errors
    /// Returns a message on unknown names, unknown parameters, `t = 0`,
    /// or `s = 0`.
    pub fn parse(key: &str) -> Result<Self, String> {
        let parsed = ParsedKey::parse(key)?;
        match parsed.name.as_str() {
            "dense" => {
                parsed.check_known(&[])?;
                Ok(ExecBackend::Dense)
            }
            "threads" => {
                parsed.check_known(&["t"])?;
                let t: usize = parsed.get("t", 8)?;
                if t == 0 {
                    return Err("threads backend needs t ≥ 1".into());
                }
                Ok(ExecBackend::Threads { t })
            }
            "shard" => {
                parsed.check_known(&["s"])?;
                let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
                let s: usize = parsed.get("s", cores)?;
                if s == 0 {
                    return Err("shard backend needs s ≥ 1".into());
                }
                Ok(ExecBackend::Shard { s })
            }
            other => {
                Err(format!("unknown backend `{other}` (known: dense, threads:t=N, shard:s=N)"))
            }
        }
    }

    /// Whether this backend can run an `n`-process row: the shard
    /// backend needs at least one process per shard.
    ///
    /// # Errors
    /// `shard backend needs s ≤ n (got s=…, n=…)` when `s > n`.
    pub fn check_n(&self, n: usize) -> Result<(), String> {
        match *self {
            ExecBackend::Shard { s } if s > n => {
                Err(format!("shard backend needs s ≤ n (got s={s}, n={n})"))
            }
            _ => Ok(()),
        }
    }

    /// The canonical key this backend parses back from.
    pub fn key(&self) -> String {
        match self {
            ExecBackend::Dense => "dense".into(),
            ExecBackend::Threads { t } => format!("threads:t={t}"),
            ExecBackend::Shard { s } => format!("shard:s={s}"),
        }
    }
}

/// Wall-clock measurements of one batch — what the throughput records in
/// `BENCH_scenarios.json` track per backend.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Wall-clock seconds for the whole batch (instantiation included —
    /// that cost is part of running a seed).
    pub wall_secs: f64,
    /// Seeds executed.
    pub runs: u64,
    /// Total shared-memory accesses across all runs.
    pub steps: u64,
}

impl BatchTiming {
    /// Completed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.runs as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }

    /// Executed steps per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.steps as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Runs `algo` at size `n` once with `seed` on `backend`.
///
/// `adversary` schedules the `dense` backend; the
/// `threads` backend is free-running (the machine schedules) and ignores
/// it. `arena` is the executor's reusable scratch — pass the same one
/// across seeds to amortize its buffers. The shard backend builds one
/// adversary per shard, so it runs through [`run_once_sharded`].
///
/// # Panics
/// Panics on the shard backend, executor errors or renaming-safety
/// violations (these are bugs, not data).
pub fn run_once(
    algo: &dyn RenamingAlgorithm,
    n: usize,
    seed: u64,
    backend: ExecBackend,
    adversary: &mut dyn Adversary,
    arena: &mut Arena,
) -> RunOutcome {
    let out = match backend {
        ExecBackend::Dense => algo.run_dense(n, seed, adversary, arena),
        ExecBackend::Threads { t } => {
            let processes = algo.instantiate(n, seed).processes;
            Ok(run_threads_bounded(processes, t, algo.step_budget(n)))
        }
        ExecBackend::Shard { .. } => panic!(
            "the shard backend builds one adversary per shard and cannot reuse a single \
             `&mut dyn Adversary`; drive it through `BatchRun` or `run_once_sharded`"
        ),
    }
    .unwrap_or_else(|e| panic!("{} at n={n}, seed {seed}: {e}", algo.name()));
    if let Err(v) = out.verify_renaming(algo.m(n)) {
        panic!("{} violated renaming safety at n={n}, seed {seed}: {v}", algo.name());
    }
    out
}

/// Runs `algo` at size `n` once with `seed` as `shards` independent
/// shard sub-instances (the `shard:s=N` backend).
///
/// Shard `s` runs `algo` at its sub-size `n_s` (round-robin partition
/// of the pid space) with a fresh adversary from
/// `build_adv(n_s, shard_seed(seed, s))` that sees only its own shard.
/// Shard name spaces are offset-disjoint, so the merged run renames into
/// `m_total = Σ m(n_s)` names and is verified against that bound. The
/// outcome is a pure function of `(seed, shards)`; with `shards = 1` it
/// is bit-identical to the `dense` backend.
///
/// # Panics
/// Panics on `shards = 0`, `shards > n`, executor errors, or
/// renaming-safety violations.
pub fn run_once_sharded(
    algo: &(dyn RenamingAlgorithm + Sync),
    n: usize,
    seed: u64,
    build_adv: &(dyn Fn(usize, u64) -> Box<dyn Adversary> + Sync),
    shards: usize,
) -> RunOutcome {
    assert!(shards >= 1, "shard backend needs s ≥ 1");
    assert!(shards <= n, "shard backend needs s ≤ n (got s={shards}, n={n})");
    let (out, m_total) = run_sharded(n, shards, 0, |s, n_s, _ctx| {
        let sub_seed = shard_seed(seed, s);
        let mut adversary = build_adv(n_s, sub_seed);
        algo.run_dense(n_s, sub_seed, adversary.as_mut(), &mut Arena::new())
            .map(|outcome| ShardRun { outcome, m: algo.m(n_s) })
    })
    .unwrap_or_else(|e| panic!("{} at n={n}, seed {seed}, shard:s={shards}: {e}", algo.name()));
    if let Err(v) = out.verify_renaming(m_total) {
        panic!(
            "{} violated renaming safety at n={n}, seed {seed}, shard:s={shards}: {v}",
            algo.name()
        );
    }
    out
}

/// Per-seed measurements in the order [`BatchStats`] stores them.
type SeedRow = (u64, u64, f64, usize, usize);

fn measure(out: &RunOutcome, n: usize) -> SeedRow {
    (
        out.step_complexity(),
        out.total_steps(),
        out.total_steps() as f64 / n as f64,
        out.gave_up_count(),
        out.crashed.iter().filter(|&&c| c).count(),
    )
}

fn assemble(rows: Vec<SeedRow>) -> BatchStats {
    let mut stats = BatchStats {
        step_complexity: Vec::with_capacity(rows.len()),
        total_steps: Vec::with_capacity(rows.len()),
        mean_steps: Vec::with_capacity(rows.len()),
        unnamed: Vec::with_capacity(rows.len()),
        crashed: Vec::with_capacity(rows.len()),
        violations: 0,
        runs: rows.len(),
    };
    for (steps, total, mean, unnamed, crashed) in rows {
        stats.step_complexity.push(steps);
        stats.total_steps.push(total);
        stats.mean_steps.push(mean);
        stats.unnamed.push(unnamed);
        stats.crashed.push(crashed);
    }
    stats
}

/// The one batch entry point: a builder describing a seed sweep of one
/// algorithm at one size, with the adversary, execution backend and
/// worker count as optional axes.
///
/// Replaces the old `run_batch` / `run_batch_serial` /
/// `run_batch_keyed` / `run_batch_backend` function family:
///
/// ```
/// use rr_bench::runner::{BatchRun, ExecBackend};
/// use rr_renaming::TightRenaming;
///
/// let algo = TightRenaming::calibrated(4);
/// let (stats, timing) = BatchRun::new(&algo, 64)
///     .seeds(3)
///     .adversary("crash:p=200,cap=25")
///     .backend(ExecBackend::Dense)
///     .workers(2)
///     .run()
///     .unwrap();
/// assert_eq!(stats.runs, 3);
/// assert_eq!(timing.runs, 3);
/// ```
///
/// Every seed's run is deterministic in isolation (instantiation, coin
/// flips and the adversary all derive from `(seed, pid)` streams), so
/// seeds are farmed out to scoped worker threads via an atomic
/// work-stealing counter and the rows are re-assembled **in seed
/// order** — the resulting [`BatchStats`] is bit-identical for every
/// worker count (`workers(1)` is the serial reference path).
#[must_use = "a BatchRun does nothing until .run()"]
pub struct BatchRun<'a> {
    algo: &'a (dyn RenamingAlgorithm + Sync),
    n: usize,
    seeds: u64,
    adversary: String,
    backend: ExecBackend,
    workers: usize,
}

impl<'a> BatchRun<'a> {
    /// A batch of `algo` at size `n`. Defaults: 1 seed, the `fair`
    /// adversary, the `dense` backend, and `RR_RUNNER_THREADS` (else
    /// available parallelism) workers.
    pub fn new(algo: &'a (dyn RenamingAlgorithm + Sync), n: usize) -> Self {
        Self {
            algo,
            n,
            seeds: 1,
            adversary: "fair".into(),
            backend: ExecBackend::default(),
            workers: runner_threads(),
        }
    }

    /// Seeds `0..seeds` to sweep.
    pub fn seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }

    /// Adversary registry key (`"fair"`, `"crash:p=200,cap=25"`, …);
    /// validated at [`BatchRun::run`] time.
    pub fn adversary(mut self, key: impl Into<String>) -> Self {
        self.adversary = key.into();
        self
    }

    /// Execution backend (default [`ExecBackend::Dense`]).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Worker threads for the seed sweep; `workers ≤ 1` runs serially
    /// on the caller's thread. Output is bit-identical either way.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Executes the batch: aggregated [`BatchStats`] plus the batch's
    /// wall-clock [`BatchTiming`].
    ///
    /// The `dense` backend gives each worker one [`Arena`] reused
    /// across all of its seeds; `dense` and `shard:s=1` produce
    /// bit-identical [`BatchStats`]; `shard:s=K` is a pure
    /// function of `(seed, K)`; `threads` ignores the adversary
    /// (free-running) and its step counts are wall-clock truths, not
    /// seed-reproducible data.
    ///
    /// # Errors
    /// Returns a message when the adversary key names no registered
    /// adversary or its parameters fail validation, or when the shard
    /// backend's `s` exceeds `n`. The runs themselves panic on safety
    /// violations (those are bugs, not data).
    pub fn run(self) -> Result<(BatchStats, BatchTiming), String> {
        self.backend.check_n(self.n)?;
        let builder = standard().prepare(&self.adversary)?;
        let start = Instant::now();
        let stats = run_batch_core(
            self.algo,
            self.n,
            self.seeds,
            &move |n, seed| builder(n, seed),
            self.workers,
            self.backend,
        );
        let timing = BatchTiming {
            wall_secs: start.elapsed().as_secs_f64(),
            runs: self.seeds,
            steps: stats.total_work(),
        };
        Ok((stats, timing))
    }

    /// [`BatchRun::run`], keeping only the stats — for callers that
    /// don't track throughput.
    ///
    /// # Errors
    /// Same conditions as [`BatchRun::run`].
    pub fn stats(self) -> Result<BatchStats, String> {
        Ok(self.run()?.0)
    }
}

/// The shared batch executor: farms seeds to scoped workers, building a
/// fresh adversary per seed via `build_adv`, and re-assembles rows in
/// seed order. Each worker owns one dense-backend [`Arena`] for its
/// whole seed range.
fn run_batch_core(
    algo: &(dyn RenamingAlgorithm + Sync),
    n: usize,
    seeds: u64,
    build_adv: &(dyn Fn(usize, u64) -> Box<dyn Adversary> + Sync),
    workers: usize,
    backend: ExecBackend,
) -> BatchStats {
    let run_seed = |seed: u64, arena: &mut Arena| {
        let out = match backend {
            ExecBackend::Shard { s } => run_once_sharded(algo, n, seed, build_adv, s),
            _ => run_once(algo, n, seed, backend, build_adv(n, seed).as_mut(), arena),
        };
        measure(&out, n)
    };
    let workers = workers.min(seeds as usize);
    if workers <= 1 {
        let mut arena = Arena::new();
        return assemble((0..seeds).map(|seed| run_seed(seed, &mut arena)).collect());
    }
    let next_seed = AtomicU64::new(0);
    let mut rows: Vec<Option<SeedRow>> = vec![None; seeds as usize];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next_seed = &next_seed;
                let run_seed = &run_seed;
                scope.spawn(move || {
                    let mut arena = Arena::new();
                    let mut local: Vec<(u64, SeedRow)> = Vec::new();
                    loop {
                        let seed = next_seed.fetch_add(1, Ordering::Relaxed);
                        if seed >= seeds {
                            break;
                        }
                        local.push((seed, run_seed(seed, &mut arena)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (seed, row) in handle.join().expect("runner worker panicked") {
                rows[seed as usize] = Some(row);
            }
        }
    });
    assemble(rows.into_iter().map(|r| r.expect("every seed claimed exactly once")).collect())
}

/// Worker-thread count for [`BatchRun`]: `RR_RUNNER_THREADS` when set
/// to a positive integer, else the machine's available parallelism.
pub fn runner_threads() -> usize {
    parse_threads(std::env::var("RR_RUNNER_THREADS").ok().as_deref())
}

fn parse_threads(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The experiment layer's environment, read **once** per binary: the
/// single home of every knob that used to be re-implemented per binary
/// (`--quick` parsing, seed scaling, `RR_RUNNER_THREADS`).
///
/// | knob | source | effect |
/// |---|---|---|
/// | `quick` | `--quick` CLI flag | shrink sweeps so CI finishes in seconds |
/// | `threads` | `RR_RUNNER_THREADS` env (else available parallelism) | [`BatchRun`] worker count |
/// | `json_path` | `--json <path>` CLI flag | also write structured records (see `scenario::sink`) |
/// | `backend` | `--backend <key>` CLI flag | execution core (`dense` (default) \| `threads:t=N` \| `shard:s=N`) |
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// CI-sized sweeps when set (the `--quick` flag).
    pub quick: bool,
    /// Worker threads for seed-parallel batches.
    pub threads: usize,
    /// Where to write the JSON-lines record stream, if anywhere.
    pub json_path: Option<std::path::PathBuf>,
    /// Which execution core batch sections run on.
    pub backend: ExecBackend,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: false,
            threads: parse_threads(None),
            json_path: None,
            backend: ExecBackend::default(),
        }
    }
}

impl RunConfig {
    /// Reads the process's CLI arguments and environment.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1), std::env::var("RR_RUNNER_THREADS").ok())
    }

    /// Testable core of [`RunConfig::from_env`]: `--quick`,
    /// `--json <path>` and `--backend <key>` are recognized, anything
    /// else is ignored (the experiment binaries have always tolerated
    /// stray arguments). A `--json` or `--backend` without a value, an
    /// invalid backend key, or the removed `--rng` flag exits with a
    /// friendly message (code 2) — the flag is user input, not
    /// programmer error.
    pub fn from_args(args: impl IntoIterator<Item = String>, threads_env: Option<String>) -> Self {
        let mut cfg = Self {
            quick: false,
            threads: parse_threads(threads_env.as_deref()),
            json_path: None,
            backend: ExecBackend::default(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            // A following `--flag` is not a value: reject it rather than
            // swallow it or silently fall back to the default.
            let mut value = |flag: &str| {
                args.next().filter(|v| !v.starts_with("--")).unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--json" => cfg.json_path = Some(value("--json").into()),
                "--backend" => {
                    let key = value("--backend");
                    cfg.backend = ExecBackend::parse(&key).unwrap_or_else(|e| {
                        eprintln!("--backend {key}: {e}");
                        std::process::exit(2);
                    });
                }
                // Rejected rather than ignored, so that a script asking
                // for another generator cannot silently run ChaCha8.
                "--rng" => {
                    eprintln!("--rng: RNG modes were removed; every process draws from ChaCha8");
                    std::process::exit(2);
                }
                _ => {}
            }
        }
        cfg
    }

    /// Picks the full or the `--quick` variant of a sweep parameter.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Seeds per configuration, scaled down for the largest sizes so a
    /// full sweep stays in laptop territory (the variance of the measured
    /// quantities also shrinks with n, so fewer seeds lose little).
    pub fn seeds_for(&self, n: usize, base: u64) -> u64 {
        if n >= 1 << 20 {
            (base / 6).max(3)
        } else if n >= 1 << 18 {
            (base / 3).max(5)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::LooseL6;
    use rr_renaming::TightRenaming;

    #[test]
    fn batch_runs_and_aggregates() {
        let stats = BatchRun::new(&TightRenaming::calibrated(4), 64).seeds(3).stats().unwrap();
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.violations, 0);
        assert!(stats.max_steps() > 0);
        assert!(stats.mean_max_steps() > 0.0);
        assert_eq!(stats.max_unnamed(), 0);
    }

    #[test]
    fn almost_tight_batch_counts_unnamed() {
        let stats =
            BatchRun::new(&LooseL6 { ell: 1 }, 256).seeds(2).adversary("random").stats().unwrap();
        assert!(stats.mean_unnamed() > 0.0, "L6 should leave someone unnamed at n=256");
    }

    #[test]
    fn crash_schedule_counts_crashes() {
        let stats = BatchRun::new(&TightRenaming::calibrated(4), 64)
            .seeds(2)
            .adversary("crash:p=500,cap=20")
            .stats()
            .unwrap();
        assert!(stats.crashed.iter().any(|&c| c > 0));
        assert!(stats.total_crashed() > 0);
    }

    /// The tentpole guarantee: the parallel runner's output is
    /// bit-identical to the serial reference, per field, for every
    /// schedule (f64s compared by bits, not tolerance).
    #[test]
    fn parallel_batch_bit_identical_to_serial() {
        let algo = TightRenaming::calibrated(4);
        for key in ["fair", "random", "collisions", "stall", "crash:p=200,cap=25"] {
            let serial =
                BatchRun::new(&algo, 96).seeds(8).adversary(key).workers(1).stats().unwrap();
            // Force real threading: the default worker count would fall
            // back to serial on single-core CI machines.
            let parallel =
                BatchRun::new(&algo, 96).seeds(8).adversary(key).workers(4).stats().unwrap();
            assert_eq!(serial.step_complexity, parallel.step_complexity, "{key}");
            assert_eq!(serial.unnamed, parallel.unnamed, "{key}");
            assert_eq!(serial.crashed, parallel.crashed, "{key}");
            assert_eq!(serial.runs, parallel.runs, "{key}");
            assert_eq!(serial.violations, parallel.violations, "{key}");
            let serial_bits: Vec<u64> = serial.mean_steps.iter().map(|f| f.to_bits()).collect();
            let parallel_bits: Vec<u64> = parallel.mean_steps.iter().map(|f| f.to_bits()).collect();
            assert_eq!(serial_bits, parallel_bits, "{key}");
        }
    }

    #[test]
    fn keyed_batch_rejects_unknown_keys() {
        let algo = TightRenaming::calibrated(4);
        assert!(BatchRun::new(&algo, 16).adversary("livelock").stats().is_err());
        assert!(BatchRun::new(&algo, 16).adversary("crash:p=nope").stats().is_err());
    }

    #[test]
    fn single_seed_batch_falls_back_to_serial() {
        let stats = BatchRun::new(&TightRenaming::calibrated(4), 64).stats().unwrap();
        assert_eq!(stats.runs, 1);
    }

    #[test]
    fn backend_keys_round_trip_and_validate() {
        for (key, backend) in [
            ("dense", ExecBackend::Dense),
            ("threads", ExecBackend::Threads { t: 8 }),
            ("threads:t=4", ExecBackend::Threads { t: 4 }),
            ("shard:s=4", ExecBackend::Shard { s: 4 }),
            ("shard:s=1", ExecBackend::Shard { s: 1 }),
        ] {
            assert_eq!(ExecBackend::parse(key).unwrap(), backend, "{key}");
            assert_eq!(ExecBackend::parse(&backend.key()).unwrap(), backend);
        }
        // Bare `shard` defaults s to the machine's core count — whatever
        // that is here, it is at least 1 and round-trips.
        let ExecBackend::Shard { s } = ExecBackend::parse("shard").unwrap() else {
            panic!("bare `shard` must parse to the shard backend");
        };
        assert!(s >= 1);
        assert_eq!(ExecBackend::default(), ExecBackend::Dense);
        assert!(ExecBackend::parse("gpu").is_err());
        assert!(ExecBackend::parse("dense:t=2").is_err());
        assert!(ExecBackend::parse("threads:t=0").is_err());
        assert!(ExecBackend::parse("threads:x=1").is_err());
        assert!(ExecBackend::parse("shard:s=0").is_err());
        assert!(ExecBackend::parse("shard:x=1").is_err());
    }

    /// The dense backend reuses one arena across every seed of a worker
    /// and must still be bit-identical, per field, to the virtual path:
    /// each seed's boxed processes run alone on a fresh arena.
    #[test]
    fn dense_backend_bit_identical_to_virtual() {
        let algo = TightRenaming::calibrated(4);
        for key in ["fair", "random", "collisions", "stall", "crash:p=200,cap=25"] {
            let outs: Vec<RunOutcome> = (0..6)
                .map(|seed| {
                    let mut adv = standard().build(key, 96, seed).unwrap();
                    let mut processes = algo.instantiate(96, seed).processes;
                    Arena::new()
                        .run(
                            &mut processes,
                            adv.as_mut(),
                            RenamingAlgorithm::step_budget(&algo, 96),
                        )
                        .unwrap()
                })
                .collect();
            let virt = BatchStats::from_outcomes(&outs, 96);
            let dense = BatchRun::new(&algo, 96)
                .seeds(6)
                .adversary(key)
                .backend(ExecBackend::Dense)
                .workers(2)
                .stats()
                .unwrap();
            assert_eq!(virt.step_complexity, dense.step_complexity, "{key}");
            assert_eq!(virt.total_steps, dense.total_steps, "{key}");
            assert_eq!(virt.unnamed, dense.unnamed, "{key}");
            assert_eq!(virt.crashed, dense.crashed, "{key}");
            let vb: Vec<u64> = virt.mean_steps.iter().map(|f| f.to_bits()).collect();
            let db: Vec<u64> = dense.mean_steps.iter().map(|f| f.to_bits()).collect();
            assert_eq!(vb, db, "{key}");
        }
    }

    /// A single shard is the degenerate partition: `shard_seed(seed, 0)`
    /// is the identity and the partition maps every pid to itself, so
    /// `shard:s=1` must reproduce the dense backend bit for bit.
    #[test]
    fn shard_backend_with_one_shard_bit_identical_to_dense() {
        let algo = TightRenaming::calibrated(4);
        for key in ["fair", "random", "crash:p=200,cap=25"] {
            let run = |backend| {
                BatchRun::new(&algo, 96).seeds(4).adversary(key).backend(backend).stats().unwrap()
            };
            let dense = run(ExecBackend::Dense);
            let shard = run(ExecBackend::Shard { s: 1 });
            assert_eq!(dense.step_complexity, shard.step_complexity, "{key}");
            assert_eq!(dense.total_steps, shard.total_steps, "{key}");
            assert_eq!(dense.unnamed, shard.unnamed, "{key}");
            assert_eq!(dense.crashed, shard.crashed, "{key}");
        }
    }

    /// `shard:s=K` is a pure function of (seed, K): repeated runs and
    /// different worker counts give bit-identical stats.
    #[test]
    fn shard_backend_deterministic_across_workers() {
        let algo = TightRenaming::calibrated(4);
        let run = |workers| {
            BatchRun::new(&algo, 96)
                .seeds(4)
                .adversary("random")
                .backend(ExecBackend::Shard { s: 4 })
                .workers(workers)
                .stats()
                .unwrap()
        };
        let a = run(1);
        let b = run(1);
        let c = run(4);
        for other in [&b, &c] {
            assert_eq!(a.step_complexity, other.step_complexity);
            assert_eq!(a.total_steps, other.total_steps);
            assert_eq!(a.unnamed, other.unnamed);
            assert_eq!(a.crashed, other.crashed);
            let ab: Vec<u64> = a.mean_steps.iter().map(|f| f.to_bits()).collect();
            let ob: Vec<u64> = other.mean_steps.iter().map(|f| f.to_bits()).collect();
            assert_eq!(ab, ob);
        }
    }

    #[test]
    fn shard_backend_rejects_more_shards_than_processes() {
        let algo = TightRenaming::calibrated(4);
        let err =
            BatchRun::new(&algo, 16).backend(ExecBackend::Shard { s: 32 }).stats().unwrap_err();
        assert_eq!(err, "shard backend needs s ≤ n (got s=32, n=16)");
    }

    #[test]
    fn threads_backend_renames_and_reports_timing() {
        let algo = TightRenaming::calibrated(4);
        let (stats, timing) = BatchRun::new(&algo, 48)
            .seeds(2)
            .backend(ExecBackend::Threads { t: 4 })
            .workers(1)
            .run()
            .unwrap();
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.violations, 0);
        assert_eq!(timing.runs, 2);
        assert_eq!(timing.steps, stats.total_work());
        assert!(timing.wall_secs >= 0.0);
        assert!(timing.runs_per_sec() > 0.0);
        assert!(timing.steps_per_sec() > 0.0);
    }

    #[test]
    fn total_steps_consistent_with_mean() {
        let stats = BatchRun::new(&TightRenaming::calibrated(4), 64).seeds(3).stats().unwrap();
        for (total, mean) in stats.total_steps.iter().zip(&stats.mean_steps) {
            assert_eq!((*total as f64 / 64.0).to_bits(), mean.to_bits());
        }
        assert_eq!(stats.total_work(), stats.total_steps.iter().sum::<u64>());
    }

    #[test]
    fn run_config_parses_args_and_env() {
        let cfg = RunConfig::from_args(
            ["--quick", "--json", "out.json", "extra"].map(String::from),
            Some("3".into()),
        );
        assert!(cfg.quick);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.json_path.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(cfg.pick(10, 2), 2);

        let cfg = RunConfig::from_args(std::iter::empty(), Some("0".into()));
        assert!(!cfg.quick);
        assert!(cfg.threads >= 1, "zero threads must fall back to parallelism");
        assert!(cfg.json_path.is_none());
        assert_eq!(cfg.pick(10, 2), 10);

        // `--backend` selects the execution core; default is dense.
        assert_eq!(cfg.backend, ExecBackend::Dense);
        let cfg = RunConfig::from_args(["--backend", "dense"].map(String::from), None);
        assert_eq!(cfg.backend, ExecBackend::Dense);
        let cfg = RunConfig::from_args(["--backend", "threads:t=3"].map(String::from), None);
        assert_eq!(cfg.backend, ExecBackend::Threads { t: 3 });
        let cfg = RunConfig::from_args(["--backend", "shard:s=2"].map(String::from), None);
        assert_eq!(cfg.backend, ExecBackend::Shard { s: 2 });
    }

    /// The `RngMode` marker that `instantiate_shared_rng` still takes
    /// selects nothing: processes built through it run bit-identically
    /// to a batch that never mentions a mode.
    #[test]
    fn default_rng_mode_is_bit_identical_to_unset() {
        use rr_shmem::rng::RngMode;
        let algo = TightRenaming::calibrated(4);
        let outs: Vec<_> = (0..3)
            .map(|seed| {
                let (_s, mut procs) = algo.instantiate_shared_rng(96, seed, RngMode::default());
                let mut fair = standard().build("fair", 96, seed).unwrap();
                Arena::new().run(&mut procs, fair.as_mut(), algo.step_budget(96)).unwrap()
            })
            .collect();
        let explicit = BatchStats::from_outcomes(&outs, 96);
        let plain = BatchRun::new(&algo, 96).seeds(3).workers(1).stats().unwrap();
        assert_eq!(plain.step_complexity, explicit.step_complexity);
        assert_eq!(plain.total_steps, explicit.total_steps);
        assert_eq!(plain.unnamed, explicit.unnamed);
    }

    #[test]
    fn seed_scaling_matches_documented_tiers() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.seeds_for(1 << 10, 30), 30);
        assert_eq!(cfg.seeds_for(1 << 18, 30), 10);
        assert_eq!(cfg.seeds_for(1 << 20, 30), 5);
        assert_eq!(cfg.seeds_for(1 << 20, 6), 3);
    }

    #[test]
    fn from_outcomes_matches_batch_aggregation() {
        let algo = TightRenaming::calibrated(4);
        let mut arena = Arena::new();
        let outs: Vec<_> = (0..3)
            .map(|seed| {
                let mut fair = standard().build("fair", 64, seed).unwrap();
                run_once(&algo, 64, seed, ExecBackend::Dense, fair.as_mut(), &mut arena)
            })
            .collect();
        let manual = BatchStats::from_outcomes(&outs, 64);
        let batch = BatchRun::new(&algo, 64).seeds(3).workers(1).stats().unwrap();
        assert_eq!(manual.step_complexity, batch.step_complexity);
        assert_eq!(manual.unnamed, batch.unnamed);
        assert_eq!(manual.crashed, batch.crashed);
        assert_eq!(manual.runs, batch.runs);
    }
}
