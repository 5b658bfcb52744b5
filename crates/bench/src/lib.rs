//! # rr-bench — the experiment harness
//!
//! One binary per quantitative claim of the paper (plus the extensions);
//! see README.md for the experiment tour and REPRODUCTION.md for the
//! claimed-vs-measured verdicts. Every binary parses its command line
//! through [`cli`]: `--help` prints its flags, and a bad argument exits
//! 2 with one `{bin}: {message}` line. The claim binaries accept
//! `--quick` (CI-sized sweeps), `--json <path>` (structured records next
//! to the tables) and `--backend <key>`.
//!
//! | binary | claim |
//! |---|---|
//! | `exp_theorem5` | E1 — Theorem 5: tight renaming in O(log n) w.h.p. |
//! | `exp_lemma3` | E2 — Lemma 3 balls-into-bins tail |
//! | `exp_lemma4` | E3 — Lemma 4 per-round register saturation |
//! | `exp_lemma6` | E4 — Lemma 6 almost-tight renaming |
//! | `exp_cor7` | E5 — Corollary 7 loose renaming |
//! | `exp_lemma8` | E6 — Lemma 8 almost-tight renaming (corrected phases) |
//! | `exp_cor9` | E7 — Corollary 9 loose renaming |
//! | `exp_baselines` | E8 — τ-register vs networks vs loose baselines |
//! | `exp_adversary` | E9 — adaptive adversaries and crashes |
//! | `exp_tau` | E10 — counting-device invariants and batching |
//! | `exp_deterministic_gap` | E11 — deterministic Θ(n) vs randomized |
//! | `exp_adaptive` | E12 — adaptive (unknown k) extension |
//! | `exp_longlived` | E13 — long-lived renaming under churn |
//! | `exp_ablation` | E14 — design-constant ablations |
//! | `exp_progress` | E15 — named-fraction progress curves |
//! | `exp_matrix` | any algorithm × adversary × n, by registry key |
//! | `exp_backends` | one batch raced on `dense`, `shard:s=1` and `shard:s=4` |
//! | `exp_explore` | schedule-space search: exhaustive DFS + fuzz, tape shrinking |
//! | `exp_route` | `route:` switching networks: steps against depth |
//! | `exp_report` | REPRODUCTION.md generator: statistical claim verdicts + SVG charts |
//! | `exp_model` | exhaustive interleaving checker for the lock-free core |
//! | `exp_lint` | source-level determinism lint |
//!
//! Every binary is a thin `main` over the [`scenario`] engine: the
//! experiment itself is a declarative [`scenario::ScenarioSpec`] in
//! [`scenario::specs`], naming algorithms and adversaries by **registry
//! key** and executed by the shared parallel [`runner`] with the safety
//! audit always on.
//!
//! ```
//! use rr_bench::scenario::{
//!     render_to_string, BatchSection, Column, RowSpec, ScenarioSpec, Section,
//! };
//!
//! // An experiment is a declaration; the engine runs and renders it.
//! let spec = ScenarioSpec {
//!     id: "DOC",
//!     claim: "crate doctest",
//!     sections: vec![Section::Batch(BatchSection {
//!         title: None,
//!         columns: vec![
//!             Column::new("n", |ctx| ctx.row.n.to_string()),
//!             Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
//!         ],
//!         rows: vec![RowSpec::new("tight-tau:c=4", "fair", 16, 1)],
//!     })],
//!     claim_check: String::new(),
//!     reproduces: vec![],
//! };
//! assert!(render_to_string(spec).starts_with("=== DOC: crate doctest ==="));
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub mod listing;
pub mod modelcheck;
pub mod runner;
pub mod scenario;
