//! The experiment catalogue: every `exp_*` binary as a declarative
//! [`ScenarioSpec`] constructor.
//!
//! | spec | binary | claim |
//! |---|---|---|
//! | [`theorem5`] | `exp_theorem5` | E1 — Theorem 5 tight renaming |
//! | [`lemma3`] | `exp_lemma3` | E2 — balls-into-bins tail |
//! | [`lemma4`] | `exp_lemma4` | E3 — per-round register saturation |
//! | [`lemma6`] | `exp_lemma6` | E4 — Lemma 6 almost-tight renaming |
//! | [`cor7`] | `exp_cor7` | E5 — Corollary 7 loose renaming |
//! | [`lemma8`] | `exp_lemma8` | E6 — Lemma 8 almost-tight renaming |
//! | [`cor9`] | `exp_cor9` | E7 — Corollary 9 loose renaming |
//! | [`baselines`] | `exp_baselines` | E8 — comparison landscape |
//! | [`adversary`] | `exp_adversary` | E9 — adversaries and crashes |
//! | [`tau`] | `exp_tau` | E10 — counting-device invariants |
//! | [`deterministic_gap`] | `exp_deterministic_gap` | E11 — Θ(n) vs randomized |
//! | [`adaptive`] | `exp_adaptive` | E12 — unknown-k extension |
//! | [`longlived`] | `exp_longlived` | E13 — long-lived churn |
//! | [`ablation`] | `exp_ablation` | E14 — design-constant ablations |
//! | [`progress`] | `exp_progress` | E15 — named-fraction curves |
//! | [`matrix`] | `exp_matrix` | algorithm × adversary × n cross-product |
//! | [`backends`] | `exp_backends` | execution-backend shoot-out (dense vs shard, timed) |
//! | [`explore`] | `exp_explore` | schedule-space search: exhaustive DFS + fuzz, tape shrinking |
//! | [`route`] | `exp_route` | topology-routed renaming: steps vs switching-network depth |
//!
//! Each constructor takes the [`RunConfig`]
//! and returns the spec with `--quick`-appropriate sweeps baked in; the
//! engine's golden tests pin the rendered output of E1 and E7
//! byte-for-byte against the pre-engine binaries.

mod backends;
mod claims;
mod compare;
mod explore;
mod matrix;
mod micro;
mod route;

pub use backends::{backends, BackendsOptions, RACED};
pub use claims::{cor7, cor9, lemma6, lemma8, theorem5};
pub use compare::{adversary, baselines, deterministic_gap, progress};
pub use explore::{explore, ExploreOptions};
pub use matrix::{matrix, MatrixOptions};
pub use micro::{ablation, adaptive, lemma3, lemma4, longlived, tau};
pub use route::{route, RouteOptions};

use super::ScenarioSpec;
use crate::runner::RunConfig;

/// Every fixed-shape experiment spec (E1–E15), built for `cfg` — the
/// catalogue `exp_report` filters by [`ScenarioSpec::reproduces`] to
/// find the claim-bearing tiers it must re-run. The option-driven
/// scenarios (`matrix`, `backends`, `explore`, `route`) are not listed:
/// they take extra CLI state and reproduce no numbered claim.
pub fn catalogue(cfg: &RunConfig) -> Vec<ScenarioSpec> {
    vec![
        theorem5(cfg),
        lemma3(cfg),
        lemma4(cfg),
        lemma6(cfg),
        cor7(cfg),
        lemma8(cfg),
        cor9(cfg),
        baselines(cfg),
        adversary(cfg),
        tau(cfg),
        deterministic_gap(cfg),
        adaptive(cfg),
        longlived(cfg),
        ablation(cfg),
        progress(cfg),
    ]
}
