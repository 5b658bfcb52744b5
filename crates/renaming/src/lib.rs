//! # rr-renaming — the algorithms of Berenbrink et al. (IPDPS 2015)
//!
//! The paper's contributions as runnable protocols:
//!
//! * [`tight`] — §III: tight renaming (`m = n`) with `(log n)`-registers
//!   in `O(log n)` steps w.h.p. (Theorem 5), in both the paper-exact and
//!   the calibrated parameterization (README "Deviations from the
//!   paper", item 1).
//! * [`loose_l6`] — Lemma 6: `n/(log log n)^ℓ`-almost-tight renaming in
//!   `O((log log n)^ℓ)` steps.
//! * [`loose_l8`] — Lemma 8: `n/(log n)^ℓ`-almost-tight renaming in
//!   `2ℓ(log log n)²` steps via geometric clusters.
//! * [`aagw`] — the \[8\]-style finisher for the stragglers.
//! * [`phase`] — [`Chain`]: run a second stage for the processes the
//!   first leaves unnamed.
//! * [`traits`] — Corollaries 7 and 9 as [`Chain`] compositions, plus
//!   the interface: each protocol implements [`RenamingProtocol`] (one
//!   typed `build`) and is thereby a [`RenamingAlgorithm`], the
//!   object-safe face the registry serves.
//! * [`params`] — every parameterization (Definition 2, schedules, spare
//!   sizes) as pure, unit-tested arithmetic.
//! * [`registry`] — string-keyed [`AlgorithmRegistry`] so experiment
//!   drivers build any protocol from a key like `"tight-tau:c=4"`.
//! * [`adaptive`] — the doubling-guess transform the paper sketches for
//!   unknown participant counts (§IV remark).
//! * [`longlived`] — long-lived acquire/release renaming (related work
//!   \[13\] context), on TAS registers with owner release.
//!
//! All protocols, and every stage a composition chains, are
//! [`rr_sched::Process`] state machines: a stage that runs out of budget
//! without a name returns `StepOutcome::GaveUp`. Run them in the
//! adversary-scheduled arena ([`rr_sched::shard::Arena`]) or on
//! free-running threads.
//!
//! ```
//! use rr_renaming::traits::RenamingAlgorithm;
//! use rr_renaming::AlgorithmRegistry;
//!
//! let reg = AlgorithmRegistry::with_paper_algorithms();
//! let algo = reg.build("cor9:l=1").unwrap();
//! assert_eq!(algo.name(), "cor9(l=1)");
//! // Corollary 9's name space is polynomially close to n.
//! let (n, m) = (1024, algo.m(1024));
//! assert!(m > n && m < n + n / 2, "m = {m}");
//! ```

#![forbid(unsafe_code)]

pub mod aagw;
pub mod adaptive;
pub mod longlived;
pub mod loose_l6;
pub mod loose_l8;
pub mod params;
pub mod phase;
pub mod registry;
pub mod tight;
pub mod traits;

pub use aagw::{AagwProcess, SpareShared};
pub use adaptive::{AdaptiveLayout, AdaptiveProcess, AdaptiveRenaming, AdaptiveShared};
pub use longlived::{LongLivedClient, ReleasableTasArray};
pub use loose_l6::{L6Process, LooseShared};
pub use loose_l8::{L8Process, L8Shared};
pub use params::{spare, FinisherPlan, Lemma6Schedule, Lemma8Schedule, TightPlan, TightVariant};
pub use phase::Chain;
pub use registry::{AlgorithmRegistry, BoxedAlgorithm};
pub use tight::{TightProcess, TightRenaming, TightShared};
pub use traits::{
    AagwLoose, Cor7, Cor9, Instance, LooseL6, LooseL8, RenamingAlgorithm, RenamingProtocol,
};
