//! # rr-analysis — probability bounds and statistics for the experiments
//!
//! Pure-math companion crate: the Chernoff inequalities of Lemma 1
//! ([`chernoff`]), the balls-into-bins machinery behind Lemma 3
//! ([`ballsbins`]), summary statistics ([`stats`]), scaling-curve fits
//! and claim verdicts for the reproduction report ([`fit`], [`verdict`])
//! and the aligned table printer every `exp_*` binary uses ([`table`]).
//!
//! Everything is deterministic pure math — no I/O, no wall clock — so
//! any quantity computed here can be byte-pinned by a golden test.
//!
//! ```
//! use rr_analysis::chernoff::upper_tail;
//! use rr_analysis::stats::{norm_log2, Welford};
//!
//! // Step complexities of a 3-seed sweep at n = 1024 …
//! let mut w = Welford::new();
//! for steps in [18.0f64, 21.0, 19.0] {
//!     w.push(steps);
//! }
//! // … normalized by log2 n stay near 2, as Theorem 5 predicts …
//! assert!(norm_log2(w.max(), 1024) < 4.0);
//! // … and the Lemma 1 tail bound at delta = 0.5 is already tiny.
//! assert!(upper_tail(w.mean(), 0.5) < 0.21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ballsbins;
pub mod chernoff;
pub mod fit;
pub mod stats;
pub mod table;
pub mod verdict;

pub use ballsbins::{ceil_log2, floor_log2, lemma3_bound, simulate_lemma3};
pub use fit::{fit_form, fit_power, Fit, PowerFit, ScalingForm};
pub use stats::{
    norm_log2, norm_loglog_sq, per_n, percentile_row, quantile, upper_median, Welford,
};
pub use table::{Align, Table};
pub use verdict::{overall, Check, Verdict};
