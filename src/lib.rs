//! # randomized-renaming — umbrella crate
//!
//! One-stop re-export of the whole workspace reproducing *Berenbrink,
//! Brinkmann, Elsässer, Friedetzky, Nagel: "Randomized Renaming in
//! Shared Memory Systems" (IPDPS 2015)*. See README.md for the tour
//! and the workspace map, and REPRODUCTION.md for the claim-by-claim
//! verdicts measured against the paper.
//!
//! ```
//! use randomized_renaming::renaming::traits::{Cor9, RenamingAlgorithm};
//! use randomized_renaming::sched::adversary::FairAdversary;
//! use randomized_renaming::sched::shard::Arena;
//!
//! // Corollary 9: loose renaming into n + 2n/log n names.
//! let algo = Cor9 { ell: 1 };
//! let out = algo.run_dense(256, 42, &mut FairAdversary::default(), &mut Arena::new()).unwrap();
//! out.verify_renaming(algo.m(256)).unwrap();
//! assert_eq!(out.gave_up_count(), 0);
//! ```

#![forbid(unsafe_code)]

pub use rr_analysis as analysis;
pub use rr_baselines as baselines;
pub use rr_renaming as renaming;
pub use rr_report as report;
pub use rr_sched as sched;
pub use rr_shmem as shmem;
pub use rr_tau as tau;
