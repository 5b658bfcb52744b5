//! # rr-shmem — test-and-set shared-memory substrate
//!
//! The machine model of Berenbrink et al. (IPDPS 2015) is asynchronous
//! CRCW shared memory in which every *name* lives in a **test-and-set
//! (TAS) register**: a register that many processes may test concurrently
//! but that exactly one process can *win*. This crate provides that
//! substrate for the rest of the workspace:
//!
//! * [`tas`] — the [`TasMemory`] trait and [`AtomicTasArray`], its
//!   bit-packed `AtomicU64` implementation: the real lock-free substrate.
//! * [`namespace`] — [`NameSpaceAudit`], an always-on referee that detects
//!   any violation of the renaming safety property (two processes holding
//!   the same name) the moment it happens.
//! * [`rng`] — seed-stable per-process random streams so that experiment
//!   tables are reproducible run-to-run regardless of thread scheduling.
//! * [`intent`] — the vocabulary of *announced accesses*. Algorithms
//!   publish each shared-memory access (including the coin flips that
//!   chose it) before executing it, which is what lets `rr-sched` drive
//!   them under an adaptive adversary that legally "sees" coin flips.
//!
//! Everything here is safe Rust over `std::sync::atomic`; the `Acquire`/
//! `Release` pairs on the TAS words are the only orderings the renaming
//! protocols need (winning a register happens-before any later observation
//! of it being set).
//!
//! ```
//! use rr_shmem::tas::{AtomicTasArray, TasMemory};
//!
//! // Eight names, many contenders: exactly one process wins each TAS
//! // register — the winner-takes-the-name primitive everything builds on.
//! let names = AtomicTasArray::new(8);
//! assert!(names.tas(3), "the first test-and-set wins");
//! assert!(!names.tas(3), "every later attempt loses");
//! assert!(names.is_set(3));
//! assert_eq!(names.count_set(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod atomics;
pub mod intent;
pub mod namespace;
pub mod rng;
pub mod tas;

pub use atomics::AtomicWord;
pub use intent::Access;
pub use namespace::{AuditError, NameSpaceAudit};
pub use rng::{ProcessRng, StreamKey};
pub use tas::{AtomicTasArray, TasMemory};
