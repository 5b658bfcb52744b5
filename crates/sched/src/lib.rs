//! # rr-sched — execution model and adaptive adversaries
//!
//! Implements the machine model of §II-A: asynchronous processes over
//! shared TAS memory, scheduled (and crashed) by an **adaptive adversary**
//! that sees every process's state including coin flips.
//!
//! Algorithms are [`Process`] state machines (announce an access, then
//! execute it). Two executors:
//!
//! * [`shard`] — the flat arena core ([`Arena::run`]: struct-of-arrays
//!   process state, scratch buffers reused across seeds, monomorphized
//!   announce/step dispatch for typed process slices, and the same loop
//!   for `Box<dyn Process>` slices) plus the sharded engine that runs
//!   S independent sub-instances of about n/S processes, one per
//!   thread, and merges them into one outcome with disjoint name
//!   ranges. The arena is the paper's model: single-threaded,
//!   adversary-in-the-loop, exact step counts, deterministic. Every
//!   adversary-scheduled run in the workspace executes this loop, and
//!   [`virtual_exec`] holds what it returns ([`RunOutcome`],
//!   [`ExecError`]). All pid-indexed tables are typed
//!   [`ids::EntityVec`]s keyed by [`ids::Pid`]; per-process lifecycle
//!   state is word-packed in [`bits`]
//!   ([`bits::StatusBitmap`]) so the runnable set is scanned
//!   word-at-a-time and adversary decisions apply in macro-step
//!   batches.
//! * [`thread_exec`] — one OS thread per process on real atomics, for
//!   wall-clock benchmarks.
//!
//! Adversary strategies live in [`adversary`]: fair round-robin, seeded
//! random, collision maximization (exploits coin-flip visibility), stall
//! -winners, and a crash-injecting wrapper. [`explore`] searches the
//! schedule space systematically — bounded exhaustive DFS, a
//! coverage-guided schedule fuzzer, and ddmin tape shrinking for minimal
//! counterexamples. The [`registry`] names each strategy once so drivers
//! can build any of them from a string key (`"fair"`,
//! `"crash:p=20,cap=10"`, `"lookahead:k=4"`, …) instead of re-matching
//! enums.
//!
//! ```
//! use rr_sched::adversary::Adversary;
//! use rr_sched::registry::{standard, ParsedKey};
//!
//! // Every adversary builds from a string key through one registry.
//! let key = ParsedKey::parse("crash:p=200,cap=25").unwrap();
//! assert_eq!(key.name, "crash");
//! let adversary = standard().build("crash:p=200,cap=25", 16, 7).unwrap();
//! assert!(!adversary.name().is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod bits;
pub mod explore;
pub mod ids;
pub mod model;
pub mod process;
pub mod registry;
pub mod replay;
pub mod shard;
pub mod thread_exec;
pub mod virtual_exec;

pub use adversary::{
    Adversary, CollisionMaximizer, CrashAdversary, Decision, FairAdversary, RandomAdversary,
    RunView, StallWinners, ViewFixture,
};
pub use bits::{SlotSnapshot, Status, StatusBitmap};
pub use explore::{
    interleaving_signature, shrink_tape, Counterexample, ExhaustiveExplorer, ExploreReport,
    FuzzExplorer, FuzzReport, GuidedAdversary, MutatingReplay, Odometer, TolerantReplay,
};
pub use ids::{EntityVec, LocalIdx, Pid, ShardId, ShardMap};
pub use model::{ModelReport, ModelRun, ModelTrace, TracedWord};
pub use process::{run_to_completion, Process, StepOutcome};
pub use registry::{AdversaryBuilder, AdversaryRegistry, ParsedKey};
pub use replay::{RecordingAdversary, ReplayAdversary, Tape};
pub use shard::{run_sharded, shard_seed, Arena, ShardContext, ShardRun};
pub use thread_exec::{run_threads, run_threads_bounded};
pub use virtual_exec::{ExecError, RunOutcome};
