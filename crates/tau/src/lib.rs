//! # rr-tau — the τ-register and its counting device
//!
//! Cycle-accurate simulation of the special hardware register proposed in
//! §II-B/§II-C of Berenbrink et al. (IPDPS 2015). The paper itself notes
//! the register is "unlikely … \[to\] be actually built", so this crate
//! *is* the artifact: it executes the published register-transfer
//! pseudocode per clock cycle.
//!
//! * [`device`] — [`CountingDevice`]: `2·log n` TAS bits whose confirmed
//!   population never exceeds τ, implemented with the two-phase cycle
//!   (request, discard) from the paper, including a literal transcription
//!   of the shift/`popcnt`/bit-test selection ([`device::rtl`]).
//! * [`concurrent`] — [`ConcurrentTauRegister`]: the register itself, the
//!   device's confirmed bits plus τ name slots and the systematic slot
//!   search a winner performs, in one lock-free word each so free-running
//!   OS threads share it; every request is its own device cycle, a
//!   schedule the asynchronous hardware also allows.
//!
//! ```
//! use rr_tau::CountingDevice;
//!
//! // A width-8 device with quota tau = 4: however many concurrent
//! // requests a cycle absorbs, the confirmed population never exceeds
//! // tau — the §II-B invariant.
//! let mut device = CountingDevice::new(8, 4);
//! let requests: Vec<(usize, usize)> = (0..6).map(|p| (p, p % 8)).collect();
//! let report = device.clock_cycle(&requests);
//! assert!(report.win_count() <= 4);
//! assert!(device.confirmed_count() <= device.tau());
//! ```

#![forbid(unsafe_code)]

pub mod concurrent;
pub mod device;

pub use concurrent::ConcurrentTauRegister;
pub use device::{BitOutcome, CountingDevice, CycleReport};
