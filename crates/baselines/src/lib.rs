//! # rr-baselines — the algorithms the paper compares against
//!
//! * [`network`] — comparator-network renaming (Alistarh et al. \[7\]):
//!   TAS splitters over Batcher's bitonic network, the buildable stand-in
//!   for AKS (README "Deviations from the paper", item 6, gives the
//!   substitution argument).
//! * [`aks_model`] — analytic AKS depth, for the crossover tables.
//! * [`uniform`] — uniform random probing into `(1+ε)n` names.
//! * [`linear`] — deterministic Θ(n) scan (the lower-bound witness).
//! * [`splitter_grid`] — Moir–Anderson grid renaming from read/write
//!   registers only (no TAS): quadratic name space, Θ(n) steps — the
//!   regime the paper's TAS protocols escape.
//! * [`counter`] — ideal fetch-and-increment (the hardware upper bound).
//! * [`route`] — topology-routed renaming through multistage switching
//!   networks (Beneš / butterfly / the PAPERS.md Beneš variant), the
//!   depth-vs-steps axis of the comparison matrix.
//!
//! Everything implements [`rr_renaming::RenamingAlgorithm`], so the E8
//! comparison harness treats the paper's protocols and these baselines
//! uniformly; [`registry::register_baselines`] adds them all to an
//! [`rr_renaming::AlgorithmRegistry`] under string keys.
//!
//! ```
//! use rr_renaming::traits::RenamingAlgorithm;
//! use rr_renaming::AlgorithmRegistry;
//!
//! let mut reg = AlgorithmRegistry::with_paper_algorithms();
//! rr_baselines::register_baselines(&mut reg);
//! let bitonic = reg.build("bitonic").unwrap();
//! assert_eq!(bitonic.name(), "bitonic-network");
//! assert!(reg.keys().len() >= 14, "paper protocols + every baseline");
//! ```

#![forbid(unsafe_code)]

pub mod aks_model;
pub mod counter;
pub mod linear;
pub mod network;
pub mod registry;
pub mod route;
pub mod splitter_grid;
pub mod uniform;

pub use counter::FetchAddRenaming;
pub use linear::{LinearScan, ScanStart};
pub use network::{BitonicRenaming, ComparatorNetwork, NetworkProcess, NetworkShared};
pub use registry::register_baselines;
pub use route::{route_network, RouteRenaming, RouteTopology, ROUTE_TAS_ARRAY};
pub use splitter_grid::{GridProcess, GridShared, SplitterGrid};
pub use uniform::{UniformProbing, UniformProcess, UniformShared};
