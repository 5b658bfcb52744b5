//! String-keyed algorithm registry.
//!
//! Names every renaming protocol **once** so experiment drivers can
//! build any of them from a string key alone — `"tight-tau:c=4"`,
//! `"loose-l6:l=2"`, `"cor9"`, `"aagw"`, … — instead of re-matching
//! constructors in every binary. Keys follow the shared
//! [`ParsedKey`] grammar `name[:k=v[,k=v…]]` (re-exported from
//! `rr-sched`, which uses it for the adversary registry).
//!
//! [`AlgorithmRegistry::with_paper_algorithms`] registers the paper's
//! protocols; `rr-baselines` contributes the comparison algorithms via
//! its own `register_baselines` so crate layering stays acyclic. Adding
//! an algorithm is a one-registration change: implement
//! [`crate::RenamingProtocol`], then [`AlgorithmRegistry::register`] a
//! factory that validates the key's parameters.

use crate::adaptive::AdaptiveRenaming;
use crate::params::{Lemma6Schedule, Lemma8Schedule, TightPlan};
use crate::tight::TightRenaming;
use crate::traits::{AagwLoose, Cor7, Cor9, LooseL6, LooseL8, RenamingAlgorithm};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use rr_sched::registry::ParsedKey;

/// A registry-built algorithm, shareable across the parallel runner.
pub type BoxedAlgorithm = Box<dyn RenamingAlgorithm + Send + Sync>;

type Factory = Arc<dyn Fn(&ParsedKey) -> Result<BoxedAlgorithm, String> + Send + Sync>;

struct Entry {
    factory: Factory,
    summary: &'static str,
    example: &'static str,
    n_min: usize,
    n_cap: Option<usize>,
}

/// Maps algorithm names to factories; see the module docs for the key
/// grammar and [`AlgorithmRegistry::with_paper_algorithms`] for the
/// stock set.
#[derive(Default)]
pub struct AlgorithmRegistry {
    entries: BTreeMap<String, Entry>,
}

impl AlgorithmRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's protocols:
    ///
    /// | name | parameters | algorithm | sizes |
    /// |---|---|---|---|
    /// | `tight-tau` | `c` (default 4) | §III calibrated tight renaming | n ≥ 2 |
    /// | `tight-tau-paper` | `c` (default 4) | §III paper-exact variant | n ≥ 4 |
    /// | `loose-l6` | `l` (default 1) | Lemma 6 almost-tight | n ≥ 4 |
    /// | `loose-l8` | `l` (default 1) | Lemma 8 almost-tight | n ≥ 4 |
    /// | `cor7` | `l` (default 1) | Corollary 7 composition | n ≥ 4 |
    /// | `cor9` | `l` (default 1) | Corollary 9 composition | n ≥ 4 |
    /// | `aagw` | — | \[8\]-style finisher standalone, `m = 2n` | any |
    /// | `adaptive` | — | doubling-guess transform (unknown `k`) | any |
    pub fn with_paper_algorithms() -> Self {
        let mut reg = Self::new();
        reg.register_sized(
            "tight-tau",
            "calibrated tight renaming (Theorem 5)",
            "tight-tau:c=4",
            TightPlan::MIN_N_CALIBRATED,
            None,
            |k| {
                k.check_known(&["c"])?;
                Ok(Box::new(TightRenaming::calibrated(positive(k, "c", 4)?)))
            },
        );
        reg.register_sized(
            "tight-tau-paper",
            "paper-exact tight renaming (Definition 2 as printed)",
            "tight-tau-paper:c=4",
            TightPlan::MIN_N_PAPER_EXACT,
            None,
            |k| {
                k.check_known(&["c"])?;
                Ok(Box::new(TightRenaming::paper_exact(positive(k, "c", 4)?)))
            },
        );
        reg.register_sized(
            "loose-l6",
            "Lemma 6 almost-tight renaming",
            "loose-l6:l=1",
            Lemma6Schedule::MIN_N,
            None,
            |k| {
                k.check_known(&["l"])?;
                Ok(Box::new(LooseL6 { ell: positive(k, "l", 1)? }))
            },
        );
        reg.register_sized(
            "loose-l8",
            "Lemma 8 almost-tight renaming",
            "loose-l8:l=1",
            Lemma8Schedule::MIN_N,
            None,
            |k| {
                k.check_known(&["l"])?;
                Ok(Box::new(LooseL8 { ell: positive(k, "l", 1)? }))
            },
        );
        reg.register_sized(
            "cor7",
            "Corollary 7 full loose renaming",
            "cor7:l=1",
            Lemma6Schedule::MIN_N,
            None,
            |k| {
                k.check_known(&["l"])?;
                Ok(Box::new(Cor7 { ell: positive(k, "l", 1)? }))
            },
        );
        reg.register_sized(
            "cor9",
            "Corollary 9 full loose renaming",
            "cor9:l=1",
            Lemma8Schedule::MIN_N,
            None,
            |k| {
                k.check_known(&["l"])?;
                Ok(Box::new(Cor9 { ell: positive(k, "l", 1)? }))
            },
        );
        reg.register("aagw", "[8]-style finisher standalone (m = 2n)", "aagw", |k| {
            k.check_known(&[])?;
            Ok(Box::new(AagwLoose))
        });
        reg.register("adaptive", "doubling-guess transform, k unknown", "adaptive", |k| {
            k.check_known(&[])?;
            Ok(Box::new(AdaptiveRenaming))
        });
        reg
    }

    /// Registers `name` with a one-line `summary`, an `example` key and
    /// a factory that validates a parsed key, valid at every `n ≥ 1`.
    /// Re-registering a name replaces the entry.
    pub fn register(
        &mut self,
        name: &str,
        summary: &'static str,
        example: &'static str,
        factory: impl Fn(&ParsedKey) -> Result<BoxedAlgorithm, String> + Send + Sync + 'static,
    ) {
        self.register_sized(name, summary, example, 1, None, factory);
    }

    /// [`AlgorithmRegistry::register`] with explicit size bounds: the
    /// smallest population `n_min` the protocol's parameters are defined
    /// for (the experiment binaries reject smaller sizes, see
    /// [`AlgorithmRegistry::check_size`]) and an optional cap `n_cap`
    /// (the binaries clamp sweeps for algorithms whose space or work is
    /// super-linear).
    pub fn register_sized(
        &mut self,
        name: &str,
        summary: &'static str,
        example: &'static str,
        n_min: usize,
        n_cap: Option<usize>,
        factory: impl Fn(&ParsedKey) -> Result<BoxedAlgorithm, String> + Send + Sync + 'static,
    ) {
        self.entries.insert(
            name.to_string(),
            Entry { factory: Arc::new(factory), summary, example, n_min, n_cap },
        );
    }

    /// Builds the algorithm named by `key`.
    ///
    /// # Errors
    /// Returns a message on an unknown name or bad parameters.
    pub fn build(&self, key: &str) -> Result<BoxedAlgorithm, String> {
        let parsed = ParsedKey::parse(key)?;
        let entry = self.entries.get(&parsed.name).ok_or_else(|| {
            format!("unknown algorithm `{}` (registered: {})", parsed.name, self.keys().join(", "))
        })?;
        (entry.factory)(&parsed)
    }

    /// The size cap of `key`'s entry (`None` when the key is unknown or
    /// uncapped).
    pub fn n_cap(&self, key: &str) -> Option<usize> {
        self.entry(key).and_then(|e| e.n_cap)
    }

    /// The smallest population `key`'s entry runs at (1 when the key is
    /// unknown).
    pub fn n_min(&self, key: &str) -> usize {
        self.entry(key).map_or(1, |e| e.n_min)
    }

    /// Rejects a population below `key`'s minimum instead of letting the
    /// protocol's parameter assertions panic mid-run.
    ///
    /// # Errors
    /// Returns a message naming the key and its bound when `n` is too
    /// small.
    pub fn check_size(&self, key: &str, n: usize) -> Result<(), String> {
        let n_min = self.n_min(key);
        if n < n_min {
            return Err(format!("algorithm `{key}` needs n ≥ {n_min}, got n = {n}"));
        }
        Ok(())
    }

    fn entry(&self, key: &str) -> Option<&Entry> {
        self.entries.get(&ParsedKey::parse(key).ok()?.name)
    }

    /// Registered names, sorted.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// `(name, summary, example, n_min, n_cap)` rows for `--list`-style
    /// output.
    pub fn entries(&self) -> Vec<(&str, &'static str, &'static str, usize, Option<usize>)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.as_str(), e.summary, e.example, e.n_min, e.n_cap))
            .collect()
    }
}

/// Parses parameter `name` as a positive integer (the registries reject
/// zero because every parameterized protocol here needs `c, ℓ ≥ 1`).
fn positive(key: &ParsedKey, name: &str, default: u32) -> Result<u32, String> {
    let v: u32 = key.get(name, default)?;
    if v == 0 {
        return Err(format!("parameter `{name}` of `{}` must be ≥ 1", key.name));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_keys_build_with_expected_names() {
        let reg = AlgorithmRegistry::with_paper_algorithms();
        for (key, name) in [
            ("tight-tau", "tight-tau(c=4)"),
            ("tight-tau:c=2", "tight-tau(c=2)"),
            ("tight-tau-paper:c=4", "tight-tau-paper(c=4)"),
            ("loose-l6:l=2", "loose-L6(l=2)"),
            ("loose-l8", "loose-L8(l=1)"),
            ("cor7:l=2", "cor7(l=2)"),
            ("cor9:l=1", "cor9(l=1)"),
            ("aagw", "aagw-style(m=2n)"),
            ("adaptive", "adaptive(doubling)"),
        ] {
            assert_eq!(reg.build(key).unwrap().name(), name, "{key}");
        }
    }

    #[test]
    fn built_algorithms_are_runnable() {
        let reg = AlgorithmRegistry::with_paper_algorithms();
        let algo = reg.build("cor9:l=1").unwrap();
        let inst = algo.instantiate(64, 5);
        assert_eq!(inst.n, 64);
        assert_eq!(inst.m, algo.m(64));
        assert_eq!(inst.processes.len(), 64);
    }

    #[test]
    fn bad_keys_error() {
        let reg = AlgorithmRegistry::with_paper_algorithms();
        assert!(reg.build("nope").is_err());
        assert!(reg.build("tight-tau:c=0").is_err());
        assert!(reg.build("tight-tau:k=4").is_err());
        assert!(reg.build("cor9:l=zero").is_err());
        assert!(reg.build("aagw:l=1").is_err());
    }

    #[test]
    fn sizes_default_to_open_and_register_sized_sticks() {
        let mut reg = AlgorithmRegistry::with_paper_algorithms();
        assert_eq!(reg.n_cap("tight-tau:c=4"), None);
        assert_eq!(reg.n_min("aagw"), 1);
        reg.register_sized("toy", "test entry", "toy", 3, Some(128), |k| {
            k.check_known(&[])?;
            Ok(Box::new(AagwLoose))
        });
        assert_eq!(reg.n_cap("toy"), Some(128));
        assert_eq!(reg.n_min("toy"), 3);
        assert!(reg.keys().contains(&"toy"));
    }

    /// Every declared minimum is exactly the smallest size the protocol
    /// instantiates at: the bound is neither loose nor too tight.
    #[test]
    fn declared_minimums_match_the_protocols() {
        let reg = AlgorithmRegistry::with_paper_algorithms();
        for (name, _, example, n_min, _) in reg.entries() {
            let algo = reg.build(example).unwrap();
            assert!(reg.check_size(example, n_min).is_ok(), "{name}");
            assert_eq!(algo.instantiate(n_min, 0).processes.len(), n_min, "{name}");
            if n_min > 1 {
                let below = n_min - 1;
                assert_eq!(
                    reg.check_size(example, below).unwrap_err(),
                    format!("algorithm `{example}` needs n ≥ {n_min}, got n = {below}")
                );
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    algo.instantiate(below, 0)
                }))
                .is_err();
                assert!(panicked, "{name} runs at n = {below}: its minimum is too strict");
            }
        }
    }

    #[test]
    fn listing_is_sorted_and_complete() {
        let reg = AlgorithmRegistry::with_paper_algorithms();
        let keys = reg.keys();
        assert_eq!(
            keys,
            vec![
                "aagw",
                "adaptive",
                "cor7",
                "cor9",
                "loose-l6",
                "loose-l8",
                "tight-tau",
                "tight-tau-paper"
            ]
        );
        assert_eq!(reg.entries().len(), keys.len());
    }
}
