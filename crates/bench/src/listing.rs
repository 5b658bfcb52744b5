//! Registry listings, generated once and consumed twice: `exp_matrix
//! --list` prints [`registry_listing`], and the README's
//! algorithm/adversary/backend key tables are the markdown rendering
//! [`registry_tables_markdown`] of the very same registry state — a
//! drift test (`crates/bench/tests/readme_sync.rs`) fails whenever the
//! committed README block and the registries disagree.

use std::fmt::Write as _;

/// The execution-backend axis: `(example key, what runs, determinism)`.
/// Keys must parse through [`crate::runner::ExecBackend::parse`] —
/// asserted by the README drift test, so this table cannot outlive the
/// parser.
pub fn backend_rows() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "dense",
            "flat arena core: typed process storage, scratch reuse (default)",
            "exact, adversary-scheduled, seed-reproducible",
        ),
        (
            "threads:t=N",
            "free-running OS threads, at most N concurrent",
            "wall-clock truth; ignores the adversary key, not seed-reproducible",
        ),
        (
            "shard:s=N",
            "N coupled per-shard arenas, one thread each, merged deterministically",
            "pure function of (seed, N) on any machine; `shard:s=1` bit-identical to `dense`",
        ),
    ]
}

/// An algorithm's size bounds as `n ≥ min`, `n ≤ cap` or both; `None`
/// when the entry runs at every size.
fn size_bounds(n_min: usize, n_cap: Option<usize>) -> Option<String> {
    match (n_min > 1, n_cap) {
        (false, None) => None,
        (true, None) => Some(format!("n ≥ {n_min}")),
        (false, Some(cap)) => Some(format!("n ≤ {cap}")),
        (true, Some(cap)) => Some(format!("{n_min} ≤ n ≤ {cap}")),
    }
}

/// The `exp_matrix --list` text: both registries, one line per entry.
pub fn registry_listing() -> String {
    let mut out = String::new();
    out.push_str("registered algorithms (key: summary):\n");
    for (name, summary, example, n_min, n_cap) in crate::scenario::registry().entries() {
        let sizes = size_bounds(n_min, n_cap).map(|b| format!(" [{b}]")).unwrap_or_default();
        let _ = writeln!(out, "  {name:16} {summary}{sizes}  e.g. `{example}`");
    }
    out.push_str("registered adversaries (key: summary):\n");
    for (name, summary, example) in rr_sched::registry::standard().entries() {
        let _ = writeln!(out, "  {name:16} {summary}  e.g. `{example}`");
    }
    out.push_str("execution backends (key: summary):\n");
    for (key, what, determinism) in backend_rows() {
        let _ = writeln!(out, "  {key:16} {what} — {determinism}");
    }
    out
}

/// The README's generated key tables: markdown rendering of the same
/// registry state [`registry_listing`] prints.
pub fn registry_tables_markdown() -> String {
    let mut out = String::new();
    out.push_str("**Algorithms** (`rr_renaming::AlgorithmRegistry` + baselines):\n\n");
    out.push_str("| key | algorithm | example |\n|---|---|---|\n");
    for (name, summary, example, n_min, n_cap) in crate::scenario::registry().entries() {
        let sizes = size_bounds(n_min, n_cap).map(|b| format!(" ({b})")).unwrap_or_default();
        let _ = writeln!(out, "| `{name}` | {summary}{sizes} | `{example}` |");
    }
    out.push_str("\n**Adversaries** (`rr_sched::registry::AdversaryRegistry`):\n\n");
    out.push_str("| key | strategy | example |\n|---|---|---|\n");
    for (name, summary, example) in rr_sched::registry::standard().entries() {
        let _ = writeln!(out, "| `{name}` | {summary} | `{example}` |");
    }
    out.push_str("\n**Execution backends** (`--backend`, `rr_bench::runner::ExecBackend`):\n\n");
    out.push_str("| key | core | determinism |\n|---|---|---|\n");
    for (key, what, determinism) in backend_rows() {
        let _ = writeln!(out, "| `{key}` | {what} | {determinism} |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExecBackend;

    #[test]
    fn listing_covers_both_registries_and_backends() {
        let listing = registry_listing();
        for key in crate::scenario::registry().keys() {
            assert!(listing.contains(key), "algorithm {key} missing from listing");
        }
        for key in rr_sched::registry::standard().keys() {
            assert!(listing.contains(key), "adversary {key} missing from listing");
        }
        assert!(listing.contains("threads:t=N"));
        assert!(listing.contains("shard:s=N"));
    }

    #[test]
    fn backend_table_keys_parse() {
        for (key, _, _) in backend_rows() {
            let concrete = key.replace('N', "4");
            assert!(ExecBackend::parse(&concrete).is_ok(), "{key}");
        }
    }

    #[test]
    fn markdown_tables_share_the_listing_state() {
        let md = registry_tables_markdown();
        for key in crate::scenario::registry().keys() {
            assert!(md.contains(&format!("| `{key}` |")), "{key}");
        }
        for key in rr_sched::registry::standard().keys() {
            assert!(md.contains(&format!("| `{key}` |")), "{key}");
        }
        assert_eq!(md.matches("|---|---|---|").count(), 3, "three tables");
    }
}
