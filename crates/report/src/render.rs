//! Deterministic markdown rendering of a [`Report`] —
//! the generator behind the committed `REPRODUCTION.md`. Everything
//! here is a pure function of the evaluated outcomes: no timestamps, no
//! wall-clock numbers, no environment reads, so CI can diff the output
//! byte-for-byte against the committed copy.

use crate::claims::ClaimOutcome;
use crate::cross::CrossOutcome;
use crate::Report;
use rr_analysis::verdict::Check;
use std::fmt::Write as _;

/// GitHub-style heading anchor: lowercase, alphanumerics and `_` kept,
/// spaces become `-`, everything else dropped. The repo's link checker
/// uses the same function, so intra-report links stay verified.
pub fn slugify(heading: &str) -> String {
    let mut out = String::new();
    for c in heading.chars() {
        if c.is_alphanumeric() || c == '_' {
            out.extend(c.to_lowercase());
        } else if c == ' ' || c == '-' {
            out.push('-');
        }
    }
    out
}

/// The committed record snapshots the report merges in with `--from`:
/// the matrix, schedule-space and routing cross-checks read them. Every
/// regeneration command the report prints is built from this list, and
/// CI's report job passes the same list.
pub const SNAPSHOTS: [&str; 3] = ["BENCH_scenarios.json", "BENCH_explore.json", "BENCH_route.json"];

fn md_cell(s: &str) -> String {
    s.replace('|', "\\|").replace('\n', " ")
}

fn checks_table(out: &mut String, checks: &[Check]) {
    out.push_str("| check | verdict | measured |\n|---|---|---|\n");
    for c in checks {
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            md_cell(&c.name),
            c.verdict.label(),
            md_cell(&c.detail)
        );
    }
    out.push('\n');
}

fn claim_section(out: &mut String, c: &ClaimOutcome) {
    let _ = writeln!(out, "## {}\n", c.heading);
    let _ = writeln!(out, "**Verdict: {}**\n", c.verdict.label());
    let _ = writeln!(out, "> {}\n", c.statement);
    let _ = writeln!(out, "Bound under test: `{}` · records: scenario `{}`\n", c.bound, {
        c.scenario
    });
    checks_table(out, &c.checks);
    let _ = writeln!(out, "**Scaling fit.** {}\n", c.fit_note);
    if !c.table.is_empty() {
        let _ = writeln!(out, "| {} |", c.table_header.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(c.table_header.len()));
        for row in &c.table {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter().map(|cell| md_cell(cell)).collect::<Vec<_>>().join(" | ")
            );
        }
        out.push('\n');
    }
    if let Some(chart) = &c.chart {
        out.push_str(chart);
        out.push('\n');
    }
}

fn cross_section(out: &mut String, c: &CrossOutcome) {
    let _ = writeln!(out, "## {}\n", c.heading);
    let _ = writeln!(out, "**Verdict: {}**\n", c.verdict.label());
    let _ = writeln!(out, "> {}\n", c.statement);
    checks_table(out, &c.checks);
}

/// Renders the whole report.
pub fn to_markdown(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# Reproduction report — Berenbrink et al., IPDPS 2015\n\n");
    let snapshots = SNAPSHOTS.join(",");
    let _ = write!(
        out,
        "<!-- GENERATED by exp_report; do not edit by hand. Regenerate with\n     \
         `cargo run --release -p rr-bench --bin exp_report -- --quick \
         --from {snapshots} --json BENCH_report.json --out REPRODUCTION.md` -->\n\n",
    );
    out.push_str(
        "Per-claim verdicts computed from the deterministic experiment record streams: \
         every check compares a measured quantity against the bound the paper states, \
         re-deriving predicted values from the committed parameterizations. Wall-clock \
         (`kind:\"throughput\"`) records are ignored, so this file is a pure function \
         of its inputs and CI diffs it byte-for-byte.\n\n",
    );
    let _ = writeln!(
        out,
        "Inputs: {}.\n",
        report.inputs.iter().map(|i| format!("`{i}`")).collect::<Vec<_>>().join(", ")
    );
    out.push_str("## Verdict summary\n\n| claim | scenario | verdict |\n|---|---|---|\n");
    for c in &report.claims {
        let _ = writeln!(
            out,
            "| [{}](#{}) | {} | **{}** |",
            c.heading,
            slugify(c.heading),
            c.scenario,
            c.verdict.label()
        );
    }
    for c in &report.cross {
        let _ = writeln!(
            out,
            "| [{}](#{}) | — | **{}** |",
            c.heading,
            slugify(c.heading),
            c.verdict.label()
        );
    }
    out.push('\n');
    for c in &report.claims {
        claim_section(&mut out, c);
    }
    for c in &report.cross {
        cross_section(&mut out, c);
    }
    let _ = write!(
        out,
        "## Reproducing this report\n\n\
         ```sh\n\
         # Re-run the quick claim tiers and regenerate everything (the CI job):\n\
         cargo run --release -p rr-bench --bin exp_report -- --quick \\\n    \
         --from {snapshots} \\\n    \
         --json BENCH_report.json --out REPRODUCTION.md\n\n\
         # Or regenerate from the committed snapshots without running anything:\n\
         cargo run --release -p rr-bench --bin exp_report -- --ingest \\\n    \
         --from BENCH_report.json,{snapshots} \\\n    \
         --out REPRODUCTION.md\n\
         ```\n\n\
         The binary exits non-zero if any claim FAILs, and CI additionally fails on \
         any drift between the regenerated report and the committed copy.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report's regeneration commands and CI's report job merge the
    /// same snapshots, so following the committed report's instructions
    /// reproduces it.
    #[test]
    fn regeneration_inputs_match_the_ci_report_job() {
        let ci = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        ))
        .expect("CI workflow");
        let job = ci.split("\n  report:\n").nth(1).expect("CI has a report job");
        let from: Vec<&str> = job
            .lines()
            .filter_map(|line| line.trim().strip_prefix("--from "))
            .map(|rest| rest.split_whitespace().next().unwrap_or_default())
            .collect();
        assert_eq!(from, [SNAPSHOTS.join(",")], "CI report job's --from lists");
        let markdown = to_markdown(&crate::generate(&[], Vec::new()));
        assert_eq!(markdown.matches(&format!("--from {}", SNAPSHOTS.join(","))).count(), 2);
        assert_eq!(
            markdown.matches(&format!("--from BENCH_report.json,{}", SNAPSHOTS.join(","))).count(),
            1
        );
    }

    #[test]
    fn slugs_match_github_style() {
        assert_eq!(
            slugify("Theorem 5 (E1) — tight renaming in O(log n) steps"),
            "theorem-5-e1--tight-renaming-in-olog-n-steps"
        );
        assert_eq!(slugify("Cross-check — registry matrix safety"), {
            "cross-check--registry-matrix-safety"
        });
        assert_eq!(slugify("m = n + 2n/(log n)^l"), "m--n--2nlog-nl");
    }

    #[test]
    fn renders_summary_sections_and_footer() {
        let report = crate::generate(&[], vec!["x.json".into()]);
        let md = to_markdown(&report);
        assert!(md.starts_with("# Reproduction report"));
        assert!(md.contains("| claim | scenario | verdict |"));
        assert!(md.contains("**Verdict: INCONCLUSIVE**"));
        assert!(md.contains("Inputs: `x.json`."));
        assert!(md.contains("## Reproducing this report"));
        // Every summary-table anchor resolves to a rendered heading.
        for line in md.lines().filter(|l| l.starts_with("| [")) {
            let anchor = line.split("](#").nth(1).unwrap().split(')').next().unwrap();
            let found =
                md.lines().filter(|l| l.starts_with("## ")).any(|h| slugify(&h[3..]) == anchor);
            assert!(found, "dangling anchor {anchor}");
        }
    }

    #[test]
    fn pipes_in_cells_are_escaped() {
        assert_eq!(md_cell("a|b"), "a\\|b");
        assert_eq!(md_cell("a\nb"), "a b");
    }
}
