//! The workspace determinism lint: scans every non-test source file
//! for lexical determinism hazards (hash-iteration, wall-clock reads,
//! raw pid indexing, stray thread spawns, uncommented `unsafe`) and
//! fails unless each firing is covered by the committed allowlist.
//!
//! Exit status: 0 clean, 1 on un-excused violations or stale allowlist
//! entries, 2 on usage errors. A stdout closed early (`| head`) stops
//! the printing, not the verdict.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::LINT`].

use rr_bench::cli::{self, LINT};
use rr_lint::{apply, scan_workspace, Allowlist, LintOutcome, Rule};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("LINT_ALLOW.txt").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}

fn main() -> ExitCode {
    cli::main(&LINT, |args| {
        let mut stdout = io::stdout().lock();
        if args.has("--list-rules") {
            for rule in Rule::ALL {
                writeln!(stdout, "{:<14} {}", rule.key(), rule.summary())?;
            }
            return Ok(ExitCode::SUCCESS);
        }
        let root = args.text("--root").map_or_else(default_root, PathBuf::from);
        let allowlist_path =
            args.text("--allowlist").map_or_else(|| root.join("LINT_ALLOW.txt"), PathBuf::from);
        let allow = if allowlist_path.is_file() {
            Allowlist::load(&allowlist_path)?
        } else {
            Allowlist::default()
        };
        let violations = scan_workspace(&root)?;
        let found = violations.len();
        let out = apply(violations, &allow);
        let printed = print(&mut stdout, &out, found, &rel_display(&allowlist_path, &root));
        if !out.clean() {
            eprintln!(
                "exp_lint: determinism lint failed — fix the source or review into the allowlist"
            );
            return Ok(ExitCode::from(1));
        }
        printed?;
        Ok(ExitCode::SUCCESS)
    })
}

/// Prints each violation, each stale allowlist entry and the summary.
fn print(w: &mut impl Write, out: &LintOutcome, found: usize, allowlist: &str) -> io::Result<()> {
    for v in &out.violations {
        writeln!(w, "{v}")?;
    }
    for e in &out.stale {
        writeln!(
            w,
            "{allowlist}:{}: stale allowlist entry [{}] for `{}` — nothing fires there any more",
            e.line, e.rule, e.path
        )?;
    }
    writeln!(
        w,
        "exp_lint: {found} firing(s) scanned, {} suppressed by allowlist, {} violation(s), {} stale entrie(s)",
        out.suppressed,
        out.violations.len(),
        out.stale.len()
    )
}

fn rel_display(path: &Path, root: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string()
}
