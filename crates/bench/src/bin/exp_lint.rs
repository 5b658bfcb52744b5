//! The workspace determinism lint: scans every non-test source file
//! for lexical determinism hazards (hash-iteration, wall-clock reads,
//! raw pid indexing, stray thread spawns, uncommented `unsafe`) and
//! fails unless each firing is covered by the committed allowlist.
//!
//! Exit status: 0 clean, 1 on un-excused violations or stale allowlist
//! entries, 2 on usage errors.
//!
//! `--help` lists the flags, declared in [`rr_bench::cli::LINT`].

use rr_bench::cli::{self, LINT};
use rr_lint::{apply, scan_workspace, Allowlist, Rule};
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
        if args.has("--list-rules") {
            for rule in Rule::ALL {
                println!("{:<14} {}", rule.key(), rule.summary());
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
        for v in &out.violations {
            println!("{v}");
        }
        for e in &out.stale {
            println!(
                "{}:{}: stale allowlist entry [{}] for `{}` — nothing fires there any more",
                rel_display(&allowlist_path, &root),
                e.line,
                e.rule,
                e.path
            );
        }
        println!(
            "exp_lint: {found} firing(s) scanned, {} suppressed by allowlist, {} violation(s), {} stale entrie(s)",
            out.suppressed,
            out.violations.len(),
            out.stale.len()
        );
        if !out.clean() {
            eprintln!(
                "exp_lint: determinism lint failed — fix the source or review into the allowlist"
            );
            return Ok(ExitCode::from(1));
        }
        Ok(ExitCode::SUCCESS)
    })
}

fn rel_display(path: &Path, root: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string()
}
