//! Link-and-anchor checker for the repo's markdown surface: every
//! relative link in README.md / ISSUE.md / ROADMAP.md / CHANGES.md /
//! REPRODUCTION.md must point to an existing file, and every `#anchor`
//! must resolve to a heading (using the same GitHub-style slugs the
//! report renderer emits, so `REPRODUCTION.md`'s generated summary
//! table is verified too). Rust sources may cite only root-level
//! markdown files that exist.

use rr_report::slugify;
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = ["README.md", "ISSUE.md", "ROADMAP.md", "CHANGES.md", "REPRODUCTION.md"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `[text](target)` links outside fenced code blocks.
fn links(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            match after.find(')') {
                Some(close) => {
                    out.push(after[..close].to_string());
                    rest = &after[close + 1..];
                }
                None => break,
            }
        }
    }
    out
}

/// Heading slugs of a markdown body, GitHub-style.
fn heading_slugs(body: &str) -> Vec<String> {
    let mut in_fence = false;
    body.lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                return false;
            }
            !in_fence && line.starts_with('#')
        })
        .map(|line| slugify(line.trim_start_matches('#').trim()))
        .collect()
}

fn check_anchor(doc: &str, target_file: &Path, anchor: &str, errors: &mut Vec<String>) {
    let body = match std::fs::read_to_string(target_file) {
        Ok(b) => b,
        Err(_) => return, // the file-existence check reports this
    };
    if !heading_slugs(&body).iter().any(|s| s == anchor) {
        errors.push(format!(
            "{doc}: anchor `#{anchor}` not found in {}",
            target_file.file_name().unwrap_or_default().to_string_lossy()
        ));
    }
}

#[test]
fn markdown_links_and_anchors_resolve() {
    let root = repo_root();
    let mut errors = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                errors.push(format!("{doc}: unreadable: {e}"));
                continue;
            }
        };
        for target in links(&body) {
            // External links are not checkable offline; title suffixes
            // (`path "title"`) are not used in this repo.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            if let Some(anchor) = target.strip_prefix('#') {
                check_anchor(doc, &path, anchor, &mut errors);
                continue;
            }
            let (file_part, anchor) = match target.split_once('#') {
                Some((f, a)) => (f, Some(a)),
                None => (target.as_str(), None),
            };
            let target_path = root.join(file_part);
            if !target_path.exists() {
                errors.push(format!("{doc}: broken link `{target}` (no such file)"));
                continue;
            }
            if let Some(anchor) = anchor {
                if file_part.ends_with(".md") {
                    check_anchor(doc, &target_path, anchor, &mut errors);
                }
            }
        }
    }
    assert!(errors.is_empty(), "markdown link check failed:\n  {}", errors.join("\n  "));
}

/// The generated report's summary table must stay internally linked —
/// one anchor per claim and cross-check section, all resolving.
#[test]
fn reproduction_report_summary_anchors_cover_every_section() {
    let body = std::fs::read_to_string(repo_root().join("REPRODUCTION.md"))
        .expect("committed REPRODUCTION.md");
    let slugs = heading_slugs(&body);
    let summary_anchors: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("| ["))
        .filter_map(|l| l.split("](#").nth(1)?.split(')').next())
        .collect();
    assert_eq!(summary_anchors.len(), 10, "7 claims + 3 cross-checks in the summary");
    for anchor in summary_anchors {
        assert!(slugs.iter().any(|s| s == anchor), "summary anchor `#{anchor}` dangles");
    }
}

/// Bare file names ending in `.md` in `body`, not part of a longer path
/// such as `crates/x/README.md`: the root-level markdown files a source
/// cites.
fn root_markdown_mentions(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in body.match_indices(".md") {
        if body[at + 3..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let stem = body[..at]
            .chars()
            .rev()
            .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            .count();
        let start = at - stem;
        if stem > 0 && !body[..start].ends_with('/') {
            out.push(&body[start..at + 3]);
        }
    }
    out
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A doc comment that cites a root-level markdown file (`README.md`,
/// `ROADMAP.md`, …) must cite one that exists.
#[test]
fn rust_sources_cite_only_existing_root_markdown_files() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "source walk found only {} files", files.len());
    let mut errors = Vec::new();
    for file in &files {
        let body = std::fs::read_to_string(file).expect("readable source");
        for name in root_markdown_mentions(&body) {
            if !root.join(name).is_file() {
                let file = file.strip_prefix(&root).unwrap_or(file);
                errors.push(format!("{}: cites missing `{name}`", file.display()));
            }
        }
    }
    assert!(errors.is_empty(), "dead markdown citations:\n  {}", errors.join("\n  "));
}

#[test]
fn root_markdown_mentions_skip_paths_and_extensions() {
    assert_eq!(
        root_markdown_mentions("see README.md, crates/x/NOTES.md, `.md`, a.mdx and (ROADMAP.md)"),
        ["README.md", "ROADMAP.md"]
    );
}

#[test]
fn slug_convention_matches_github() {
    assert_eq!(slugify("Registry key tables"), "registry-key-tables");
    assert_eq!(slugify("Theorem 5 (E1) — tight renaming"), "theorem-5-e1--tight-renaming");
}
