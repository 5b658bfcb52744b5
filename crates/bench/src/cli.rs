//! The one command-line parser of every `exp_*` binary.
//!
//! Each binary declares the flags it acts on as a [`Cli`] table (name,
//! switch or value, one help line); [`parse`] turns an argv into a
//! [`RunConfig`] plus those values, or into a usage error, and [`main`]
//! is the only place that reads the process's argv and turns the
//! result into output. The rules are the same for every binary:
//!
//! * `--help` or `-h` prints the usage on stdout and exits 0 without
//!   running anything;
//! * an undeclared argument, a value flag given last or followed by a
//!   `--flag`, an empty value, an unparsable number, a list with no
//!   entries and the removed `--rng` all exit 2 with one
//!   `{bin}: {message}` line on stderr, before any row runs;
//! * a repeated flag keeps its last value;
//! * a failed write of the output is a [`Failure::Output`]: quietly
//!   exit 0 when the reader closed the pipe (`exp_lemma3 | head -1`),
//!   otherwise exit 2 with `{bin}: cannot write output: {reason}`;
//! * exit 1 is left to the binaries: a FAIL verdict or a violation.
//!
//! `--quick`, `--json PATH` and `--backend KEY` fill the [`RunConfig`]
//! when a table declares them; every other value is read back by flag
//! name through [`Args`].

use crate::runner::{runner_threads, ExecBackend, RunConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;

/// Why a binary's body stopped without an exit code of its own.
#[derive(Debug)]
pub enum Failure {
    /// A refused input: one `{bin}: {message}` line on stderr, exit 2.
    Usage(String),
    /// Writing the output failed. A closed pipe means the reader took all
    /// it wanted, so [`main`] exits 0 without a word; any other error is
    /// `{bin}: cannot write output: {reason}` with exit 2.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self::Usage(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Self::Usage(message.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Self::Output(e)
    }
}

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// One non-empty value, kept as given (a path or a registry key),
    /// shown in the usage as the placeholder.
    Text(&'static str),
    /// One non-negative integer, shown as the placeholder.
    Count(&'static str),
    /// A comma-separated list of keys or paths; a bare `k=v` fragment
    /// joins the key before it, so `stall,crash:p=200,cap=25` is two
    /// keys.
    Keys,
    /// A comma-separated list of non-negative integers.
    Counts,
}

/// One flag a binary acts on.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--sizes`.
    pub name: &'static str,
    /// Its value, if it takes one.
    pub takes: Takes,
    /// Its line of `--help`.
    pub help: &'static str,
}

impl Flag {
    /// A switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self { name, takes: Takes::Nothing, help }
    }

    /// A flag taking one value, shown as `placeholder`.
    pub const fn text(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Self { name, takes: Takes::Text(placeholder), help }
    }

    /// A flag taking one non-negative integer, shown as `placeholder`.
    pub const fn count(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Self { name, takes: Takes::Count(placeholder), help }
    }

    /// A flag taking a list of keys.
    pub const fn keys(name: &'static str, help: &'static str) -> Self {
        Self { name, takes: Takes::Keys, help }
    }

    /// A flag taking a list of non-negative integers.
    pub const fn counts(name: &'static str, help: &'static str) -> Self {
        Self { name, takes: Takes::Counts, help }
    }
}

/// A binary's command line: what it is and the flags it acts on.
#[derive(Debug, Clone, Copy)]
pub struct Cli<'a> {
    /// One line saying what the binary does.
    pub about: &'a str,
    /// Every flag the binary acts on; `--help` is implicit.
    pub flags: &'a [Flag],
}

impl Cli<'_> {
    /// The `--help` text for `bin`: the about line, a `usage:` paragraph
    /// naming every flag, then one help line per flag.
    pub fn usage(&self, bin: &str) -> String {
        let mut out = format!("{bin} — {}\n\nusage: {bin}", self.about);
        let indent = "usage: ".len() + bin.chars().count();
        let mut line_len = indent;
        let shapes: Vec<String> = self.flags.iter().map(|f| shape(f.name, f.takes)).collect();
        for item in shapes.iter().map(|s| format!("[{s}]")).chain(["[--help]".to_string()]) {
            if line_len + 1 + item.chars().count() > 78 && line_len > indent {
                let _ = write!(out, "\n{:indent$}", "");
                line_len = indent;
            }
            let _ = write!(out, " {item}");
            line_len += 1 + item.chars().count();
        }
        out.push('\n');
        let help = std::iter::once(("-h, --help".to_string(), "print this help and exit"));
        let entries: Vec<(String, &str)> =
            shapes.into_iter().zip(self.flags.iter().map(|f| f.help)).chain(help).collect();
        let width = entries.iter().map(|(s, _)| s.chars().count()).max().unwrap_or(0) + 2;
        for (shape, help) in &entries {
            let _ = write!(out, "\n  {shape:width$}{help}");
        }
        out
    }
}

/// `--flag PLACEHOLDER`, as the usage shows it.
fn shape(name: &str, takes: Takes) -> String {
    match takes {
        Takes::Nothing => name.to_string(),
        Takes::Text(p) | Takes::Count(p) => format!("{name} {p}"),
        Takes::Keys => format!("{name} k1,k2,…"),
        Takes::Counts => format!("{name} n1,n2,…"),
    }
}

/// A parsed flag value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    On,
    Text(String),
    Count(usize),
    Keys(Vec<String>),
    Counts(Vec<usize>),
}

/// A parsed command line: the [`RunConfig`] plus every declared flag's
/// value, read back by flag name.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--quick`, `--json` and `--backend` (defaults when undeclared or
    /// not given); [`main`] fills `threads` from `RR_RUNNER_THREADS`.
    pub cfg: RunConfig,
    given: BTreeMap<&'static str, Option<Value>>,
}

impl Args {
    fn get(&self, flag: &str) -> Option<&Value> {
        match self.given.get(flag) {
            Some(value) => value.as_ref(),
            None => panic!("`{flag}` is not in this binary's flag table"),
        }
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The value of a [`Takes::Text`] flag, if given.
    pub fn text(&self, flag: &str) -> Option<&str> {
        match self.get(flag)? {
            Value::Text(v) => Some(v),
            other => mismatch(flag, other),
        }
    }

    /// The value of a [`Takes::Count`] flag, if given.
    pub fn count(&self, flag: &str) -> Option<usize> {
        match self.get(flag)? {
            Value::Count(v) => Some(*v),
            other => mismatch(flag, other),
        }
    }

    /// The entries of a [`Takes::Keys`] flag, if given (never empty).
    pub fn keys(&self, flag: &str) -> Option<Vec<String>> {
        match self.get(flag)? {
            Value::Keys(v) => Some(v.clone()),
            other => mismatch(flag, other),
        }
    }

    /// The entries of a [`Takes::Counts`] flag, if given (never empty).
    pub fn counts(&self, flag: &str) -> Option<Vec<usize>> {
        match self.get(flag)? {
            Value::Counts(v) => Some(v.clone()),
            other => mismatch(flag, other),
        }
    }
}

fn mismatch(flag: &str, value: &Value) -> ! {
    panic!("`{flag}` was parsed as {value:?}; its table entry declares another kind")
}

/// What a command line asks for.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// `--help` or `-h`: print this usage and run nothing.
    Help(String),
    /// Run with these arguments.
    Run(Args),
}

/// Parses `argv` (without the program name) against `cli` — a pure
/// function: it reads no environment and never exits.
///
/// # Errors
/// One line naming the offending argument: an undeclared argument
/// (`` unknown argument `X` (see --help) ``), a value flag given last or
/// followed by a `--flag` or given an empty value (`{flag} needs a
/// value`), a bad number, a list with no entries (`{flag} needs at
/// least one entry`), an invalid `--backend` key, or the removed
/// `--rng`.
pub fn parse(bin: &str, cli: &Cli<'_>, argv: &[impl AsRef<str>]) -> Result<Parsed, String> {
    let mut cfg = RunConfig::default();
    let mut given: BTreeMap<&'static str, Option<Value>> =
        cli.flags.iter().map(|f| (f.name, None)).collect();
    let mut tokens = argv.iter().map(AsRef::as_ref);
    while let Some(arg) = tokens.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Parsed::Help(cli.usage(bin)));
        }
        let Some(flag) = cli.flags.iter().find(|f| f.name == arg) else {
            // Rejected by name rather than as unknown, so that a script
            // asking for another generator learns why.
            if arg == "--rng" {
                return Err(
                    "--rng: RNG modes were removed; every process draws from ChaCha8".into()
                );
            }
            return Err(format!("unknown argument `{arg}` (see --help)"));
        };
        let value = if flag.takes == Takes::Nothing {
            Value::On
        } else {
            // A following `--flag` is not a value: reject it rather than
            // swallow it or silently fall back to the default.
            let raw = tokens
                .next()
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .ok_or_else(|| format!("{} needs a value", flag.name))?;
            match flag.takes {
                Takes::Count(_) => Value::Count(count(flag.name, raw)?),
                Takes::Keys => Value::Keys(split_list(flag.name, raw)?),
                Takes::Counts => Value::Counts(
                    split_list(flag.name, raw)?
                        .iter()
                        .map(|v| count(flag.name, v))
                        .collect::<Result<_, _>>()?,
                ),
                Takes::Nothing | Takes::Text(_) => Value::Text(raw.to_string()),
            }
        };
        match (flag.name, &value) {
            ("--quick", _) => cfg.quick = true,
            ("--json", Value::Text(path)) => cfg.json_path = Some(path.into()),
            ("--backend", Value::Text(key)) => {
                cfg.backend =
                    ExecBackend::parse(key).map_err(|e| format!("--backend {key}: {e}"))?;
            }
            _ => {}
        }
        given.insert(flag.name, Some(value));
    }
    Ok(Parsed::Run(Args { cfg, given }))
}

fn count(flag: &str, raw: &str) -> Result<usize, String> {
    raw.trim().parse().map_err(|_| format!("bad value `{raw}` for {flag}"))
}

/// Splits a comma-separated list, dropping empty entries and re-joining
/// bare `k=v` fragments with the entry before them — the key grammar
/// itself puts commas between parameters, so
/// `route:net=benes,stages=4,route:net=variant` is two keys, not three.
/// `{flag} needs at least one entry` is the error when nothing is left.
fn split_list(flag: &str, raw: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match out.last_mut() {
            Some(last) if part.contains('=') && !part.contains(':') => {
                last.push(',');
                last.push_str(part);
            }
            _ => out.push(part.to_string()),
        }
    }
    if out.is_empty() {
        return Err(format!("{flag} needs at least one entry"));
    }
    Ok(out)
}

/// The whole `main` of a binary: reads the process's argv (the only
/// place in the crate that does) and parses it against `cli`, then
/// hands the arguments to `body`, with `threads` taken from
/// `RR_RUNNER_THREADS`. Help goes to stdout with exit 0; a parse error,
/// or a [`Failure`] from `body`, is one `{bin}: {message}` line on
/// stderr with exit 2, except that a closed stdout pipe exits 0 quietly.
/// `body` checks its inputs before running anything and returns the
/// exit code of a run (1 for a FAIL verdict or a violation).
pub fn main(cli: &Cli<'_>, body: impl FnOnce(Args) -> Result<ExitCode, Failure>) -> ExitCode {
    let mut os_args = std::env::args_os();
    let arg0 = os_args.next().unwrap_or_default();
    let bin = std::path::Path::new(&arg0)
        .file_stem()
        .map_or_else(|| "exp".to_string(), |s| s.to_string_lossy().into_owned());
    let argv: Result<Vec<String>, String> = os_args
        .map(|a| a.into_string().map_err(|a| format!("argument {a:?} is not valid UTF-8")))
        .collect();
    let parsed = argv.and_then(|argv| parse(&bin, cli, &argv)).map_err(Failure::Usage);
    let outcome = parsed.and_then(|parsed| match parsed {
        Parsed::Help(usage) => {
            writeln!(io::stdout(), "{usage}")?;
            Ok(ExitCode::SUCCESS)
        }
        Parsed::Run(mut args) => {
            args.cfg.threads = runner_threads();
            body(args)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            match failure {
                Failure::Usage(message) => eprintln!("{bin}: {message}"),
                Failure::Output(e) => eprintln!("{bin}: cannot write output: {e}"),
            }
            ExitCode::from(2)
        }
    }
}

const JSON: Flag = Flag::text("--json", "PATH", "also write the structured records to PATH");
const BACKEND: Flag =
    Flag::text("--backend", "KEY", "execution core: dense (default), threads:t=N or shard:s=N");

/// The 15 claim binaries (`exp_theorem5` … `exp_progress`), through
/// [`crate::scenario::drive`], which puts the scenario's claim in
/// `about`.
pub const SCENARIO: Cli<'static> = Cli {
    about: "one scenario of the experiment catalogue",
    flags: &[Flag::switch("--quick", "CI-sized sweep"), JSON, BACKEND],
};

/// `exp_matrix`.
pub const MATRIX: Cli<'static> = Cli {
    about: "any registered algorithm × adversary × n, on any backend",
    flags: &[
        Flag::switch("--quick", "CI-sized sweep (each algorithm once, fair schedule)"),
        JSON,
        BACKEND,
        Flag::keys("--algos", "algorithm registry keys"),
        Flag::keys("--adversaries", "adversary registry keys"),
        Flag::counts("--sizes", "process counts (each at least the minimum --list shows)"),
        Flag::count("--seeds", "N", "seeds per cell (≥ 1)"),
        Flag::switch("--list", "print both registries and exit"),
        Flag::switch("--list-md", "print the README's registry key tables and exit"),
    ],
};

/// `exp_backends`.
pub const BACKENDS: Cli<'static> = Cli {
    about: "one batch on dense, shard:s=1 and shard:s=4, bit-checked and timed",
    flags: &[
        Flag::switch("--quick", "CI-sized race (n = 2^12, 2 seeds)"),
        JSON,
        Flag::text("--algo", "KEY", "algorithm registry key (default tight-tau:c=4)"),
        Flag::text("--adversary", "KEY", "adversary registry key (default fair)"),
        Flag::count("--n", "N", "process count (default 2^20; ≥ 4 for the shard:s=4 row)"),
        Flag::count("--seeds", "N", "seeds per backend (≥ 1)"),
    ],
};

/// `exp_route`.
pub const ROUTE: Cli<'static> = Cli {
    about: "topology-routed renaming: steps vs switching-network depth",
    flags: &[
        Flag::switch("--quick", "CI-sized sweep (n = 48 and 256, fair schedule only)"),
        JSON,
        Flag::keys("--nets", "`route:` registry keys to sweep"),
        Flag::counts("--sizes", "process counts (≥ 1; width = next power of two)"),
        Flag::keys("--adversaries", "crash-free adversary registry keys"),
    ],
};

/// `exp_explore`.
pub const EXPLORE: Cli<'static> = Cli {
    about:
        "schedule-space search: exhaustive DFS + fuzz, tape shrinking (exit 1 on a counterexample)",
    flags: &[
        Flag::switch("--quick", "CI-sized search (n = 4, depth 4, 12 fuzz rounds)"),
        JSON,
        Flag::keys("--algos", "algorithm registry keys to exhaust"),
        Flag::counts("--sizes", "process counts (each at least the algorithm's minimum)"),
        Flag::count("--depth", "D", "DFS branching horizon (decisions that fork; ≥ 1)"),
        Flag::count("--crashes", "C", "crash-decision budget inside the explored choice sets"),
        Flag::text("--fuzz-algo", "KEY", "algorithm registry key for the fuzz sweep"),
        Flag::count("--fuzz-n", "N", "process count for the fuzz sweep"),
        Flag::count("--rounds", "R", "fuzz rounds per strength"),
        Flag::counts("--strengths", "perturbation strengths in permille (≤ 1000)"),
    ],
};

/// `exp_report`.
pub const REPORT: Cli<'static> = Cli {
    about: "generate REPRODUCTION.md with statistical claim verdicts (exit 1 on a FAIL)",
    flags: &[
        Flag::switch("--quick", "CI-sized claim tiers (the committed BENCH_report.json shape)"),
        Flag::text("--json", "PATH", "also write the freshly measured records to PATH"),
        Flag::text("--out", "PATH", "where to write the report (default REPRODUCTION.md)"),
        BACKEND,
        Flag::keys("--from", "record files to merge (the committed BENCH_*.json)"),
        Flag::switch("--ingest", "run nothing: report from the --from files alone"),
    ],
};

/// `exp_model`.
pub const MODEL: Cli<'static> = Cli {
    about: "exhaustive interleaving checker for the lock-free core (exit 1 on a failure)",
    flags: &[
        Flag::switch("--quick", "CI-sized run (skips the heaviest scenario)"),
        Flag::keys("--scenarios", "collect, tas, tas-collide, tau, tau-collide, tau-quota"),
        Flag::count("--limit", "N", "override each scenario's execution budget"),
    ],
};

/// `exp_lint`.
pub const LINT: Cli<'static> = Cli {
    about: "source-level determinism lint for the workspace",
    flags: &[
        Flag::text("--root", "DIR", "workspace root (default: nearest with LINT_ALLOW.txt)"),
        Flag::text("--allowlist", "FILE", "allowlist path (default: <root>/LINT_ALLOW.txt)"),
        Flag::switch("--list-rules", "print the rule table and exit"),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TABLES: [Cli<'static>; 8] =
        [SCENARIO, MATRIX, BACKENDS, ROUTE, EXPLORE, REPORT, MODEL, LINT];

    fn run(cli: &Cli<'_>, argv: &[&str]) -> Result<Args, String> {
        match parse("exp", cli, argv)? {
            Parsed::Run(args) => Ok(args),
            Parsed::Help(usage) => panic!("{argv:?} asked for help:\n{usage}"),
        }
    }

    #[test]
    fn values_are_read_back_by_kind_and_the_last_one_wins() {
        let args = run(
            &EXPLORE,
            &["--algos", "cor9,fuzz:rounds=2,strength=5", "--sizes", " 4, ,5 ", "--depth", "3"],
        )
        .unwrap();
        assert_eq!(args.keys("--algos").unwrap(), ["cor9", "fuzz:rounds=2,strength=5"]);
        assert_eq!(args.counts("--sizes").unwrap(), [4, 5]);
        assert_eq!(args.count("--depth"), Some(3));
        assert_eq!(args.count("--crashes"), None);
        assert!(!args.has("--quick") && !args.cfg.quick);
        let args = run(&LINT, &["--root", "a", "--list-rules", "--root", "b"]).unwrap();
        assert_eq!(args.text("--root"), Some("b"));
        assert!(args.has("--list-rules"));
    }

    #[test]
    fn undeclared_and_empty_arguments_are_usage_errors() {
        for (cli, argv, message) in [
            (&SCENARIO, &["--quick", "extra"][..], "unknown argument `extra` (see --help)"),
            (&SCENARIO, &["--"], "unknown argument `--` (see --help)"),
            (&ROUTE, &["--backend", "dense"], "unknown argument `--backend` (see --help)"),
            (&EXPLORE, &["--backend", "dense"], "unknown argument `--backend` (see --help)"),
            (&SCENARIO, &["--json", ""], "--json needs a value"),
            (&MATRIX, &["--sizes", "8,-1"], "bad value `-1` for --sizes"),
        ] {
            assert_eq!(run(cli, argv).unwrap_err(), message, "{argv:?}");
        }
        let usage = match parse("exp_x", &LINT, &["--help", "--frobnicate"]) {
            Ok(Parsed::Help(usage)) => usage,
            other => panic!("not a help request: {other:?}"),
        };
        assert!(usage.contains("usage: exp_x [--root DIR] [--allowlist FILE] [--list-rules]"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Any argv drawn from a table's flags and a handful of hostile
        /// tokens parses to help, to `Ok` — where exactly the flags named
        /// in the argv read back, each by its kind and none empty — or to
        /// a one-line `Err`; it never panics.
        #[test]
        fn any_argv_parses_or_errs_without_panicking(
            table in 0usize..TABLES.len(),
            picks in proptest::collection::vec(0usize..1000, 0..9),
        ) {
            const HOSTILE: [&str; 11] =
                ["--help", "--frobnicate", "--", "-", "", ",", "0", "1e300", "é3", "→", "--rng"];
            let cli = &TABLES[table];
            let pool: Vec<&str> =
                cli.flags.iter().map(|f| f.name).chain(HOSTILE).collect();
            let argv: Vec<String> =
                picks.iter().map(|&i| pool[i % pool.len()].to_string()).collect();
            match parse("exp", cli, &argv) {
                Ok(Parsed::Help(usage)) => prop_assert!(usage.contains("usage: exp")),
                Ok(Parsed::Run(args)) => {
                    for Flag { name, takes, .. } in cli.flags {
                        // Flag names start with `--`, so none is ever a value.
                        prop_assert_eq!(args.has(name), argv.iter().any(|a| a == name));
                        match takes {
                            Takes::Nothing => {}
                            Takes::Text(_) => prop_assert!(args.text(name) != Some("")),
                            Takes::Count(_) => prop_assert_eq!(args.count(name).is_some(), args.has(name)),
                            Takes::Keys => prop_assert!(args.keys(name).is_none_or(|v| !v.is_empty())),
                            Takes::Counts => prop_assert!(args.counts(name).is_none_or(|v| !v.is_empty())),
                        }
                    }
                }
                Err(e) => prop_assert!(!e.is_empty() && !e.contains('\n'), "{argv:?}: {e:?}"),
            }
        }
    }
}
