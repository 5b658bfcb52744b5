//! Error-path coverage for the key grammar and the command line:
//! `ExecBackend::parse`, `ParsedKey::parse` and both registries must
//! turn malformed user input (`threads:t=0`, unknown keys, trailing
//! commas, …) into a **descriptive `Err`** — never a panic — and every
//! `exp_*` binary must turn a bad argument into exit 2 with one
//! `{bin}: {message}` line. The exact messages are pinned: they are
//! user-facing CLI output (`--backend`, `--json`, `--algos`,
//! `--adversaries`, the removed `--rng`) and experiment scripts grep
//! them.

use rr_bench::cli::{self, Cli, Takes};
use rr_bench::runner::ExecBackend;
use rr_bench::scenario::registry;
use rr_sched::registry::{standard, ParsedKey};

/// Runs `exe args`, expects exit 2 with nothing on stdout, and returns
/// the stderr line.
fn usage_error(exe: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(exe).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    assert!(out.stdout.is_empty(), "{exe} {args:?} printed to stdout before refusing");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn backend_rejects_zero_threads_with_a_named_bound() {
    assert_eq!(ExecBackend::parse("threads:t=0").unwrap_err(), "threads backend needs t ≥ 1");
}

#[test]
fn backend_rejects_zero_shards_with_a_named_bound() {
    assert_eq!(ExecBackend::parse("shard:s=0").unwrap_err(), "shard backend needs s ≥ 1");
}

#[test]
fn backend_rejects_unknown_names_listing_the_alternatives() {
    assert_eq!(
        ExecBackend::parse("gpu").unwrap_err(),
        "unknown backend `gpu` (known: dense, threads:t=N, shard:s=N)"
    );
    assert_eq!(
        ExecBackend::parse("virtual").unwrap_err(),
        "unknown backend `virtual` (known: dense, threads:t=N, shard:s=N)"
    );
}

#[test]
fn backend_rejects_unknown_and_malformed_parameters() {
    assert_eq!(
        ExecBackend::parse("dense:t=2").unwrap_err(),
        "unknown parameter `t` for `dense` (allowed: none)"
    );
    assert_eq!(
        ExecBackend::parse("virtual:x=1").unwrap_err(),
        "unknown backend `virtual` (known: dense, threads:t=N, shard:s=N)"
    );
    assert_eq!(
        ExecBackend::parse("threads:x=1").unwrap_err(),
        "unknown parameter `x` for `threads` (allowed: t)"
    );
    assert_eq!(
        ExecBackend::parse("threads:t=many").unwrap_err(),
        "parameter `t=many` of `threads` is invalid"
    );
    assert_eq!(
        ExecBackend::parse("shard:x=1").unwrap_err(),
        "unknown parameter `x` for `shard` (allowed: s)"
    );
    assert_eq!(
        ExecBackend::parse("shard:s=lots").unwrap_err(),
        "parameter `s=lots` of `shard` is invalid"
    );
}

#[test]
fn trailing_commas_are_malformed_parameters_not_panics() {
    assert_eq!(
        ParsedKey::parse("crash:p=20,").unwrap_err(),
        "malformed parameter `` in `crash:p=20,` (want k=v)"
    );
    assert_eq!(
        ExecBackend::parse("threads:t=4,").unwrap_err(),
        "malformed parameter `` in `threads:t=4,` (want k=v)"
    );
    assert_eq!(
        standard().prepare("fuzz:rounds=8,").err().unwrap(),
        "malformed parameter `` in `fuzz:rounds=8,` (want k=v)"
    );
}

#[test]
fn parsed_key_rejects_empty_and_nameless_keys() {
    assert_eq!(ParsedKey::parse("").unwrap_err(), "empty key");
    assert_eq!(ParsedKey::parse("   ").unwrap_err(), "empty key");
    assert_eq!(ParsedKey::parse(":p=1").unwrap_err(), "key `:p=1` has an empty name");
    assert_eq!(
        ParsedKey::parse("crash:p").unwrap_err(),
        "malformed parameter `p` in `crash:p` (want k=v)"
    );
}

#[test]
fn adversary_registry_lists_every_strategy_on_unknown_names() {
    assert_eq!(
        standard().prepare("livelock").err().unwrap(),
        "unknown adversary `livelock` (registered: bursty, collisions, crash, diurnal, fair, \
         lookahead, random, stall, victim)"
    );
}

#[test]
fn adversary_registry_validates_zoo_parameters() {
    assert_eq!(standard().prepare("lookahead:k=0").err().unwrap(), "lookahead needs k >= 1, got 0");
    assert_eq!(
        standard().prepare("lookahead:window=4").err().unwrap(),
        "unknown parameter `window` for `lookahead` (allowed: k)"
    );
    assert_eq!(standard().prepare("bursty:len=0").err().unwrap(), "bursty needs len >= 1, got 0");
    assert_eq!(
        standard().prepare("bursty:len").err().unwrap(),
        "malformed parameter `len` in `bursty:len` (want k=v)"
    );
    assert_eq!(
        standard().prepare("bursty:burst=4").err().unwrap(),
        "unknown parameter `burst` for `bursty` (allowed: len, gap)"
    );
    assert_eq!(
        standard().prepare("diurnal:period=1").err().unwrap(),
        "diurnal needs period >= 2, got 1"
    );
    assert_eq!(
        standard().prepare("diurnal:period=noon").err().unwrap(),
        "parameter `period=noon` of `diurnal` is invalid"
    );
    assert_eq!(
        standard().prepare("victim:pid=-1").err().unwrap(),
        "parameter `pid=-1` of `victim` is invalid"
    );
    assert_eq!(
        standard().prepare("victim:pid=3,").err().unwrap(),
        "malformed parameter `` in `victim:pid=3,` (want k=v)"
    );
}

#[test]
fn route_keys_pin_their_parse_errors() {
    assert_eq!(
        registry().build("route:net=unknown").err().unwrap(),
        "route net must be benes|butterfly|variant, got `unknown`"
    );
    assert_eq!(
        registry().build("route:stages=0").err().unwrap(),
        "route stages must be >= 1, got 0"
    );
    assert_eq!(
        registry().build("route:stages=deep").err().unwrap(),
        "parameter `stages=deep` of `route` is invalid"
    );
    assert_eq!(
        registry().build("route:topology=benes").err().unwrap(),
        "unknown parameter `topology` for `route` (allowed: net, stages)"
    );
    assert_eq!(
        registry().build("route:net=benes,").err().unwrap(),
        "malformed parameter `` in `route:net=benes,` (want k=v)"
    );
    assert_eq!(
        registry().build("route:net").err().unwrap(),
        "malformed parameter `net` in `route:net` (want k=v)"
    );
}

/// The schedule-space searchers are not registry keys: their
/// parameters are `exp_explore` flags, validated there.
#[test]
fn adversary_registry_validates_searcher_parameters() {
    assert_eq!(
        standard().prepare("crash:p=2000").err().unwrap(),
        "crash probability p=2000 exceeds 1000 permille"
    );
    assert_eq!(
        usage_error(
            env!("CARGO_BIN_EXE_exp_matrix"),
            &["--quick", "--adversaries", "explore:depth=4"]
        ),
        "exp_matrix: unknown adversary `explore` (registered: bursty, collisions, crash, \
         diurnal, fair, lookahead, random, stall, victim)\n"
    );
    let explore = env!("CARGO_BIN_EXE_exp_explore");
    assert_eq!(usage_error(explore, &["--depth", "0"]), "exp_explore: --depth must be ≥ 1\n");
    assert_eq!(
        usage_error(explore, &["--strengths", "1500"]),
        "exp_explore: strength 1500 exceeds 1000 permille\n"
    );
}

#[test]
fn algorithm_registry_lists_every_algorithm_on_unknown_names() {
    assert_eq!(
        registry().build("warp-speed").err().unwrap(),
        "unknown algorithm `warp-speed` (registered: aagw, adaptive, bitonic, cor7, cor9, \
         fetch-add, linear-scan, loose-l6, loose-l8, route, splitter-grid, tight-tau, \
         tight-tau-paper, uniform)"
    );
}

#[test]
fn algorithm_registry_names_each_minimum_size() {
    let reg = registry();
    for (key, n, n_min) in [
        ("cor9", 3, 4),
        ("cor7", 3, 4),
        ("loose-l6", 3, 4),
        ("loose-l8:l=2", 3, 4),
        ("tight-tau", 1, 2),
        ("tight-tau-paper:c=4", 3, 4),
        ("aagw", 0, 1),
    ] {
        assert_eq!(
            reg.check_size(key, n).unwrap_err(),
            format!("algorithm `{key}` needs n ≥ {n_min}, got n = {n}")
        );
        assert!(reg.check_size(key, n_min).is_ok(), "{key} at its minimum");
    }
}

/// `uniform`'s name space `⌈(1+ε)n⌉` is allocated up front, so an ε
/// too large to allocate is a parse error (exit 2 from the binaries),
/// not an aborted allocation mid-run.
#[test]
fn uniform_rejects_a_name_space_too_large_to_allocate() {
    let reg = registry();
    assert_eq!(
        reg.build("uniform:eps=1e300").err().unwrap(),
        "parameter `eps` of `uniform` must be ≤ 1024"
    );
    assert_eq!(
        reg.build("uniform:eps=1025").err().unwrap(),
        "parameter `eps` of `uniform` must be ≤ 1024"
    );
    assert!(reg.build("uniform:eps=1024").is_ok());
    let args =
        ["--quick", "--sizes", "64", "--algos", "uniform:eps=1e300", "--adversaries", "fair"];
    assert_eq!(
        usage_error(env!("CARGO_BIN_EXE_exp_matrix"), &args),
        "exp_matrix: parameter `eps` of `uniform` must be ≤ 1024\n"
    );
}

#[test]
fn experiment_binaries_exit_2_on_sizes_below_an_algorithm_minimum() {
    // Each binary rejects the size up front with exit 2 (never a panic
    // from the protocol's parameter assertions, never a silent clamp).
    let cases: [(&str, &str, &[&str], &str); 8] = [
        (
            env!("CARGO_BIN_EXE_exp_matrix"),
            "exp_matrix",
            &["--algos", "cor9", "--adversaries", "fair", "--sizes", "3", "--seeds", "1"],
            "algorithm `cor9` needs n ≥ 4, got n = 3",
        ),
        (
            env!("CARGO_BIN_EXE_exp_matrix"),
            "exp_matrix",
            &["--algos", "loose-l6", "--adversaries", "fair", "--sizes", "8,3", "--seeds", "1"],
            "algorithm `loose-l6` needs n ≥ 4, got n = 3",
        ),
        (
            env!("CARGO_BIN_EXE_exp_matrix"),
            "exp_matrix",
            &["--algos", "tight-tau", "--adversaries", "fair", "--sizes", "1", "--seeds", "1"],
            "algorithm `tight-tau` needs n ≥ 2, got n = 1",
        ),
        (
            env!("CARGO_BIN_EXE_exp_explore"),
            "exp_explore",
            &["--algos", "tight-tau-paper", "--sizes", "3"],
            "algorithm `tight-tau-paper` needs n ≥ 4, got n = 3",
        ),
        (
            env!("CARGO_BIN_EXE_exp_explore"),
            "exp_explore",
            &["--fuzz-algo", "cor7", "--fuzz-n", "2"],
            "algorithm `cor7` needs n ≥ 4, got n = 2",
        ),
        (
            env!("CARGO_BIN_EXE_exp_backends"),
            "exp_backends",
            &["--algo", "loose-l8", "--n", "2"],
            "algorithm `loose-l8` needs n ≥ 4, got n = 2",
        ),
        // The shoot-out always races `shard:s=4`, so n < 4 is refused
        // for every algorithm, and the adversary key is checked too.
        (
            env!("CARGO_BIN_EXE_exp_backends"),
            "exp_backends",
            &["--algo", "aagw", "--n", "1"],
            "shard backend needs s ≤ n (got s=4, n=1)",
        ),
        (
            env!("CARGO_BIN_EXE_exp_backends"),
            "exp_backends",
            &["--adversary", "nosuch"],
            "unknown adversary `nosuch` (registered: bursty, collisions, crash, diurnal, \
             fair, lookahead, random, stall, victim)",
        ),
    ];
    for (exe, name, args, message) in cases {
        assert_eq!(usage_error(exe, args), format!("{name}: {message}\n"), "{name} {args:?}");
    }
}

/// The `--help` text of every binary that takes `--backend` names each
/// key of the backend table, so the usage string cannot drift from the
/// parser; a removed key is rejected on the command line with exit 2.
#[test]
fn backend_taking_binaries_list_every_backend_key_in_their_help() {
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_exp_matrix"), "exp_matrix"),
        (env!("CARGO_BIN_EXE_exp_report"), "exp_report"),
    ] {
        let out = std::process::Command::new(exe).arg("--help").output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let help = String::from_utf8_lossy(&out.stdout);
        for (key, _, _) in rr_bench::listing::backend_rows() {
            assert!(help.contains(key), "{name} --help omits backend `{key}`:\n{help}");
        }
    }
    assert_eq!(
        usage_error(env!("CARGO_BIN_EXE_exp_matrix"), &["--backend", "virtual"]),
        "exp_matrix: --backend virtual: unknown backend `virtual` (known: dense, threads:t=N, \
         shard:s=N)\n"
    );
}

/// Under `shard:s=N` a row labelled n runs N independent sub-instances
/// of about n/N processes, so claim scenarios refuse N > 1; and no row
/// may have fewer processes than shards. Both exit 2 with one line on
/// stderr before any row runs (nothing on stdout), never a panic.
#[test]
fn shard_backend_is_refused_up_front_by_claim_scenarios_and_small_rows() {
    let claim = |s: usize| {
        format!(
            "scenario E1 checks paper claims at each row's n, but shard:s={s} runs {s} \
             independent sub-instances of about n/{s} processes; use --backend dense"
        )
    };
    let cases: [(&str, &str, &[&str], String); 4] = [
        (
            env!("CARGO_BIN_EXE_exp_theorem5"),
            "exp_theorem5",
            &["--quick", "--backend", "shard:s=2"],
            claim(2),
        ),
        (
            env!("CARGO_BIN_EXE_exp_report"),
            "exp_report",
            &["--quick", "--backend", "shard:s=2"],
            claim(2),
        ),
        (
            env!("CARGO_BIN_EXE_exp_theorem5"),
            "exp_theorem5",
            &["--quick", "--backend", "shard:s=5000"],
            claim(5000),
        ),
        (
            env!("CARGO_BIN_EXE_exp_matrix"),
            "exp_matrix",
            &[
                "--quick",
                "--backend",
                "shard:s=5000",
                "--algos",
                "tight-tau:c=4",
                "--adversaries",
                "fair",
                "--sizes",
                "64",
            ],
            "shard backend needs s ≤ n (got s=5000, n=64)".into(),
        ),
    ];
    for (exe, name, args, message) in cases {
        assert_eq!(usage_error(exe, args), format!("{name}: {message}\n"), "{name} {args:?}");
    }
}

/// The removed `--rng` flag exits 2 instead of being ignored, so a
/// script that asks for another generator cannot silently run ChaCha8.
#[test]
fn removed_rng_flag_exits_2_naming_the_removal() {
    for args in [&["--rng", "counter"][..], &["--quick", "--rng", "chacha8"], &["--rng"]] {
        assert_eq!(
            usage_error(env!("CARGO_BIN_EXE_exp_backends"), args),
            "exp_backends: --rng: RNG modes were removed; every process draws from ChaCha8\n",
            "{args:?}"
        );
    }
}

/// `--json` and `--backend` without a value exit 2 instead of silently
/// writing no file or running the default backend. A following flag is
/// not a value.
#[test]
fn valueless_json_and_backend_flags_exit_2() {
    for (args, flag) in [
        (&["--json"][..], "--json"),
        (&["--json", "--quick"], "--json"),
        (&["--quick", "--backend"], "--backend"),
        (&["--backend", "--quick"], "--backend"),
    ] {
        assert_eq!(
            usage_error(env!("CARGO_BIN_EXE_exp_matrix"), args),
            format!("exp_matrix: {flag} needs a value\n"),
            "{args:?}"
        );
    }
}

/// An output path that cannot be written exits 2 before any row runs:
/// `--json` on every binary that takes it, and `exp_report --out`.
#[test]
fn unwritable_output_paths_exit_2_before_any_row_runs() {
    let path = "/nonexistent/dir/x.json";
    let refusal = format!("cannot write `{path}`: No such file or directory (os error 2)");
    for (exe, name, table) in binaries() {
        if table.flags.iter().any(|f| f.name == "--json") {
            let quick = table.flags.iter().find(|f| f.name == "--quick");
            let args: Vec<&str> =
                quick.map(|f| f.name).into_iter().chain(["--json", path]).collect();
            assert_eq!(usage_error(exe, &args), format!("{name}: {refusal}\n"), "{name}");
        }
    }
    assert_eq!(
        usage_error(env!("CARGO_BIN_EXE_exp_report"), &["--quick", "--out", path]),
        format!("exp_report: {refusal}\n")
    );
}

#[test]
fn registry_listing_shows_each_size_bound() {
    let listing = rr_bench::listing::registry_listing();
    let tables = rr_bench::listing::registry_tables_markdown();
    for (line, row) in [
        ("Corollary 9 full loose renaming [n ≥ 4]", "Corollary 9 full loose renaming (n ≥ 4)"),
        ("(Theorem 5) [n ≥ 2]", "(Theorem 5) (n ≥ 2)"),
        ("(n(n+1)/2 cells, 4 B + 1 bit each) [n ≤ 4096]", "4 B + 1 bit each) (n ≤ 4096)"),
    ] {
        assert!(listing.contains(line), "--list lacks `{line}`");
        assert!(tables.contains(row), "--list-md lacks `{row}`");
    }
}

#[test]
fn backend_round_trip_still_accepts_the_valid_grammar() {
    // Guard against over-tightening: the messages above must coexist
    // with the documented happy paths.
    assert_eq!(ExecBackend::parse("threads:t=1").unwrap(), ExecBackend::Threads { t: 1 });
    assert_eq!(ExecBackend::parse(" dense ").unwrap(), ExecBackend::Dense);
    assert_eq!(ExecBackend::parse("shard:s=4").unwrap(), ExecBackend::Shard { s: 4 });
}

#[test]
fn model_scenario_registry_lists_every_key_on_unknown_names() {
    assert_eq!(
        rr_bench::modelcheck::scenario_by_key("deadlock").unwrap_err(),
        "unknown model scenario `deadlock` (known: collect, tas, tas-collide, tau, tau-collide, \
         tau-quota)"
    );
}

#[test]
fn lint_allowlist_errors_name_the_offending_line() {
    use rr_lint::{Allowlist, Rule};
    assert_eq!(
        Allowlist::parse("bogus crates/x/src/lib.rs why").unwrap_err(),
        "allowlist line 1: unknown rule `bogus` (known: hash-iter, raw-pid-index, thread-spawn, \
         unsafe-comment, wall-clock)"
    );
    assert_eq!(
        Allowlist::parse("# fine\nhash-iter\n").unwrap_err(),
        "allowlist line 2: want `rule path reason…`, got `hash-iter`"
    );
    assert_eq!(
        Allowlist::parse("wall-clock crates/x/src/lib.rs").unwrap_err(),
        "allowlist line 1: entry for `crates/x/src/lib.rs` needs a reason"
    );
    assert_eq!(
        Rule::from_key("hash-map").unwrap_err(),
        "unknown rule `hash-map` (known: hash-iter, raw-pid-index, thread-spawn, unsafe-comment, \
         wall-clock)"
    );
}

/// A reader that stops after one line (`exp_lemma3 --quick | head -1`)
/// closes the pipe while the binary still has rows to print: the failed
/// write ends the run quietly with exit 0, not with a panic. The same
/// holds for `exp_lint`, `exp_model` and `exp_matrix --list`/`--list-md`.
#[test]
fn closed_stdout_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_exp_lemma3"))
        .arg("--quick")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "the binary printed nothing");
    // The reader is dropped: the pipe is closed under the running binary.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe is not reported: {stderr}");

    // The binaries that print without a scenario sink, each spawned on a
    // pipe whose read end is already closed, so the first write fails.
    let no_workspace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-workspace");
    let cases: [(&str, Vec<&str>); 5] = [
        (env!("CARGO_BIN_EXE_exp_lint"), vec!["--list-rules"]),
        (env!("CARGO_BIN_EXE_exp_lint"), vec!["--root", no_workspace.to_str().unwrap()]),
        (env!("CARGO_BIN_EXE_exp_model"), vec!["--scenarios", "tas"]),
        (env!("CARGO_BIN_EXE_exp_matrix"), vec!["--list"]),
        (env!("CARGO_BIN_EXE_exp_matrix"), vec!["--list-md"]),
    ];
    for (exe, args) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(exe).args(&args).stdout(writer).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
        assert!(stderr.is_empty(), "{exe} {args:?}: a closed pipe is not reported: {stderr}");
    }
}

/// Every `exp_*` binary with the flag table it parses against.
fn binaries() -> [(&'static str, &'static str, Cli<'static>); 22] {
    [
        (env!("CARGO_BIN_EXE_exp_theorem5"), "exp_theorem5", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_lemma3"), "exp_lemma3", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_lemma4"), "exp_lemma4", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_lemma6"), "exp_lemma6", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_cor7"), "exp_cor7", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_lemma8"), "exp_lemma8", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_cor9"), "exp_cor9", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_baselines"), "exp_baselines", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_adversary"), "exp_adversary", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_tau"), "exp_tau", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_deterministic_gap"), "exp_deterministic_gap", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_adaptive"), "exp_adaptive", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_longlived"), "exp_longlived", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_ablation"), "exp_ablation", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_progress"), "exp_progress", cli::SCENARIO),
        (env!("CARGO_BIN_EXE_exp_matrix"), "exp_matrix", cli::MATRIX),
        (env!("CARGO_BIN_EXE_exp_backends"), "exp_backends", cli::BACKENDS),
        (env!("CARGO_BIN_EXE_exp_route"), "exp_route", cli::ROUTE),
        (env!("CARGO_BIN_EXE_exp_explore"), "exp_explore", cli::EXPLORE),
        (env!("CARGO_BIN_EXE_exp_report"), "exp_report", cli::REPORT),
        (env!("CARGO_BIN_EXE_exp_model"), "exp_model", cli::MODEL),
        (env!("CARGO_BIN_EXE_exp_lint"), "exp_lint", cli::LINT),
    ]
}

#[test]
fn new_cli_binaries_exit_2_on_unknown_flags() {
    // Same convention as every exp_* binary: unknown argument → exit 2
    // with a one-line hint on stderr; never a panic, never exit 1
    // (which means real violations / non-linearizable traces).
    for (exe, name, _) in binaries() {
        assert_eq!(
            usage_error(exe, &["--frobnicate"]),
            format!("{name}: unknown argument `--frobnicate` (see --help)\n")
        );
    }
}

/// `--help` and `-h` print the usage, naming every declared flag, and
/// exit 0 without running anything — even after a flag that would
/// start a sweep.
#[test]
fn every_binary_prints_its_usage_on_help_and_runs_nothing() {
    for (exe, name, table) in binaries() {
        let switch = table.flags.iter().find(|f| f.takes == Takes::Nothing).expect("a switch");
        for args in [&["--help"][..], &["-h"], &[switch.name, "--help"]] {
            let out = std::process::Command::new(exe).args(args).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(0), "{name} {args:?}");
            assert!(out.stderr.is_empty(), "{name} {args:?}");
            let help = String::from_utf8_lossy(&out.stdout);
            let synopsis = help
                .split("\n\n")
                .find(|p| p.starts_with(&format!("usage: {name} ")))
                .unwrap_or_else(|| panic!("{name} {args:?} has no usage line:\n{help}"));
            for flag in table.flags {
                assert!(synopsis.contains(&format!("[{}", flag.name)), "{name}: {synopsis}");
            }
            assert!(!help.contains("==="), "{name} {args:?} ran a table:\n{help}");
        }
    }
}

/// Every value flag of every binary: given last, or followed by a
/// `--flag`, it exits 2 naming the flag; a number flag given a
/// non-number exits 2 too.
#[test]
fn every_value_flag_needs_a_value_and_every_number_flag_a_number() {
    for (exe, name, table) in binaries() {
        for flag in table.flags.iter().filter(|f| f.takes != Takes::Nothing) {
            let needs = format!("{name}: {} needs a value\n", flag.name);
            assert_eq!(usage_error(exe, &[flag.name]), needs);
            assert_eq!(usage_error(exe, &[flag.name, "--x"]), needs);
            if matches!(flag.takes, Takes::Count(_) | Takes::Counts) {
                assert_eq!(
                    usage_error(exe, &[flag.name, "é3"]),
                    format!("{name}: bad value `é3` for {}\n", flag.name)
                );
            }
        }
    }
}

/// A list flag whose entries are all empty exits 2 instead of running
/// an empty table under the renaming-safety audit line.
#[test]
fn list_flags_reject_lists_with_no_entries() {
    for (exe, name, table) in binaries() {
        for flag in table.flags {
            if matches!(flag.takes, Takes::Keys | Takes::Counts) {
                for list in [",", " , "] {
                    assert_eq!(
                        usage_error(exe, &[flag.name, list]),
                        format!("{name}: {} needs at least one entry\n", flag.name)
                    );
                }
            }
        }
    }
    let matrix = env!("CARGO_BIN_EXE_exp_matrix");
    assert_eq!(
        usage_error(matrix, &["--quick", "--algos", ",", "--sizes", "8"]),
        "exp_matrix: --algos needs at least one entry\n"
    );
}

/// Nothing runs under `--ingest`, so the flags that only steer a run are
/// refused rather than ignored.
#[test]
fn report_ingest_rejects_run_only_flags() {
    let report = env!("CARGO_BIN_EXE_exp_report");
    for (flag, value) in [("--json", "x.json"), ("--backend", "dense")] {
        assert_eq!(
            usage_error(report, &["--ingest", "--from", "BENCH_route.json", flag, value]),
            format!("exp_report: {flag} has no effect with --ingest (nothing is executed)\n")
        );
    }
}

#[test]
fn exp_lint_reports_allowlist_parse_failures_as_usage_errors() {
    let dir = std::env::temp_dir().join("rr_lint_badallow_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("ALLOW.txt");
    std::fs::write(&bad, "nonsense-rule a b\n").expect("write allowlist");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp_lint"))
        .args(["--allowlist"])
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "bad allowlist is a usage error, not a lint failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("allowlist line 1: unknown rule `nonsense-rule`"),
        "stderr was: {stderr}"
    );
}
