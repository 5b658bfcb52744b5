//! Error-path coverage for the key grammar: `ExecBackend::parse`,
//! `ParsedKey::parse` and both registries must turn malformed user input
//! (`threads:t=0`, unknown keys, trailing commas, …) into a
//! **descriptive `Err`** — never a panic. The exact messages are pinned:
//! they are user-facing CLI output (`--backend`, `--json`, `--algos`,
//! `--adversaries`, the removed `--rng`) and experiment scripts grep
//! them.

use rr_bench::runner::ExecBackend;
use rr_bench::scenario::registry;
use rr_sched::registry::{standard, ParsedKey};

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
        "unknown adversary `livelock` (registered: bursty, collisions, crash, diurnal, explore, \
         fair, fuzz, lookahead, random, stall, victim)"
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

#[test]
fn adversary_registry_validates_searcher_parameters() {
    assert_eq!(standard().prepare("explore:depth=0").err().unwrap(), "explore needs depth ≥ 1");
    assert_eq!(
        standard().prepare("explore:d=3").err().unwrap(),
        "unknown parameter `d` for `explore` (allowed: depth, crashes)"
    );
    assert_eq!(
        standard().prepare("fuzz:strength=1500").err().unwrap(),
        "fuzz strength 1500 exceeds 1000 permille"
    );
    assert_eq!(standard().prepare("fuzz:rounds=0").err().unwrap(), "fuzz needs rounds ≥ 1");
    assert_eq!(
        standard().prepare("crash:p=2000").err().unwrap(),
        "crash probability p=2000 exceeds 1000 permille"
    );
    assert_eq!(
        standard().prepare("explore:depth=x").err().unwrap(),
        "parameter `depth=x` of `explore` is invalid"
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

#[test]
fn experiment_binaries_exit_2_on_sizes_below_an_algorithm_minimum() {
    // Each binary rejects the size up front with exit 2 (never a panic
    // from the protocol's parameter assertions, never a silent clamp).
    let cases: [(&str, &str, &[&str], &str); 6] = [
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
    ];
    for (exe, name, args, message) in cases {
        let out = std::process::Command::new(exe).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim(), format!("{name}: {message}"), "{name} {args:?}");
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
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp_matrix"))
        .args(["--backend", "virtual"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim(),
        "--backend virtual: unknown backend `virtual` (known: dense, threads:t=N, shard:s=N)"
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
        let out = std::process::Command::new(exe).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{name}: {message}\n"),
            "{name} {args:?}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?} ran rows before refusing");
    }
}

/// The removed `--rng` flag exits 2 instead of being ignored, so a
/// script that asks for another generator cannot silently run ChaCha8.
#[test]
fn removed_rng_flag_exits_2_naming_the_removal() {
    for args in [&["--rng", "counter"][..], &["--quick", "--rng", "chacha8"], &["--rng"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp_backends"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            "--rng: RNG modes were removed; every process draws from ChaCha8",
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
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp_matrix"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            format!("{flag} needs a value"),
            "{args:?}"
        );
    }
}

#[test]
fn registry_listing_shows_each_size_bound() {
    let listing = rr_bench::listing::registry_listing();
    let tables = rr_bench::listing::registry_tables_markdown();
    for (line, row) in [
        ("Corollary 9 full loose renaming [n ≥ 4]", "Corollary 9 full loose renaming (n ≥ 4)"),
        ("(Theorem 5) [n ≥ 2]", "(Theorem 5) (n ≥ 2)"),
        ("(quadratic space) [n ≤ 4096]", "(quadratic space) (n ≤ 4096)"),
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

#[test]
fn new_cli_binaries_exit_2_on_unknown_flags() {
    // Same convention as every exp_* binary: unknown argument → exit 2
    // with a one-line hint on stderr; never a panic, never exit 1
    // (which means real violations / non-linearizable traces).
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_exp_model"), "exp_model"),
        (env!("CARGO_BIN_EXE_exp_lint"), "exp_lint"),
        (env!("CARGO_BIN_EXE_exp_route"), "exp_route"),
    ] {
        let out =
            std::process::Command::new(exe).arg("--frobnicate").output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name} must exit 2 on unknown flags");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim(), format!("{name}: unknown argument `--frobnicate` (see --help)"));
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
