//! Golden-output tests: the declarative specs must render **byte
//! identical** to what the hand-written `exp_*` binaries printed before
//! the scenario engine existed (quick mode; captured from the pre-engine
//! binaries and checked into `tests/golden/`).
//!
//! Every quantity in these tables is deterministic — instantiation, coin
//! flips and adversaries all derive from `(seed, pid)` streams, and the
//! parallel runner is bit-identical to serial — so an exact string
//! comparison is meaningful on any machine.

use rr_bench::runner::RunConfig;
use rr_bench::scenario::{render_to_string, run_spec, specs, JsonSink, Sink};

fn quick() -> RunConfig {
    RunConfig { quick: true, ..RunConfig::default() }
}

#[test]
fn exp_theorem5_quick_output_is_golden() {
    let out = render_to_string(specs::theorem5(&quick()));
    let golden = include_str!("golden/exp_theorem5.quick.txt");
    assert_eq!(out, golden, "exp_theorem5 --quick output drifted from the pre-engine binary");
}

#[test]
fn exp_cor9_quick_output_is_golden() {
    let out = render_to_string(specs::cor9(&quick()));
    let golden = include_str!("golden/exp_cor9.quick.txt");
    assert_eq!(out, golden, "exp_cor9 --quick output drifted from the pre-engine binary");
}

/// Replaces the value after every `"key":` in `keys` with `<t>` —
/// wall-clock fields vary per machine, but the record *shape* (field
/// names, order, and every seed-deterministic value) must not.
fn mask_volatile(body: &str, keys: &[&str]) -> String {
    let mut out = body.to_string();
    for key in keys {
        let needle = format!("\"{key}\":");
        let mut masked = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(&needle) {
            let after = pos + needle.len();
            masked.push_str(&rest[..after]);
            masked.push_str("<t>");
            let tail = &rest[after..];
            let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
            rest = &tail[end..];
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

/// `exp_backends --quick --json` JSON shape: the throughput records'
/// field names, ordering, backends and every deterministic value
/// (n, runs, steps_total) are pinned; only wall-clock values are masked.
#[test]
fn exp_backends_quick_json_shape_is_golden() {
    let path = std::env::temp_dir().join(format!("rr_backends_golden_{}.json", std::process::id()));
    let cfg = quick();
    {
        let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(JsonSink::new(path.clone()))];
        run_spec(specs::backends(&specs::BackendsOptions::defaults(&cfg)), &cfg, &mut sinks);
        for sink in &mut sinks {
            sink.finish().unwrap();
        }
    }
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let masked = mask_volatile(&body, &["wall_ms", "runs_per_sec", "steps_per_sec"]);
    let golden = include_str!("golden/exp_backends.quick.json.txt");
    assert_eq!(masked, golden, "exp_backends --quick JSON shape drifted");
}

/// `exp_route --quick --json` JSON shape: every coverage record's
/// steps/depth pair is seed-deterministic (the family is geometric), so
/// the whole snapshot is pinned with only wall-clock values masked.
#[test]
fn exp_route_quick_json_shape_is_golden() {
    let path = std::env::temp_dir().join(format!("rr_route_golden_{}.json", std::process::id()));
    let cfg = quick();
    {
        let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(JsonSink::new(path.clone()))];
        run_spec(specs::route(&cfg, &specs::RouteOptions::defaults(&cfg)), &cfg, &mut sinks);
        for sink in &mut sinks {
            sink.finish().unwrap();
        }
    }
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let masked = mask_volatile(&body, &["wall_ms", "steps_per_sec"]);
    let golden = include_str!("golden/exp_route.quick.json.txt");
    assert_eq!(masked, golden, "exp_route --quick JSON shape drifted");
}

#[test]
fn mask_volatile_rewrites_only_the_named_fields() {
    let masked =
        mask_volatile("{\"a\":1,\"wall_ms\":3.25,\"b\":\"x\"}\n{\"wall_ms\":9}", &["wall_ms"]);
    assert_eq!(masked, "{\"a\":1,\"wall_ms\":<t>,\"b\":\"x\"}\n{\"wall_ms\":<t>}");
}
