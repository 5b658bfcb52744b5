//! The topology-routed renaming experiment behind `exp_route`: the
//! `route:` family swept over switching topologies, sizes and crash-free
//! schedules, reporting total steps against network depth.
//!
//! The family's defining trade-off is *geometric*: every stage pairs
//! all wires, so each process meets exactly one TAS switch per stage
//! and total steps equal `n × depth` under **any** crash-free schedule
//! — the schedule moves who wins each switch, never how many switches
//! are crossed. The spec measures that identity across the butterfly
//! (`q` stages), the Beneš network (`2q − 1`), the PAPERS.md Beneš
//! variant (`2q`) and a `stages=K` override, and emits one coverage
//! record per cell carrying both `steps` and `depth` — the pair the
//! `rr-report` depth-vs-steps cross-check re-derives and verdicts.

use crate::runner::RunConfig;
use crate::scenario::{Record, ScenarioSpec, Section, Value};
use rr_analysis::table::fnum;
use rr_analysis::Table;
use rr_baselines::RouteRenaming;
use rr_renaming::traits::RenamingAlgorithm;
use rr_sched::registry::{standard, ParsedKey};
use rr_sched::shard::Arena;
use std::time::Instant;

/// What to route: all fields have `--quick`-aware defaults (see
/// [`RouteOptions::defaults`]); the `exp_route` CLI overrides any of
/// them.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// `route:` algorithm registry keys (topology + optional override).
    pub networks: Vec<String>,
    /// Process counts to sweep (width is the next power of two).
    pub sizes: Vec<usize>,
    /// Adversary registry keys — crash-free schedules only, so the
    /// steps = n × depth identity is exact in every cell.
    pub adversaries: Vec<String>,
}

impl RouteOptions {
    /// Quick mode: the three closed-form topologies plus one `stages`
    /// override, at a partial-occupancy and a full-occupancy size,
    /// under the fair schedule — the CI smoke configuration. Full mode
    /// adds n = 1024 and the random and collision-maximizer schedules.
    pub fn defaults(cfg: &RunConfig) -> Self {
        Self {
            networks: vec![
                "route:net=butterfly".into(),
                "route:net=benes".into(),
                "route:net=variant".into(),
                "route:net=benes,stages=4".into(),
            ],
            sizes: cfg.pick(vec![48, 256, 1024], vec![48, 256]),
            adversaries: cfg.pick(
                vec!["fair".into(), "random".into(), "collisions".into()],
                vec!["fair".into()],
            ),
        }
    }
}

/// The route scenario over `opts`.
pub fn route(cfg: &RunConfig, opts: &RouteOptions) -> ScenarioSpec {
    let _ = cfg; // the identity is exact, not sampled: one run per cell
    let o = opts.clone();
    ScenarioSpec {
        id: "ROUTE",
        claim: "topology-routed renaming: total steps equal n × network depth under every \
                crash-free schedule",
        sections: vec![Section::custom(move |emitter| {
            let mut table = Table::new(vec![
                "network",
                "adversary",
                "n",
                "width",
                "depth",
                "steps",
                "steps/(n·depth)",
                "unnamed",
            ]);
            let mut arena = Arena::new();
            for key in &o.networks {
                let parsed =
                    ParsedKey::parse(key).unwrap_or_else(|e| panic!("scenario ROUTE: {e}"));
                assert_eq!(parsed.name, "route", "scenario ROUTE sweeps only `route:` keys");
                let algo = RouteRenaming::from_key(&parsed)
                    .unwrap_or_else(|e| panic!("scenario ROUTE: {e}"));
                for &n in &o.sizes {
                    let width = algo.m(n);
                    let depth = algo.depth(n);
                    for adv_key in &o.adversaries {
                        let mut adv = standard()
                            .build(adv_key, n, 0)
                            .unwrap_or_else(|e| panic!("scenario ROUTE: {e}"));
                        let start = Instant::now();
                        let out = algo
                            .run_dense(n, 0, adv.as_mut(), &mut arena)
                            .unwrap_or_else(|e| panic!("scenario ROUTE: {e}"));
                        let wall = start.elapsed().as_secs_f64();
                        out.verify_renaming(width)
                            .unwrap_or_else(|v| panic!("scenario ROUTE: renaming violation: {v}"));
                        let steps = out.total_steps();
                        let unnamed = out.gave_up_count() as u64;
                        table.row(vec![
                            key.clone(),
                            adv_key.clone(),
                            n.to_string(),
                            width.to_string(),
                            depth.to_string(),
                            steps.to_string(),
                            fnum(steps as f64 / (n as f64 * depth as f64), 3),
                            unnamed.to_string(),
                        ]);
                        let mut fields = vec![
                            ("algorithm".into(), Value::Str(key.clone())),
                            ("net".into(), Value::Str(algo.topology.label().into())),
                            ("adversary".into(), Value::Str(adv_key.clone())),
                            ("backend".into(), Value::Str("dense".into())),
                            ("n".into(), Value::U64(n as u64)),
                            ("width".into(), Value::U64(width as u64)),
                            ("depth".into(), Value::U64(depth as u64)),
                            ("steps".into(), Value::U64(steps)),
                            ("unnamed".into(), Value::U64(unnamed)),
                        ];
                        if let Some(k) = algo.stages {
                            fields.push(("stages".into(), Value::U64(k as u64)));
                        }
                        emitter.record(&Record {
                            scenario: "ROUTE".into(),
                            section: "depth".into(),
                            fields,
                        });
                        let per_sec = if wall > 0.0 { steps as f64 / wall } else { f64::INFINITY };
                        emitter.record(&Record {
                            scenario: "ROUTE".into(),
                            section: "depth".into(),
                            fields: vec![
                                ("kind".into(), Value::Str("throughput".into())),
                                ("algorithm".into(), Value::Str(key.clone())),
                                ("adversary".into(), Value::Str(adv_key.clone())),
                                ("backend".into(), Value::Str("dense".into())),
                                ("n".into(), Value::U64(n as u64)),
                                ("steps".into(), Value::U64(steps)),
                                ("wall_ms".into(), Value::F64(wall * 1e3)),
                                ("steps_per_sec".into(), Value::F64(per_sec)),
                            ],
                        });
                    }
                }
            }
            emitter.text(table.to_string());
        })],
        claim_check: "claim check: 'steps/(n·depth)' is 1.000 in every row — the schedule \
                      decides who wins each switch, never how many switches are crossed — \
                      and 'unnamed' is 0 (the family is total under crash-free schedules). \
                      At each width the closed-form depths order butterfly (q) < Beneš \
                      (2q−1) < variant (2q); every cell ran under the renaming-safety audit."
            .into(),
        reproduces: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_spec, Sink, TableSink};

    /// A tiny end-to-end run: at n = 8 (width 8, q = 3) the three
    /// closed-form topologies cost exactly 8·3 = 24, 8·5 = 40 and
    /// 8·6 = 48 steps, and the override costs 8·4 = 32.
    #[test]
    fn tiny_route_spec_reports_the_exact_depth_identity() {
        let opts = RouteOptions {
            networks: vec![
                "route:net=butterfly".into(),
                "route:net=benes".into(),
                "route:net=variant".into(),
                "route:net=benes,stages=4".into(),
            ],
            sizes: vec![8],
            adversaries: vec!["fair".into(), "collisions".into()],
        };
        let spec = route(&RunConfig::default(), &opts);
        let mut buf = Vec::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
            run_spec(spec, &RunConfig::default(), &mut sinks);
        }
        let out = String::from_utf8(buf).unwrap();
        for needle in ["route:net=butterfly", "route:net=benes,stages=4"] {
            assert!(out.contains(needle), "{out}");
        }
        // Every row's ratio column is exactly 1.000 — under both the
        // fair and the collision-maximizing schedule.
        assert!(out.contains("1.000"), "{out}");
        assert!(!out.contains("0.9"), "a cell missed the identity: {out}");
        for steps in ["24", "40", "48", "32"] {
            assert!(out.contains(steps), "missing steps column {steps}: {out}");
        }
    }

    /// Non-route keys are a programming error, not a silent skip.
    #[test]
    #[should_panic(expected = "scenario ROUTE sweeps only `route:` keys")]
    fn non_route_keys_are_rejected() {
        let opts = RouteOptions {
            networks: vec!["bitonic".into()],
            sizes: vec![8],
            adversaries: vec!["fair".into()],
        };
        let spec = route(&RunConfig::default(), &opts);
        let mut buf = Vec::new();
        let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
        run_spec(spec, &RunConfig::default(), &mut sinks);
    }
}
