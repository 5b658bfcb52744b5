//! The headline claims: Theorem 5, Lemmas 6/8 and Corollaries 7/9 as
//! pure batch-table scenarios. These are the specs the golden tests pin
//! byte-for-byte against the pre-engine binaries.

use crate::runner::RunConfig;
use crate::scenario::{BatchSection, ClaimCheck, Column, RowSpec, ScenarioSpec, Section};
use rr_analysis::stats::{norm_log2, norm_loglog_sq, per_n, upper_median};
use rr_analysis::table::fnum;
use rr_renaming::{spare, Lemma6Schedule, Lemma8Schedule, TightPlan};

/// E1 — Theorem 5: tight renaming of `n` processes into `n` names in
/// `O(log n)` steps w.h.p., using `O(n)` space.
///
/// For each `n` the calibrated §III protocol runs over many seeds; the
/// step complexity (max steps of any process) is reported normalized by
/// `log₂ n`. The claim holds if the normalized column is bounded by a
/// constant as `n` grows and no run fails. Space usage is total device
/// bits + name slots over `n`.
pub fn theorem5(cfg: &RunConfig) -> ScenarioSpec {
    let (sizes, seeds) = cfg
        .pick((vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18], 30), (vec![1 << 8, 1 << 10], 5));
    let c = 4u32;
    let rows = sizes
        .iter()
        .map(|&n| RowSpec::new(format!("tight-tau:c={c}"), "fair", n, cfg.seeds_for(n, seeds)))
        .collect();
    ScenarioSpec {
        id: "E1",
        claim: "Theorem 5 — tight renaming in O(log n) steps w.h.p., O(n) space",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: vec![
                Column::new("n", |ctx| ctx.row.n.to_string()),
                Column::new("runs", |ctx| ctx.row.seeds.to_string()),
                Column::new("steps p50", |ctx| {
                    upper_median(&ctx.stats.step_complexity).to_string()
                }),
                Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
                Column::new("max/log2(n)", |ctx| {
                    fnum(norm_log2(ctx.stats.max_steps() as f64, ctx.row.n), 2)
                }),
                Column::new("mean steps", |ctx| fnum(ctx.stats.mean_mean_steps(), 2)),
                Column::new("unnamed", |ctx| ctx.stats.max_unnamed().to_string()),
                Column::new("space/n", move |ctx| {
                    let plan = TightPlan::calibrated(ctx.row.n, c);
                    fnum(per_n((plan.total_bits() + plan.total_names()) as f64, ctx.row.n), 2)
                }),
            ],
            rows,
        })],
        claim_check: "claim check: 'max/log2(n)' bounded by a constant as n grows; \
                      'unnamed' identically 0; 'space/n' bounded (O(n) space)."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "theorem5",
            bound: "O(log n) steps w.h.p., O(n) space, m = n",
        }],
    }
}

/// E4 — Lemma 6: `n/(log log n)^ℓ`-almost-tight renaming on `n` TAS
/// registers with step complexity `O((log log n)^ℓ)`.
///
/// For ℓ ∈ {1,2,3} and a sweep of n, the unnamed count is checked
/// against the `2n/(log log n)^ℓ` w.h.p. bound and the exact step
/// ceiling `Σ 2^i`.
pub fn lemma6(cfg: &RunConfig) -> ScenarioSpec {
    let (sizes, seeds) = cfg.pick(
        (vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20], 30),
        (vec![1 << 10, 1 << 12], 5),
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        for ell in [1u32, 2, 3] {
            rows.push(
                RowSpec::new(format!("loose-l6:l={ell}"), "fair", n, cfg.seeds_for(n, seeds))
                    .tagged(ell as u64),
            );
        }
    }
    let schedule_of =
        |ctx: &crate::scenario::RowCtx<'_>| Lemma6Schedule::new(ctx.row.n, ctx.row.tag as u32);
    ScenarioSpec {
        id: "E4",
        claim: "Lemma 6 — n/(loglog n)^l-almost-tight renaming in O((loglog n)^l) steps",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: vec![
                Column::new("n", |ctx| ctx.row.n.to_string()),
                Column::new("l", |ctx| ctx.row.tag.to_string()),
                Column::new("rounds", move |ctx| schedule_of(ctx).rounds.to_string()),
                Column::new("step bound", move |ctx| schedule_of(ctx).total_steps.to_string()),
                Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
                Column::new("unnamed mean", |ctx| fnum(ctx.stats.mean_unnamed(), 1)),
                Column::new("unnamed max", |ctx| ctx.stats.max_unnamed().to_string()),
                Column::new("bound 2n/(lln)^l", move |ctx| fnum(schedule_of(ctx).unnamed_bound, 1)),
                Column::new("ok", move |ctx| {
                    if (ctx.stats.max_unnamed() as f64) <= schedule_of(ctx).unnamed_bound {
                        "yes".into()
                    } else {
                        "VIOLATED".to_string()
                    }
                }),
            ],
            rows,
        })],
        claim_check: "claim check: every row 'ok' = yes (unnamed within the w.h.p. \
                      bound) and 'steps max' ≤ 'step bound' (the schedule is the exact \
                      ceiling)."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "lemma6",
            bound: "unnamed <= 2n/(loglog n)^l w.h.p., steps <= the exact schedule ceiling",
        }],
    }
}

/// E6 — Lemma 8: `n/(log n)^ℓ`-almost-tight renaming with step
/// complexity `2ℓ(log log n)²` (the corrected schedule: `ℓ·⌈loglog n⌉`
/// phases; README "Deviations from the paper", item 4).
pub fn lemma8(cfg: &RunConfig) -> ScenarioSpec {
    let (sizes, seeds) = cfg.pick(
        (vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20], 30),
        (vec![1 << 10, 1 << 12], 5),
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        for ell in [1u32, 2] {
            rows.push(
                RowSpec::new(format!("loose-l8:l={ell}"), "fair", n, cfg.seeds_for(n, seeds))
                    .tagged(ell as u64),
            );
        }
    }
    let schedule_of =
        |ctx: &crate::scenario::RowCtx<'_>| Lemma8Schedule::new(ctx.row.n, ctx.row.tag as u32);
    ScenarioSpec {
        id: "E6",
        claim: "Lemma 8 — n/(log n)^l-almost-tight renaming in 2l^2(loglog n)^2 steps",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: vec![
                Column::new("n", |ctx| ctx.row.n.to_string()),
                Column::new("l", |ctx| ctx.row.tag.to_string()),
                Column::new("phases", move |ctx| schedule_of(ctx).phases.to_string()),
                Column::new("step bound", move |ctx| schedule_of(ctx).total_steps().to_string()),
                Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
                Column::new("capacity floor", move |ctx| {
                    (ctx.row.n - schedule_of(ctx).capacity()).to_string()
                }),
                Column::new("unnamed mean", |ctx| fnum(ctx.stats.mean_unnamed(), 1)),
                Column::new("unnamed max", |ctx| ctx.stats.max_unnamed().to_string()),
                Column::new("bound n/(ln)^l", move |ctx| fnum(schedule_of(ctx).unnamed_bound, 1)),
            ],
            rows,
        })],
        claim_check: "claim check: 'unnamed max' within a small constant of \
                      'bound n/(ln)^l' (asymptotic bound; the structural floor \
                      n − capacity is part of it), 'steps max' ≤ 'step bound'."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "lemma8",
            bound: "unnamed ~ n/(log n)^l + structural floor, steps <= 2l(loglog n)^2",
        }],
    }
}

/// Shared row/column shape of the two corollary scenarios (the composed
/// loose protocols differ only in spare sizing and display precision).
fn corollary_rows(cfg: &RunConfig, key: &str) -> Vec<RowSpec> {
    let (sizes, seeds) = cfg.pick(
        (vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20], 30),
        (vec![1 << 10, 1 << 12], 5),
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        for ell in [1u32, 2] {
            rows.push(
                RowSpec::new(format!("{key}:l={ell}"), "fair", n, cfg.seeds_for(n, seeds))
                    .tagged(ell as u64),
            );
        }
    }
    rows
}

fn corollary_columns(
    mn_digits: usize,
    spare_of: impl Fn(usize, u32) -> usize + Copy + 'static,
) -> Vec<Column> {
    vec![
        Column::new("n", |ctx| ctx.row.n.to_string()),
        Column::new("l", |ctx| ctx.row.tag.to_string()),
        Column::new("m/n", move |ctx| {
            fnum(ctx.algo.m(ctx.row.n) as f64 / ctx.row.n as f64, mn_digits)
        }),
        Column::new("spare", move |ctx| spare_of(ctx.row.n, ctx.row.tag as u32).to_string()),
        Column::new("steps p50", |ctx| upper_median(&ctx.stats.step_complexity).to_string()),
        Column::new("steps max", |ctx| ctx.stats.max_steps().to_string()),
        Column::new("max/(lln)^2", |ctx| {
            fnum(norm_loglog_sq(ctx.stats.max_steps() as f64, ctx.row.n), 2)
        }),
        Column::new("max/log2 n", |ctx| {
            fnum(norm_log2(ctx.stats.max_steps() as f64, ctx.row.n), 2)
        }),
        Column::new("unnamed", |ctx| ctx.stats.max_unnamed().to_string()),
    ]
}

/// E5 — Corollary 7: full loose renaming with
/// `m = n + 2n/(log log n)^ℓ` names and `O((log log n)^ℓ)` steps w.h.p.
pub fn cor7(cfg: &RunConfig) -> ScenarioSpec {
    ScenarioSpec {
        id: "E5",
        claim: "Corollary 7 — loose renaming, m = n + 2n/(loglog n)^l, O((loglog n)^l) steps",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: corollary_columns(4, spare::cor7),
            rows: corollary_rows(cfg, "cor7"),
        })],
        claim_check: "claim check: 'unnamed' identically 0 (full renaming); \
                      'max/(lln)^2' bounded (poly-log-log steps; our finisher costs \
                      O((loglog)^2), see README, Deviations from the paper, item 3); \
                      m/n → 1 as n or l grows ((1+o(1))·n name space)."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "cor7",
            bound: "full renaming into m = n + 2n/(loglog n)^l names, poly-loglog steps",
        }],
    }
}

/// E7 — Corollary 9: full loose renaming with `m = n + 2n/(log n)^ℓ`
/// names and `O((log log n)²)` steps w.h.p. — the headline loose result.
pub fn cor9(cfg: &RunConfig) -> ScenarioSpec {
    ScenarioSpec {
        id: "E7",
        claim: "Corollary 9 — loose renaming, m = n + 2n/(log n)^l, O((loglog n)^2) steps",
        sections: vec![Section::Batch(BatchSection {
            title: None,
            columns: corollary_columns(5, spare::cor9),
            rows: corollary_rows(cfg, "cor9"),
        })],
        claim_check: "claim check: 'unnamed' identically 0; 'max/(lln)^2' bounded by \
                      a constant as n grows; m/n = 1 + 2/(log n)^l → 1 polynomially."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "cor9",
            bound: "full renaming into m = n + 2n/(log n)^l names, O((loglog n)^2) steps",
        }],
    }
}
