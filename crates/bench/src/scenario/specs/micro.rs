//! Scenarios that introspect protocol internals — balls-into-bins
//! simulation (E2), the request recorder (E3), the counting device
//! (E10), the adaptive ladder (E12), long-lived churn (E13) and the
//! design ablations (E14). These run as custom sections: the machinery
//! they measure lives below the batch runner's interface.

use crate::runner::{BatchRun, RunConfig};
use crate::scenario::{ClaimCheck, Emitter, Record, ScenarioSpec, Section, Value};
use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng};
use rr_analysis::ballsbins::{expected_empty_bins, lemma3_bound, simulate_lemma3};
use rr_analysis::table::{fnum, fprob, Table};
use rr_renaming::aagw::{AagwProcess, SpareShared};
use rr_renaming::adaptive::AdaptiveRenaming;
use rr_renaming::longlived::{LongLivedClient, ReleasableTasArray};
use rr_renaming::params::FinisherPlan;
use rr_renaming::phase::AlmostTight;
use rr_renaming::tight::TightRenaming;
use rr_renaming::traits::RenamingAlgorithm;
use rr_sched::adversary::FairAdversary;
use rr_sched::shard::Arena;
use rr_shmem::rng::RngMode;
use rr_tau::{ConcurrentTauRegister, CountingDevice};
use std::collections::HashSet;
use std::sync::Arc;

/// E2 — Lemma 3: throwing `2c·log n` balls i.u.r. into `2·log n` bins
/// leaves at most `log n` empty bins with probability ≥ 1 − n^{−ℓ}
/// (for `c ≥ max(ln 2, 2ℓ+2)`).
pub fn lemma3(cfg: &RunConfig) -> ScenarioSpec {
    let (ns, trials) = cfg.pick(
        (vec![1 << 10, 1 << 14, 1 << 18, 1 << 20], 20_000u64),
        (vec![1 << 10, 1 << 14], 2_000u64),
    );
    let body = Section::custom(move |em| {
        let cs = [1u64, 2, 4, 8];
        let mut table = Table::new(vec![
            "n",
            "c",
            "balls",
            "bins",
            "E[empty] exact",
            "mean empty",
            "max empty",
            "thresh logn",
            "P[viol] meas",
            "P[viol] bound",
        ]);
        for &n in &ns {
            for &c in &cs {
                let r = simulate_lemma3(n, c, trials, 0xE2 + c);
                let log_n = r.threshold;
                let balls = 2 * c * log_n;
                let bins = 2 * log_n;
                table.row(vec![
                    n.to_string(),
                    c.to_string(),
                    balls.to_string(),
                    bins.to_string(),
                    fnum(expected_empty_bins(balls, bins), 2),
                    fnum(r.mean_empty, 2),
                    r.max_empty.to_string(),
                    log_n.to_string(),
                    fprob(r.violation_rate()),
                    fprob(lemma3_bound(n, c)),
                ]);
                em.record(&Record {
                    scenario: "E2".into(),
                    section: String::new(),
                    fields: vec![
                        ("n".into(), Value::U64(n as u64)),
                        ("c".into(), Value::U64(c)),
                        ("balls".into(), Value::U64(balls)),
                        ("bins".into(), Value::U64(bins)),
                        ("trials".into(), Value::U64(trials)),
                        ("mean_empty".into(), Value::F64(r.mean_empty)),
                        ("max_empty".into(), Value::U64(r.max_empty)),
                        ("threshold".into(), Value::U64(log_n)),
                        ("viol_rate".into(), Value::F64(r.violation_rate())),
                        ("viol_bound".into(), Value::F64(lemma3_bound(n, c))),
                    ],
                });
            }
        }
        em.text(table.to_string());
    });
    ScenarioSpec {
        id: "E2",
        claim: "Lemma 3 — ≤ log n empty bins w.h.p. (balls into bins)",
        sections: vec![body],
        claim_check: "claim check: for c ≥ 4 (= 2ℓ+2 at ℓ=1) the measured violation \
                      rate is 0 across all trials and the analytic bound is ≤ 1/n."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "lemma3",
            bound: "<= log n empty bins with probability >= 1 - n^-l for c >= 2l+2",
        }],
    }
}

fn lemma4_report(
    em: &mut Emitter<'_, '_>,
    algo: TightRenaming,
    variant: &str,
    n: usize,
    seed: u64,
    max_rounds: usize,
) {
    let algo = algo.with_recorder();
    let (shared, mut procs) = algo.instantiate_shared_rng(n, seed, RngMode::default());
    // The recorder's extra bookkeeping doubles the guard over the
    // trait's 200·n·(⌈log₂ n⌉ + 16) default.
    let budget = 2 * RenamingAlgorithm::step_budget(&algo, n);
    let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), budget).unwrap();
    out.verify_renaming(n).unwrap();

    let plan = &shared.plan;
    let l = plan.l as u64;
    let c = plan.c as u64;
    em.text(format!(
        "\n{} @ n={n}: L={l}, c={c}, rounds={} (showing ≤ {max_rounds}), targets: whp ≥ {} (2cL), E = {} (4cL)",
        RenamingAlgorithm::name(&algo),
        plan.rounds(),
        2 * c * l,
        4 * c * l
    ));
    let rec = shared.recorder.as_ref().unwrap();
    let mut table =
        Table::new(vec!["round", "registers", "req min", "req mean", "req max", "full registers"]);
    for round in 0..plan.rounds().min(max_rounds) {
        let counts = rec.round_counts(round);
        let regs = counts.len();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<u64>() as f64 / regs as f64;
        // Full = register reached its τ quota.
        let cl = plan.clusters[round];
        let full = (0..cl.registers)
            .filter(|&i| {
                let r = cl.first_register + i;
                shared.registers[r].confirmed_count() == plan.register_tau[r]
            })
            .count();
        table.row(vec![
            (round + 1).to_string(),
            regs.to_string(),
            min.to_string(),
            fnum(mean, 1),
            max.to_string(),
            format!("{full}/{regs}"),
        ]);
        em.record(&Record {
            scenario: "E3".into(),
            section: String::new(),
            fields: vec![
                ("variant".into(), Value::Str(variant.to_string())),
                ("n".into(), Value::U64(n as u64)),
                ("round".into(), Value::U64(round as u64 + 1)),
                ("registers".into(), Value::U64(regs as u64)),
                ("req_min".into(), Value::U64(min)),
                ("req_mean".into(), Value::F64(mean)),
                ("req_max".into(), Value::U64(max)),
                ("full".into(), Value::U64(full as u64)),
                ("whp_target".into(), Value::U64(2 * c * l)),
                ("expected".into(), Value::U64(4 * c * l)),
            ],
        });
    }
    em.text(table.to_string());
}

/// E3 — Lemma 4: in every §III round, every `(log n)`-register receives
/// `4c·log n` requests in expectation and at least `2c·log n` w.h.p.;
/// the request recorder shows per-round saturation for both
/// parameterizations.
pub fn lemma4(cfg: &RunConfig) -> ScenarioSpec {
    let n = cfg.pick(1 << 14, 1 << 10);
    let body = Section::custom(move |em| {
        lemma4_report(em, TightRenaming::calibrated(4), "calibrated", n, 0xE3, 10);
        // The paper-exact variant funnels almost everyone through the final
        // sweep (the documented under-provisioning), which is Θ(n·n/log n)
        // total work — run it one size down so the table regenerates fast.
        lemma4_report(em, TightRenaming::paper_exact(4), "paper-exact", n.min(1 << 12), 0xE3, 10);
    });
    ScenarioSpec {
        id: "E3",
        claim: "Lemma 4 — per-round register saturation (≥ 2c log n requests w.h.p.)",
        sections: vec![body],
        claim_check: "claim check: calibrated rows keep 'req mean' ≈ 4cL and every \
                      register full; paper-exact rows oversaturate (mean ≫ 4cL) — \
                      saturation holds a fortiori, but most names are only reachable \
                      through the final-round sweep (DESIGN.md, gap 1)."
            .into(),
        reproduces: vec![ClaimCheck {
            claim: "lemma4",
            bound: ">= 2c log n requests per register w.h.p. (4c log n in expectation)",
        }],
    }
}

/// E10 — §II-B/§II-C: the counting device admits exactly τ winners under
/// every request pattern, and a cycle is a constant amount of hardware
/// work: quota stress, batching profile, and the lock-free front
/// end under real threads.
pub fn tau(_cfg: &RunConfig) -> ScenarioSpec {
    let body = Section::custom(|em| {
        // Part 1: quota stress across widths and thresholds.
        em.text("\n-- quota invariant under random batches --");
        let mut table = Table::new(vec!["width", "tau", "batches", "max confirmed", "wins total"]);
        let mut rng = ChaCha8Rng::seed_from_u64(0xE10);
        for (width, tau) in [(8u32, 4u32), (16, 8), (32, 16), (64, 32), (64, 64), (20, 10)] {
            let mut device = CountingDevice::new(width, tau);
            let mut max_confirmed = 0;
            let mut wins = 0usize;
            let batches = 200;
            for _ in 0..batches {
                let k = rng.random_range(0..2 * width as usize);
                let reqs: Vec<(usize, usize)> =
                    (0..k).map(|t| (t, rng.random_range(0..width as usize))).collect();
                let rep = device.clock_cycle(&reqs);
                wins += rep.win_count();
                max_confirmed = max_confirmed.max(device.confirmed_count());
            }
            assert!(max_confirmed <= tau, "τ invariant violated");
            assert_eq!(wins as u32, device.confirmed_count());
            table.row(vec![
                width.to_string(),
                tau.to_string(),
                batches.to_string(),
                max_confirmed.to_string(),
                wins.to_string(),
            ]);
        }
        em.text(table.to_string());

        // Part 2: cycles to absorb bursts.
        em.text("\n-- cycles until quiescence for burst shapes (width 32, tau 16) --");
        let mut table = Table::new(vec!["burst shape", "requests", "cycles", "winners"]);
        let shapes: &[(&str, Vec<usize>)] = &[
            ("one big batch", vec![64]),
            ("8-request trickle", vec![8; 8]),
            ("single file", vec![1; 64]),
            ("front-loaded", vec![32, 16, 8, 4, 2, 1, 1]),
        ];
        for (label, batches) in shapes {
            let mut device = CountingDevice::new(32, 16);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut tag = 0usize;
            for &k in batches {
                let reqs: Vec<(usize, usize)> = (0..k)
                    .map(|_| {
                        tag += 1;
                        (tag, rng.random_range(0..32))
                    })
                    .collect();
                device.clock_cycle(&reqs);
            }
            table.row(vec![
                label.to_string(),
                batches.iter().sum::<usize>().to_string(),
                device.cycles().to_string(),
                device.confirmed_count().to_string(),
            ]);
        }
        em.text(table.to_string());

        // Part 3: lock-free wrapper under threads.
        em.text("\n-- concurrent tau-register: 256 threads, width 40, tau 20 --");
        let reg = ConcurrentTauRegister::new(40, 20, 0);
        let names: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..256)
                .map(|i| {
                    let reg = &reg;
                    s.spawn(move || reg.acquire(i % 40).ok().map(|(name, _)| name))
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().unwrap()).collect()
        });
        let distinct: HashSet<_> = names.iter().collect();
        em.text(format!(
            "winners: {} (tau = 20), distinct names: {}, cycles: {}",
            names.len(),
            distinct.len(),
            reg.cycles()
        ));
        assert_eq!(names.len(), 20);
        assert_eq!(distinct.len(), 20);
    });
    ScenarioSpec {
        id: "E10",
        claim: "counting device — τ-quota invariant, cycle counts, concurrency",
        sections: vec![body],
        claim_check: "claim check: 'max confirmed' ≤ tau everywhere; cycle count \
                      tracks batch count, not request count (hardware absorbs any \
                      concurrency per cycle); threaded register admits exactly tau \
                      winners with distinct names."
            .into(),
        reproduces: vec![],
    }
}

/// E12 — adaptive renaming (§IV remark): when the participant count k is
/// unknown, the doubling-guess transform still renames everyone, uses
/// only `O(k)` names regardless of the ladder size, and pays a `log k`
/// ladder factor.
pub fn adaptive(cfg: &RunConfig) -> ScenarioSpec {
    let (max_n, ks, seeds) = cfg.pick(
        (1 << 14, vec![4usize, 16, 64, 256, 1024, 4096, 16384], 10u64),
        (1 << 10, vec![4usize, 32, 256], 3u64),
    );
    let body = Section::custom(move |em| {
        let mut table = Table::new(vec![
            "k (actual)",
            "ladder for",
            "max name used",
            "used/k",
            "steps max",
            "steps/(log k)",
            "unnamed",
        ]);
        for &k in &ks {
            let mut worst_name = 0usize;
            let mut worst_steps = 0u64;
            let mut unnamed = 0usize;
            for seed in 0..seeds {
                let (shared, mut procs) = AdaptiveRenaming.instantiate_participants(k, max_n, seed);
                let out = Arena::new()
                    .run(
                        &mut procs,
                        &mut FairAdversary::default(),
                        RenamingAlgorithm::step_budget(&AdaptiveRenaming, max_n),
                    )
                    .unwrap();
                out.verify_renaming(shared.layout().total).unwrap();
                unnamed += out.gave_up_count();
                worst_name = worst_name.max(out.names.iter().flatten().copied().max().unwrap_or(0));
                worst_steps = worst_steps.max(out.step_complexity());
            }
            let log_k = (k.max(2) as f64).log2();
            table.row(vec![
                k.to_string(),
                format!("≤{max_n}"),
                worst_name.to_string(),
                fnum(worst_name as f64 / k as f64, 2),
                worst_steps.to_string(),
                fnum(worst_steps as f64 / log_k, 2),
                unnamed.to_string(),
            ]);
        }
        em.text(table.to_string());
    });
    ScenarioSpec {
        id: "E12",
        claim: "adaptive renaming — name usage O(k) with k unknown to the processes",
        sections: vec![body],
        claim_check: format!(
            "claim check: 'used/k' bounded by a constant (the adaptive O(k) \
             name space — processes never learn k and the ladder is sized for \
             {max_n}); 'unnamed' identically 0; steps grow like log k × \
             polyloglog (our simple transform; the paper notes the transform \
             yields no improvement over [8])."
        ),
        reproduces: vec![],
    }
}

fn churn(n: usize, epsilon: f64, rounds: usize, seed: u64) -> (f64, f64) {
    let m = ((1.0 + epsilon) * n as f64).ceil() as usize;
    let names = ReleasableTasArray::new(m);
    let mut clients: Vec<_> = (0..n).map(|p| LongLivedClient::new(p, seed)).collect();
    let mut worst_single = 0u64;
    for _ in 0..rounds {
        for c in clients.iter_mut() {
            let (before, _) = c.stats();
            c.acquire(&names);
            let (after, _) = c.stats();
            worst_single = worst_single.max(after - before);
        }
        for c in clients.iter_mut() {
            c.release(&names);
        }
    }
    let probes: u64 = clients.iter().map(|c| c.stats().0).sum();
    let acquires: u64 = clients.iter().map(|c| c.stats().1).sum();
    (probes as f64 / acquires as f64, worst_single as f64)
}

/// E13 — long-lived renaming under churn: with owner-release TAS
/// registers and a `(1+ε)n` space, the amortized acquire cost stays
/// ~`(1+ε)/ε` probes across arbitrary acquire/release churn.
pub fn longlived(cfg: &RunConfig) -> ScenarioSpec {
    let (n, rounds) = cfg.pick((4096usize, 100usize), (256usize, 20usize));
    let body = Section::custom(move |em| {
        let mut table = Table::new(vec![
            "epsilon",
            "m",
            "rounds",
            "acquires",
            "amortized probes",
            "bound (1+e)/e",
            "worst single acquire",
        ]);
        for eps in [0.1f64, 0.25, 0.5, 1.0, 2.0] {
            let (amortized, worst) = churn(n, eps, rounds, 0xE13);
            let m = ((1.0 + eps) * n as f64).ceil() as usize;
            table.row(vec![
                fnum(eps, 2),
                m.to_string(),
                rounds.to_string(),
                (n * rounds).to_string(),
                fnum(amortized, 3),
                fnum((1.0 + eps) / eps, 3),
                fnum(worst, 0),
            ]);
        }
        em.text(table.to_string());
    });
    ScenarioSpec {
        id: "E13",
        claim: "long-lived renaming — amortized acquire cost under churn",
        sections: vec![body],
        claim_check: "claim check: 'amortized probes' tracks the expected-cost bound \
                      (1+e)/e for every ε and does not grow with the number of churn \
                      rounds — names recycle indefinitely (long-lived renaming)."
            .into(),
        reproduces: vec![],
    }
}

fn ablate_c(em: &mut Emitter<'_, '_>, n: usize, seeds: u64) {
    em.text(format!("\n-- ablation 1: Lemma 3 constant c (tight renaming @ n={n}) --"));
    let mut table =
        Table::new(vec!["c", "rounds", "steps p50", "steps max", "max/log2 n", "mean steps"]);
    for c in [1u32, 2, 4, 8] {
        let algo = TightRenaming::calibrated(c);
        let plan = rr_renaming::TightPlan::calibrated(n, c);
        let stats = BatchRun::new(&algo, n).seeds(seeds).stats().unwrap();
        table.row(vec![
            c.to_string(),
            plan.rounds().to_string(),
            rr_analysis::stats::upper_median(&stats.step_complexity).to_string(),
            stats.max_steps().to_string(),
            fnum(stats.max_steps() as f64 / (n as f64).log2(), 2),
            fnum(stats.mean_mean_steps(), 2),
        ]);
    }
    em.text(table.to_string());
}

fn ablate_device_width(em: &mut Emitter<'_, '_>) {
    em.text("\n-- ablation 2: device width factor (single register, tau = 16) --");
    // 64 requesters spray random bits at one device; measure how many
    // distinct winners the first cycle admits (width → less aliasing).
    let mut table =
        Table::new(vec!["width/tau", "width", "first-cycle winners (mean of 50)", "tau"]);
    for factor in [1u32, 2, 3, 4] {
        let width = 16 * factor;
        let mut total = 0usize;
        let trials = 50;
        for t in 0..trials {
            let mut device = CountingDevice::new(width, 16);
            let mut rng = ChaCha8Rng::seed_from_u64(t);
            let reqs: Vec<(usize, usize)> =
                (0..64).map(|p| (p, rng.random_range(0..width as usize))).collect();
            total += device.clock_cycle(&reqs).win_count();
        }
        table.row(vec![
            factor.to_string(),
            width.to_string(),
            fnum(total as f64 / trials as f64, 2),
            "16".into(),
        ]);
    }
    em.text(table.to_string());
}

/// A per-segment probe-budget policy.
type BudgetPolicy = Box<dyn Fn(usize) -> u32>;

fn ablate_finisher(em: &mut Emitter<'_, '_>, k: usize, spare: usize, seeds: u64) {
    em.text(format!(
        "\n-- ablation 3: finisher probe budgets (k={k} stragglers, spare={spare}) --"
    ));
    let mut table = Table::new(vec![
        "budget policy",
        "steps max",
        "mean steps",
        "sweepers (max steps > random budget)",
    ]);
    let policies: Vec<(&str, BudgetPolicy)> = vec![
        ("linear j+2 (ours)", Box::new(|j: usize| j as u32 + 3)),
        ("constant 1", Box::new(|_| 1)),
        ("constant 4", Box::new(|_| 4)),
    ];
    for (label, probes) in policies {
        let mut max_steps = 0u64;
        let mut total_steps = 0u64;
        let mut sweepers = 0usize;
        for seed in 0..seeds {
            let mut plan = FinisherPlan::new(spare);
            for (j, p) in plan.probes.iter_mut().enumerate() {
                *p = probes(j);
            }
            let random_budget = plan.max_random_probes();
            let shared = Arc::new(SpareShared::new(0, spare));
            let mut procs: Vec<_> = (0..k)
                .map(|pid| {
                    AlmostTight(AagwProcess::new(pid, seed, Arc::clone(&shared), plan.clone()))
                })
                .collect();
            let out = Arena::new().run(&mut procs, &mut FairAdversary::default(), 1 << 30).unwrap();
            out.verify_renaming(spare).unwrap();
            max_steps = max_steps.max(out.step_complexity());
            total_steps += out.total_steps();
            sweepers += out.steps.iter().filter(|&&s| s > random_budget).count();
        }
        table.row(vec![
            label.to_string(),
            max_steps.to_string(),
            fnum(total_steps as f64 / (k as u64 * seeds) as f64, 2),
            sweepers.to_string(),
        ]);
    }
    em.text(table.to_string());
}

/// E14 — ablations of the design constants DESIGN.md calls out: the
/// Lemma 3 constant `c`, the device width factor, and the finisher probe
/// budgets.
pub fn ablation(cfg: &RunConfig) -> ScenarioSpec {
    let (n, seeds) = cfg.pick((1 << 14, 15u64), (1 << 10, 5u64));
    let body = Section::custom(move |em| {
        ablate_c(em, n, seeds);
        ablate_device_width(em);
        ablate_finisher(em, 3 * n / 16, n / 4, seeds);
    });
    ScenarioSpec {
        id: "E14",
        claim: "ablations — cluster constant c, device width, finisher budgets",
        sections: vec![body],
        claim_check: "findings: smaller c is empirically *faster* at laptop sizes \
                      (fewer rounds dominate the cost); c >= 2l+2 is what the *proof* \
                      needs for inverse-polynomial failure probability — the classic \
                      theory-practice constant gap, worth knowing before tuning. \
                      Width 2·tau (the paper's choice) already absorbs essentially all \
                      aliasing in one cycle; wider devices buy nothing. At straggler \
                      ratios up to 3/4 of the spare, every budget policy avoids the \
                      sweep; the growing j+2 budgets are insurance for the w.h.p. tail, \
                      not the common case."
            .into(),
        reproduces: vec![],
    }
}
