//! Tier-1 regression gates for the `vls-opt` sizing optimizer.
//!
//! Four contracts, each cheap enough for every CI run:
//!
//! 1. **Pinned convergence** — on a smooth 2-knob toy bowl the search
//!    lands on the analytic optimum to 1e-9, every run, forever.
//! 2. **Worker-count invariance** — the full outcome (trajectory,
//!    accounting, verification) is identical at 1, 2 and 8 workers.
//! 3. **Surrogate lie** — a corrupted surrogate table lures the search
//!    to a fake optimum; exact re-verification must refuse it, leaving
//!    the run with no accepted best.
//! 4. **The real simulator** — over two SS-TVS widths, with a surrogate
//!    filled by exact characterizations, the search stays within its
//!    budget, books every evaluation, and exact re-characterization
//!    accepts its optimum within the gap tolerance.

use sstvs::cells::VoltagePair;
use sstvs::charlib::TableMetrics;
use sstvs::opt::{
    optimize, FnSource, Knob, Objective, OptimizerConfig, ParamSpace, SimSource, SizingSurrogate,
    SurrogateConfig, Verdict,
};
use sstvs::runner::RunnerOptions;

/// The toy ground truth: a quadratic delay bowl with its minimum at
/// (0.7, 1.3), everywhere functional, constant power/leakage.
fn bowl_metrics(x: &[f64]) -> TableMetrics {
    let v = 1e-10 * (1.0 + (x[0] - 0.7).powi(2) + (x[1] - 1.3).powi(2));
    TableMetrics {
        delay_rise: v,
        delay_fall: v,
        power_rise: 1e-6,
        power_fall: 1e-6,
        leakage_high: 1e-9,
        leakage_low: 1e-9,
        functional: true,
    }
}

fn bowl() -> FnSource<impl Fn(&[f64]) -> Result<TableMetrics, String> + Sync> {
    FnSource::new(|x: &[f64]| Ok(bowl_metrics(x)))
}

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        Knob::new("a", 0.0, 2.0, 0.01),
        Knob::new("b", 0.0, 2.0, 0.01),
    ])
    .unwrap()
}

fn objective() -> Objective {
    Objective::DelayAtLeakageCap { cap_amps: 1e-6 }
}

#[test]
fn converges_to_the_pinned_optimum() {
    let config = OptimizerConfig {
        budget: 300,
        restarts: 2,
        runner: RunnerOptions::serial(),
        ..OptimizerConfig::default()
    };
    let out = optimize(&space(), &objective(), &bowl(), None, &config).unwrap();
    let best = out.best_restart().expect("an accepted optimum");
    assert_eq!(best.verification.verdict, Verdict::Accepted);
    // The optimum is on the lattice: the pin is exact to rounding.
    assert!(
        (best.best[0] - 0.7).abs() < 1e-9,
        "a = {} drifted off the pinned optimum",
        best.best[0]
    );
    assert!(
        (best.best[1] - 1.3).abs() < 1e-9,
        "b = {} drifted off the pinned optimum",
        best.best[1]
    );
    // Exact-path search: verification re-runs the same source, so the
    // gap is identically zero.
    assert_eq!(best.verification.gap, Some(0.0));
    assert!(out.evaluations <= 300);
}

#[test]
fn outcome_is_bit_identical_at_any_worker_count() {
    let space = space();
    let src = bowl();
    let sur_config = SurrogateConfig {
        samples_per_knob: 5,
        trust_margin: 0.1,
    };
    let mut outcomes = Vec::new();
    for jobs in [1usize, 2, 8] {
        let runner = RunnerOptions::with_jobs(jobs);
        let surrogate = SizingSurrogate::build(&space, &sur_config, &src, &runner).unwrap();
        let config = OptimizerConfig {
            budget: 200,
            restarts: 2,
            runner,
            ..OptimizerConfig::default()
        };
        let out = optimize(&space, &objective(), &src, Some(&surrogate), &config).unwrap();
        outcomes.push((jobs, out));
    }
    let (_, baseline) = &outcomes[0];
    assert!(!baseline.trajectory.is_empty());
    for (jobs, out) in &outcomes[1..] {
        // Full structural equality: every trajectory step, cost,
        // accounting counter and verdict — not just the best point.
        assert_eq!(baseline, out, "outcome differs at {jobs} workers");
        // And the rendered artifact is byte-identical too.
        assert_eq!(
            baseline.to_json(),
            out.to_json(),
            "artifact differs at {jobs} workers"
        );
    }
}

#[test]
fn surrogate_lie_is_refused_by_exact_verification() {
    let space = space();
    let src = bowl();
    // 5 samples/knob puts grid samples at 0, 0.5, 1.0, 1.5, 2.0.
    let mut surrogate = SizingSurrogate::build(
        &space,
        &SurrogateConfig {
            samples_per_knob: 5,
            trust_margin: 0.1,
        },
        &src,
        &RunnerOptions::serial(),
    )
    .unwrap();
    // Plant the lie: the sample at (0.5, 1.5) claims a delay three
    // orders of magnitude better than anything real.
    let flat = surrogate.table().grid().flat_index(&[1, 3]);
    let mut lie = bowl_metrics(&[0.5, 1.5]);
    lie.delay_rise = 1e-13;
    lie.delay_fall = 1e-13;
    surrogate.table_mut().set_point(flat, lie);

    // One midpoint start with a generous budget: the search walks
    // straight into the planted minimum...
    let config = OptimizerConfig {
        budget: 300,
        restarts: 0,
        runner: RunnerOptions::serial(),
        ..OptimizerConfig::default()
    };
    let out = optimize(&space, &objective(), &src, Some(&surrogate), &config).unwrap();
    let restart = &out.restarts[0];
    assert_eq!(
        restart.best,
        vec![0.5, 1.5],
        "the search was supposed to fall for the planted lie"
    );
    // ...and exact verification refuses it: the exact cost at the lie
    // point is ~1.08e-10, nowhere near the claimed 1e-13.
    assert_eq!(restart.verification.verdict, Verdict::Refused);
    assert!(restart.verification.gap.unwrap() > 0.9);
    assert_eq!(out.best, None, "a refused optimum must never be the best");

    // Control: the same run on an honest surrogate accepts.
    let honest = SizingSurrogate::build(
        &space,
        &SurrogateConfig {
            samples_per_knob: 9,
            trust_margin: 0.1,
        },
        &src,
        &RunnerOptions::serial(),
    )
    .unwrap();
    let config = OptimizerConfig {
        gap_tolerance: 0.05,
        ..config
    };
    let out = optimize(&space, &objective(), &src, Some(&honest), &config).unwrap();
    assert!(out.best_restart().is_some(), "honest surrogate must pass");
}

#[test]
fn sim_source_search_stays_in_budget_and_verifies_its_optimum() {
    // The pull-down width and the current-limiter width at the paper's
    // 0.8 V -> 1.2 V corner.
    let space = ParamSpace::new(vec![
        Knob::new("w_m1", 0.4, 0.8, 0.05),
        Knob::new("w_mc", 0.8, 1.6, 0.1),
    ])
    .unwrap();
    let source = SimSource::new(space.clone(), VoltagePair::low_to_high());
    let runner = RunnerOptions::serial();
    let surrogate = SizingSurrogate::build(
        &space,
        &SurrogateConfig {
            samples_per_knob: 3,
            trust_margin: 0.25,
        },
        &source,
        &runner,
    )
    .unwrap();
    let config = OptimizerConfig {
        budget: 24,
        restarts: 0,
        gap_tolerance: 0.15,
        runner,
        ..OptimizerConfig::default()
    };
    let objective = Objective::DelayAtLeakageCap {
        cap_amps: f64::INFINITY,
    };
    let out = optimize(&space, &objective, &source, Some(&surrogate), &config).unwrap();

    assert!(
        out.evaluations <= config.budget,
        "{} evaluations exceed the budget {}",
        out.evaluations,
        config.budget
    );
    // Every evaluation is booked as exactly one kind, and none failed.
    let a = &out.accounting;
    assert_eq!(
        a.surrogate_hits + a.exact_evals + a.yield_evals + a.failed_candidates,
        out.evaluations as u64,
        "{a:?}"
    );
    assert_eq!(a.failed_candidates, 0, "{a:?}");
    assert_eq!(a.verification_evals, 1, "{a:?}");

    let best = out
        .best_restart()
        .expect("no restart optimum survived exact verification");
    assert_eq!(best.verification.verdict, Verdict::Accepted);
    let gap = best
        .verification
        .gap
        .expect("an accepted optimum has a gap");
    assert!(
        gap <= config.gap_tolerance,
        "gap {gap} breaks the tolerance {}",
        config.gap_tolerance
    );
}
