//! Fault-injection soak suite: the resilience contract, end to end.
//!
//! A 256-trial ensemble runs with a deterministic fault plan armed —
//! forced Newton non-convergence on a seed-selected subset of trials,
//! pivot-health degradation and LTE-rejection storms sprinkled across
//! the rest. The contract under test:
//!
//! * the ensemble **completes** — injected failures surface as typed,
//!   machine-readable taxonomy entries in a partial report, never as
//!   aborts or panics;
//! * every failure carries its replay seed, and replaying that seed
//!   reproduces the identical failure;
//! * the retry ladder ([`SimOptions::escalated`]) recovers every
//!   injected failure, because a retry is a clean re-run;
//! * the solver's work counters stay self-consistent on perturbed
//!   trajectories, and outcomes are bit-identical at any worker count.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, ShifterKind, VoltagePair};
use sstvs::engine::{run_transient, solve_dc, EngineError, FaultPlan, SimOptions, SolverStructure};
use sstvs::netlist::chipgen::{generate_chip, ChipSpec};
use sstvs::netlist::Circuit;
use sstvs::num::rng::Xoshiro256pp;
use sstvs::num::SolverStats;
use sstvs::runner::{
    derive_seed, run_ensemble, run_ensemble_resilient, RetryPolicy, RunnerOptions,
};
use sstvs::variation::{sample_perturbation, VariationSpec};

const TRIALS: usize = 256;
const MASTER_SEED: u64 = 0xFA_017;
const TSTOP: f64 = 1e-9;

/// The soak plan: trials whose seed lands on `seed % 5 == 3` get all
/// four homotopy stages sabotaged (guaranteed non-convergence); other
/// predicates sprinkle recoverable single-shot faults — a pivot-health
/// latch and an LTE rejection.
const SOAK_PLAN: &str = "newton@warm:every=5:offset=3,newton@plain:every=5:offset=3,\
                         newton@gmin:every=5:offset=3,newton@source:every=5:offset=3,\
                         pivot:every=7:offset=2,lte:every=3:offset=1";

/// Seeds the plan dooms to non-convergence.
fn doomed(seed: u64) -> bool {
    seed % 5 == 3
}

/// A small nonlinear victim: the minimum inverter in a down-conversion
/// harness — two MOSFETs, a load cap and the standard pulse stimulus.
fn victim() -> Harness {
    let domains = VoltagePair::high_to_low();
    let (wave, _, _, _) = Harness::standard_stimulus(domains);
    Harness::build(
        &ShifterKind::Inverter(Inverter::minimum()),
        domains,
        wave,
        1e-15,
    )
}

/// Base options for faulted runs: natural order on every circuit
/// (`sparse_threshold: 0` leaves the order to `structure`), plan armed
/// per trial seed.
fn faulted_sim(plan: &FaultPlan, seed: u64) -> SimOptions {
    SimOptions {
        sparse_threshold: 0,
        fault: plan.arm(seed),
        ..SimOptions::default()
    }
}

/// One soak trial at one escalation rung: a short transient (initial
/// DC plus stepping) returning its solver counters.
fn soak_trial(
    circuit: &Circuit,
    plan: &FaultPlan,
    seed: u64,
    rung: usize,
) -> Result<SolverStats, EngineError> {
    let sim = faulted_sim(plan, seed).escalated(rung);
    run_transient(circuit, TSTOP, &sim).map(|res| res.solver_stats())
}

fn classify(e: &EngineError) -> (String, u64) {
    let spent = match e {
        EngineError::BudgetExhausted { spent, .. } => *spent,
        _ => 0,
    };
    (e.failure_class().to_string(), spent)
}

#[test]
fn soak_completes_with_a_full_failure_taxonomy() {
    let h = victim();
    let plan = FaultPlan::parse(SOAK_PLAN).unwrap();
    let e = run_ensemble_resilient(
        TRIALS,
        MASTER_SEED,
        &RunnerOptions::default(),
        RetryPolicy::none(),
        |job, rung| soak_trial(&h.circuit, &plan, job.seed, rung),
        classify,
    );

    // The ensemble completed: every trial has an outcome.
    assert_eq!(e.outcomes.len(), TRIALS);

    // Exactly the doomed seeds failed, and each failure is a typed
    // no-convergence — never a panic, never an abort.
    let expected: Vec<usize> = (0..TRIALS)
        .filter(|&i| doomed(derive_seed(MASTER_SEED, i as u64)))
        .collect();
    assert!(expected.len() > 20, "plan dooms a healthy fraction");
    let failed: Vec<usize> = e.failures().iter().map(|f| f.job.index).collect();
    assert_eq!(failed, expected, "failure set is exactly the doomed set");

    // The partial report lists every failed trial: index order, stable
    // class token, correct replay seed.
    assert_eq!(e.report.failures.len(), expected.len());
    for t in &e.report.failures {
        assert!(doomed(t.seed));
        assert_eq!(t.seed, derive_seed(MASTER_SEED, t.index as u64));
        assert_eq!(t.class, "no_convergence");
        assert_eq!(t.stage_reached, 0);
    }
    let rendered = e.report.render();
    assert!(rendered.contains("FAILED trial"), "{rendered}");

    // Survivors' counters mark perturbed trajectories: any trial the
    // plan touched reports injected faults, untouched trials report
    // none and fired no pivot fallback beyond organic ones.
    let mut touched = 0;
    for s in e.outcomes.iter().filter_map(|o| o.as_ref().ok()) {
        let armed = !plan.arm(s.job.seed).is_empty();
        if armed {
            touched += 1;
            assert!(
                s.value.injected_faults > 0,
                "armed trial {} shows no injected faults",
                s.job.index
            );
        } else {
            assert_eq!(s.value.injected_faults, 0);
        }
    }
    assert!(touched > 50, "plan touches a healthy survivor fraction");
}

#[test]
fn replaying_a_failed_seed_reproduces_the_identical_failure() {
    let h = victim();
    let plan = FaultPlan::parse(SOAK_PLAN).unwrap();
    // Find the first few doomed trials without running the ensemble.
    let doomed_seeds: Vec<u64> = (0..TRIALS as u64)
        .map(|i| derive_seed(MASTER_SEED, i))
        .filter(|&s| doomed(s))
        .take(3)
        .collect();
    assert_eq!(doomed_seeds.len(), 3);
    for seed in doomed_seeds {
        let a = soak_trial(&h.circuit, &plan, seed, 0).unwrap_err();
        let b = soak_trial(&h.circuit, &plan, seed, 0).unwrap_err();
        assert_eq!(a.failure_class(), "no_convergence");
        assert_eq!(a.failure_class(), b.failure_class());
        assert_eq!(a.to_string(), b.to_string(), "replay diverged");
    }
}

#[test]
fn retry_ladder_recovers_every_injected_failure() {
    let h = victim();
    let plan = FaultPlan::parse(SOAK_PLAN).unwrap();
    // A smaller ensemble keeps the double-attempt cost down; the
    // doomed predicate still selects a nontrivial subset.
    let trials = 64;
    let e = run_ensemble_resilient(
        trials,
        MASTER_SEED,
        &RunnerOptions::default(),
        RetryPolicy::default(),
        |job, rung| soak_trial(&h.circuit, &plan, job.seed, rung),
        classify,
    );
    assert!(e.failures().is_empty(), "escalation disarms every fault");
    assert_eq!(e.successes().len(), trials);
    // Every doomed trial recovered at rung 1 (first clean re-run).
    let expected: Vec<usize> = (0..trials)
        .filter(|&i| doomed(derive_seed(MASTER_SEED, i as u64)))
        .collect();
    let recovered: Vec<usize> = e.recovered().iter().map(|(j, _)| j.index).collect();
    assert_eq!(recovered, expected);
    for (_, rung) in e.recovered() {
        assert_eq!(rung, 1, "one clean retry suffices");
    }
}

#[test]
fn soak_outcomes_are_schedule_independent() {
    let h = victim();
    let plan = FaultPlan::parse(SOAK_PLAN).unwrap();
    let trials = 48;
    let run = |jobs: usize| {
        run_ensemble_resilient(
            trials,
            MASTER_SEED,
            &RunnerOptions::with_jobs(jobs),
            RetryPolicy::none(),
            |job, rung| soak_trial(&h.circuit, &plan, job.seed, rung),
            classify,
        )
    };
    let serial = run(1);
    for jobs in [2, 8] {
        let par = run(jobs);
        assert_eq!(par.report.failures, serial.report.failures);
        for (a, b) in par.outcomes.iter().zip(&serial.outcomes) {
            match (a, b) {
                // SolverStats is Eq: counter-for-counter identical.
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.job, y.job);
                    assert_eq!(x.rung, y.rung);
                    assert_eq!(x.value, y.value);
                }
                (Err(x), Err(y)) => {
                    assert_eq!(x.job, y.job);
                    assert_eq!(x.stage_reached, y.stage_reached);
                }
                _ => panic!("outcome kind differs across schedules"),
            }
        }
    }
}

/// Satellite 1 — the work counters stay self-consistent on every path:
/// clean, pivot-degraded, stage-sabotaged and LTE-stormed.
/// Invariants: every linear solve was backed by exactly one
/// factorization (full or numeric-only), Newton accounting dominates
/// linear solves (failed billed attempts only inflate it), and pivot
/// fallbacks never exceed the full factorizations they triggered.
#[test]
fn solver_stats_counters_stay_consistent_under_injection() {
    let h = victim();
    let plans = [
        "",
        "pivot:count=3",
        "newton@plain",
        "newton@warm,newton@plain",
        "lte:count=2",
        SOAK_PLAN,
    ];
    for text in plans {
        let plan = FaultPlan::parse(text).unwrap();
        for seed in [0, 2, 3, 16, 23] {
            let sim = faulted_sim(&plan, seed);
            // DC ladder alone, then the full transient.
            let mut all = Vec::new();
            if let Ok(sol) = solve_dc(&h.circuit, &sim) {
                all.push(("dc", sol.solver_stats()));
            }
            if let Ok(res) = run_transient(&h.circuit, TSTOP, &sim) {
                all.push(("tran", res.solver_stats()));
            }
            if all.is_empty() {
                // Only the full soak plan's doomed seeds may kill both
                // analyses — and they do so with typed errors.
                assert!(
                    text == SOAK_PLAN && doomed(seed),
                    "plan '{text}' seed {seed}"
                );
                continue;
            }
            for (phase, s) in all {
                assert_eq!(
                    s.linear_solves,
                    s.full_factorizations + s.refactorizations,
                    "{phase} plan='{text}' seed={seed}: {}",
                    s.render()
                );
                assert!(
                    s.newton_iters >= s.linear_solves,
                    "{phase} plan='{text}' seed={seed}: {}",
                    s.render()
                );
                assert!(
                    s.refactor_fallbacks <= s.full_factorizations,
                    "{phase} plan='{text}' seed={seed}: {}",
                    s.render()
                );
                let armed = !plan.arm(seed).is_empty();
                if !armed {
                    assert_eq!(s.injected_faults, 0, "{phase} clean run marked faulty");
                }
            }
        }
    }
}

/// Satellite 1 (escalation leg) — the invariants hold on every rung of
/// the retry ladder, including the strict-pivoting rungs.
#[test]
fn solver_stats_counters_stay_consistent_across_escalation() {
    let h = victim();
    let plan = FaultPlan::parse("pivot,lte").unwrap();
    let base = faulted_sim(&plan, 0);
    for rung in 0..4 {
        let sim = base.escalated(rung);
        let s = run_transient(&h.circuit, TSTOP, &sim)
            .expect("escalated runs converge")
            .solver_stats();
        assert_eq!(
            s.linear_solves,
            s.full_factorizations + s.refactorizations,
            "rung {rung}: {}",
            s.render()
        );
        assert!(s.newton_iters >= s.linear_solves, "rung {rung}");
        assert!(s.refactor_fallbacks <= s.full_factorizations, "rung {rung}");
        // Every rung books its device work.
        assert!(s.device_evals > 0, "rung {rung}: {}", s.render());
        assert!(s.cap_evals > 0, "rung {rung}: {}", s.render());
        if rung > 0 {
            assert_eq!(s.injected_faults, 0, "escalation must disarm the plan");
        }
    }
}

/// Budgets surface as typed exhaustion, not hangs: a sabotaged ladder
/// burns through a small Newton budget, and a tiny step budget stops a
/// healthy transient — both with the stable `budget_exhausted` class.
#[test]
fn budgets_exhaust_with_typed_taxonomy_errors() {
    let h = victim();
    // The billed cost of one injected plain-stage failure (120 iters)
    // exceeds the budget.
    let plan = FaultPlan::parse("newton@plain").unwrap();
    let sim = SimOptions {
        newton_budget: Some(50),
        ..faulted_sim(&plan, 0)
    };
    let err = solve_dc(&h.circuit, &sim).unwrap_err();
    assert_eq!(err.failure_class(), "budget_exhausted");
    assert!(err.to_string().contains("dc ladder"), "{err}");

    let sim = SimOptions {
        step_budget: Some(3),
        ..SimOptions::default()
    };
    let err = run_transient(&h.circuit, TSTOP, &sim).unwrap_err();
    assert_eq!(err.failure_class(), "budget_exhausted");
    assert!(err.to_string().contains("transient stepping"), "{err}");
}

/// Satellite 2 — fuzz: randomized process perturbations of an
/// ERC-clean cell (the paper's Monte Carlo protocol, sigma scaled up
/// to 3x) never panic the solver. Every trial either converges or
/// returns a typed failure carrying its replay seed.
#[test]
fn fuzzed_perturbations_never_panic_and_fail_typed() {
    let h = victim();
    let spec = VariationSpec::paper().scaled(3.0);
    let e = run_ensemble(
        96,
        0xF022,
        &RunnerOptions::default(),
        |job| -> Result<f64, String> {
            let mut rng = Xoshiro256pp::seed_from_u64(job.seed);
            let map = sample_perturbation(&h.circuit, &spec, &mut rng, |_| true);
            let mut circuit = h.circuit.clone();
            map.apply(&mut circuit);
            // Exercise both analysis kinds in natural order.
            let sim = SimOptions {
                sparse_threshold: 0,
                ..SimOptions::default()
            };
            let sol = solve_dc(&circuit, &sim)
                .map_err(|err| format!("seed {:#x}: {}", job.seed, err.failure_class()))?;
            run_transient(&circuit, TSTOP / 2.0, &sim)
                .map_err(|err| format!("seed {:#x}: {}", job.seed, err.failure_class()))?;
            Ok(sol.voltage(h.output))
        },
    );
    assert_eq!(e.outcomes.len(), 96);
    // Failures (if the 3-sigma tail produces any) must be typed with a
    // replayable seed baked into the message.
    for (job, msg) in e.failures() {
        assert!(
            msg.contains(&format!("{:#x}", job.seed)),
            "failure lost its replay seed: {msg}"
        );
    }
    // The overwhelming majority of 3x-sigma samples still converge.
    assert!(e.successes().len() >= 90, "{} failed", e.failures().len());
}

/// The pivot-health degrade hook stays live on the minimum-degree
/// ordered path. A `pivot` charge against an `Ordered` solve must fire
/// (injected fault counted, a re-pivoting fallback factorization
/// billed) and must recover: the faulted trajectory lands within
/// Newton's own tolerance of the clean one.
#[test]
fn pivot_fault_fires_the_degrade_hook_on_structured_paths() {
    let flat = generate_chip(&ChipSpec {
        instances: 12,
        islands: 3,
        seed: 0x5510_c0de,
    })
    .flatten();
    let probe = flat.find_node("u0_y").expect("unit sink net");
    let plan = FaultPlan::parse("pivot").unwrap();
    let clean_sim = SimOptions {
        sparse_threshold: 0,
        structure: SolverStructure::Ordered,
        ..SimOptions::default()
    };
    let faulted_sim = SimOptions {
        fault: plan.arm(0),
        ..clean_sim.clone()
    };
    let clean = run_transient(&flat, TSTOP, &clean_sim).expect("clean ordered run");
    let faulted = run_transient(&flat, TSTOP, &faulted_sim).expect("faulted ordered run");

    let s = faulted.solver_stats();
    assert!(
        s.injected_faults > 0,
        "pivot charge never fired: {}",
        s.render()
    );
    assert!(
        s.refactor_fallbacks > 0,
        "degrade hook fired no fallback: {}",
        s.render()
    );
    assert_eq!(
        clean.solver_stats().injected_faults,
        0,
        "clean run marked faulty"
    );

    // Recovery: the fallback is a clean full factorization of the
    // same matrix, so the trajectory stays inside Newton's band.
    assert_eq!(clean.len(), faulted.len(), "step sequences diverged");
    let worst = clean
        .node_series(probe)
        .iter()
        .zip(&faulted.node_series(probe))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst <= 1e-6, "faulted run strayed {worst:.3e} V");
}

/// With no plan armed, the fault layer is invisible: options compare
/// equal to the defaults and a faulted-options run is bit-identical to
/// a plain run (the golden suites pin the absolute values; this pins
/// the "default-off" property directly).
#[test]
fn inert_plan_leaves_the_simulation_bit_identical() {
    let h = victim();
    let plain = SimOptions::default();
    let with_inert = SimOptions {
        fault: FaultPlan::parse("").unwrap(),
        ..SimOptions::default()
    };
    assert_eq!(plain, with_inert);
    let a = run_transient(&h.circuit, TSTOP, &plain).unwrap();
    let b = run_transient(&h.circuit, TSTOP, &with_inert).unwrap();
    assert_eq!(a.len(), b.len());
    let (xa, xb) = (a.node_series(h.output), b.node_series(h.output));
    for (x, y) in xa.iter().zip(&xb) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.solver_stats().injected_faults, 0);
}
