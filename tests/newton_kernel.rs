//! Golden equivalence suite for the symbolic-reuse Newton kernel, the
//! one Newton loop every DC, DC-sweep and transient solve runs on:
//!
//! * retry rung 2's concession (strict partial pivoting in the
//!   caller's order; `SimOptions::escalated`) against the default.
//!   Every cell factorizes with diagonal preference by default, so
//!   strict pivoting picks other pivots and rounds differently: on all
//!   six cells, in the default minimum-degree order and in natural
//!   order, the trajectories agree within 1e-8 V over the same accepted
//!   steps, and on at least one cell rung 2 books different work than
//!   the default, so a rung 2 that repeats rung 1 fails;
//! * natural order against the default minimum-degree order, within
//!   1e-8 V;
//! * structure reuse as a counter invariant on a floorplan above the
//!   sparse threshold: every kernel factorizes in full once plus once
//!   per counted pivot-health fallback, refactorizes on every other
//!   linear solve, and with default options refactorizes on at least
//!   90 % of them;
//! * the `SolverStats` counters must be nonzero and plumbed all the
//!   way into the runner's `RunReport`.
//!
//! The kernel's assembly is pinned to a from-scratch `Mna::assemble` by
//! the `vls-engine` unit test
//! `scatter_assembly_equals_a_from_scratch_assembly`, and numeric-only
//! refactorization to a full factorization by the `vls-num` unit test
//! `refactorize_matches_full_factorization_bitwise`.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, KhanSsvs, PuriSsvs, ShifterKind, VoltagePair};
use sstvs::engine::{run_transient, solve_dc, SimOptions, SolverStats, TransientResult};
use sstvs::flows::experiments::tables::{monte_carlo_stats_reported, DEFAULT_MC_SEED};
use sstvs::flows::CharacterizeOptions;
use sstvs::netlist::chipgen::{generate_chip, ChipSpec};
use sstvs::netlist::{Circuit, Element};
use sstvs::runner::RunnerOptions;

/// A short window covering the first stimulus cycle's rise and fall —
/// plenty of Newton work without the full two-cycle runtime.
const TSTOP: f64 = 4e-9;

/// Natural order on every circuit: `sparse_threshold: 0` leaves the
/// order to `structure`, natural by default. Cells otherwise factorize
/// in minimum-degree order.
fn natural() -> SimOptions {
    SimOptions {
        sparse_threshold: 0,
        ..SimOptions::default()
    }
}

/// Retry rung 2's concession on top of `base`: everything
/// `escalated(2)` changes except rung 1's raised gmin.
fn strict(base: &SimOptions) -> SimOptions {
    SimOptions {
        gmin: base.gmin,
        ..base.escalated(2)
    }
}

/// All six cells with a domain pair each can legally shift.
fn six_cells() -> Vec<(ShifterKind, VoltagePair)> {
    vec![
        (ShifterKind::sstvs(), VoltagePair::low_to_high()),
        (ShifterKind::combined(), VoltagePair::low_to_high()),
        (
            ShifterKind::Conventional(Default::default()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Khan(KhanSsvs::new()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Puri(PuriSsvs::new()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Inverter(Inverter::minimum()),
            VoltagePair::high_to_low(),
        ),
    ]
}

fn build(kind: &ShifterKind, domains: VoltagePair) -> Harness {
    let (wave, _, _, _) = Harness::standard_stimulus(domains);
    Harness::build(kind, domains, wave, 1e-15)
}

fn run(circuit: &Circuit, options: &SimOptions) -> TransientResult {
    run_transient(circuit, TSTOP, options).expect("transient failed")
}

/// The source breakpoints before the end of `res`, a transient of
/// `circuit`, each of which the run landed on (every one is a stored
/// sample): the stepper's restarts after its start.
fn breakpoint_landings(circuit: &Circuit, res: &TransientResult) -> u64 {
    let tstop = *res.times().last().expect("a nonempty run");
    let mut corners: Vec<f64> = circuit
        .elements()
        .iter()
        .flat_map(|e| match e {
            Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => {
                wave.breakpoints(tstop)
            }
            _ => Vec::new(),
        })
        .filter(|&t| t > 0.0 && t < tstop)
        .collect();
    corners.sort_by(f64::total_cmp);
    corners.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
    for &t in &corners {
        assert!(res.state_at(t).is_some(), "no sample at the corner {t:e}");
    }
    corners.len() as u64
}

/// Worst absolute deviation between two same-length transients on a
/// probe node; panics if the accepted-step sequences differ.
fn worst_deviation(a: &TransientResult, b: &TransientResult, probe: sstvs::netlist::NodeId) -> f64 {
    assert_eq!(a.len(), b.len(), "runs accepted different step sequences");
    a.node_series(probe)
        .iter()
        .zip(&b.node_series(probe))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn strict_pivoting_matches_the_default_on_all_six_cells() {
    let mut booked_differently = Vec::new();
    for (kind, domains) in six_cells() {
        let h = build(&kind, domains);
        let label = kind.label();
        let default = run(&h.circuit, &SimOptions::default());
        let strict_run = run(&h.circuit, &strict(&SimOptions::default()));
        // Strict pivoting re-pivots where the default keeps a diagonal
        // pivot, so the two round differently, far inside Newton's
        // vabstol (1e-6 V), over the same steps.
        let d = worst_deviation(&default, &strict_run, h.output);
        assert!(d <= 1e-8, "{label}: rung 2 strayed {d:.3e} V");
        if strict_run.solver_stats() != default.solver_stats() {
            booked_differently.push(label);
        }
        let mosfets = h
            .circuit
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Mosfet { .. }))
            .count() as u64;
        // Newton starts each step from the cubic extrapolation through
        // the last four accepted points and judges its first iteration
        // on node voltages, so the corrector needs 1.29-1.43 iterations
        // per accepted step (1.77-2.05 from the linear predictor with
        // branch currents tested at once, 2.5-2.9 from the last accepted
        // point), and no step is rejected. Every iteration walks every
        // MOSFET once, for its stamp and its capacitances together; the
        // stepper makes a standalone capacitance walk of each only at a
        // restart, the DC start or a breakpoint landing.
        let stats = default.solver_stats();
        let steps = (default.len() - 1) as u64;
        assert_eq!(stats.tran_steps, steps, "{label}");
        assert_eq!(stats.rejected_steps, 0, "{label}");
        assert_eq!(
            stats.device_evals,
            mosfets * stats.newton_iters,
            "{label}: {}",
            stats.render()
        );
        let landings = breakpoint_landings(&h.circuit, &default);
        assert!(landings > 0, "{label}: the stimulus has input corners");
        assert_eq!(
            stats.cap_evals,
            mosfets * (1 + landings),
            "{label}: {}",
            stats.render()
        );
        let per_step = stats.newton_iters as f64 / steps as f64;
        assert!(
            per_step <= 1.6,
            "{label}: {per_step:.3} Newton iterations per accepted step"
        );

        // The same bound in natural order.
        let default = run(&h.circuit, &natural());
        let strict_run = run(&h.circuit, &strict(&natural()));
        let d = worst_deviation(&default, &strict_run, h.output);
        assert!(d <= 1e-8, "{label}: natural-order rung 2 strayed {d:.3e} V");
    }
    // Rung 2 is a concession only if it changes what the solver does.
    assert!(
        !booked_differently.is_empty(),
        "rung 2 booked the default's work on every cell: it repeats rung 1"
    );
}

#[test]
fn natural_order_agrees_with_the_minimum_degree_order() {
    // Extends `natural_and_minimum_degree_orders_agree` (engine unit
    // suite) to the SS-TVS cell, under both pivot tolerances.
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());
    let ordered = run(&h.circuit, &SimOptions::default());
    for options in [natural(), strict(&natural())] {
        let other = run(&h.circuit, &options);
        let tol = options.sparse_pivot_tol;
        let d = worst_deviation(&ordered, &other, h.output);
        assert!(
            d <= 1e-8,
            "pivot tolerance {tol}: natural vs minimum-degree order strayed {d:.3e} V"
        );
        let stats = other.solver_stats();
        assert!(
            stats.refactorizations > 0 && stats.full_factorizations > 0,
            "pivot tolerance {tol}: {}",
            stats.render()
        );
    }
}

/// The structure-reuse invariants of a run that built `kernels`
/// kernels: each factorizes in full on its first linear solve and again
/// on every counted pivot-health fallback, and refactorizes on every
/// other one.
fn assert_reuse_invariants(s: &SolverStats, kernels: u64, what: &str) {
    assert_eq!(
        s.full_factorizations,
        kernels + s.refactor_fallbacks,
        "{what}: {}",
        s.render()
    );
    assert_eq!(
        s.refactorizations,
        s.linear_solves - s.full_factorizations,
        "{what}: {}",
        s.render()
    );
}

#[test]
fn structure_reuse_holds_as_a_counter_invariant() {
    // A floorplan above the sparse threshold, on the default natural
    // order. What makes the kernel fast on sparse circuits is that
    // nearly every linear solve replays the frozen structure.
    let chip = generate_chip(&ChipSpec {
        instances: 20,
        islands: 3,
        seed: 0x5510_c0de,
    })
    .flatten();
    let default = SimOptions::default();
    assert!(sstvs::engine::unknown_count(&chip) > default.sparse_threshold);
    for (what, options) in [("default", default.clone()), ("rung 2", strict(&default))] {
        let dc = solve_dc(&chip, &options).expect("DC converges");
        assert_reuse_invariants(&dc.solver_stats(), 1, &format!("{what} DC"));
        // The transient builds two kernels: its DC solve's and its own.
        let tran = run_transient(&chip, 0.5e-9, &options).expect("transient converges");
        let s = tran.solver_stats();
        assert_reuse_invariants(&s, 2, &format!("{what} transient"));
        if what == "default" {
            assert!(
                10 * s.refactorizations >= 9 * s.linear_solves,
                "under 90 % of linear solves refactorized: {}",
                s.render()
            );
        }
    }
}

#[test]
fn solver_stats_are_nonzero_and_reach_the_run_report() {
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());

    // Every hot-path counter ticks; the bypass counters never do.
    let stats = run(&h.circuit, &SimOptions::default()).solver_stats();
    assert!(stats.newton_iters > 0 && stats.linear_solves > 0);
    assert!(stats.full_factorizations > 0 && stats.refactorizations > 0);
    assert!(stats.device_evals > 0 && stats.cap_evals > 0);
    assert_eq!(stats.device_bypasses, 0);
    assert_eq!(stats.cap_bypasses, 0);

    // End-to-end plumbing: characterization trials fold their counters
    // through `characterize_with_stats` into the runner's RunReport.
    let (mc, report) = monte_carlo_stats_reported(
        &ShifterKind::sstvs(),
        VoltagePair::low_to_high(),
        &CharacterizeOptions::default(),
        3,
        DEFAULT_MC_SEED,
        &RunnerOptions::serial(),
    )
    .expect("MC failed");
    assert!(mc.passed > 0);
    assert!(
        !report.solver.is_empty(),
        "SolverStats did not reach RunReport"
    );
    assert!(report.solver.newton_iters > 0 && report.solver.linear_solves > 0);
    assert!(report.render().contains("solver:"));
}
