//! Golden equivalence suite for the symbolic-reuse Newton kernel.
//!
//! The symbolic kernel (pattern-scatter assembly, numeric-only
//! refactorization, reusable workspaces, device/cap bypass) is the
//! default hot path; this file pins it to the legacy
//! rebuild-everything path:
//!
//! * on the dense linear path both kernels perform identical
//!   arithmetic, so all six cells must match **bit for bit** (far
//!   inside the 1e-12 budget);
//! * on the sparse path the kernel reuses the pivot order of its
//!   first factorization instead of re-pivoting every iteration, so
//!   the trajectories are equivalent within Newton's own tolerances
//!   rather than bitwise — pinned here to 1e-8 V;
//! * bypass is an approximation bounded by `bypass_vtol`; a property
//!   test checks bypass-on vs bypass-off transients stay within the
//!   solver's `reltol`/`lte_tol` band across randomized Monte Carlo
//!   process perturbations;
//! * the `SolverStats` counters must be nonzero and plumbed all the
//!   way into the runner's `RunReport`.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, KhanSsvs, PuriSsvs, ShifterKind, VoltagePair};
use sstvs::engine::{run_transient, KernelMode, SimOptions, TransientResult};
use sstvs::flows::experiments::tables::{monte_carlo_stats_reported, DEFAULT_MC_SEED};
use sstvs::flows::CharacterizeOptions;
use sstvs::netlist::Circuit;
use sstvs::num::rng::Xoshiro256pp;
use sstvs::runner::RunnerOptions;
use sstvs::variation::{sample_perturbation, VariationSpec};

/// A short window covering the first stimulus cycle's rise and fall —
/// plenty of Newton work without the full two-cycle runtime.
const TSTOP: f64 = 4e-9;

fn sim(kernel: KernelMode, bypass_vtol: f64, sparse_threshold: usize) -> SimOptions {
    SimOptions {
        kernel,
        bypass_vtol,
        sparse_threshold,
        ..SimOptions::default()
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

/// Worst absolute deviation between two same-length transients on a
/// probe node; panics if the accepted-step sequences differ.
fn worst_deviation(a: &TransientResult, b: &TransientResult, probe: sstvs::netlist::NodeId) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "kernels accepted different step sequences"
    );
    a.node_series(probe)
        .iter()
        .zip(&b.node_series(probe))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn symbolic_kernel_is_bit_identical_to_legacy_on_all_six_cells() {
    for (kind, domains) in six_cells() {
        let h = build(&kind, domains);
        let legacy = run(&h.circuit, &sim(KernelMode::Legacy, 0.0, 64));
        let symbolic = run(&h.circuit, &sim(KernelMode::Symbolic, 0.0, 64));
        assert_eq!(
            legacy.len(),
            symbolic.len(),
            "{}: kernels accepted different step sequences",
            kind.label()
        );
        // Newton starts each step from the predictor, so the corrector
        // needs about two iterations per accepted step (a start from the
        // last accepted point needs 2.5-2.9), and no step is rejected.
        for (arm, res) in [("legacy", &legacy), ("symbolic", &symbolic)] {
            let stats = res.solver_stats();
            let steps = (res.len() - 1) as u64;
            assert_eq!(stats.tran_steps, steps, "{} {arm}", kind.label());
            assert_eq!(stats.rejected_steps, 0, "{} {arm}", kind.label());
            let per_step = stats.newton_iters as f64 / steps as f64;
            assert!(
                per_step <= 2.2,
                "{} {arm}: {per_step:.3} Newton iterations per accepted step",
                kind.label()
            );
        }
        for probe in [h.input, h.output] {
            let a = legacy.node_series(probe);
            let b = symbolic.node_series(probe);
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                // Bitwise equality implies the 1e-12 budget with room
                // to spare.
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: kernels diverged at sample {k}: {x} vs {y}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn sparse_kernel_agrees_with_legacy_and_dense_paths() {
    // Extends `sparse_and_dense_paths_agree` (engine unit suite) to
    // the kernel matrix: force the sparse solver on the SS-TVS cell
    // and pin all four (kernel × linear path) combinations together.
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());
    let legacy_dense = run(&h.circuit, &sim(KernelMode::Legacy, 0.0, 64));
    let legacy_sparse = run(&h.circuit, &sim(KernelMode::Legacy, 0.0, 0));
    let symbolic_sparse = run(&h.circuit, &sim(KernelMode::Symbolic, 0.0, 0));

    // Frozen-pivot refactorization vs per-iteration re-pivoting: the
    // trajectories agree far inside Newton's vabstol (1e-6 V) but not
    // bitwise; 1e-8 V pins the observed ~2.6e-9 V with margin.
    let d = worst_deviation(&legacy_sparse, &symbolic_sparse, h.output);
    assert!(d <= 1e-8, "sparse kernels strayed {d:.3e} V apart");
    // Sparse vs dense linear algebra under the symbolic kernel.
    let d = worst_deviation(&legacy_dense, &symbolic_sparse, h.output);
    assert!(d <= 1e-8, "sparse vs dense strayed {d:.3e} V apart");

    let stats = symbolic_sparse.solver_stats();
    assert!(
        stats.refactorizations > 0,
        "sparse kernel never refactorized: {}",
        stats.render()
    );
    assert!(
        stats.full_factorizations > 0,
        "sparse kernel never fully factorized: {}",
        stats.render()
    );
}

/// Linear interpolation of a transient at time `t`.
fn sample_at(times: &[f64], series: &[f64], t: f64) -> f64 {
    match times.iter().position(|&tk| tk >= t) {
        None => *series.last().unwrap(),
        Some(0) => series[0],
        Some(k) => {
            let (t0, t1) = (times[k - 1], times[k]);
            let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            series[k - 1] + w * (series[k] - series[k - 1])
        }
    }
}

#[test]
fn bypass_stays_within_solver_tolerances_across_mc_perturbations() {
    // Property test: for randomized process perturbations of the cell
    // devices, the bypassed transient must track the exact one within
    // the band the solver itself guarantees (reltol of the swing plus
    // the LTE budget) at every common time point, with identical final
    // logic levels.
    let domains = VoltagePair::low_to_high();
    let reference = build(&ShifterKind::sstvs(), domains);
    let spec = VariationSpec::paper();
    let exact_sim = sim(KernelMode::Symbolic, 0.0, 64);
    let bypass_sim = sim(KernelMode::Symbolic, 1e-4, 64);
    // Bypass perturbs the Newton trajectory, which shifts edge timing
    // within reltol; on a 50 ps edge that timing shift converts to a
    // few millivolts of pointwise deviation.
    let tol = 10.0 * (exact_sim.reltol * domains.vddo + exact_sim.lte_tol);

    for seed in 1..=4u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let map = sample_perturbation(&reference.circuit, &spec, &mut rng, |name| {
            name.starts_with("dut")
        });
        let mut circuit = reference.circuit.clone();
        map.apply(&mut circuit);

        let exact = run(&circuit, &exact_sim);
        let bypassed = run(&circuit, &bypass_sim);
        let (t_ex, v_ex) = (exact.times(), exact.node_series(reference.output));
        let (t_by, v_by) = (bypassed.times(), bypassed.node_series(reference.output));

        let mut worst = 0.0f64;
        for k in 0..=200 {
            let t = TSTOP * k as f64 / 200.0;
            let d = (sample_at(t_ex, &v_ex, t) - sample_at(t_by, &v_by, t)).abs();
            worst = worst.max(d);
        }
        assert!(
            worst <= tol,
            "seed {seed}: bypass strayed {worst:.3e} V from exact (tol {tol:.3e})"
        );

        let stats = bypassed.solver_stats();
        assert!(
            stats.device_bypasses > 0,
            "seed {seed}: bypass never engaged: {}",
            stats.render()
        );
    }
}

#[test]
fn solver_stats_are_nonzero_and_reach_the_run_report() {
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());

    // Exact symbolic run: every hot-path counter but the bypass ones.
    let stats = run(&h.circuit, &sim(KernelMode::Symbolic, 0.0, 64)).solver_stats();
    assert!(stats.newton_iters > 0 && stats.linear_solves > 0);
    assert!(stats.full_factorizations > 0);
    assert!(stats.device_evals > 0 && stats.cap_evals > 0);
    assert_eq!(stats.device_bypasses, 0, "bypass engaged while disabled");
    assert_eq!(stats.cap_bypasses, 0, "cap bypass engaged while disabled");

    // The legacy path counts its Newton work too.
    let legacy = run(&h.circuit, &sim(KernelMode::Legacy, 0.0, 64)).solver_stats();
    assert!(legacy.newton_iters > 0 && legacy.full_factorizations > 0);

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
