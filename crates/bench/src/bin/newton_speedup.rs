//! Measures the symbolic-reuse Newton kernel speedup on three SS-TVS
//! workloads:
//!
//! 1. the single-cell standard-stimulus transient (15 unknowns, dense
//!    path) — where the device/cap **bypass** is the active feature;
//! 2. the paper's Figure 3 multi-voltage SoC mesh (twelve SS-TVS
//!    crossings, 140 unknowns, sparse path) — where **pattern-scatter
//!    assembly + numeric-only refactorization** carry the win; the
//!    ≥2x floor is enforced here, with the symbolic result required
//!    to agree with the legacy path within 1e-9 V at every sample
//!    (frozen pivots make the sparse arithmetic equivalent, not
//!    bit-identical);
//! 3. a 64-run Monte Carlo ensemble of full characterizations, timed
//!    with both kernels and reported through
//!    [`RunReport`](vls_runner::RunReport)'s aggregated
//!    [`SolverStats`](vls_engine::SolverStats).
//!
//! Writes the `BENCH_newton.json` perf-trajectory artifact (or `--out PATH`).
//!
//! ```text
//! cargo run --release -p vls-bench --bin newton_speedup [-- --smoke] [-- --jobs 4] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks the mesh window and the ensemble for CI; the 2x
//! floor is enforced either way.

use std::time::Instant;

use vls_bench::BinArgs;
use vls_cells::{Harness, MultiVoltageSystem, ShifterKind, VoltagePair};
use vls_core::experiments::tables::monte_carlo_stats_reported;
use vls_engine::{run_transient, KernelMode, SimOptions, TransientResult};
use vls_netlist::Circuit;

/// Bypass tolerance for the bypass-enabled configurations: well under
/// the solver's own `reltol * V` convergence band, so the bypassed
/// trajectory stays within the tolerances the property suite checks.
const BYPASS_VTOL: f64 = 1e-4;

fn with_kernel(base: &SimOptions, kernel: KernelMode, bypass_vtol: f64) -> SimOptions {
    SimOptions {
        kernel,
        bypass_vtol,
        ..base.clone()
    }
}

/// Runs the transient `reps` times and returns the best wall time with
/// the (identical every rep) result — min-of-reps rejects scheduler
/// noise without averaging it in.
fn time_transient(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
    reps: usize,
) -> (f64, TransientResult) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_transient(circuit, tstop, options).expect("transient failed");
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// Asserts two transients retraced each other bit for bit on `probe`
/// (the dense path re-pivots every iteration in both kernels, so the
/// arithmetic is identical).
fn assert_bit_identical(a: &TransientResult, b: &TransientResult, probe: vls_netlist::NodeId) {
    assert_eq!(
        a.len(),
        b.len(),
        "symbolic kernel changed the step sequence"
    );
    let sa = a.node_series(probe);
    let sb = b.node_series(probe);
    for (k, (va, vb)) in sa.iter().zip(&sb).enumerate() {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "symbolic kernel diverged from legacy at sample {k}: {va} vs {vb}"
        );
    }
}

/// Asserts two transients agree within `tol` at every sample on
/// `probe` and returns the worst deviation. The sparse kernel reuses
/// the pivot order of its first factorization instead of re-pivoting
/// every iteration, so it is equivalent to the legacy path within
/// Newton's own tolerances rather than bit for bit.
fn assert_agrees(
    a: &TransientResult,
    b: &TransientResult,
    probe: vls_netlist::NodeId,
    tol: f64,
) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "symbolic kernel changed the step sequence"
    );
    let sa = a.node_series(probe);
    let sb = b.node_series(probe);
    let mut worst = 0.0f64;
    for (k, (va, vb)) in sa.iter().zip(&sb).enumerate() {
        let d = (va - vb).abs();
        assert!(
            d <= tol,
            "symbolic kernel strayed {d:.3e} V from legacy at sample {k} (tol {tol:.0e})"
        );
        worst = worst.max(d);
    }
    worst
}

fn main() {
    let (args, smoke) = BinArgs::parse_smoke(std::env::args().skip(1));

    let kind = ShifterKind::sstvs();
    let domains = VoltagePair::low_to_high();
    let options = args.options();
    let reps = if smoke { 2 } else { 3 };
    let trials = if smoke { 8 } else { 64 };

    // ---- Phase 1: single-cell transient (dense path, bypass). ----
    let (wave, _, _, t_end) = Harness::standard_stimulus(domains);
    let harness = Harness::build(&kind, domains, wave, options.load_farads);
    println!(
        "Phase 1: {} standard-stimulus transient ({} unknowns, {reps} reps)",
        kind.label(),
        vls_engine::unknown_count(&harness.circuit)
    );

    let legacy_sim = with_kernel(&options.sim, KernelMode::Legacy, 0.0);
    let symbolic_sim = with_kernel(&options.sim, KernelMode::Symbolic, 0.0);
    let bypass_sim = with_kernel(&options.sim, KernelMode::Symbolic, BYPASS_VTOL);

    let (cell_t_leg, cell_leg) = time_transient(&harness.circuit, t_end, &legacy_sim, reps);
    let (cell_t_sym, cell_sym) = time_transient(&harness.circuit, t_end, &symbolic_sim, reps);
    let (cell_t_byp, cell_byp) = time_transient(&harness.circuit, t_end, &bypass_sim, reps);

    assert_bit_identical(&cell_leg, &cell_sym, harness.output);
    // Bypass is an approximation; hold it to the solver's own band.
    let v_leg = cell_leg.final_voltage(harness.output);
    let v_byp = cell_byp.final_voltage(harness.output);
    assert!(
        (v_leg - v_byp).abs() < 5e-3,
        "bypassed final output {v_byp} V strayed from legacy {v_leg} V"
    );
    let byp_stats = cell_byp.solver_stats();
    assert!(
        byp_stats.device_bypasses > 0 && byp_stats.cap_bypasses > 0,
        "bypass run never bypassed an evaluation: {}",
        byp_stats.render()
    );

    let cell_s_sym = cell_t_leg / cell_t_sym;
    let cell_s_byp = cell_t_leg / cell_t_byp;
    println!("  legacy    {:>9.3} ms", cell_t_leg * 1e3);
    println!(
        "  symbolic  {:>9.3} ms  ({cell_s_sym:.2}x, bit-identical)",
        cell_t_sym * 1e3
    );
    println!(
        "  + bypass  {:>9.3} ms  ({cell_s_byp:.2}x, within tolerances)",
        cell_t_byp * 1e3
    );
    println!("  bypass stats: {}", byp_stats.render());

    // ---- Phase 2: the Figure 3 SoC mesh (sparse path, floor). ----
    let soc = MultiVoltageSystem::paper_example();
    let mesh = soc.build_full_mesh();
    // The staggered stimulus edges start at 1 ns; the smoke window
    // still covers several of them.
    let mesh_tstop = if smoke { 2e-9 } else { 4e-9 };
    let mesh_reps = if smoke { 1 } else { 2 };
    println!(
        "Phase 2: Figure 3 SoC mesh transient ({} unknowns, {} crossings, {:.0e} s window)",
        vls_engine::unknown_count(&mesh.circuit),
        mesh.crossings.len(),
        mesh_tstop
    );

    let (mesh_t_leg, mesh_leg) = time_transient(&mesh.circuit, mesh_tstop, &legacy_sim, mesh_reps);
    let (mesh_t_sym, mesh_sym) =
        time_transient(&mesh.circuit, mesh_tstop, &symbolic_sim, mesh_reps);

    let probe = mesh.crossings[0].rx;
    let worst = assert_agrees(&mesh_leg, &mesh_sym, probe, 1e-9);
    let mesh_stats = mesh_sym.solver_stats();
    assert!(
        mesh_stats.refactorizations > 0,
        "mesh run never exercised numeric-only refactorization: {}",
        mesh_stats.render()
    );

    let mesh_s = mesh_t_leg / mesh_t_sym;
    println!("  legacy    {:>9.3} ms", mesh_t_leg * 1e3);
    println!(
        "  symbolic  {:>9.3} ms  ({mesh_s:.2}x, worst deviation {worst:.2e} V)",
        mesh_t_sym * 1e3
    );
    println!("  legacy   stats: {}", mesh_leg.solver_stats().render());
    println!("  symbolic stats: {}", mesh_stats.render());

    // ---- Phase 3: the Monte Carlo ensemble, both kernels. ----
    let mut mc_legacy_opts = args.options();
    mc_legacy_opts.sim = legacy_sim.clone();
    let mut mc_featured_opts = args.options();
    mc_featured_opts.sim = bypass_sim.clone();
    let runner = args.runner();
    println!("Phase 3: {trials}-trial Monte Carlo, seed {:#x}", args.seed);

    let t0 = Instant::now();
    let (mc_leg, rep_leg) =
        monte_carlo_stats_reported(&kind, domains, &mc_legacy_opts, trials, args.seed, &runner)
            .expect("legacy MC failed");
    let mc_t_leg = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (mc_feat, rep_feat) = monte_carlo_stats_reported(
        &kind,
        domains,
        &mc_featured_opts,
        trials,
        args.seed,
        &runner,
    )
    .expect("featured MC failed");
    let mc_t_feat = t0.elapsed().as_secs_f64();

    assert_eq!(
        mc_leg.passed, mc_feat.passed,
        "bypass changed the MC pass/fail verdicts"
    );
    // The RunReport must carry the aggregated counters for both paths.
    assert!(
        !rep_leg.solver.is_empty() && !rep_feat.solver.is_empty(),
        "SolverStats did not propagate into RunReport"
    );

    let mc_s = mc_t_leg / mc_t_feat;
    println!("  {}/{} passed both ways", mc_feat.passed, trials);
    println!("  legacy    {:>9.3} s", mc_t_leg);
    println!("  featured  {:>9.3} s  ({mc_s:.2}x)", mc_t_feat);
    println!("  legacy   report:\n{}", rep_leg.render());
    println!("  featured report:\n{}", rep_feat.render());

    // ---- Artifact + floor. ----
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \
         \"cell_transient\": {{\n    \"unknowns\": {},\n    \"legacy_s\": {cell_t_leg:.6},\n    \
         \"symbolic_s\": {cell_t_sym:.6},\n    \"bypass_s\": {cell_t_byp:.6},\n    \
         \"speedup_symbolic\": {cell_s_sym:.3},\n    \"speedup_bypass\": {cell_s_byp:.3}\n  }},\n  \
         \"mesh_transient\": {{\n    \"unknowns\": {},\n    \"window_s\": {mesh_tstop:.3e},\n    \
         \"legacy_s\": {mesh_t_leg:.6},\n    \"symbolic_s\": {mesh_t_sym:.6},\n    \
         \"speedup\": {mesh_s:.3}\n  }},\n  \"mc\": {{\n    \"trials\": {trials},\n    \
         \"legacy_s\": {mc_t_leg:.6},\n    \"featured_s\": {mc_t_feat:.6},\n    \
         \"speedup\": {mc_s:.3}\n  }},\n  \"mesh_stats\": {{\n    \"newton_iters\": {},\n    \
         \"linear_solves\": {},\n    \"full_factorizations\": {},\n    \"refactorizations\": {},\n    \
         \"refactor_fallbacks\": {},\n    \"device_evals\": {},\n    \"device_bypasses\": {},\n    \
         \"cap_evals\": {},\n    \"cap_bypasses\": {}\n  }}\n}}\n",
        vls_engine::unknown_count(&harness.circuit),
        vls_engine::unknown_count(&mesh.circuit),
        mesh_stats.newton_iters,
        mesh_stats.linear_solves,
        mesh_stats.full_factorizations,
        mesh_stats.refactorizations,
        mesh_stats.refactor_fallbacks,
        mesh_stats.device_evals,
        mesh_stats.device_bypasses,
        mesh_stats.cap_evals,
        mesh_stats.cap_bypasses,
    );
    args.write_artifact("BENCH_newton.json", &json);

    assert!(
        mesh_s >= 2.0,
        "mesh transient speedup {mesh_s:.2}x is under the 2x floor"
    );
    println!("floor held: mesh transient speedup {mesh_s:.2}x >= 2x");
}
