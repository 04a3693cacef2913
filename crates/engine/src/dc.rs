//! DC operating point: Newton–Raphson with gmin and source stepping.

use vls_fault::{FaultSession, LadderStage};
use vls_netlist::{Circuit, NodeId};
use vls_num::SolverStats;

use crate::kernel::NewtonKernel;
use crate::mna::{Mna, StampCtx};
use crate::{EngineError, SimOptions};

/// A DC solution: node voltages plus voltage-source branch currents.
#[derive(Debug, Clone)]
pub struct DcSolution {
    x: Vec<f64>,
    n_node_unknowns: usize,
    branch_names: Vec<String>,
    pub(crate) stats: SolverStats,
}

impl DcSolution {
    pub(crate) fn new(circuit: &Circuit, x: Vec<f64>) -> Self {
        let branch_names = circuit
            .elements()
            .iter()
            .filter(|e| e.needs_branch_current())
            .map(|e| e.name().to_string())
            .collect();
        Self {
            x,
            n_node_unknowns: circuit.node_count() - 1,
            branch_names,
            stats: SolverStats::default(),
        }
    }

    /// The voltage at `node`, in volts. Ground reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// The branch current of the named voltage source, in amperes,
    /// using the SPICE convention (positive current flows from the `+`
    /// terminal through the source to `−`; a delivering supply reads
    /// negative).
    pub fn branch_current(&self, source_name: &str) -> Option<f64> {
        let pos = self.branch_names.iter().position(|n| n == source_name)?;
        Some(self.x[self.n_node_unknowns + pos])
    }

    /// The raw unknown vector (node voltages then branch currents) —
    /// the transient engine warm-starts from this.
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }

    /// Work counters of the Newton solve(s) that produced this
    /// solution: iterations, linear solves, full factorizations and
    /// refactorizations, device evaluations and bypasses, and fired
    /// fault injections.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }
}

/// Why a Newton attempt gave up; drives the homotopy fallbacks. A
/// singular system carries the offending unknown's name (node or
/// `I(source)`) when the factorization could localize it — mapped back
/// through any fill-reducing/block permutation the solver applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NewtonFailure {
    Singular(Option<String>),
    NoConvergence,
}

/// Maps a numeric singularity at permuted column `col` back to the
/// original unknown (`perm[new] = old`; `None` = natural order) and
/// names it.
pub(crate) fn singular_failure(
    mna: &Mna<'_>,
    perm: Option<&[usize]>,
    err: &vls_num::NumError,
) -> NewtonFailure {
    match err {
        vls_num::NumError::Singular(col) => {
            let original = perm.map_or(*col, |p| p[*col]);
            NewtonFailure::Singular(Some(mna.unknown_name(original)))
        }
        _ => NewtonFailure::Singular(None),
    }
}

/// How a DC operating point was obtained — the instrumentation behind
/// the runner's warm/cold accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DcSolveStats {
    /// `true` when Newton converged directly from a caller-supplied
    /// initial guess, skipping the cold-start homotopy ladder.
    pub warm: bool,
    /// Newton iterations spent, summed over every ladder stage
    /// attempted (a failed warm attempt contributes its full budget).
    pub newton_iters: usize,
}

/// One ladder attempt: consumes an injected-failure charge for `stage`
/// if one is armed (reporting non-convergence without running Newton,
/// exactly like a real failed attempt), otherwise runs the solver.
fn attempt<F>(
    solve: &mut F,
    faults: &mut FaultSession,
    stage: LadderStage,
    x0: &[f64],
    gmin: f64,
    scale: f64,
) -> Result<(Vec<f64>, usize), NewtonFailure>
where
    F: FnMut(&[f64], f64, f64, &mut FaultSession) -> Result<(Vec<f64>, usize), NewtonFailure>,
{
    if faults.fire_newton(stage) {
        return Err(NewtonFailure::NoConvergence);
    }
    solve(x0, gmin, scale, faults)
}

/// The deterministic iteration timeout: trips once the ladder's summed
/// Newton iterations cross [`SimOptions::newton_budget`].
fn check_budget(
    options: &SimOptions,
    stats: &DcSolveStats,
    stage: LadderStage,
) -> Result<(), EngineError> {
    if let Some(budget) = options.newton_budget {
        let spent = stats.newton_iters as u64;
        if spent > budget {
            return Err(EngineError::BudgetExhausted {
                context: format!("dc ladder, {stage} stage"),
                spent,
                budget,
            });
        }
    }
    Ok(())
}

/// The DC homotopy ladder: warm → plain → gmin-stepping →
/// source-stepping, where `solve(x0, gmin, source_scale, faults)` runs
/// one Newton sequence. The fault session covers the whole ladder:
/// stage charges force attempts to fail, and the session is also handed
/// to the solver for its own (pivot, bypass) hooks.
fn run_ladder<F>(
    options: &SimOptions,
    n: usize,
    guess: Option<&[f64]>,
    faults: &mut FaultSession,
    solve: &mut F,
) -> Result<(Vec<f64>, DcSolveStats), EngineError>
where
    F: FnMut(&[f64], f64, f64, &mut FaultSession) -> Result<(Vec<f64>, usize), NewtonFailure>,
{
    let zero = vec![0.0; n];
    let mut stats = DcSolveStats::default();

    // 0. Warm start from the caller's guess.
    if let Some(g) = guess.filter(|g| g.len() == n) {
        match attempt(solve, faults, LadderStage::Warm, g, options.gmin, 1.0) {
            Ok((x, iters)) => {
                stats.warm = true;
                stats.newton_iters += iters;
                return Ok((x, stats));
            }
            // Fall back to the cold ladder; bill the wasted attempt.
            Err(_) => {
                stats.newton_iters += options.max_newton_iters;
                check_budget(options, &stats, LadderStage::Warm)?;
            }
        }
    }

    // 1. Plain Newton.
    match attempt(solve, faults, LadderStage::Plain, &zero, options.gmin, 1.0) {
        Ok((x, iters)) => {
            stats.newton_iters += iters;
            return Ok((x, stats));
        }
        Err(_) => {
            stats.newton_iters += options.max_newton_iters;
            check_budget(options, &stats, LadderStage::Plain)?;
        }
    }

    // 2. Gmin stepping: start heavily regularized, relax geometrically.
    let mut x = zero.clone();
    let mut gmin = 1e-3;
    let mut gmin_ok = true;
    while gmin >= options.gmin {
        match attempt(solve, faults, LadderStage::Gmin, &x, gmin, 1.0) {
            Ok((next, iters)) => {
                x = next;
                stats.newton_iters += iters;
                check_budget(options, &stats, LadderStage::Gmin)?;
            }
            Err(_) => {
                gmin_ok = false;
                break;
            }
        }
        if gmin == options.gmin {
            return Ok((x, stats));
        }
        gmin = (gmin / 10.0).max(options.gmin);
    }
    if gmin_ok {
        // Loop exited after solving at exactly options.gmin.
        return Ok((x, stats));
    }

    // 3. Source stepping from a dead circuit.
    let mut x = zero;
    let steps = 40;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        match attempt(solve, faults, LadderStage::Source, &x, options.gmin, scale) {
            Ok((next, iters)) => {
                x = next;
                stats.newton_iters += iters;
                check_budget(options, &stats, LadderStage::Source)?;
            }
            Err(NewtonFailure::Singular(name)) => {
                let at = name
                    .map(|n| format!(" at unknown '{n}'"))
                    .unwrap_or_default();
                return Err(EngineError::Singular {
                    context: format!("source stepping at scale {scale:.2}{at}"),
                });
            }
            Err(NewtonFailure::NoConvergence) => {
                return Err(EngineError::NoConvergence {
                    context: format!("source stepping at scale {scale:.2}"),
                })
            }
        }
    }
    Ok((x, stats))
}

/// Solves the DC operating point at `time` (sources evaluated there),
/// optionally warm-starting Newton from `guess` (a previous solution's
/// unknown vector). A guess of the wrong length is ignored; a guess
/// from which Newton fails falls back to the cold-start ladder.
pub(crate) fn solve_dc_at_guess(
    circuit: &Circuit,
    options: &SimOptions,
    time: f64,
    guess: Option<&[f64]>,
) -> Result<(DcSolution, DcSolveStats), EngineError> {
    crate::preflight(circuit, options)?;
    let mna = Mna::new(circuit, options.temperature.as_kelvin());
    let n = mna.n_unknowns;
    let ctx = |gmin: f64, scale: f64| StampCtx {
        time,
        source_scale: scale,
        gmin,
        reactive: None,
    };

    // One fault session per DC ladder: stage charges and solver hooks
    // draw from the same ledger, so a plan's counts mean "per phase".
    let mut faults = FaultSession::new(&options.fault);
    // One kernel for the whole ladder: the symbolic pattern, LU
    // storage, workspaces and bypass caches carry across every
    // homotopy stage.
    let mut kernel = NewtonKernel::new(&mna, options, None);
    let (x, stats) = run_ladder(
        options,
        n,
        guess,
        &mut faults,
        &mut |x0, gmin, scale, faults| kernel.solve(x0, &ctx(gmin, scale), options, faults),
    )?;
    let mut sol = DcSolution::new(circuit, x);
    sol.stats = kernel.stats();
    sol.stats.injected_faults += faults.fired();
    Ok((sol, stats))
}

/// Solves the DC operating point at `time` (sources evaluated there).
pub(crate) fn solve_dc_at(
    circuit: &Circuit,
    options: &SimOptions,
    time: f64,
) -> Result<DcSolution, EngineError> {
    solve_dc_at_guess(circuit, options, time, None).map(|(sol, _)| sol)
}

/// Solves the DC operating point with sources evaluated at `t = 0`.
///
/// The solver escalates automatically: plain Newton–Raphson, then gmin
/// stepping, then source stepping — the same ladder SPICE climbs.
///
/// # Errors
///
/// [`EngineError::BadNetlist`] for an invalid circuit, or
/// [`EngineError::NoConvergence`]/[`EngineError::Singular`] when every
/// fallback fails.
pub fn solve_dc(circuit: &Circuit, options: &SimOptions) -> Result<DcSolution, EngineError> {
    solve_dc_at(circuit, options, 0.0)
}

/// [`solve_dc`] with an optional warm-start guess — typically the
/// [`DcSolution::unknowns`] of a neighbouring sweep point — and solve
/// statistics. Newton is attempted from the guess first; if it fails
/// (or no guess is given), the cold-start ladder of [`solve_dc`] runs
/// unchanged, so a warm start can never *lose* a solution, only find
/// it in fewer iterations. A guess whose length does not match the
/// circuit's unknown count is ignored.
///
/// # Errors
///
/// As [`solve_dc`].
pub fn solve_dc_warm(
    circuit: &Circuit,
    options: &SimOptions,
    guess: Option<&[f64]>,
) -> Result<(DcSolution, DcSolveStats), EngineError> {
    solve_dc_at_guess(circuit, options, 0.0, guess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    fn opts() -> SimOptions {
        SimOptions::default()
    }

    #[test]
    fn divider_operating_point() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("r1", top, mid, 1000.0);
        c.add_resistor("r2", mid, Circuit::GROUND, 1000.0);
        let sol = solve_dc(&c, &opts()).unwrap();
        assert!((sol.voltage(top) - 2.0).abs() < 1e-6);
        assert!((sol.voltage(mid) - 1.0).abs() < 1e-6);
        assert!((sol.branch_current("v1").unwrap() + 1e-3).abs() < 1e-9);
        assert_eq!(sol.voltage(Circuit::GROUND), 0.0);
        assert!(sol.branch_current("nope").is_none());
    }

    #[test]
    fn inverter_transfer_points() {
        // CMOS inverter: in low → out at VDD; in high → out at 0.
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
            c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(vin));
            c.add_mosfet(
                "mp",
                out,
                inp,
                vdd,
                vdd,
                MosModel::ptm90_pmos(),
                MosGeometry::from_microns(0.4, 0.1),
            );
            c.add_mosfet(
                "mn",
                out,
                inp,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(0.2, 0.1),
            );
            c
        };
        let low_in = solve_dc(&build(0.0), &opts()).unwrap();
        let c = build(0.0);
        let out = c.find_node("out").unwrap();
        assert!(
            (low_in.voltage(out) - 1.2).abs() < 0.01,
            "out = {} for low input",
            low_in.voltage(out)
        );
        let high_in = solve_dc(&build(1.2), &opts()).unwrap();
        assert!(
            high_in.voltage(out).abs() < 0.01,
            "out = {}",
            high_in.voltage(out)
        );
        // Near the switching threshold the output sits between rails.
        let mid_in = solve_dc(&build(0.55), &opts()).unwrap();
        let v = mid_in.voltage(out);
        assert!(v > 0.1 && v < 1.1, "transition output {v}");
    }

    #[test]
    fn supply_current_of_off_inverter_is_leakage_sized() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_mosfet(
            "mp",
            out,
            inp,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(0.4, 0.1),
        );
        c.add_mosfet(
            "mn",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );
        let sol = solve_dc(&c, &opts()).unwrap();
        // Input low ⇒ NMOS off ⇒ supply only sees the NMOS leakage.
        let i = -sol.branch_current("vdd").unwrap();
        assert!(i > 0.0 && i < 1e-7, "leakage {i:.3e} A");
    }

    #[test]
    fn diode_connected_nmos_settles_near_vt() {
        // Current forced into a diode-connected NMOS: V ≈ VT + overdrive.
        let mut c = Circuit::new();
        let d = c.node("d");
        c.add_isource("ib", d, Circuit::GROUND, SourceWaveform::Dc(10e-6));
        c.add_mosfet(
            "m1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(1.0, 0.1),
        );
        // Wait: the current source pushes current out of `d`… flip it.
        let mut c2 = Circuit::new();
        let d2 = c2.node("d");
        c2.add_isource("ib", Circuit::GROUND, d2, SourceWaveform::Dc(-10e-6));
        c2.add_mosfet(
            "m1",
            d2,
            d2,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(1.0, 0.1),
        );
        for ckt in [&c, &c2] {
            let sol = solve_dc(ckt, &opts()).unwrap();
            let node = ckt.find_node("d").unwrap();
            let v = sol.voltage(node);
            assert!(v > 0.3 && v < 0.7, "diode voltage {v}");
        }
    }

    #[test]
    fn warm_start_reuses_a_neighbouring_solution() {
        // Solve a divider, nudge the source, re-solve warm: fewer
        // Newton iterations and the same answer as a cold solve.
        let build = |v: f64| {
            let mut c = Circuit::new();
            let top = c.node("top");
            let mid = c.node("mid");
            c.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(v));
            c.add_resistor("r1", top, mid, 1000.0);
            c.add_resistor("r2", mid, Circuit::GROUND, 1000.0);
            c
        };
        let (first, cold) = solve_dc_warm(&build(2.0), &opts(), None).unwrap();
        assert!(!cold.warm);
        assert!(cold.newton_iters >= 1);
        let (warm_sol, warm) =
            solve_dc_warm(&build(2.01), &opts(), Some(first.unknowns())).unwrap();
        assert!(warm.warm, "guess of matching size must be attempted");
        assert!(
            warm.newton_iters <= cold.newton_iters,
            "warm {} vs cold {}",
            warm.newton_iters,
            cold.newton_iters
        );
        let (cold_sol, _) = solve_dc_warm(&build(2.01), &opts(), None).unwrap();
        let mid = build(2.01).find_node("mid").unwrap();
        assert!((warm_sol.voltage(mid) - cold_sol.voltage(mid)).abs() < 1e-6);
    }

    #[test]
    fn mismatched_guess_is_ignored() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::GROUND, 100.0);
        let (_, stats) = solve_dc_warm(&c, &opts(), Some(&[0.0; 99])).unwrap();
        assert!(!stats.warm, "wrong-length guess must not be used");
    }

    #[test]
    fn nonsense_guess_falls_back_to_the_cold_ladder() {
        // A wild guess must not prevent convergence — the ladder runs
        // after the failed warm attempt.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_mosfet(
            "mp",
            out,
            inp,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(0.4, 0.1),
        );
        c.add_mosfet(
            "mn",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );
        let n = crate::unknown_count(&c);
        let wild = vec![1e6; n];
        let (sol, _) = solve_dc_warm(&c, &opts(), Some(&wild)).unwrap();
        let out_n = c.find_node("out").unwrap();
        assert!((sol.voltage(out_n) - 1.2).abs() < 0.01);
    }

    #[test]
    fn bad_netlist_is_rejected() {
        let c = Circuit::new();
        assert!(matches!(
            solve_dc(&c, &opts()),
            Err(EngineError::BadNetlist(_))
        ));
    }

    #[test]
    fn preflight_check_gates_the_solve() {
        // An unmediated 0.7 V -> 1.3 V up-shift: numerically solvable
        // (Newton converges to the leaky operating point), but ERC007
        // must refuse it when the static check is enabled.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.3));
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 0.7,
                delay: 0.0,
                rise: 50e-12,
                fall: 50e-12,
                width: 1e-9,
                period: 2e-9,
            },
        );
        c.add_mosfet(
            "mp",
            out,
            inp,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(0.4, 0.1),
        );
        c.add_mosfet(
            "mn",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );

        // Default options: no static check, the solve succeeds.
        assert!(solve_dc(&c, &opts()).is_ok());

        // Full check: the ERC007 error becomes a BadNetlist refusal
        // that names the rule.
        let mut checked = opts();
        checked.check = crate::CheckLevel::Full;
        match solve_dc(&c, &checked) {
            Err(EngineError::BadNetlist(msg)) => {
                assert!(msg.contains("ERC007"), "unexpected message: {msg}");
            }
            other => panic!("expected a BadNetlist refusal, got {other:?}"),
        }

        // Connectivity-only check: the domain rules do not run, so the
        // leaky-but-connected circuit passes.
        let mut conn = opts();
        conn.check = crate::CheckLevel::Connectivity;
        assert!(solve_dc(&c, &conn).is_ok());
    }

    #[test]
    fn cross_coupled_latch_converges_via_homotopy() {
        // Two cross-coupled inverters with no input: a bistable circuit
        // that plain Newton from zero may struggle with.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        for (i, (inp, out)) in [(q, qb), (qb, q)].into_iter().enumerate() {
            c.add_mosfet(
                &format!("mp{i}"),
                out,
                inp,
                vdd,
                vdd,
                MosModel::ptm90_pmos(),
                MosGeometry::from_microns(0.4, 0.1),
            );
            c.add_mosfet(
                &format!("mn{i}"),
                out,
                inp,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(0.2, 0.1),
            );
        }
        let sol = solve_dc(&c, &opts()).unwrap();
        // Symmetric circuit solved from a symmetric start lands on the
        // metastable point or a rail pair; all are valid solutions of
        // f(x) = 0. Check KCL health instead: voltages within rails.
        for node in [q, qb] {
            let v = sol.voltage(node);
            assert!((-0.01..=1.21).contains(&v), "latch node at {v}");
        }
    }

    #[test]
    fn capacitors_are_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", a, b, 1000.0);
        c.add_capacitor("c1", b, Circuit::GROUND, 1e-12);
        let sol = solve_dc(&c, &opts()).unwrap();
        // No DC path through the cap: b floats up to a's potential.
        assert!((sol.voltage(b) - 1.0).abs() < 1e-3);
    }
}
