//! Transient analysis: trapezoidal/backward-Euler companion integration
//! with local-truncation-error step control and source breakpoints.
//!
//! The circuit's capacitances (explicit capacitors and the Meyer
//! capacitances of every MOSFET) form one capacitive network
//! (`capnet::CapNetwork`) with a branch per pair of distinct nodes. Each
//! step sets the branches' capacitances once and replaces every branch
//! by its companion model `i = geq·v − ieq` at each attempt; the
//! resulting resistive network is solved by the same damped Newton
//! iteration as the DC analysis. On the SS-TVS measurement harness that
//! is 35 companions per Newton iteration where one per capacitor slot
//! was 86; the unit test
//! `capnet::tests::network_stamps_what_each_capacitor_stamped` checks the
//! merged assembly against the per-capacitor one.
//!
//! Each transient Newton iteration walks every MOSFET's model once, for
//! its stamp and its capacitances together (`BoundMos::op_caps`, whose
//! operating point is bitwise `op` by the `vls-device` unit test
//! `op_caps_is_op_bitwise`), and the kernel records the capacitances at
//! the iterate it stamps. A step's companions take the capacitances the
//! accepted step before it recorded in its last assembly: they differ
//! from those at the accepted point by the final Newton update, which
//! the convergence test holds within the Newton tolerance. The stepper
//! makes a standalone capacitance walk (`BoundMos::caps`) only at a
//! restart (the DC or UIC start, a resume or a breakpoint landing), at
//! the start point, so `SolverStats::cap_evals` is the MOSFET count times
//! one plus the breakpoint landings
//! (`tests/newton_kernel.rs::strict_pivoting_matches_the_default_on_all_six_cells`),
//! and a resume at a breakpoint reproduces the uninterrupted run bit for
//! bit (`resuming_at_a_breakpoint_reproduces_the_uninterrupted_run`).
//!
//! Two extrapolations look ahead from the accepted points kept since the
//! last restart (DC, UIC, a resume or a breakpoint landing):
//!
//! * the **step predictor** ([`predict`]): the linear extrapolation
//!   through the last two points, or the last point itself right after
//!   a restart. The LTE test measures the corrector against it, and the
//!   controller sizes the next step from that gap: it steers the gap
//!   toward `SimOptions::lte_tol` and rejects a step only above 16× it;
//! * the **Newton start** ([`newton_start`]): the Lagrange extrapolation
//!   through the last three or four points, quadratic or cubic; with
//!   fewer points it is the predictor. It lands closer to the corrector
//!   than the predictor does, and the Newton kernel judges its first
//!   iteration on node voltages alone, so most steps converge in one
//!   iteration: 1.29–1.43 iterations per accepted step on the six cells'
//!   first 4 ns, against 1.77–2.05 from the predictor with branch
//!   currents tested from the first iteration.
//!
//! The start changes where Newton begins, not the step control, which
//! still reads the predictor: each converged point moves only within the
//! Newton tolerance, and on every circuit measured the accepted and
//! rejected step counts are unchanged. Steps are forced to land on every
//! source breakpoint so input edges are never straddled.
//!
//! Integration uses a θ-damped trapezoid (θ = 0.55): plain trapezoidal
//! integration is only marginally stable and lets capacitor-current
//! ringing persist forever on quiet plateaus, which would corrupt the
//! nanoamp-level leakage extraction this workspace depends on. The
//! slight damping decays the ringing while keeping near-second-order
//! accuracy; on plateaus (steps cruising at the maximum size) the
//! engine additionally drops to backward Euler, which kills any
//! residual oscillation outright where accuracy is free.

use std::collections::VecDeque;

use vls_fault::FaultSession;
use vls_netlist::{Circuit, Element, NodeId};
use vls_num::SolverStats;

use crate::capnet::CapNetwork;
use crate::dc::{solve_dc_at, DcSolution};
use crate::kernel::NewtonKernel;
use crate::mna::{Mna, StampCtx};
use crate::{EngineError, SimOptions};

/// The sampled result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `samples[k]` is the full unknown vector at `times[k]`.
    samples: Vec<Vec<f64>>,
    n_node_unknowns: usize,
    branch_names: Vec<String>,
    stats: SolverStats,
}

impl TransientResult {
    /// The sample times, ascending, starting at the run's start time:
    /// 0, or `t0` for a run resumed with [`run_transient_from`].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The stored sample at time `t` as `(time, unknowns)`: the exact
    /// sample time (within the stepper's 1e-21 s breakpoint tolerance
    /// of `t`) and the full unknown vector there, which is what
    /// [`run_transient_from`] resumes from. Every source breakpoint the
    /// run crossed is a stored sample; `None` when no sample lies at
    /// `t`.
    pub fn state_at(&self, t: f64) -> Option<(f64, &[f64])> {
        let k = self.times.partition_point(|&s| s < t - BREAKPOINT_TOL);
        let &tk = self.times.get(k)?;
        (tk <= t + BREAKPOINT_TOL).then(|| (tk, self.samples[k].as_slice()))
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were stored (never the case for a
    /// successful run, which stores at least the DC point).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The voltage waveform of `node`, aligned with [`Self::times`].
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the simulated circuit.
    pub fn node_series(&self, node: NodeId) -> Vec<f64> {
        if node.is_ground() {
            return vec![0.0; self.times.len()];
        }
        let i = node.index() - 1;
        assert!(i < self.n_node_unknowns, "node outside circuit");
        self.samples.iter().map(|s| s[i]).collect()
    }

    /// The branch-current waveform of the named voltage source (SPICE
    /// convention: positive from `+` through the source to `−`).
    pub fn branch_series(&self, source_name: &str) -> Option<Vec<f64>> {
        let pos = self.branch_names.iter().position(|n| n == source_name)?;
        let idx = self.n_node_unknowns + pos;
        Some(self.samples.iter().map(|s| s[idx]).collect())
    }

    /// The last sampled voltage at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty or the node is foreign.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            return 0.0;
        }
        self.samples.last().expect("nonempty result")[node.index() - 1]
    }

    /// Work counters accumulated over the whole run — the initial DC
    /// solve (when any) plus every transient Newton solve.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }
}

/// Integration damping: θ = 0.5 is plain trapezoid, 1.0 is backward
/// Euler. 0.55 decays plateau ringing while staying near second order.
pub(crate) const THETA: f64 = 0.55;

/// How close a step end must come to a breakpoint to count as landing
/// on it, s.
const BREAKPOINT_TOL: f64 = 1e-21;

/// The most accepted points the Newton start extrapolates through: four
/// make it cubic.
const START_POINTS: usize = 4;

/// The step predictor, written into `out`: the linear extrapolation
/// over a step of `h` through the last two accepted points —
/// `history` is the point before `x` with the step that led from it
/// to `x` — or `x` itself when there is no usable history (after DC,
/// UIC or a breakpoint). The stepper measures its LTE against this
/// vector, and starts Newton from it while fewer than three points are
/// known since the last restart.
fn predict(x: &[f64], history: Option<(&[f64], f64)>, h: f64, out: &mut [f64]) {
    match history {
        Some((x_prev, h_prev)) if h_prev > 0.0 => {
            let ratio = h / h_prev;
            for ((o, &xi), &xp) in out.iter_mut().zip(x).zip(x_prev) {
                *o = xi + (xi - xp) * ratio;
            }
        }
        _ => out.copy_from_slice(x),
    }
}

/// The Newton start, written into `out`: the Lagrange extrapolation
/// over a step of `h` through `x` and the accepted points in `past`,
/// quadratic through three points and cubic through [`START_POINTS`].
/// `past` holds the points before `x` newest first, each with the step
/// that led from it to the next newer point. The weights come from
/// offsets to the new time summed from those steps, never from
/// differences of absolute times, which at tens of nanoseconds keep
/// only about ten digits of a 0.1 ps step.
fn newton_start(x: &[f64], past: &VecDeque<(Vec<f64>, f64)>, h: f64, out: &mut [f64]) {
    let n = past.len() + 1;
    debug_assert!((3..=START_POINTS).contains(&n));
    // d[j] is the distance from point j (x is point 0) to the new time.
    let mut d = [h; START_POINTS];
    for (j, (_, step)) in past.iter().enumerate() {
        d[j + 1] = d[j] + step;
    }
    let d = &d[..n];
    let mut w = [1.0; START_POINTS];
    for (j, wj) in w[..n].iter_mut().enumerate() {
        for (m, &dm) in d.iter().enumerate() {
            if m != j {
                *wj *= dm / (dm - d[j]);
            }
        }
    }
    let points = std::iter::once(x).chain(past.iter().map(|(p, _)| p.as_slice()));
    out.fill(0.0);
    for (p, &wj) in points.zip(&w) {
        for (o, &pi) in out.iter_mut().zip(p) {
            *o += wj * pi;
        }
    }
}

/// Runs a transient analysis from `t = 0` to `tstop`.
///
/// The initial condition is the DC operating point with sources
/// evaluated at `t = 0`. Returns the sampled waveforms of every node
/// and every voltage-source branch current.
///
/// # Errors
///
/// Reports [`EngineError::BadNetlist`] when `tstop` is not strictly
/// positive and finite, propagates DC failures, and reports
/// [`EngineError::StepUnderflow`] when Newton cannot converge even at
/// the minimum step size.
pub fn run_transient(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
) -> Result<TransientResult, EngineError> {
    check_tstop(tstop)?;
    let dc: DcSolution = solve_dc_at(circuit, options, 0.0)?;
    let dc_stats = dc.solver_stats();
    transient_from_state(
        circuit,
        0.0,
        tstop,
        options,
        dc.unknowns().to_vec(),
        dc_stats,
    )
}

/// Resumes a transient at `t0` from `state`, the full unknown vector a
/// run stored there (see [`TransientResult::state_at`]), and runs it to
/// `tstop`. The result starts with that sample and counts only the
/// work after `t0`.
///
/// At a breakpoint the stepper keeps no state besides `(t0, state)`: it
/// restarts at `SimOptions::initial_step` with backward Euler and no
/// predictor history, and the default `max_step` is still `tstop / 50`.
/// So resuming at a breakpoint from a stored sample of a run of the
/// same circuit and `tstop` reproduces that run's later samples bit
/// for bit whenever the resumed run's first factorization picks the
/// pivots the run kept (diagonal preference does on the cell
/// harnesses), and the counters of the prefix and the resumed part
/// add up to the whole run's, except that the resumed part factorizes
/// in full once where the whole run refactorized. The circuit may
/// differ from the stored run's after `t0` (another source waveform,
/// say): that is how two runs sharing a prefix simulate it once.
///
/// # Errors
///
/// Reports [`EngineError::BadNetlist`] when `tstop` is not positive and
/// finite, `t0` is not finite, negative or not before `tstop`, or
/// `state` is not one value per unknown of `circuit`; otherwise as
/// [`run_transient`], minus the DC stage.
pub fn run_transient_from(
    circuit: &Circuit,
    t0: f64,
    state: &[f64],
    tstop: f64,
    options: &SimOptions,
) -> Result<TransientResult, EngineError> {
    check_tstop(tstop)?;
    if !(t0.is_finite() && t0 >= 0.0 && t0 < tstop) {
        return Err(EngineError::BadNetlist(format!(
            "transient resume time must be finite, non-negative and before the stop time \
             {tstop}, got {t0}"
        )));
    }
    crate::preflight(circuit, options)?;
    let n = crate::unknown_count(circuit);
    if state.len() != n {
        return Err(EngineError::BadNetlist(format!(
            "resume state has {} values, the circuit has {n} unknowns",
            state.len()
        )));
    }
    transient_from_state(
        circuit,
        t0,
        tstop,
        options,
        state.to_vec(),
        SolverStats::default(),
    )
}

/// Runs a transient from user-supplied initial conditions instead of
/// the DC operating point — SPICE's `.tran … UIC` with `.ic` cards.
/// Nodes named in `ics` start at the given voltages; every other node
/// (and every branch current) starts at zero. The first time step
/// reconciles the state with the sources, exactly as SPICE's UIC does.
///
/// # Errors
///
/// As [`run_transient`], minus the DC stage (which UIC skips).
pub fn run_transient_uic(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
    ics: &[(NodeId, f64)],
) -> Result<TransientResult, EngineError> {
    check_tstop(tstop)?;
    crate::preflight(circuit, options)?;
    let mut x0 = vec![0.0; crate::unknown_count(circuit)];
    for (node, v) in ics {
        if !node.is_ground() {
            x0[node.index() - 1] = *v;
        }
    }
    transient_from_state(circuit, 0.0, tstop, options, x0, SolverStats::default())
}

/// Refuses a stop time that is not strictly positive and finite.
fn check_tstop(tstop: f64) -> Result<(), EngineError> {
    if tstop > 0.0 && tstop.is_finite() {
        Ok(())
    } else {
        Err(EngineError::BadNetlist(format!(
            "transient stop time must be positive and finite, got {tstop}"
        )))
    }
}

/// The stepping core shared by the DC-initialized, UIC and resumed
/// entry points: steps from `initial` at `t0` to `tstop`.
/// `initial_stats` carries the counters of the DC solve that produced
/// `initial` (zero for UIC and a resume) so the result reports
/// whole-run totals.
fn transient_from_state(
    circuit: &Circuit,
    t0: f64,
    tstop: f64,
    options: &SimOptions,
    initial: Vec<f64>,
    initial_stats: SolverStats,
) -> Result<TransientResult, EngineError> {
    let mna = Mna::new(circuit, options.temperature.as_kelvin());
    let mut x = initial;

    // The capacitive network, its branch voltages from the start point.
    let mut network = CapNetwork::new(circuit, &mna);
    network.start_at(&x);

    // One symbolic kernel for the whole run: the transient stamp
    // pattern (including every branch's companion — a zero-capacitance
    // branch stamps a placeholder, so the pattern never changes between
    // steps) is analyzed once, and the LU storage and workspaces
    // persist across all time steps.
    let mut kernel = NewtonKernel::new(&mna, options, Some(network.companions(1.0, 1.0)));

    // --- breakpoints -------------------------------------------------
    let mut breakpoints: Vec<f64> = Vec::new();
    for e in circuit.elements() {
        if let Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } = e {
            breakpoints.extend(wave.breakpoints(tstop));
        }
    }
    breakpoints.push(tstop);
    breakpoints.retain(|&t| t > 0.0);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

    // --- stepping ----------------------------------------------------
    // One fault session for the whole stepping phase (the initial DC
    // solve, when any, ran under its own session).
    let mut faults = FaultSession::new(&options.fault);
    let mut step_attempts: u64 = 0;
    let max_step = options.max_step.unwrap_or(tstop / 50.0);
    let mut h = options.initial_step.min(max_step);
    let mut t = t0;
    let mut use_trap = false; // first step after DC, UIC or a resume is backward Euler
    let mut bp_iter = breakpoints.iter().copied().peekable();

    let mut times = vec![t0];
    let mut samples = vec![x.clone()];
    // The accepted points before `x` since the last restart, newest
    // first, each with the step that led from it to the next newer one.
    let mut past: VecDeque<(Vec<f64>, f64)> = VecDeque::with_capacity(START_POINTS);
    let mut pred = vec![0.0; x.len()];
    let mut start = vec![0.0; x.len()];
    let mut rejected_steps: u64 = 0;

    while t < tstop - BREAKPOINT_TOL {
        // The Meyer capacitances of this step's companions: at a restart
        // (no accepted point kept), a standalone capacitance walk at the
        // start point, which a resume repeats
        // (`resuming_at_a_breakpoint_reproduces_the_uninterrupted_run`);
        // otherwise what the accepted step's last assembly recorded (the
        // six-cell counter rule in `tests/newton_kernel.rs` counts both).
        if past.is_empty() {
            network.set_caps(
                mna.mosfets()
                    .iter()
                    .map(|m| kernel.eval_caps(&m.dev, m.bias(&x))),
            );
        } else {
            network.set_caps(kernel.recorded_caps().iter().copied());
        }

        // Clamp the step to the next breakpoint.
        let next_bp = loop {
            match bp_iter.peek() {
                Some(&bp) if bp <= t + BREAKPOINT_TOL => {
                    bp_iter.next();
                }
                Some(&bp) => break Some(bp),
                None => break None,
            }
        };
        let mut h_now = h.min(max_step).min(tstop - t);
        let mut lands_on_bp = false;
        if let Some(bp) = next_bp {
            if t + h_now >= bp - BREAKPOINT_TOL {
                h_now = bp - t;
                lands_on_bp = true;
            }
        }

        // Inner attempt loop: shrink h_now on Newton failure or huge LTE.
        let accepted = loop {
            if h_now < options.min_step {
                return Err(EngineError::StepUnderflow { time: t });
            }
            // Deterministic timeout: every attempt (accepted or
            // rejected) draws from the step budget.
            step_attempts += 1;
            if let Some(budget) = options.step_budget {
                if step_attempts > budget {
                    return Err(EngineError::BudgetExhausted {
                        context: format!("transient stepping at t = {t:.3e} s"),
                        spent: step_attempts,
                        budget,
                    });
                }
            }
            // θ-damped trapezoid; backward Euler (θ = 1) right after
            // breakpoints/failures and when cruising on a plateau.
            let theta = if use_trap && h_now < 0.99 * max_step {
                THETA
            } else {
                1.0
            };
            let ctx = StampCtx {
                time: t + h_now,
                source_scale: 1.0,
                gmin: options.gmin,
                reactive: Some(network.companions(theta, h_now)),
            };
            // The LTE test below measures the converged point against
            // the linear predictor. Newton starts from the extrapolation
            // through every point kept since the last restart, which
            // through two points is that predictor.
            let history = past.front().map(|(xp, hp)| (xp.as_slice(), *hp));
            predict(&x, history, h_now, &mut pred);
            let x0 = if past.len() >= 2 {
                newton_start(&x, &past, h_now, &mut start);
                &start
            } else {
                &pred
            };
            match kernel.solve(x0, &ctx, options, &mut faults) {
                Ok((x_new, _iters)) => {
                    if faults.fire_lte() {
                        // Injected LTE rejection: discard the converged
                        // solution and quarter the step, exactly as a
                        // real predictor disagreement below would.
                        rejected_steps += 1;
                        h_now /= 4.0;
                        lands_on_bp = false;
                        continue;
                    }
                    let nvu = mna.node_unknowns();
                    let mut err_ratio = 0.0f64;
                    for (&xn, &p) in x_new[..nvu].iter().zip(&pred) {
                        let tol = options.lte_tol + options.reltol * xn.abs();
                        err_ratio = err_ratio.max((xn - p).abs() / tol);
                    }
                    // Reject wildly inaccurate steps (unless pinned to a
                    // breakpoint edge at minimum size already).
                    if err_ratio > 16.0 && h_now > options.min_step * 64.0 {
                        rejected_steps += 1;
                        h_now /= 4.0;
                        lands_on_bp = false;
                        continue;
                    }
                    break Some((x_new, err_ratio));
                }
                Err(_) => {
                    rejected_steps += 1;
                    h_now /= 8.0;
                    lands_on_bp = false;
                    use_trap = false; // BE is more robust
                    continue;
                }
            }
        };
        let (x_new, err_ratio) = accepted.expect("loop breaks with Some or returns");

        network.advance(&x_new);

        t += h_now;
        past.truncate(START_POINTS - 2);
        past.push_front((std::mem::replace(&mut x, x_new), h_now));
        times.push(t);
        samples.push(x.clone());

        // Step-size controller.
        let grow = (1.0 / (err_ratio + 0.05)).sqrt().clamp(0.3, 2.0);
        h = (h_now * grow).min(max_step);
        if lands_on_bp {
            // Restart conservatively after an input corner.
            h = options.initial_step.min(max_step);
            use_trap = false;
            past.clear();
        } else {
            use_trap = true;
        }
    }

    let branch_names = circuit
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .map(|e| e.name().to_string())
        .collect();
    let mut stats = initial_stats;
    stats.merge(&kernel.stats());
    stats.injected_faults += faults.fired();
    stats.tran_steps += (times.len() - 1) as u64;
    stats.rejected_steps += rejected_steps;
    Ok(TransientResult {
        times,
        samples,
        n_node_unknowns: mna.node_unknowns(),
        branch_names,
        stats,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    fn opts() -> SimOptions {
        SimOptions::default()
    }

    #[test]
    fn rc_charging_matches_the_analytic_exponential() {
        // 1 kΩ · 1 pF, step at t = 0.1 ns: v(t) = 1 − e^(−t/τ), τ = 1 ns.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 12e-9, &opts()).unwrap();
        let v = res.node_series(out);
        let times = res.times();
        let tau = 1e-9;
        for (k, (&tk, &vk)) in times.iter().zip(v.iter()).enumerate() {
            if tk < 0.2e-9 {
                continue;
            }
            let expect = 1.0 - (-(tk - 0.1e-9 - 0.5e-12) / tau).exp();
            assert!(
                (vk - expect).abs() < 0.02,
                "sample {k} at t={tk:.3e}: {vk} vs {expect}"
            );
        }
        // Fully charged at the end.
        assert!((res.final_voltage(out) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rc_discharge_through_branch_current() {
        // Supply charges C through R; the branch current decays to ~0.
        let mut c = Circuit::new();
        let top = c.node("top");
        let out = c.node("out");
        c.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", top, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 10e-9, &opts()).unwrap();
        let i = res.branch_series("v1").unwrap();
        // DC init charges the cap already, so current is tiny throughout.
        assert!(i.iter().all(|ii| ii.abs() < 1e-5));
        assert!(res.branch_series("nope").is_none());
    }

    #[test]
    fn inverter_switches_and_is_sampled_densely_at_edges() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 0.5e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: f64::INFINITY,
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
        c.add_capacitor("cl", out, Circuit::GROUND, 1e-15);
        let res = run_transient(&c, 5e-9, &opts()).unwrap();
        let v = res.node_series(out);
        let t = res.times();
        // Starts high (input low).
        assert!((v[0] - 1.2).abs() < 0.02, "initial output {}", v[0]);
        // Low while the input pulse is high (sample mid-pulse).
        let mid = t.iter().position(|&tt| tt > 1.5e-9).unwrap();
        assert!(v[mid] < 0.05, "mid-pulse output {}", v[mid]);
        // Recovers high after the pulse.
        assert!((res.final_voltage(out) - 1.2).abs() < 0.02);
        // Breakpoint at the pulse start is hit exactly.
        assert!(t.iter().any(|&tt| (tt - 0.5e-9).abs() < 1e-21));
    }

    #[test]
    fn capacitive_divider_respects_charge_conservation() {
        // Two series caps driven by a step: the middle node lands at the
        // capacitive divider ratio.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-9, 10e-12),
        );
        c.add_capacitor("c1", inp, mid, 3e-15);
        c.add_capacitor("c2", mid, Circuit::GROUND, 1e-15);
        // Bleed resistor so DC is well defined; large enough not to
        // discharge much within the window.
        c.add_resistor("rb", mid, Circuit::GROUND, 1e12);
        let res = run_transient(&c, 2e-9, &opts()).unwrap();
        let v_end = res.final_voltage(mid);
        assert!((v_end - 0.75).abs() < 0.02, "divider landed at {v_end}");
    }

    #[test]
    fn result_accessors_are_consistent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r", a, Circuit::GROUND, 1000.0);
        let res = run_transient(&c, 1e-9, &opts()).unwrap();
        assert!(!res.is_empty());
        assert_eq!(res.len(), res.times().len());
        assert_eq!(res.node_series(a).len(), res.len());
        assert_eq!(res.node_series(Circuit::GROUND), vec![0.0; res.len()]);
        assert_eq!(res.times()[0], 0.0);
        let t_last = *res.times().last().unwrap();
        assert!((t_last - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn natural_and_minimum_degree_orders_agree() {
        // Force natural order on a MOSFET circuit and compare the full
        // waveform against the default minimum-degree order: the two
        // factorization orders must produce the same physics.
        use vls_device::{MosGeometry, MosModel};
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 0.3e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 1.5e-9,
                period: f64::INFINITY,
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
        c.add_capacitor("cl", out, Circuit::GROUND, 1e-15);

        // Natural order, with the default diagonal preference and with
        // strict pivoting, must produce the same accepted-step
        // trajectory (identical Newton behaviour) and matching voltages
        // throughout.
        let ordered = run_transient(&c, 4e-9, &opts()).unwrap();
        let variants = [
            SimOptions {
                sparse_threshold: 0,
                ..opts()
            },
            SimOptions {
                sparse_threshold: 0,
                sparse_pivot_tol: 1.0,
                ..opts()
            },
        ];
        let vd = ordered.node_series(out);
        for (v, o) in variants.iter().enumerate() {
            let other = run_transient(&c, 4e-9, o).unwrap();
            assert_eq!(ordered.len(), other.len(), "variant {v}: steps diverged");
            let vs = other.node_series(out);
            for (k, (a, b)) in vd.iter().zip(&vs).enumerate() {
                assert!((a - b).abs() < 1e-9, "variant {v}, sample {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rc_charging_conserves_energy() {
        // Step-charging a capacitor through a resistor: the source
        // delivers C·V² in total — half stored, half dissipated. The
        // integral of the branch current over the run must equal the
        // delivered charge C·V to ~1 %, a direct check on the
        // companion-model integration accuracy.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 12e-9, &opts()).unwrap();
        let t = res.times();
        let i = res.branch_series("vin").unwrap();
        // Trapezoidal integral of the delivered current (−branch).
        let mut q = 0.0;
        for k in 1..t.len() {
            q += 0.5 * (-i[k] - i[k - 1]) * (t[k] - t[k - 1]);
        }
        let expect = 1e-12 * 1.0; // C·V
        assert!(
            (q - expect).abs() < 0.01 * expect,
            "delivered charge {q:.4e} vs C*V {expect:.4e}"
        );
    }

    #[test]
    fn uic_starts_from_the_given_state() {
        // RC discharge from a user-set initial condition: no DC pass,
        // v(out) decays from the IC value with tau = RC.
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add_resistor("r1", out, Circuit::GROUND, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        // A reference source elsewhere keeps the netlist non-degenerate.
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r2", a, Circuit::GROUND, 1e6);
        let res = run_transient_uic(&c, 5e-9, &SimOptions::default(), &[(out, 1.0)]).unwrap();
        let v = res.node_series(out);
        let t = res.times();
        assert!((v[0] - 1.0).abs() < 1e-12, "IC not applied: {}", v[0]);
        // Check the analytic decay at a mid sample.
        let k = t.iter().position(|&tt| tt >= 1e-9).unwrap();
        let expect = (-t[k] / 1e-9_f64).exp();
        assert!((v[k] - expect).abs() < 0.03, "decay {} vs {expect}", v[k]);
        // Without the IC the node would start (and stay) at zero.
        let res0 = run_transient_uic(&c, 1e-9, &SimOptions::default(), &[]).unwrap();
        assert!(res0.node_series(out)[0].abs() < 1e-12);
    }

    #[test]
    fn uic_biases_a_latch_into_the_chosen_state() {
        use vls_device::{MosGeometry, MosModel};
        // Cross-coupled inverters: UIC picks which stable state wins.
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
        let res = run_transient_uic(
            &c,
            3e-9,
            &SimOptions::default(),
            &[(q, 1.2), (qb, 0.0), (vdd, 1.2)],
        )
        .unwrap();
        assert!(
            (res.final_voltage(q) - 1.2).abs() < 0.02,
            "q = {}",
            res.final_voltage(q)
        );
        assert!(
            res.final_voltage(qb).abs() < 0.02,
            "qb = {}",
            res.final_voltage(qb)
        );
    }

    #[test]
    fn step_counters_book_accepted_and_rejected_steps() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let step = SourceWaveform::step(0.0, 1.0, 0.1e-9, 1e-12);
        c.add_vsource("vin", inp, Circuit::GROUND, step);
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let clean = run_transient(&c, 2e-9, &opts()).unwrap().solver_stats();
        // The 1 ps input edge costs two real LTE rejections.
        assert_eq!(clean.rejected_steps, 2, "{}", clean.render());
        // Three injected LTE rejections come on top of them.
        let storm = SimOptions {
            fault: vls_fault::FaultPlan::parse("lte:count=3").unwrap().arm(0),
            ..opts()
        };
        let stormed = run_transient(&c, 2e-9, &storm).unwrap();
        let s = stormed.solver_stats();
        assert_eq!(s.tran_steps, (stormed.len() - 1) as u64);
        assert_eq!(s.rejected_steps, clean.rejected_steps + 3, "{}", s.render());
        assert_eq!(s.injected_faults, 3);
    }

    /// An inverter driven by a PWL input whose falling corner at
    /// `RESUME_AT` is a breakpoint, with a full output edge after it.
    pub(crate) fn pwl_inverter() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        let pwl = vec![
            (0.0, 0.0),
            (0.5e-9, 0.0),
            (0.55e-9, 1.2),
            (RESUME_AT, 1.2),
            (RESUME_AT + 50e-12, 0.0),
        ];
        c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Pwl(pwl));
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
        c.add_capacitor("cl", out, Circuit::GROUND, 1e-15);
        c
    }

    const RESUME_AT: f64 = 2e-9;
    const RESUME_TSTOP: f64 = 5e-9;

    #[test]
    fn resuming_at_a_breakpoint_reproduces_the_uninterrupted_run() {
        let c = pwl_inverter();
        let full = run_transient(&c, RESUME_TSTOP, &opts()).unwrap();
        // The prefix stops at the breakpoint; its max_step is pinned to
        // the full run's default, which its own tstop would change.
        let prefix_opts = SimOptions {
            max_step: Some(RESUME_TSTOP / 50.0),
            ..opts()
        };
        let prefix = run_transient(&c, RESUME_AT, &prefix_opts).unwrap();
        let (t0, x0) = prefix.state_at(RESUME_AT).expect("breakpoints are samples");
        assert_eq!(t0.to_bits(), RESUME_AT.to_bits());
        // The resume keeps the default max_step, tstop / 50.
        let resumed = run_transient_from(&c, t0, x0, RESUME_TSTOP, &opts()).unwrap();

        // The prefix is the full run up to the breakpoint, and the
        // resumed run is the rest of it, bit for bit.
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let k = prefix.len() - 1;
        assert_eq!(full.len(), k + resumed.len());
        assert_eq!(bits(&full.times[..=k]), bits(prefix.times()));
        for j in 0..=k {
            assert_eq!(
                bits(&full.samples[j]),
                bits(&prefix.samples[j]),
                "sample {j}"
            );
        }
        assert_eq!(bits(&full.times[k..]), bits(resumed.times()));
        for j in 0..resumed.len() {
            let (xf, xr) = (&full.samples[k + j], &resumed.samples[j]);
            assert_eq!(bits(xf), bits(xr), "sample {j} after the resume");
        }
        // The output switches after the resume, so the equality above
        // covers an edge, not a flat tail.
        let out = c.find_node("out").unwrap();
        assert!(resumed.node_series(out)[0] < 0.05);
        assert!((resumed.final_voltage(out) - 1.2).abs() < 0.02);

        // The counters add up field by field, steps included, except
        // that the resumed kernel's first linear solve factorizes in
        // full where the uninterrupted run refactorized.
        let mut sum = prefix.solver_stats();
        sum.merge(&resumed.solver_stats());
        let mut whole = full.solver_stats();
        whole.full_factorizations += 1;
        whole.refactorizations -= 1;
        assert_eq!(sum, whole);
        let r = resumed.solver_stats();
        assert_eq!(r.tran_steps, (resumed.len() - 1) as u64);
        assert!(r.tran_steps > 0 && r.newton_iters > 0, "{}", r.render());
    }

    #[test]
    fn state_at_finds_only_stored_samples() {
        let c = pwl_inverter();
        let res = run_transient(&c, RESUME_TSTOP, &opts()).unwrap();
        let (t, x) = res.state_at(0.0).unwrap();
        assert_eq!((t, x), (0.0, res.samples[0].as_slice()));
        let (t, _) = res.state_at(RESUME_TSTOP).unwrap();
        assert_eq!(t, *res.times().last().unwrap());
        // Between two samples, and outside the run: nothing stored.
        let mid = 0.5 * (res.times()[1] + res.times()[2]);
        assert!(res.state_at(mid).is_none());
        assert!(res.state_at(-1e-9).is_none());
        assert!(res.state_at(2.0 * RESUME_TSTOP).is_none());
    }

    #[test]
    fn a_bad_resume_is_a_typed_error() {
        let c = pwl_inverter();
        let full = run_transient(&c, RESUME_TSTOP, &opts()).unwrap();
        let (t0, x0) = full.state_at(RESUME_AT).unwrap();
        let bad_netlist =
            |r: Result<TransientResult, EngineError>| matches!(r, Err(EngineError::BadNetlist(_)));
        let short = &x0[1..];
        let mut long = x0.to_vec();
        long.push(0.0);
        for state in [short, long.as_slice(), &[]] {
            let r = run_transient_from(&c, t0, state, RESUME_TSTOP, &opts());
            assert!(bad_netlist(r), "state of length {}", state.len());
        }
        for t in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-9,
            RESUME_TSTOP,
            1.0,
        ] {
            let r = run_transient_from(&c, t, x0, RESUME_TSTOP, &opts());
            assert!(bad_netlist(r), "t0 = {t}");
        }
        for tstop in [0.0, f64::NAN, f64::INFINITY] {
            let r = run_transient_from(&c, t0, x0, tstop, &opts());
            assert!(bad_netlist(r), "tstop = {tstop}");
        }
    }

    #[test]
    fn non_positive_tstop_is_a_typed_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r", a, Circuit::GROUND, 1000.0);
        let refused = |r: Result<(), EngineError>| match r {
            Err(EngineError::BadNetlist(m)) => m.contains("stop time"),
            _ => false,
        };
        for tstop in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            let scalar = run_transient(&c, tstop, &opts()).map(drop);
            let uic = run_transient_uic(&c, tstop, &opts(), &[]).map(drop);
            assert!(refused(scalar) && refused(uic), "{tstop}");
        }
    }
}
