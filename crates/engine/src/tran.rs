//! Transient analysis: trapezoidal/backward-Euler companion integration
//! with local-truncation-error step control and source breakpoints.
//!
//! Reactive elements (explicit capacitors and the Meyer capacitances of
//! every MOSFET) are replaced at each time step by companion models
//! `i = geq·v − ieq`; the resulting resistive network is solved by the
//! same damped Newton iteration as the DC analysis, started from the
//! step predictor ([`predict`]: linear extrapolation through the last
//! two accepted points, or the last point itself after DC, UIC or a
//! breakpoint). The step size adapts to hold the disagreement between
//! that predictor and the corrector below `SimOptions::lte_tol`; steps
//! are forced to land on every source breakpoint so input edges are
//! never straddled.
//!
//! Integration uses a θ-damped trapezoid (θ = 0.55): plain trapezoidal
//! integration is only marginally stable and lets capacitor-current
//! ringing persist forever on quiet plateaus, which would corrupt the
//! nanoamp-level leakage extraction this workspace depends on. The
//! slight damping decays the ringing while keeping near-second-order
//! accuracy; on plateaus (steps cruising at the maximum size) the
//! engine additionally drops to backward Euler, which kills any
//! residual oscillation outright where accuracy is free.

use vls_device::MosBias;
use vls_fault::FaultSession;
use vls_netlist::{Circuit, Element, NodeId};
use vls_num::SolverStats;

use crate::dc::{newton_solve, solve_dc_at, DcSolution};
use crate::kernel::NewtonKernel;
use crate::mna::{CompanionCap, Mna, StampCtx};
use crate::options::KernelMode;
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
    /// The sample times, ascending, starting at 0.
    pub fn times(&self) -> &[f64] {
        &self.times
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
const THETA: f64 = 0.55;

/// The step predictor, written into `out`: the linear extrapolation
/// over a step of `h` through the last two accepted points —
/// `history` is the point before `x` with the step that led from it
/// to `x` — or `x` itself when there is no usable history (after DC,
/// UIC or a breakpoint). The stepper starts Newton from this vector
/// and measures its LTE against it.
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

/// One dynamic (capacitive) branch tracked across steps.
struct DynamicCap {
    a: Option<usize>,
    b: Option<usize>,
    /// Capacitance for the current step, F.
    c: f64,
    /// Branch voltage at the previous accepted time point.
    v_prev: f64,
    /// Branch current at the previous accepted time point (trapezoidal
    /// history).
    i_prev: f64,
}

/// Per-MOSFET bookkeeping for the five Meyer capacitances.
struct MosCapsRef {
    elem_idx: usize,
    /// Indices into the dynamic-cap array: gs, gd, gb, db, sb.
    slots: [usize; 5],
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
    transient_from_state(circuit, tstop, options, dc.unknowns().to_vec(), dc_stats)
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
    let mna = Mna::new(circuit);
    let mut x0 = vec![0.0; mna.n_unknowns];
    for (node, v) in ics {
        if let Some(i) = mna.idx(*node) {
            x0[i] = *v;
        }
    }
    transient_from_state(circuit, tstop, options, x0, SolverStats::default())
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

/// The stepping core shared by the DC-initialized and UIC entry
/// points. `initial_stats` carries the counters of the DC solve that
/// produced `initial` (zero for UIC) so the result reports whole-run
/// totals.
fn transient_from_state(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
    initial: Vec<f64>,
    initial_stats: SolverStats,
) -> Result<TransientResult, EngineError> {
    let mna = Mna::new(circuit);
    let mut x = initial;

    // --- dynamic branch setup ---------------------------------------
    let mut caps: Vec<DynamicCap> = Vec::new();
    let mut mos_refs: Vec<MosCapsRef> = Vec::new();
    for (elem_idx, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Capacitor {
                a, b, capacitor, ..
            } if capacitor.capacitance() > 0.0 => {
                caps.push(DynamicCap {
                    a: mna.idx(*a),
                    b: mna.idx(*b),
                    c: capacitor.capacitance(),
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                bulk,
                ..
            } => {
                let (d, g, s, bk) = (
                    mna.idx(*drain),
                    mna.idx(*gate),
                    mna.idx(*source),
                    mna.idx(*bulk),
                );
                let pairs = [(g, s), (g, d), (g, bk), (d, bk), (s, bk)];
                let base = caps.len();
                for (na, nb) in pairs {
                    caps.push(DynamicCap {
                        a: na,
                        b: nb,
                        c: 0.0,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                mos_refs.push(MosCapsRef {
                    elem_idx,
                    slots: [base, base + 1, base + 2, base + 3, base + 4],
                });
            }
            _ => {}
        }
    }
    let volt_of = |x: &[f64], n: Option<usize>| n.map_or(0.0, |i| x[i]);
    // Initialize branch voltages from the DC point.
    for cap in caps.iter_mut() {
        cap.v_prev = volt_of(&x, cap.a) - volt_of(&x, cap.b);
    }

    // One symbolic kernel for the whole run: the transient stamp
    // pattern (including every companion branch — zero-cap slots are
    // stamped as placeholders, so the pattern never changes between
    // steps) is analyzed once, and the LU storage, workspaces and
    // bypass caches persist across all time steps.
    let mut legacy_stats = SolverStats::default();
    let mut kernel = match options.kernel {
        KernelMode::Symbolic => {
            let probe: Vec<CompanionCap> = caps
                .iter()
                .map(|cap| CompanionCap {
                    a: cap.a,
                    b: cap.b,
                    geq: 0.0,
                    ieq: 0.0,
                })
                .collect();
            Some(NewtonKernel::new(&mna, options, Some(&probe)))
        }
        KernelMode::Legacy => None,
    };

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
    let temp_k = options.temperature.as_kelvin();
    let max_step = options.max_step.unwrap_or(tstop / 50.0);
    let mut h = options.initial_step.min(max_step);
    let mut t = 0.0f64;
    let mut use_trap = false; // first step after DC is backward Euler
    let mut bp_iter = breakpoints.iter().copied().peekable();

    let mut times = vec![0.0];
    let mut samples = vec![x.clone()];
    // History for the predictor.
    let mut x_prevprev: Option<(Vec<f64>, f64)> = None; // (solution, h of last step)
    let mut pred = vec![0.0; x.len()];
    let mut rejected_steps: u64 = 0;

    let mut companions: Vec<CompanionCap> = Vec::with_capacity(caps.len());

    while t < tstop - 1e-21 {
        // Refresh Meyer capacitances at the last accepted solution.
        for m in &mos_refs {
            if let Element::Mosfet {
                drain,
                gate,
                source,
                bulk,
                model,
                geom,
                ..
            } = &circuit.elements()[m.elem_idx]
            {
                let vg = mna.voltage(&x, *gate);
                let vd = mna.voltage(&x, *drain);
                let vs = mna.voltage(&x, *source);
                let vb = mna.voltage(&x, *bulk);
                let mc = match kernel.as_mut() {
                    Some(k) => k.eval_caps(
                        m.elem_idx,
                        model,
                        geom,
                        MosBias::new(vg, vd, vs, vb),
                        temp_k,
                        options.bypass_vtol,
                    ),
                    None => {
                        legacy_stats.cap_evals += 1;
                        model.caps(geom, vg, vd, vs, vb, temp_k)
                    }
                };
                let values = [mc.cgs, mc.cgd, mc.cgb, mc.cdb, mc.csb];
                for (slot, val) in m.slots.iter().zip(values) {
                    caps[*slot].c = val;
                }
            }
        }

        // Clamp the step to the next breakpoint.
        let next_bp = loop {
            match bp_iter.peek() {
                Some(&bp) if bp <= t + 1e-21 => {
                    bp_iter.next();
                }
                Some(&bp) => break Some(bp),
                None => break None,
            }
        };
        let mut h_now = h.min(max_step).min(tstop - t);
        let mut lands_on_bp = false;
        if let Some(bp) = next_bp {
            if t + h_now >= bp - 1e-21 {
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
            // Build companion models (full-length, zero-cap slots are
            // placeholders so state updates stay index-aligned).
            companions.clear();
            for cap in &caps {
                if cap.c <= 0.0 {
                    companions.push(CompanionCap {
                        a: cap.a,
                        b: cap.b,
                        geq: 0.0,
                        ieq: 0.0,
                    });
                    continue;
                }
                let geq = cap.c / (theta * h_now);
                let ieq = geq * cap.v_prev + (1.0 - theta) / theta * cap.i_prev;
                companions.push(CompanionCap {
                    a: cap.a,
                    b: cap.b,
                    geq,
                    ieq,
                });
            }
            let ctx = StampCtx {
                time: t + h_now,
                source_scale: 1.0,
                gmin: options.gmin,
                temp_k,
                reactive: Some(&companions),
            };
            // Newton starts from the predictor, which is also what the
            // LTE test below measures the converged point against.
            let history = x_prevprev.as_ref().map(|(xp, hp)| (xp.as_slice(), *hp));
            predict(&x, history, h_now, &mut pred);
            let solved = match kernel.as_mut() {
                Some(k) => k.solve(&pred, &ctx, options, &mut faults),
                None => newton_solve(&mna, &pred, &ctx, options, &mut legacy_stats),
            };
            match solved {
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

        // Update dynamic-branch state via the companion identity
        // i_new = geq·v_new − ieq.
        for (cap, comp) in caps.iter_mut().zip(&companions) {
            let v_new = volt_of(&x_new, cap.a) - volt_of(&x_new, cap.b);
            if cap.c > 0.0 {
                cap.i_prev = comp.geq * v_new - comp.ieq;
            }
            cap.v_prev = v_new;
        }

        t += h_now;
        x_prevprev = Some((std::mem::replace(&mut x, x_new), h_now));
        times.push(t);
        samples.push(x.clone());

        // Step-size controller.
        let grow = (1.0 / (err_ratio + 0.05)).sqrt().clamp(0.3, 2.0);
        h = (h_now * grow).min(max_step);
        if lands_on_bp {
            // Restart conservatively after an input corner.
            h = options.initial_step.min(max_step);
            use_trap = false;
            x_prevprev = None;
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
    match &kernel {
        Some(k) => stats.merge(&k.stats()),
        None => stats.merge(&legacy_stats),
    }
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
mod tests {
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
    fn sparse_and_dense_paths_agree() {
        // Force the sparse solver on a MOSFET circuit and compare the
        // full waveform against the dense default: the two linear-
        // algebra paths must produce the same physics.
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

        // Every (kernel × linear path) combination must produce the
        // same accepted-step trajectory (identical Newton behaviour)
        // and matching voltages throughout.
        let dense = run_transient(&c, 4e-9, &opts()).unwrap();
        let variants = [
            SimOptions {
                sparse_threshold: 0,
                ..opts()
            },
            SimOptions {
                kernel: KernelMode::Legacy,
                ..opts()
            },
            SimOptions {
                kernel: KernelMode::Legacy,
                sparse_threshold: 0,
                ..opts()
            },
        ];
        let vd = dense.node_series(out);
        for (v, o) in variants.iter().enumerate() {
            let other = run_transient(&c, 4e-9, o).unwrap();
            assert_eq!(dense.len(), other.len(), "variant {v}: steps diverged");
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
