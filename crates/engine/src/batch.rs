//! Lane-batched lockstep transient for Monte Carlo ensembles.
//!
//! Every MC trial of one circuit shares the element list, node
//! numbering, source waveforms and sparsity pattern — only the MOSFET
//! parameters differ (W, L, VT0 perturbations). This module exploits
//! that: K perturbed variants run *in lockstep* through one shared
//! compiled CSC pattern and scatter map, one SoA device evaluation per
//! MOSFET per Newton iteration ([`vls_device::MosLanes::eval_batch`],
//! the same analytic `MosModel::op` the scalar kernel stamps), and one
//! multi-lane LU ([`vls_num::MultiLu`]) whose healthy lanes share a
//! single frozen pivot order.
//!
//! Determinism contract:
//!
//! * **Shared adaptive grid.** Timestep control (LTE, breakpoints,
//!   Newton-failure retries) uses the *max-LTE lane*, so the accepted
//!   time grid is a pure function of the lane group — independent of
//!   worker count and of which shard the group lands on.
//! * **Lockstep Newton.** Every lane starts from its own step predictor
//!   (`tran::predict`, the scalar stepper's start rule) and all lanes
//!   iterate until every lane passes its own convergence test in the
//!   same iteration; a lane that converges early keeps refining
//!   (harmless — it only gets closer) so the iteration count is
//!   group-deterministic.
//! * **Pivot divergence is never wrong.** A lane whose values trip the
//!   shared pivot-health check re-pivots privately inside [`MultiLu`];
//!   only an unsalvageable lane fails the whole batch, and the caller
//!   then de-batches to the scalar resilient path.
//!
//! Device bypass (`SimOptions::bypass_vtol`) is intentionally **not**
//! applied in batched mode: a bypass hit would have to hold across all
//! K lanes to skip the batched evaluation, which on perturbed ensembles
//! almost never happens; the economy here is the shared step loop and
//! the once-per-group pattern instead. Fault semantics: the per-lane DC
//! initialization runs fault-free; the armed plan addresses the shared
//! lockstep loop (`pivot` degrades one lane of the multi-LU, `lte`
//! rejects a shared step), so counters stay exact and deterministic
//! under batching.

use vls_device::{MosBias, MosCaps, MosLanes, MosStamp};
use vls_fault::{FaultPlan, FaultSession};
use vls_netlist::{Circuit, Element};
use vls_num::{weighted_converged, CscMatrix, MultiLu, SolverStats, TripletMatrix};

use crate::dc::{solve_dc_at, NewtonFailure};
use crate::kernel::PatternScatter;
use crate::mna::{CompanionCap, Mna, StampCtx};
use crate::tran::{check_tstop, predict, TransientResult};
use crate::{EngineError, SimOptions};

/// Integration damping, identical to the scalar transient core.
const THETA: f64 = 0.55;

/// The result of one lane-batched transient: per-lane sampled waveforms
/// on the shared time grid, plus the batch's pooled work counters.
///
/// The per-lane [`TransientResult`]s carry zeroed solver stats — the
/// lockstep loop's work is not attributable to a single lane, so the
/// batch books it once in [`BatchTransient::stats`] (where
/// `device_evals`, `newton_iters` and the step counters count
/// *lane*-work, K per lockstep event, to stay comparable with the
/// scalar kernel's accounting).
#[derive(Debug)]
pub struct BatchTransient {
    /// One sampled result per lane, in input order.
    pub lanes: Vec<TransientResult>,
    /// Pooled counters: per-lane DC initialization plus the lockstep
    /// stepping loop.
    pub stats: SolverStats,
}

/// Shared structure of one dynamic (capacitive) branch; the per-lane
/// state (capacitance, voltage/current history) lives in [`LaneState`].
struct CapSlot {
    a: Option<usize>,
    b: Option<usize>,
    /// Fixed capacitance for explicit capacitors; Meyer slots hold 0.0
    /// here and are refreshed per lane every step.
    fixed_c: f64,
}

/// Per-MOSFET batched bookkeeping.
struct MosRef {
    elem_idx: usize,
    lanes: MosLanes,
    /// Dynamic-cap slots: gs, gd, gb, db, sb.
    slots: [usize; 5],
    gate: vls_netlist::NodeId,
    drain: vls_netlist::NodeId,
    source: vls_netlist::NodeId,
    bulk: vls_netlist::NodeId,
}

/// One lane's mutable stepping state.
struct LaneState {
    /// Last accepted solution.
    x: Vec<f64>,
    /// Per-slot capacitance for the current step.
    c: Vec<f64>,
    /// Per-slot branch voltage at the last accepted point.
    v_prev: Vec<f64>,
    /// Per-slot branch current at the last accepted point.
    i_prev: Vec<f64>,
    /// Sampled solutions, aligned with the shared time grid.
    samples: Vec<Vec<f64>>,
    /// Predictor history: solution before `x` (paired with the shared
    /// previous step size).
    x_prevprev: Vec<f64>,
}

/// Runs K structurally-identical circuits (the perturbed variants of
/// one MC trial group) through a single lockstep transient. All lanes
/// share the time grid, breakpoints, Newton iteration count and LU
/// pivot order; each lane gets its own waveforms.
///
/// # Errors
///
/// Reports [`EngineError::BadNetlist`] when `tstop` is not strictly
/// positive and finite, propagates per-lane DC failures and reports
/// [`EngineError::StepUnderflow`]/[`EngineError::BudgetExhausted`] from
/// the shared stepping loop. Any error fails the whole batch — the
/// caller de-batches failing groups onto the scalar resilient path.
///
/// # Panics
///
/// Panics if `circuits` is empty or the circuits are not structurally
/// identical (element count, node count, element names — perturbations
/// may only change MOSFET parameters).
pub fn run_transient_batched(
    circuits: &[Circuit],
    tstop: f64,
    options: &SimOptions,
) -> Result<BatchTransient, EngineError> {
    check_tstop(tstop)?;
    assert!(!circuits.is_empty(), "batched transient needs >= 1 lane");
    let k_lanes = circuits.len();
    let base = &circuits[0];
    for c in &circuits[1..] {
        assert_eq!(
            c.elements().len(),
            base.elements().len(),
            "lanes must be structurally identical"
        );
        assert_eq!(
            c.node_count(),
            base.node_count(),
            "lanes must share the node set"
        );
        debug_assert!(
            c.elements()
                .iter()
                .zip(base.elements())
                .all(|(a, b)| a.name() == b.name()),
            "lanes must list the same elements in the same order"
        );
    }

    // --- per-lane DC initialization (fault-free: the armed plan
    // addresses the shared lockstep loop below) ----------------------
    let dc_options = SimOptions {
        fault: FaultPlan::none(),
        ..options.clone()
    };
    let mut stats = SolverStats::default();
    let mut initial: Vec<Vec<f64>> = Vec::with_capacity(k_lanes);
    for c in circuits {
        let dc = solve_dc_at(c, &dc_options, 0.0)?;
        stats.merge(&dc.solver_stats());
        initial.push(dc.unknowns().to_vec());
    }

    let mna = Mna::new(base);
    let n = mna.n_unknowns;
    let nvu = mna.node_unknowns();
    let temp_k = options.temperature.as_kelvin();

    // --- shared dynamic-branch structure + per-MOSFET lanes ----------
    let mut slots: Vec<CapSlot> = Vec::new();
    let mut mos_refs: Vec<MosRef> = Vec::new();
    for (elem_idx, e) in base.elements().iter().enumerate() {
        match e {
            Element::Capacitor {
                a, b, capacitor, ..
            } if capacitor.capacitance() > 0.0 => {
                slots.push(CapSlot {
                    a: mna.idx(*a),
                    b: mna.idx(*b),
                    fixed_c: capacitor.capacitance(),
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
                let first = slots.len();
                for (na, nb) in pairs {
                    slots.push(CapSlot {
                        a: na,
                        b: nb,
                        fixed_c: 0.0,
                    });
                }
                // Gather this device's K perturbed variants into lanes.
                let mut models = Vec::with_capacity(k_lanes);
                let mut geoms = Vec::with_capacity(k_lanes);
                for c in circuits {
                    if let Element::Mosfet { model, geom, .. } = &c.elements()[elem_idx] {
                        models.push(model.clone());
                        geoms.push(*geom);
                    } else {
                        panic!("lane element {elem_idx} is not a MOSFET in every lane");
                    }
                }
                mos_refs.push(MosRef {
                    elem_idx,
                    lanes: MosLanes::new(models, geoms),
                    slots: [first, first + 1, first + 2, first + 3, first + 4],
                    gate: *gate,
                    drain: *drain,
                    source: *source,
                    bulk: *bulk,
                });
            }
            _ => {}
        }
    }
    // elem_idx -> batched MOSFET slot, for the assembly closure.
    let mut mos_slot: Vec<Option<usize>> = vec![None; base.elements().len()];
    for (mi, m) in mos_refs.iter().enumerate() {
        mos_slot[m.elem_idx] = Some(mi);
    }

    let volt_of = |x: &[f64], idx: Option<usize>| idx.map_or(0.0, |i| x[i]);
    let mut lanes_state: Vec<LaneState> = initial
        .into_iter()
        .map(|x| {
            let mut v_prev = vec![0.0; slots.len()];
            for (vp, slot) in v_prev.iter_mut().zip(&slots) {
                *vp = volt_of(&x, slot.a) - volt_of(&x, slot.b);
            }
            LaneState {
                samples: vec![x.clone()],
                c: slots.iter().map(|s| s.fixed_c).collect(),
                v_prev,
                i_prev: vec![0.0; slots.len()],
                x_prevprev: Vec::new(),
                x,
            }
        })
        .collect();

    // --- symbolic phase: one compiled pattern for all lanes ----------
    // Batched mode is sparse-only: the multi-lane LU is the whole point,
    // so `sparse_threshold` does not apply here.
    let (pattern, map) = {
        let mut t = TripletMatrix::new(n);
        let mut b = vec![0.0; n];
        let x0 = vec![0.0; n];
        let probe: Vec<CompanionCap> = slots
            .iter()
            .map(|s| CompanionCap {
                a: s.a,
                b: s.b,
                geq: 0.0,
                ieq: 0.0,
            })
            .collect();
        let probe_ctx = StampCtx {
            time: 0.0,
            source_scale: 0.0,
            gmin: options.gmin,
            temp_k,
            reactive: Some(&probe),
        };
        mna.assemble_with_eval(&x0, &mut t, &mut b, &probe_ctx, &mut |_, _, _, _| {
            MosStamp::default()
        });
        t.compile()
    };

    let nnz = pattern.nnz();
    let mut kernel = LockstepNewton {
        pattern,
        map,
        lane_vals: vec![vec![0.0; nnz]; k_lanes],
        b_all: vec![0.0; n * k_lanes],
        pred_all: vec![0.0; n * k_lanes],
        x_all: vec![0.0; n * k_lanes],
        x_new_all: vec![0.0; n * k_lanes],
        delta: vec![0.0; n],
        bias_buf: vec![MosBias::default(); k_lanes],
        stamp_buf: vec![MosStamp::default(); mos_refs.len() * k_lanes],
        caps_buf: vec![MosCaps::default(); k_lanes],
        multi: None,
        repivot: false,
        lanes: k_lanes,
    };

    // --- breakpoints (sources are lane-invariant) --------------------
    let mut breakpoints: Vec<f64> = Vec::new();
    for e in base.elements() {
        if let Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } = e {
            breakpoints.extend(wave.breakpoints(tstop));
        }
    }
    breakpoints.push(tstop);
    breakpoints.retain(|&t| t > 0.0);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

    // --- shared stepping ---------------------------------------------
    let mut faults = FaultSession::new(&options.fault);
    let mut step_attempts: u64 = 0;
    let max_step = options.max_step.unwrap_or(tstop / 50.0);
    let mut h = options.initial_step.min(max_step);
    let mut t = 0.0f64;
    let mut use_trap = false;
    let mut bp_iter = breakpoints.iter().copied().peekable();
    let mut times = vec![0.0];
    let mut have_history = false;
    let mut h_prev = 0.0f64;
    let mut companions: Vec<Vec<CompanionCap>> = vec![Vec::with_capacity(slots.len()); k_lanes];

    while t < tstop - 1e-21 {
        // Refresh Meyer capacitances at the last accepted solutions —
        // one batched evaluation per MOSFET.
        for m in &mos_refs {
            for (lane, state) in lanes_state.iter().enumerate() {
                kernel.bias_buf[lane] = MosBias::new(
                    mna.voltage(&state.x, m.gate),
                    mna.voltage(&state.x, m.drain),
                    mna.voltage(&state.x, m.source),
                    mna.voltage(&state.x, m.bulk),
                );
            }
            m.lanes
                .caps_batch(&kernel.bias_buf, temp_k, &mut kernel.caps_buf);
            stats.cap_evals += k_lanes as u64;
            for (lane, state) in lanes_state.iter_mut().enumerate() {
                let mc = &kernel.caps_buf[lane];
                let values = [mc.cgs, mc.cgd, mc.cgb, mc.cdb, mc.csb];
                for (slot, val) in m.slots.iter().zip(values) {
                    state.c[*slot] = val;
                }
            }
        }

        // Clamp the step to the next breakpoint (shared grid).
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

        let accepted = loop {
            if h_now < options.min_step {
                return Err(EngineError::StepUnderflow { time: t });
            }
            step_attempts += 1;
            if let Some(budget) = options.step_budget {
                if step_attempts > budget {
                    return Err(EngineError::BudgetExhausted {
                        context: format!("batched transient stepping at t = {t:.3e} s"),
                        spent: step_attempts,
                        budget,
                    });
                }
            }
            let theta = if use_trap && h_now < 0.99 * max_step {
                THETA
            } else {
                1.0
            };
            for (lane, state) in lanes_state.iter().enumerate() {
                let comp = &mut companions[lane];
                comp.clear();
                for (si, slot) in slots.iter().enumerate() {
                    let c = state.c[si];
                    if c <= 0.0 {
                        comp.push(CompanionCap {
                            a: slot.a,
                            b: slot.b,
                            geq: 0.0,
                            ieq: 0.0,
                        });
                        continue;
                    }
                    let geq = c / (theta * h_now);
                    let ieq = geq * state.v_prev[si] + (1.0 - theta) / theta * state.i_prev[si];
                    comp.push(CompanionCap {
                        a: slot.a,
                        b: slot.b,
                        geq,
                        ieq,
                    });
                }
            }
            for (lane, state) in lanes_state.iter().enumerate() {
                let history = have_history.then_some((state.x_prevprev.as_slice(), h_prev));
                predict(
                    &state.x,
                    history,
                    h_now,
                    &mut kernel.pred_all[lane * n..(lane + 1) * n],
                );
            }
            let solved = kernel.solve(
                &mna,
                &mos_refs,
                &mos_slot,
                t + h_now,
                options,
                &companions,
                &mut faults,
                &mut stats,
            );
            match solved {
                Ok(()) => {
                    if faults.fire_lte() {
                        // Injected LTE rejection of the *shared* step.
                        stats.rejected_steps += k_lanes as u64;
                        h_now /= 4.0;
                        lands_on_bp = false;
                        continue;
                    }
                    // LTE over node unknowns, max across ALL lanes: the
                    // shared grid follows the worst lane, so the result
                    // never depends on how trials were packed.
                    let mut err_ratio = 0.0f64;
                    for lane in 0..k_lanes {
                        let x_new = &kernel.x_all[lane * n..lane * n + nvu];
                        let pred = &kernel.pred_all[lane * n..lane * n + nvu];
                        for (&xn, &p) in x_new.iter().zip(pred) {
                            let tol = options.lte_tol + options.reltol * xn.abs();
                            err_ratio = err_ratio.max((xn - p).abs() / tol);
                        }
                    }
                    if err_ratio > 16.0 && h_now > options.min_step * 64.0 {
                        stats.rejected_steps += k_lanes as u64;
                        h_now /= 4.0;
                        lands_on_bp = false;
                        continue;
                    }
                    break err_ratio;
                }
                Err(_) => {
                    stats.rejected_steps += k_lanes as u64;
                    h_now /= 8.0;
                    lands_on_bp = false;
                    use_trap = false;
                    continue;
                }
            }
        };
        let err_ratio = accepted;
        stats.tran_steps += k_lanes as u64;

        // Accept: per-lane dynamic state, history, samples.
        for (lane, state) in lanes_state.iter_mut().enumerate() {
            let x_new = &kernel.x_all[lane * n..(lane + 1) * n];
            for (si, comp) in companions[lane].iter().enumerate() {
                let v_new = volt_of(x_new, slots[si].a) - volt_of(x_new, slots[si].b);
                if state.c[si] > 0.0 {
                    state.i_prev[si] = comp.geq * v_new - comp.ieq;
                }
                state.v_prev[si] = v_new;
            }
            state.x_prevprev.clear();
            state.x_prevprev.extend_from_slice(&state.x);
            state.x.copy_from_slice(x_new);
            state.samples.push(state.x.clone());
        }
        have_history = true;
        h_prev = h_now;
        t += h_now;
        times.push(t);

        let grow = (1.0 / (err_ratio + 0.05)).sqrt().clamp(0.3, 2.0);
        h = (h_now * grow).min(max_step);
        if lands_on_bp {
            h = options.initial_step.min(max_step);
            use_trap = false;
            have_history = false;
        } else {
            use_trap = true;
        }
    }

    stats.injected_faults += faults.fired();
    let branch_names: Vec<String> = base
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .map(|e| e.name().to_string())
        .collect();
    let lanes = lanes_state
        .into_iter()
        .map(|state| {
            TransientResult::from_parts(
                times.clone(),
                state.samples,
                nvu,
                branch_names.clone(),
                SolverStats::default(),
            )
        })
        .collect();
    Ok(BatchTransient { lanes, stats })
}

/// The lockstep Newton engine: shared pattern/scatter map, per-lane
/// value arrays, batched SoA device evaluation, multi-lane LU.
struct LockstepNewton {
    pattern: CscMatrix,
    map: Vec<usize>,
    /// Per-lane matrix values over the shared pattern.
    lane_vals: Vec<Vec<f64>>,
    /// Lane-contiguous right-hand sides (`lane * n ..`).
    b_all: Vec<f64>,
    /// Lane-contiguous step predictors: each lane's Newton start and
    /// the point its LTE is measured against.
    pred_all: Vec<f64>,
    /// Lane-contiguous Newton iterates; holds the converged solutions
    /// after a successful solve.
    x_all: Vec<f64>,
    /// Lane-contiguous linear-solve output.
    x_new_all: Vec<f64>,
    /// Damped-update workspace (one lane at a time).
    delta: Vec<f64>,
    /// Per-lane bias gather buffer (length K).
    bias_buf: Vec<MosBias>,
    /// Batched device stamps, MOSFET-major: `stamp_buf[mi * K + lane]`.
    stamp_buf: Vec<MosStamp>,
    /// Batched capacitance buffer (length K).
    caps_buf: Vec<MosCaps>,
    multi: Option<MultiLu>,
    /// Set when the last refactorization sent lanes through the
    /// per-lane fallback: the shared pivot order has gone stale (the
    /// companion conductances move with the step size), so the next
    /// factorization rebuilds the multi-LU with a fresh shared order —
    /// exactly the refresh the scalar symbolic kernel gets from its
    /// fallback full factorization.
    repivot: bool,
    lanes: usize,
}

impl LockstepNewton {
    /// One lockstep Newton solve: every lane starts from its step
    /// predictor in `pred_all` and iterates until **all** lanes pass
    /// their own convergence test in the same iteration. On success the
    /// converged solutions are in `x_all`, lane-contiguous.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        mna: &Mna<'_>,
        mos_refs: &[MosRef],
        mos_slot: &[Option<usize>],
        time: f64,
        options: &SimOptions,
        companions: &[Vec<CompanionCap>],
        faults: &mut FaultSession,
        stats: &mut SolverStats,
    ) -> Result<(), NewtonFailure> {
        let k_lanes = self.lanes;
        let n = mna.n_unknowns;
        let nvu = mna.node_unknowns();
        let temp_k = options.temperature.as_kelvin();
        self.x_all.copy_from_slice(&self.pred_all);

        for _iter in 1..=options.max_newton_iters {
            stats.newton_iters += k_lanes as u64;
            // --- batched SoA device evaluation -----------------------
            // One pass per MOSFET evaluates its K perturbed variants at
            // their K lane biases; `device_evals` counts lane-evals so
            // the accounting stays comparable with the scalar kernels.
            for (mi, m) in mos_refs.iter().enumerate() {
                for lane in 0..k_lanes {
                    let x = &self.x_all[lane * n..(lane + 1) * n];
                    self.bias_buf[lane] = MosBias::new(
                        mna.voltage(x, m.gate),
                        mna.voltage(x, m.drain),
                        mna.voltage(x, m.source),
                        mna.voltage(x, m.bulk),
                    );
                }
                m.lanes.eval_batch(
                    &self.bias_buf,
                    temp_k,
                    &mut self.stamp_buf[mi * k_lanes..(mi + 1) * k_lanes],
                );
                stats.device_evals += k_lanes as u64;
            }
            // --- per-lane scatter assembly over the shared map -------
            for lane in 0..k_lanes {
                let b = &mut self.b_all[lane * n..(lane + 1) * n];
                b.fill(0.0);
                let vals = &mut self.lane_vals[lane];
                vals.fill(0.0);
                let ctx = StampCtx {
                    time,
                    source_scale: 1.0,
                    gmin: options.gmin,
                    temp_k,
                    reactive: Some(&companions[lane]),
                };
                let stamp_buf = &self.stamp_buf;
                let mut sink = PatternScatter {
                    values: vals,
                    map: &self.map,
                    cursor: 0,
                };
                let x = &self.x_all[lane * n..(lane + 1) * n];
                mna.assemble_with_eval(x, &mut sink, b, &ctx, &mut |elem_idx, _, _, _| {
                    let mi = mos_slot[elem_idx].expect("stamped element is a MOSFET");
                    stamp_buf[mi * k_lanes + lane]
                });
                assert_eq!(
                    sink.cursor,
                    self.map.len(),
                    "assembly stamped a different sequence than the symbolic phase"
                );
            }
            // --- multi-lane factorization ----------------------------
            let tol = options.sparse_pivot_tol;
            if self.repivot {
                self.repivot = false;
                self.multi = None;
            }
            match &mut self.multi {
                Some(f) => {
                    if faults.fire_pivot() {
                        // Lane-aware fault addressing: degrade one
                        // deterministically-chosen lane, exercising the
                        // per-lane fallback without changing answers.
                        f.degrade_lane(faults.fired() as usize % k_lanes);
                    }
                    match f.refactorize_multi(&self.pattern, &self.lane_vals, tol) {
                        Ok(report) => {
                            stats.refactorizations += report.shared_lanes as u64;
                            stats.refactor_fallbacks += report.fallback_lanes as u64;
                            stats.full_factorizations += report.fallback_lanes as u64;
                            // A fallback means the frozen shared order
                            // no longer matches the values; refresh it
                            // next time instead of falling back forever.
                            self.repivot = report.fallback_lanes > 0;
                        }
                        Err(_) => return Err(NewtonFailure::Singular(None)),
                    }
                }
                None => match MultiLu::factorize(&self.pattern, &self.lane_vals, tol) {
                    Ok(f) => {
                        stats.full_factorizations += k_lanes as u64;
                        self.multi = Some(f);
                    }
                    Err(_) => return Err(NewtonFailure::Singular(None)),
                },
            }
            let multi = self.multi.as_ref().expect("factorized above");
            if multi
                .solve_into_multi(&self.b_all, &mut self.x_new_all)
                .is_err()
            {
                return Err(NewtonFailure::Singular(None));
            }
            stats.linear_solves += k_lanes as u64;

            // --- per-lane damped update + lockstep convergence -------
            let mut all_converged = true;
            for lane in 0..k_lanes {
                let x = &mut self.x_all[lane * n..(lane + 1) * n];
                let x_new = &self.x_new_all[lane * n..(lane + 1) * n];
                let mut clamped = false;
                for i in 0..n {
                    let mut d = x_new[i] - x[i];
                    if !d.is_finite() {
                        return Err(NewtonFailure::Singular(None));
                    }
                    if i < nvu && d.abs() > options.max_voltage_step {
                        d = d.signum() * options.max_voltage_step;
                        clamped = true;
                    }
                    self.delta[i] = d;
                    x[i] += d;
                }
                if clamped {
                    all_converged = false;
                    continue;
                }
                let (dv, di) = self.delta.split_at(nvu);
                let (xv, xi) = x.split_at(nvu);
                if !(weighted_converged(dv, xv, options.vabstol, options.reltol)
                    && weighted_converged(di, xi, options.iabstol, options.reltol))
                {
                    all_converged = false;
                }
            }
            if all_converged {
                return Ok(());
            }
        }
        Err(NewtonFailure::NoConvergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_transient;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    fn inverter() -> (Circuit, vls_netlist::NodeId) {
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
        (c, out)
    }

    #[test]
    fn identical_lanes_are_bitwise_equal_and_track_the_scalar_kernel() {
        let (c, out) = inverter();
        let options = SimOptions::default();
        let scalar = run_transient(&c, 4e-9, &options).unwrap();
        let lanes = vec![c.clone(), c.clone(), c.clone()];
        let batch = run_transient_batched(&lanes, 4e-9, &options).unwrap();
        assert_eq!(batch.lanes.len(), 3);
        // Identical lanes run identical arithmetic: bitwise-equal
        // waveforms across lanes.
        let v0 = batch.lanes[0].node_series(out);
        for lane in &batch.lanes[1..] {
            let v = lane.node_series(out);
            assert_eq!(v0.len(), v.len());
            for (a, b) in v0.iter().zip(&v) {
                assert_eq!(a.to_bits(), b.to_bits(), "lanes diverged");
            }
        }
        // The batched kernel has its own multi-lane LU and step loop, so
        // the grid and iterates are not bitwise those of the scalar
        // kernel — but the physics must match well inside solver
        // tolerance.
        let a = scalar.final_voltage(out);
        let b = batch.lanes[0].final_voltage(out);
        assert!((a - b).abs() < 1e-6, "scalar {a} vs batched {b}");
        assert_eq!(batch.lanes[0].times()[0], 0.0);
        let t_last = *batch.lanes[0].times().last().unwrap();
        assert!((t_last - 4e-9).abs() < 1e-18);
    }

    #[test]
    fn perturbed_lanes_get_their_own_waveforms_on_a_shared_grid() {
        let (c, out) = inverter();
        let mut fat = c.clone();
        for e in fat.elements_mut() {
            if let Element::Mosfet { name, geom, .. } = e {
                if name == "mn" {
                    *geom = MosGeometry::from_microns(0.3, 0.1);
                }
            }
        }
        let lanes = vec![c.clone(), fat];
        let options = SimOptions::default();
        let batch = run_transient_batched(&lanes, 4e-9, &options).unwrap();
        assert_eq!(
            batch.lanes[0].times(),
            batch.lanes[1].times(),
            "grid must be shared"
        );
        let v0 = batch.lanes[0].node_series(out);
        let v1 = batch.lanes[1].node_series(out);
        assert!(
            v0.iter().zip(&v1).any(|(a, b)| (a - b).abs() > 1e-6),
            "a perturbed lane must produce a different waveform"
        );
        // Both lanes still settle at the low rail after the input rise.
        for lane in &batch.lanes {
            let v = lane.node_series(out);
            let t = lane.times();
            let idx = t.iter().position(|&x| x > 1.5e-9).unwrap();
            assert!(v[idx].abs() < 0.05, "lane failed to switch: {}", v[idx]);
        }
    }

    #[test]
    fn batched_stats_keep_the_device_eval_counter_balance() {
        // With bypass off, every kernel mode must book exactly one
        // device (lane-)eval per MOSFET per Newton (lane-)iteration.
        let (c, _) = inverter();
        let lanes = vec![c.clone(), c.clone(), c.clone(), c.clone()];
        let batch = run_transient_batched(&lanes, 4e-9, &SimOptions::default()).unwrap();
        let s = batch.stats;
        assert_eq!(s.device_bypasses, 0);
        assert_eq!(s.device_evals, 2 * s.newton_iters, "2 MOSFETs per lane");
        assert!(s.linear_solves > 0 && s.refactorizations > 0);
        let shared_steps = (batch.lanes[0].len() - 1) as u64;
        assert_eq!(s.tran_steps, 4 * shared_steps, "lane-steps, K per step");
        assert_eq!(s.rejected_steps % 4, 0, "K per shared rejection");
        // Per-lane results carry no stats of their own — the batch owns
        // the pooled counters, so absorbing both would double count.
        for lane in &batch.lanes {
            assert_eq!(lane.solver_stats(), SolverStats::default());
        }
    }
}
