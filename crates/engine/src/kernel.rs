//! The symbolic-reuse Newton kernel: every DC, DC-sweep and transient
//! Newton solve runs here.
//!
//! For a fixed circuit the structure of the linear system is invariant
//! — only the *values* change between iterations. The kernel does the
//! invariant work once, at construction:
//!
//! * **Symbolic phase (once per circuit):** one probe assembly records
//!   the stamp sequence; [`TripletMatrix::compile`] turns it into a
//!   frozen CSC pattern plus a stamp-pointer map. Every subsequent
//!   assembly is a branch-light scatter `values[map[cursor]] += v` —
//!   no sort, no dedup, no allocation. The scattered values equal a
//!   from-scratch [`Mna::assemble`] compressed with
//!   [`TripletMatrix::to_csc`]; the unit tests below pin that.
//! * **One linear path, two orders:** every circuit factorizes with
//!   [`SparseLu`]. A circuit of at most [`SimOptions::sparse_threshold`]
//!   unknowns (every cell harness) compiles in minimum-degree order;
//!   above it [`SimOptions::structure`] chooses natural or
//!   minimum-degree order. An identity minimum-degree order takes the
//!   natural path, which then factorizes the same system.
//! * **Numeric-only refactorization:** the pivot order found by the
//!   first full factorization is kept by [`SparseLu::refactorize`],
//!   which replays the recorded elimination on minimum-degree patterns
//!   and natural-order DC ones, and eliminates in a dense workspace on
//!   natural-order transient ones (the rule is in
//!   [`SparseLu::replays`]; the unit test
//!   `replay_rule_on_minimum_degree_and_natural_patterns` below pins it
//!   on a cell and a floorplan). A pivot-health check at
//!   [`SimOptions::sparse_pivot_tol`] falls back to a full re-pivoting
//!   factorization when values drift. At
//!   `1.0` (retry rung 2) the check trips whenever a frozen pivot is no
//!   longer its column's largest candidate, so the kernel factorizes as
//!   strict partial pivoting would.
//! * **Reusable workspaces:** the iterate, right-hand side, solution
//!   and delta vectors live in the kernel, so steady-state transient
//!   stepping performs no per-iteration allocation.
//! * **Convergence:** the damped update must be within tolerance on
//!   every node voltage and, from the second iteration on, on every
//!   branch current. Assembly reads only node voltages (the unit test
//!   `assembly_reads_no_branch_current` pins it), so the first solve's
//!   currents do not depend on the start's.

use vls_device::{BoundMos, MosBias, MosCaps};
use vls_fault::FaultSession;
use vls_num::{
    invert_permutation, is_identity, weighted_converged, CscMatrix, NumError, SolverStats,
    SparseLu, TripletMatrix,
};

use crate::dc::{singular_failure, NewtonFailure};
use crate::mna::{CompanionCap, MatrixSink, Mna, StampCtx};
use crate::options::SolverStructure;
use crate::SimOptions;

/// Scatter sink: replays a recorded stamp sequence into the frozen CSC
/// value array through the stamp-pointer map. Positions are ignored —
/// the map already encodes them.
struct PatternScatter<'a> {
    values: &'a mut [f64],
    map: &'a [usize],
    cursor: usize,
}

impl MatrixSink for PatternScatter<'_> {
    #[inline]
    fn stamp(&mut self, _row: usize, _col: usize, value: f64) {
        self.values[self.map[self.cursor]] += value;
        self.cursor += 1;
    }
}

/// Shared factor step for the `Natural` and `Ordered` paths: numeric
/// refactorization on the frozen pivot sequence, falling back to a full
/// re-pivoting factorization when pivot health degrades. The pivot
/// fault hook only arms on an existing factorization — the first
/// (full) factorization has no pivot sequence to drift.
fn factor_sparse(
    lu: &mut Option<SparseLu>,
    pattern: &CscMatrix,
    tol: f64,
    faults: &mut FaultSession,
    stats: &mut SolverStats,
) -> Result<(), NumError> {
    match lu {
        Some(f) => {
            if faults.fire_pivot() {
                // Injected drift: the next refactorize reports a
                // pivot-health failure, driving the fallback arm below.
                f.degrade_pivot_health();
            }
            match f.refactorize(pattern, tol) {
                Ok(()) => {
                    stats.refactorizations += 1;
                    Ok(())
                }
                Err(_) => {
                    // Pivot health degraded: full re-pivoting
                    // factorization.
                    stats.refactor_fallbacks += 1;
                    let nf = SparseLu::factorize_with_tolerance(pattern, tol)?;
                    stats.full_factorizations += 1;
                    *f = nf;
                    Ok(())
                }
            }
        }
        None => {
            let nf = SparseLu::factorize_with_tolerance(pattern, tol)?;
            stats.full_factorizations += 1;
            *lu = Some(nf);
            Ok(())
        }
    }
}

/// The factorization order chosen at construction time from
/// `SimOptions::sparse_threshold` and, above it, `SimOptions::structure`.
enum LinearPath {
    /// Natural MNA order.
    Natural {
        pattern: CscMatrix,
        map: Vec<usize>,
        lu: Option<SparseLu>,
    },
    /// Minimum-degree permuted order (`SolverStructure::Ordered`). The
    /// stamp map scatters straight into permuted slots, so per
    /// iteration only the right-hand side is permuted in and the
    /// solution permuted out. An identity permutation never reaches
    /// this variant — construction falls back to `Natural`, which is
    /// then provably bit-identical.
    Ordered {
        pattern: CscMatrix,
        map: Vec<usize>,
        /// `perm[new] = old`.
        perm: Vec<usize>,
        /// `new_of[old] = new`.
        new_of: Vec<usize>,
        lu: Option<SparseLu>,
        /// Permuted right-hand-side workspace.
        pb: Vec<f64>,
        /// Permuted solution workspace.
        px: Vec<f64>,
    },
}

/// A per-circuit Newton solver with one-time symbolic analysis and
/// reusable numeric workspaces. Build it once per circuit (and per
/// analysis kind — DC and transient stamp different patterns) and call
/// [`NewtonKernel::solve`] as many times as needed; the pattern, the
/// factors and the workspaces persist across calls, which is where the
/// speedup on homotopy ladders and transient stepping comes from.
pub(crate) struct NewtonKernel<'m, 'c> {
    mna: &'m Mna<'c>,
    path: LinearPath,
    /// Right-hand side workspace.
    b: Vec<f64>,
    /// Newton iterate workspace; holds the solution after a successful
    /// solve.
    x: Vec<f64>,
    /// Linear-solve output workspace.
    x_new: Vec<f64>,
    /// Damped-update workspace for the convergence test.
    delta: Vec<f64>,
    /// Each MOSFET's Meyer capacitances at the iterate the last
    /// transient assembly stamped, in `Mna::mosfets` order.
    caps: Vec<MosCaps>,
    stats: SolverStats,
}

impl<'m, 'c> NewtonKernel<'m, 'c> {
    /// Builds the kernel and runs the symbolic phase. `reactive_probe`
    /// must carry the same companion-branch node pairs that later
    /// `solve` calls will stamp (values are irrelevant — stamp
    /// positions depend only on topology); pass `None` for DC.
    pub fn new(
        mna: &'m Mna<'c>,
        options: &SimOptions,
        reactive_probe: Option<&[CompanionCap]>,
    ) -> Self {
        let n = mna.n_unknowns;
        // Record the stamp sequence once. Positions and stamp order are
        // value-independent. The probe's device evaluations belong to
        // no solve, so they are not counted.
        let mut t = TripletMatrix::new(n);
        let mut b = vec![0.0; n];
        let x0 = vec![0.0; n];
        let probe_ctx = StampCtx {
            time: 0.0,
            source_scale: 0.0,
            gmin: options.gmin,
            reactive: reactive_probe,
        };
        mna.assemble(&x0, &mut t, &mut b, &probe_ctx, None);
        let ordered =
            n <= options.sparse_threshold || options.structure == SolverStructure::Ordered;
        let path = if ordered {
            let (pattern, map, perm) = t.compile_ordered();
            if is_identity(&perm) {
                // Identity ordering is the natural factorization; take
                // the Natural path so "ordered" is only ever a genuinely
                // permuted system.
                LinearPath::Natural {
                    pattern,
                    map,
                    lu: None,
                }
            } else {
                let new_of = invert_permutation(&perm);
                LinearPath::Ordered {
                    pattern,
                    map,
                    perm,
                    new_of,
                    lu: None,
                    pb: vec![0.0; n],
                    px: vec![0.0; n],
                }
            }
        } else {
            let (pattern, map) = t.compile();
            LinearPath::Natural {
                pattern,
                map,
                lu: None,
            }
        };
        Self {
            mna,
            path,
            b: vec![0.0; n],
            x: Vec::with_capacity(n),
            x_new: vec![0.0; n],
            delta: vec![0.0; n],
            caps: vec![MosCaps::default(); mna.mosfets().len()],
            stats: SolverStats::default(),
        }
    }

    /// The counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The Meyer capacitances of `dev` at `bias` from a standalone walk
    /// of its model, outside any assembly, counted in
    /// `SolverStats::cap_evals`.
    pub fn eval_caps(&mut self, dev: &BoundMos, bias: MosBias) -> MosCaps {
        self.stats.cap_evals += 1;
        dev.caps(bias.vg, bias.vd, bias.vs, bias.vb)
    }

    /// Each MOSFET's Meyer capacitances, in `Mna::mosfets` order, at the
    /// iterate the last transient assembly stamped: after a successful
    /// transient [`Self::solve`], the iterate its final Newton update
    /// started from.
    pub fn recorded_caps(&self) -> &[MosCaps] {
        &self.caps
    }

    /// Assembles the linearized system at the iterate `self.x` under
    /// `ctx` into the linear path's matrix and `self.b`, evaluating
    /// every MOSFET. A transient assembly (`ctx.reactive` set) records
    /// every MOSFET's capacitances at the iterate in the same walk.
    fn assemble(&mut self, ctx: &StampCtx<'_>) {
        let Self {
            mna,
            path,
            b,
            x,
            caps,
            stats,
            ..
        } = self;
        b.fill(0.0);
        let record = ctx.reactive.is_some().then_some(caps.as_mut_slice());
        let (LinearPath::Natural { pattern, map, .. } | LinearPath::Ordered { pattern, map, .. }) =
            path;
        pattern.reset_values();
        let mut sink = PatternScatter {
            values: pattern.values_mut(),
            map,
            cursor: 0,
        };
        stats.device_evals += mna.assemble(x, &mut sink, b, ctx, record);
        // Pattern-drift tripwire: the stamp sequence must replay the
        // recorded one stamp for stamp.
        assert_eq!(
            sink.cursor,
            map.len(),
            "assembly stamped a different sequence than the symbolic phase"
        );
    }

    /// One damped Newton solve from `x0` under `ctx`. Returns the
    /// converged unknown vector and the iterations spent.
    pub fn solve(
        &mut self,
        x0: &[f64],
        ctx: &StampCtx<'_>,
        options: &SimOptions,
        faults: &mut FaultSession,
    ) -> Result<(Vec<f64>, usize), NewtonFailure> {
        let n = self.mna.n_unknowns;
        let nvu = self.mna.node_unknowns();
        debug_assert_eq!(x0.len(), n);
        self.x.clear();
        self.x.extend_from_slice(x0);

        for iter in 1..=options.max_newton_iters {
            self.stats.newton_iters += 1;
            self.assemble(ctx);
            let Self {
                mna,
                path,
                b,
                x_new,
                stats,
                ..
            } = self;
            match path {
                LinearPath::Natural { pattern, lu, .. } => {
                    if let Err(e) =
                        factor_sparse(lu, pattern, options.sparse_pivot_tol, faults, stats)
                    {
                        return Err(singular_failure(mna, None, &e));
                    }
                    let f = lu.as_ref().expect("factorized above");
                    if f.solve_into(b, x_new).is_err() {
                        return Err(NewtonFailure::Singular(None));
                    }
                }
                LinearPath::Ordered {
                    pattern,
                    perm,
                    new_of,
                    lu,
                    pb,
                    px,
                    ..
                } => {
                    if let Err(e) =
                        factor_sparse(lu, pattern, options.sparse_pivot_tol, faults, stats)
                    {
                        return Err(singular_failure(mna, Some(perm), &e));
                    }
                    // Permute the natural-order RHS into elimination
                    // order, solve, and permute the solution back.
                    for (old, &bv) in b.iter().enumerate() {
                        pb[new_of[old]] = bv;
                    }
                    let f = lu.as_ref().expect("factorized above");
                    if f.solve_into(pb, px).is_err() {
                        return Err(NewtonFailure::Singular(None));
                    }
                    for (old, xo) in x_new.iter_mut().enumerate() {
                        *xo = px[new_of[old]];
                    }
                }
            }
            stats.linear_solves += 1;

            // Damped update: clamp voltage moves to tame the exponential
            // device characteristics.
            let delta = &mut self.delta;
            let x = &mut self.x;
            let x_new = &self.x_new;
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
                delta[i] = d;
                x[i] += d;
            }
            if clamped {
                continue;
            }
            // Assembly reads only node voltages, so the first solve's
            // branch currents do not depend on their start: their gap to
            // it measures the start, not convergence. Iteration 1 is
            // judged on node voltages alone.
            let (dv, di) = delta.split_at(nvu);
            let (xv, xi) = x.split_at(nvu);
            if weighted_converged(dv, xv, options.vabstol, options.reltol)
                && (iter == 1 || weighted_converged(di, xi, options.iabstol, options.reltol))
            {
                return Ok((x.clone(), iter));
            }
        }
        Err(NewtonFailure::NoConvergence)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use vls_device::SourceWaveform;
    use vls_netlist::chipgen::{generate_chip, spec_for_unknowns, ChipSpec};
    use vls_netlist::Circuit;

    use super::*;
    use crate::capnet::tests::meyer_at;
    use crate::capnet::CapNetwork;
    use crate::tran::tests::pwl_inverter;
    use crate::{run_transient, solve_dc};

    /// A flattened chipgen floorplan of `instances` units on three
    /// islands: sparse by size from 20 units up.
    pub(crate) fn chip(instances: usize) -> Circuit {
        generate_chip(&ChipSpec {
            instances,
            islands: 3,
            seed: 0x5510_c0de,
        })
        .flatten()
    }

    /// Checks the kernel's DC and transient assemblies against a
    /// from-scratch `Mna::assemble` into a fresh triplet matrix,
    /// compressed and brought into the kernel's order, at every stored
    /// sample of a transient of `circuit` under `options`. The
    /// transient companions are the capacitive network's backward-Euler
    /// steps between consecutive samples, with the Meyer capacitances
    /// at the later one. Values compare as
    /// floats: every nonzero value bit for bit, and a slot whose every
    /// stamp is `-0.0` reads `+0.0` from the scatter, which starts each
    /// slot at `+0.0`. Returns the sample count.
    fn check_assembly(circuit: &Circuit, options: &SimOptions, tstop: f64, ordered: bool) -> usize {
        let mna = Mna::new(circuit, options.temperature.as_kelvin());
        let mut network = CapNetwork::new(circuit, &mna);
        let mut kernels = [
            NewtonKernel::new(&mna, options, None),
            NewtonKernel::new(&mna, options, Some(network.companions(1.0, 1.0))),
        ];
        for k in &kernels {
            assert_eq!(matches!(k.path, LinearPath::Ordered { .. }), ordered);
        }
        let res = run_transient(circuit, tstop, options).expect("transient converges");
        let times = res.times();
        for (s, &t) in times.iter().enumerate() {
            let (_, x) = res.state_at(t).expect("a stored sample");
            let h = if s == 0 {
                options.initial_step
            } else {
                t - times[s - 1]
            };
            network.set_caps(meyer_at(&mna, x));
            let companions = network.companions(1.0, h).to_vec();
            network.advance(x);
            for (k, reactive) in kernels.iter_mut().zip([None, Some(&companions[..])]) {
                let ctx = StampCtx {
                    time: t,
                    source_scale: 1.0,
                    gmin: options.gmin,
                    reactive,
                };
                k.x.clear();
                k.x.extend_from_slice(x);
                k.assemble(&ctx);
                let mut trip = TripletMatrix::new(mna.n_unknowns);
                let mut b = vec![0.0; mna.n_unknowns];
                mna.assemble(x, &mut trip, &mut b, &ctx, None);
                let (a, reference) = match &k.path {
                    LinearPath::Ordered {
                        pattern, new_of, ..
                    } => (pattern, trip.to_csc().permute_symmetric(new_of)),
                    LinearPath::Natural { pattern, .. } => (pattern, trip.to_csc()),
                };
                let what = if reactive.is_some() {
                    "transient"
                } else {
                    "DC"
                };
                assert_eq!(*a, reference, "{what} matrix at sample {s}");
                assert_eq!(k.b, b, "{what} right-hand side at sample {s}");
                if reactive.is_some() {
                    // The transient assembly recorded every MOSFET's
                    // capacitances at the iterate, in MOSFET order.
                    for (m, mc) in mna.mosfets().iter().zip(k.recorded_caps()) {
                        let bias = m.bias(x);
                        let walked = m.dev.caps(bias.vg, bias.vd, bias.vs, bias.vb);
                        assert_eq!(*mc, walked, "recorded capacitances at sample {s}");
                    }
                }
            }
        }
        times.len()
    }

    #[test]
    fn scatter_assembly_equals_a_from_scratch_assembly() {
        // A chipgen floorplan, sparse by size, in both sparse orders.
        let chip = chip(20);
        for structure in [SolverStructure::Natural, SolverStructure::Ordered] {
            let options = SimOptions {
                structure,
                ..SimOptions::default()
            };
            let ordered = structure == SolverStructure::Ordered;
            assert!(check_assembly(&chip, &options, 0.2e-9, ordered) > 10);
        }
        // A small MOSFET circuit in both orders: minimum degree by
        // default, natural when the threshold lets `structure` choose.
        let options = SimOptions::default();
        assert!(check_assembly(&pwl_inverter(), &options, 2.5e-9, true) > 10);
        let options = SimOptions {
            sparse_threshold: 0,
            ..SimOptions::default()
        };
        assert!(check_assembly(&pwl_inverter(), &options, 2.5e-9, false) > 10);
    }

    /// `NewtonKernel::solve` judges its first iteration on node voltages
    /// alone because assembly never reads a branch current: two iterates
    /// that differ only there assemble the same system, bit for bit. An
    /// element that stamps from a branch current fails this.
    #[test]
    fn assembly_reads_no_branch_current() {
        // Voltage sources (the branch currents), a current source, a
        // resistor, capacitors and MOSFETs.
        let mut c = pwl_inverter();
        let out = c.find_node("out").expect("the inverter's output");
        let tap = c.node("tap");
        c.add_isource("ibias", out, tap, SourceWaveform::Dc(1e-6));
        c.add_resistor("rtap", tap, Circuit::GROUND, 1e4);
        let options = SimOptions::default();
        let mna = Mna::new(&c, options.temperature.as_kelvin());
        let (n, nvu) = (mna.n_unknowns, mna.node_unknowns());
        assert!(n > nvu, "the circuit has branch currents");
        let mut network = CapNetwork::new(&c, &mna);
        let res = run_transient(&c, 2.5e-9, &options).expect("transient converges");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &t in res.times() {
            let (_, x) = res.state_at(t).expect("a stored sample");
            network.set_caps(meyer_at(&mna, x));
            let companions = network.companions(1.0, 1e-12).to_vec();
            let mut skewed = x.to_vec();
            for (k, i) in skewed[nvu..].iter_mut().enumerate() {
                *i = -3.0 * *i + 1e3 * (k + 1) as f64;
            }
            for reactive in [None, Some(&companions[..])] {
                let ctx = StampCtx {
                    time: t,
                    source_scale: 1.0,
                    gmin: options.gmin,
                    reactive,
                };
                let assembled_at = |iterate: &[f64]| {
                    let mut a = TripletMatrix::new(n);
                    let mut b = vec![0.0; n];
                    mna.assemble(iterate, &mut a, &mut b, &ctx, None);
                    (bits(a.to_csc().values()), bits(&b))
                };
                assert_eq!(assembled_at(x), assembled_at(&skewed), "t = {t:e}");
            }
        }
    }

    #[test]
    fn rung_two_keeps_the_callers_sparse_order() {
        let chip = chip(20);
        let options = SimOptions {
            structure: SolverStructure::Ordered,
            ..SimOptions::default()
        }
        .escalated(2);
        let mna = Mna::new(&chip, options.temperature.as_kelvin());
        let k = NewtonKernel::new(&mna, &options, None);
        assert!(
            matches!(k.path, LinearPath::Ordered { .. }),
            "rung 2 left the minimum-degree order"
        );
    }

    /// The first factorization of `circuit`'s transient Jacobian under
    /// `options`: at its DC point, Meyer capacitances there, 1 ps
    /// backward-Euler companions.
    fn first_transient_factorization(circuit: &Circuit, options: &SimOptions) -> SparseLu {
        let dc = solve_dc(circuit, options).expect("DC converges");
        let x = dc.unknowns();
        let mna = Mna::new(circuit, options.temperature.as_kelvin());
        let mut network = CapNetwork::new(circuit, &mna);
        network.set_caps(meyer_at(&mna, x));
        let companions = network.companions(1.0, 1e-12).to_vec();
        let ctx = StampCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: options.gmin,
            reactive: Some(&companions),
        };
        let mut k = NewtonKernel::new(&mna, options, Some(&companions));
        k.x.clear();
        k.x.extend_from_slice(x);
        k.assemble(&ctx);
        let (LinearPath::Natural { pattern, .. } | LinearPath::Ordered { pattern, .. }) = &k.path;
        SparseLu::factorize_with_tolerance(pattern, options.sparse_pivot_tol)
            .expect("the Jacobian factorizes")
    }

    /// The `chip_tran` size floorplan, 156 unknowns.
    fn chip_tran_floorplan() -> Circuit {
        let chip = generate_chip(&spec_for_unknowns(150, 3, 0x5510_c0de)).flatten();
        assert_eq!(crate::unknown_count(&chip), 156);
        chip
    }

    fn with_structure(structure: SolverStructure) -> SimOptions {
        SimOptions {
            structure,
            ..SimOptions::default()
        }
    }

    /// The first factorization of the `chip_tran` size floorplan's
    /// transient Jacobian: minimum-degree order stores at most a tenth
    /// of the natural order's factor entries.
    #[test]
    fn minimum_degree_cuts_transient_fill_tenfold_on_a_chip_tran_floorplan() {
        let chip = chip_tran_floorplan();
        let factor_nnz = |structure| {
            first_transient_factorization(&chip, &with_structure(structure)).factor_nnz()
        };
        let natural = factor_nnz(SolverStructure::Natural);
        let ordered = factor_nnz(SolverStructure::Ordered);
        assert!(
            10 * ordered <= natural,
            "minimum-degree fill {ordered} is not a tenth of natural order's {natural}"
        );
    }

    /// `SparseLu` replays its recorded elimination when it applies at
    /// most as many updates as its factor has entries. Transient
    /// Jacobians in minimum-degree order meet that rule, on the SS-TVS
    /// harness (below the threshold, so in minimum-degree order by
    /// default) and on the `chip_tran` floorplan; the floorplan in
    /// natural order misses it by orders of magnitude and keeps the
    /// workspace loop.
    #[test]
    fn replay_rule_on_minimum_degree_and_natural_patterns() {
        use vls_cells::{Harness, ShifterKind, VoltagePair};
        let domains = VoltagePair::low_to_high();
        let (wave, _, _, _) = Harness::standard_stimulus(domains);
        let sstvs = Harness::build(&ShifterKind::sstvs(), domains, wave, 1e-15).circuit;
        let chip = chip_tran_floorplan();
        let rows = [
            ("SS-TVS", &sstvs, SimOptions::default()),
            (
                "floorplan, minimum degree",
                &chip,
                with_structure(SolverStructure::Ordered),
            ),
            (
                "floorplan, natural",
                &chip,
                with_structure(SolverStructure::Natural),
            ),
        ];
        // (updates, factor entries, replays)
        let expected = [
            (57, 93, true),
            (688, 1_148, true),
            (1_087_699, 22_902, false),
        ];
        for ((what, circuit, options), expected) in rows.into_iter().zip(expected) {
            let lu = first_transient_factorization(circuit, &options);
            let (updates, entries) = (lu.updates(), lu.factor_nnz());
            assert_eq!(lu.replays(), updates <= entries, "{what}");
            assert_eq!((updates, entries, lu.replays()), expected, "{what}");
        }
    }
}
