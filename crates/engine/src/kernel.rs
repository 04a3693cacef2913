//! The symbolic-reuse Newton kernel.
//!
//! The legacy hot path rebuilds its linear system from scratch on every
//! Newton iteration: a fresh `TripletMatrix` (or zeroed `DenseMatrix`),
//! a sort-and-dedup compression to CSC, and a full LU factorization
//! with pivot search. For a fixed circuit all of that structure is
//! invariant — only the *values* change between iterations. This module
//! hoists the invariant work to construction time:
//!
//! * **Symbolic phase (once per circuit):** one probe assembly records
//!   the stamp sequence; [`TripletMatrix::compile`] turns it into a
//!   frozen CSC pattern plus a stamp-pointer map. Every subsequent
//!   assembly is a branch-light scatter `values[map[cursor]] += v` —
//!   no sort, no dedup, no allocation.
//! * **Numeric-only refactorization:** the pivot order found by the
//!   first full factorization is replayed by [`SparseLu::refactorize`];
//!   a pivot-health check falls back to a full re-pivoting
//!   factorization when values drift. Dense circuits reuse the `n²`
//!   factor storage through [`DenseMatrix::factorize_into`].
//! * **Reusable workspaces:** the iterate, right-hand side, solution
//!   and delta vectors live in the kernel, so steady-state transient
//!   stepping performs no per-iteration allocation.
//! * **Device bypass (SPICE3 style):** with a positive
//!   [`SimOptions::bypass_vtol`], each MOSFET's linearization is cached
//!   and replayed while its terminal voltages stay within tolerance —
//!   but a bypassed evaluation is never allowed to decide convergence:
//!   the kernel always confirms with one full-evaluation iteration.
//!
//! With bypass disabled (the default) the kernel performs arithmetic
//! identical to the legacy path, so results match to the last bit; the
//! equivalence suite in `tests/newton_kernel.rs` pins this.

use vls_device::{MosBias, MosCaps, MosCapsCache, MosGeometry, MosModel, MosStamp, MosStampCache};
use vls_fault::FaultSession;
use vls_num::{
    invert_permutation, is_identity, weighted_converged, CscMatrix, DenseLu, DenseMatrix,
    IslandFactor, IslandOutcome, IslandPartition, NumError, SchurStructure, SolverStats, SparseLu,
    TripletMatrix,
};
use vls_runner::{run_indexed_mut, RunnerOptions};

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

/// Shared factor step for the `Sparse` and `Ordered` paths: numeric
/// replay on the frozen pivot sequence, falling back to a full
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

/// The factorization backend chosen at construction time from
/// `SimOptions::sparse_threshold` (same rule as the legacy path) and,
/// above it, `SimOptions::structure`.
// One instance lives per kernel (per circuit), never in a collection,
// so the variant size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum LinearPath {
    Dense {
        a: DenseMatrix,
        lu: DenseLu,
    },
    /// Natural MNA order — bit-identical to the pre-structuring solver.
    Sparse {
        pattern: CscMatrix,
        map: Vec<usize>,
        lu: Option<SparseLu>,
    },
    /// Minimum-degree permuted order (`SolverStructure::Ordered`). The
    /// stamp map scatters straight into permuted slots, so per
    /// iteration only the right-hand side is permuted in and the
    /// solution permuted out. An identity permutation never reaches
    /// this variant — construction falls back to `Sparse`, which is
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
    /// Island-partitioned Schur solve (`SolverStructure::Islands`):
    /// the pattern is compiled in block order `[island 0 …, boundary]`,
    /// islands factorize independently (fanned over `jobs` workers, all
    /// reductions in island index order → bitwise worker-count
    /// independence), coupled through a dense boundary complement.
    Islands {
        structure: SchurStructure,
        factors: Vec<IslandFactor>,
        boundary_lu: Option<DenseLu>,
        pattern: CscMatrix,
        map: Vec<usize>,
        pb: Vec<f64>,
        px: Vec<f64>,
        jobs: RunnerOptions,
    },
}

/// A per-circuit Newton solver with one-time symbolic analysis,
/// reusable numeric workspaces, and optional device bypass. Build it
/// once per circuit (and per analysis kind — DC and transient stamp
/// different patterns) and call [`NewtonKernel::solve`] as many times
/// as needed; caches and factors persist across calls, which is where
/// the speedup on homotopy ladders and transient stepping comes from.
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
    /// Per-element MOSFET linearization caches (indexed by element).
    stamp_caches: Vec<MosStampCache>,
    /// Per-element Meyer capacitance caches (indexed by element).
    cap_caches: Vec<MosCapsCache>,
    stats: SolverStats,
}

impl<'m, 'c> NewtonKernel<'m, 'c> {
    /// Builds the kernel, running the symbolic phase when the circuit
    /// is above the sparse threshold. `reactive_probe` must carry the
    /// same companion-branch node pairs that later `solve` calls will
    /// stamp (values are irrelevant — stamp positions depend only on
    /// topology); pass `None` for DC.
    pub fn new(
        mna: &'m Mna<'c>,
        options: &SimOptions,
        reactive_probe: Option<&[CompanionCap]>,
    ) -> Self {
        let n = mna.n_unknowns;
        let path = if n > options.sparse_threshold {
            // Record the stamp sequence once. The dummy evaluator keeps
            // the probe free of model evaluations: positions and stamp
            // order are value-independent.
            let mut t = TripletMatrix::new(n);
            let mut b = vec![0.0; n];
            let x0 = vec![0.0; n];
            let probe_ctx = StampCtx {
                time: 0.0,
                source_scale: 0.0,
                gmin: options.gmin,
                temp_k: options.temperature.as_kelvin(),
                reactive: reactive_probe,
            };
            mna.assemble_with_eval(&x0, &mut t, &mut b, &probe_ctx, &mut |_, _, _, _| {
                MosStamp::default()
            });
            match options.structure {
                SolverStructure::Natural => {
                    let (pattern, map) = t.compile();
                    LinearPath::Sparse {
                        pattern,
                        map,
                        lu: None,
                    }
                }
                SolverStructure::Ordered => {
                    let (pattern, map, perm) = t.compile_ordered();
                    if is_identity(&perm) {
                        // Identity ordering is the natural factorization;
                        // take the Natural path so "ordered" is only ever
                        // a genuinely permuted system.
                        LinearPath::Sparse {
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
                }
                SolverStructure::Islands => {
                    let (natural, _) = t.compile();
                    let part = IslandPartition::tear(&natural, &mna.boundary_unknowns());
                    let (pattern, map) = t.compile_permuted(part.new_of());
                    let structure = SchurStructure::new(&pattern, part);
                    let factors = structure.new_factors();
                    LinearPath::Islands {
                        structure,
                        factors,
                        boundary_lu: None,
                        pattern,
                        map,
                        pb: vec![0.0; n],
                        px: vec![0.0; n],
                        jobs: options
                            .solver_jobs
                            .map(RunnerOptions::with_jobs)
                            .unwrap_or_default(),
                    }
                }
            }
        } else {
            LinearPath::Dense {
                a: DenseMatrix::zeros(n),
                lu: DenseLu::empty(),
            }
        };
        let n_elems = mna.element_count();
        Self {
            mna,
            path,
            b: vec![0.0; n],
            x: Vec::with_capacity(n),
            x_new: vec![0.0; n],
            delta: vec![0.0; n],
            stamp_caches: vec![MosStampCache::new(); n_elems],
            cap_caches: vec![MosCapsCache::new(); n_elems],
            stats: SolverStats::default(),
        }
    }

    /// The counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Meyer capacitance evaluation through the bypass cache (the
    /// transient loop's analogue of device bypass). `bypass_tol ≤ 0`
    /// always evaluates.
    pub fn eval_caps(
        &mut self,
        elem_idx: usize,
        model: &MosModel,
        geom: &MosGeometry,
        bias: MosBias,
        temp_k: f64,
        bypass_tol: f64,
    ) -> MosCaps {
        if let Some(c) = self.cap_caches[elem_idx].lookup(&bias, bypass_tol) {
            self.stats.cap_bypasses += 1;
            return c;
        }
        let c = model.caps(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
        if bypass_tol > 0.0 {
            self.cap_caches[elem_idx].store(bias, c);
        }
        self.stats.cap_evals += 1;
        c
    }

    /// One Newton solve from `x0` under `ctx`: damping, convergence and
    /// failure semantics identical to the legacy `newton_solve`.
    /// Returns the converged unknown vector and the iterations spent.
    pub fn solve(
        &mut self,
        x0: &[f64],
        ctx: &StampCtx<'_>,
        options: &SimOptions,
        faults: &mut FaultSession,
    ) -> Result<(Vec<f64>, usize), NewtonFailure> {
        let iters = self.solve_in_place(x0, ctx, options, faults)?;
        Ok((self.x.clone(), iters))
    }

    /// [`NewtonKernel::solve`] leaving the solution in the internal
    /// workspace (read it with [`NewtonKernel::solution`]) — no
    /// allocation at all.
    pub fn solve_in_place(
        &mut self,
        x0: &[f64],
        ctx: &StampCtx<'_>,
        options: &SimOptions,
        faults: &mut FaultSession,
    ) -> Result<usize, NewtonFailure> {
        let n = self.mna.n_unknowns;
        let nvu = self.mna.node_unknowns();
        debug_assert_eq!(x0.len(), n);
        self.x.clear();
        self.x.extend_from_slice(x0);
        let bypass_tol = options.bypass_vtol.max(0.0);
        let mut allow_bypass = bypass_tol > 0.0;
        if bypass_tol > 0.0 && faults.fire_bypass() {
            // Plant a garbage linearization (an all-zero stamp tagged at
            // the zero bias) in every device cache, armed to hit once
            // regardless of how far the solver is from that bias. The
            // confirm-iteration rule below is what must absorb it.
            for cache in &mut self.stamp_caches {
                cache.poison(MosBias::default(), MosStamp::default());
            }
        }

        for iter in 1..=options.max_newton_iters {
            self.stats.newton_iters += 1;
            let Self {
                mna,
                path,
                b,
                x,
                x_new,
                stamp_caches,
                stats,
                ..
            } = self;
            b.fill(0.0);
            let mut bypassed = false;
            let temp_k = ctx.temp_k;
            let mut eval =
                |elem_idx: usize, model: &MosModel, geom: &MosGeometry, bias: MosBias| {
                    if allow_bypass {
                        if let Some(s) = stamp_caches[elem_idx].lookup(&bias, bypass_tol) {
                            stats.device_bypasses += 1;
                            bypassed = true;
                            return s;
                        }
                    }
                    let op = model.op(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
                    let s = MosStamp::from_op(&op, &bias);
                    if bypass_tol > 0.0 {
                        stamp_caches[elem_idx].store(bias, s);
                    }
                    stats.device_evals += 1;
                    s
                };
            match path {
                LinearPath::Dense { a, lu } => {
                    a.clear();
                    mna.assemble_with_eval(x, a, b, ctx, &mut eval);
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
                    if let Err(e) = a.factorize_into(lu) {
                        return Err(singular_failure(mna, None, &e));
                    }
                    stats.full_factorizations += 1;
                    lu.solve_into(b, x_new);
                }
                LinearPath::Sparse { pattern, map, lu } => {
                    pattern.reset_values();
                    {
                        let mut sink = PatternScatter {
                            values: pattern.values_mut(),
                            map,
                            cursor: 0,
                        };
                        mna.assemble_with_eval(x, &mut sink, b, ctx, &mut eval);
                        // Pattern-drift tripwire: the stamp sequence must
                        // replay the recorded one stamp for stamp.
                        assert_eq!(
                            sink.cursor,
                            map.len(),
                            "assembly stamped a different sequence than the symbolic phase"
                        );
                    }
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
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
                    map,
                    perm,
                    new_of,
                    lu,
                    pb,
                    px,
                } => {
                    pattern.reset_values();
                    {
                        let mut sink = PatternScatter {
                            values: pattern.values_mut(),
                            map,
                            cursor: 0,
                        };
                        mna.assemble_with_eval(x, &mut sink, b, ctx, &mut eval);
                        assert_eq!(
                            sink.cursor,
                            map.len(),
                            "assembly stamped a different sequence than the symbolic phase"
                        );
                    }
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
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
                LinearPath::Islands {
                    structure,
                    factors,
                    boundary_lu,
                    pattern,
                    map,
                    pb,
                    px,
                    jobs,
                } => {
                    pattern.reset_values();
                    {
                        let mut sink = PatternScatter {
                            values: pattern.values_mut(),
                            map,
                            cursor: 0,
                        };
                        mna.assemble_with_eval(x, &mut sink, b, ctx, &mut eval);
                        assert_eq!(
                            sink.cursor,
                            map.len(),
                            "assembly stamped a different sequence than the symbolic phase"
                        );
                    }
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
                    let tol = options.sparse_pivot_tol;
                    if boundary_lu.is_some() && faults.fire_pivot() {
                        // Injected drift on the partitioned path: island
                        // 0's next numeric replay reports a pivot-health
                        // failure and takes the full re-pivot fallback.
                        if let Some(f0) = factors.first_mut() {
                            f0.degrade_pivot_health();
                        }
                    }
                    // Per-island factorization fans across the workers;
                    // results come back in island index order, so the
                    // counter accumulation and first-error choice below
                    // are schedule-independent.
                    let values: &[f64] = pattern.values();
                    let outcomes = run_indexed_mut(factors, jobs, |i, f| {
                        structure.factor_island(values, i, f, tol)
                    });
                    let mut first_err: Option<NumError> = None;
                    for outcome in outcomes {
                        match outcome {
                            Ok(IslandOutcome::Full) => stats.full_factorizations += 1,
                            Ok(IslandOutcome::Refactorized) => stats.refactorizations += 1,
                            Ok(IslandOutcome::Fallback) => {
                                stats.refactor_fallbacks += 1;
                                stats.full_factorizations += 1;
                            }
                            Err(e) => {
                                if first_err.is_none() {
                                    first_err = Some(e);
                                }
                            }
                        }
                    }
                    if let Some(e) = first_err {
                        return Err(singular_failure(
                            mna,
                            Some(structure.partition().permutation()),
                            &e,
                        ));
                    }
                    match structure.reduce(values, factors) {
                        Ok(f) => *boundary_lu = Some(f),
                        Err(e) => {
                            return Err(singular_failure(
                                mna,
                                Some(structure.partition().permutation()),
                                &e,
                            ))
                        }
                    }
                    let new_of = structure.partition().new_of();
                    for (old, &bv) in b.iter().enumerate() {
                        pb[new_of[old]] = bv;
                    }
                    if structure
                        .solve(
                            values,
                            factors,
                            boundary_lu.as_ref().expect("reduced above"),
                            pb,
                            px,
                        )
                        .is_err()
                    {
                        return Err(NewtonFailure::Singular(None));
                    }
                    for (old, xo) in x_new.iter_mut().enumerate() {
                        *xo = px[new_of[old]];
                    }
                }
            }
            stats.linear_solves += 1;

            // Damped update: clamp voltage moves to tame the exponential
            // device characteristics (identical to the legacy path).
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
                allow_bypass = bypass_tol > 0.0;
                continue;
            }
            let (dv, di) = delta.split_at(nvu);
            let (xv, xi) = x.split_at(nvu);
            if weighted_converged(dv, xv, options.vabstol, options.reltol)
                && weighted_converged(di, xi, options.iabstol, options.reltol)
            {
                if bypassed {
                    // A bypassed evaluation must never decide
                    // convergence: confirm with one full-evaluation
                    // iteration before accepting.
                    allow_bypass = false;
                    continue;
                }
                return Ok(iter);
            }
            allow_bypass = bypass_tol > 0.0;
        }
        Err(NewtonFailure::NoConvergence)
    }
}

/// Structural summary of how [`SolverStructure::Islands`] would tear a
/// circuit's DC pattern: the boundary block the Schur complement
/// couples, and the independent interior islands. Computed from
/// topology alone — no solve is run. Benches and golden tests use this
/// to pin partition shapes (e.g. a rail-shorted floorplan collapsing
/// to one island) without reaching into the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandReport {
    /// Total MNA unknowns (nodes minus ground, plus branch currents).
    pub unknowns: usize,
    /// Independent interior islands after tearing the boundary.
    pub islands: usize,
    /// Torn unknowns coupled through the dense Schur block.
    pub boundary: usize,
    /// Unknown count of the largest island — the serial depth of the
    /// parallel factorization phase.
    pub largest_island: usize,
}

/// Tears `circuit`'s DC pattern the way the islands solver would and
/// reports the partition shape. Uses the same symbolic probe as the
/// kernel, so the report matches what a DC solve with
/// [`SolverStructure::Islands`] actually builds.
pub fn island_report(circuit: &vls_netlist::Circuit, options: &SimOptions) -> IslandReport {
    let mna = Mna::new(circuit);
    let n = mna.n_unknowns;
    let mut t = TripletMatrix::new(n);
    let mut b = vec![0.0; n];
    let x0 = vec![0.0; n];
    let probe_ctx = StampCtx {
        time: 0.0,
        source_scale: 0.0,
        gmin: options.gmin,
        temp_k: options.temperature.as_kelvin(),
        reactive: None,
    };
    mna.assemble_with_eval(&x0, &mut t, &mut b, &probe_ctx, &mut |_, _, _, _| {
        MosStamp::default()
    });
    let (pattern, _) = t.compile();
    let part = IslandPartition::tear(&pattern, &mna.boundary_unknowns());
    IslandReport {
        unknowns: n,
        islands: part.island_count(),
        boundary: part.boundary_len(),
        largest_island: part.largest_island(),
    }
}
