//! Simulation tolerances and controls.

use vls_check::CheckLevel;
use vls_fault::FaultPlan;
use vls_units::Temperature;

/// Which Newton/transient hot-path implementation to run.
///
/// Both produce the same solutions (the equivalence suite in
/// `tests/newton_kernel.rs` pins them to each other). `Legacy` is the
/// reference that suite compares against, and retry rung 2 of
/// [`SimOptions::escalated`] runs it as the most conservative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Per-iteration matrix rebuild: fresh `TripletMatrix`/`DenseMatrix`
    /// assembly and a full factorization every Newton iteration.
    Legacy,
    /// Symbolic-reuse kernel: one-time sparsity analysis with
    /// stamp-pointer scatter assembly, numeric-only refactorization
    /// with frozen pivots, reusable workspaces, and (when
    /// [`SimOptions::bypass_vtol`] is positive) device-eval bypass.
    #[default]
    Symbolic,
}

/// How the sparse linear system is *structured* before factorization —
/// orthogonal to [`KernelMode`], which picks the assembly/refactorization
/// strategy. Only the sparse path of [`KernelMode::Symbolic`] honors
/// this; dense circuits (at or below [`SimOptions::sparse_threshold`])
/// and [`KernelMode::Legacy`] (retry rung 2 and up) always solve in
/// natural order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStructure {
    /// Natural MNA unknown order, flat LU. The default: bit-identical
    /// to every release before the structured solvers existed.
    #[default]
    Natural,
    /// One-time minimum-degree fill-reducing symmetric permutation
    /// (`P·A·Pᵀ`) applied at symbolic-compile time; stamps scatter
    /// directly into permuted slots, so the per-iteration cost is
    /// unchanged. When the computed permutation is the identity the
    /// kernel provably produces the natural factorization and quietly
    /// uses the `Natural` path.
    Ordered,
    /// Island-partitioned Schur solve: boundary unknowns (voltage-source
    /// nets and every branch current) are torn out, the remaining
    /// connected components factorize independently (each under its own
    /// minimum-degree order, fanned across [`SimOptions::solver_jobs`]
    /// workers), coupled through a dense Schur complement on the
    /// boundary. Bitwise identical at any worker count.
    Islands,
}

/// Tolerances and controls shared by all analyses. The defaults follow
/// SPICE conventions and are what every experiment in this workspace
/// runs with unless stated otherwise in EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Device temperature.
    pub temperature: Temperature,
    /// Relative convergence tolerance (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute voltage tolerance, V (SPICE `VNTOL`).
    pub vabstol: f64,
    /// Absolute current tolerance for branch unknowns, A.
    pub iabstol: f64,
    /// Conductance tied from every node to ground, S (SPICE `GMIN`).
    pub gmin: f64,
    /// Maximum Newton iterations per solve attempt.
    pub max_newton_iters: usize,
    /// Per-iteration clamp on any node-voltage update, V. Damps the
    /// exponential MOSFET characteristics exactly like SPICE's junction
    /// voltage limiting.
    pub max_voltage_step: f64,
    /// Largest transient step, s; `None` derives `tstop / 50`.
    pub max_step: Option<f64>,
    /// Smallest transient step before reporting step underflow, s.
    pub min_step: f64,
    /// First transient step after DC or a breakpoint, s.
    pub initial_step: f64,
    /// Transient local-truncation-error tolerance, V. The step size is
    /// adapted to hold the predictor–corrector disagreement below this.
    pub lte_tol: f64,
    /// Unknown count above which the sparse solver is used.
    pub sparse_threshold: usize,
    /// Diagonal-preference pivot tolerance for the sparse LU: the
    /// diagonal is kept as pivot while its magnitude is at least this
    /// fraction of the column maximum. Also the pivot-health threshold
    /// guarding numeric-only refactorization. SPICE's classic value.
    pub sparse_pivot_tol: f64,
    /// Newton hot-path implementation selector.
    pub kernel: KernelMode,
    /// Device-bypass voltage tolerance, V: a MOSFET (or its Meyer
    /// capacitances) is not re-evaluated while every terminal voltage
    /// stays within this of the cached evaluation. `0.0` (the default)
    /// disables bypassing, which keeps results bit-identical to the
    /// legacy path; small positive values (≈1e-6) trade exactness
    /// within `reltol` for large speedups on waveform plateaus. Only
    /// honored by [`KernelMode::Symbolic`].
    pub bypass_vtol: f64,
    /// Static electrical-rule checking to run before any analysis.
    /// `Off` (the default) keeps only the structural `validate()`
    /// pass; `Connectivity`/`Full` run `vls-check` and refuse to
    /// simulate a circuit with error-severity findings.
    pub check: CheckLevel,
    /// Armed fault-injection plan. Empty (the default) keeps every
    /// compiled-in hook cold and the solver bit-identical to a
    /// hook-free build. The plan stored here is expected to be
    /// seed-resolved already (`FaultPlan::arm`); the engine loads it
    /// into a fresh `FaultSession` per analysis phase.
    pub fault: FaultPlan,
    /// Hard ceiling on Newton iterations summed across a whole DC
    /// homotopy ladder (all stages, all continuation points). Acts as
    /// a deterministic timeout: crossing it aborts the solve with
    /// `EngineError::BudgetExhausted` instead of grinding on. `None`
    /// (the default) is unlimited.
    pub newton_budget: Option<u64>,
    /// Hard ceiling on transient step *attempts* (accepted + rejected)
    /// for one transient run — the stepper's deterministic timeout.
    /// `None` (the default) is unlimited.
    pub step_budget: Option<u64>,
    /// Sparse linear-system structuring: natural order (the default,
    /// bit-identical to prior behavior), fill-reducing minimum-degree
    /// ordering, or the island-partitioned Schur solver. Honored by the
    /// sparse path of [`KernelMode::Symbolic`]; the dense path and
    /// [`KernelMode::Legacy`] ignore it.
    pub structure: SolverStructure,
    /// Worker threads for the island-partitioned solver's per-island
    /// factorization fan-out. `None` defers to the `VLS_JOBS`
    /// environment variable, then to available parallelism (the
    /// `vls-runner` resolution rule). Results never depend on this —
    /// only wall time does.
    pub solver_jobs: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            temperature: Temperature::ROOM,
            reltol: 1e-3,
            vabstol: 1e-6,
            iabstol: 1e-12,
            gmin: 1e-12,
            max_newton_iters: 120,
            max_voltage_step: 0.3,
            max_step: None,
            min_step: 1e-18,
            initial_step: 1e-13,
            lte_tol: 1e-3,
            sparse_threshold: 64,
            sparse_pivot_tol: 1e-3,
            kernel: KernelMode::Symbolic,
            bypass_vtol: 0.0,
            check: CheckLevel::Off,
            fault: FaultPlan::none(),
            newton_budget: None,
            step_budget: None,
            structure: SolverStructure::default(),
            solver_jobs: None,
        }
    }
}

impl SimOptions {
    /// Convenience constructor for a given temperature in °C, keeping
    /// every other option at its default.
    pub fn at_celsius(celsius: f64) -> Self {
        Self {
            temperature: Temperature::from_celsius(celsius),
            ..Self::default()
        }
    }

    /// The retry-ladder escalation: a progressively more conservative
    /// variant of these options for retry rung `rung`. The steps are
    /// cumulative — each rung keeps everything the previous rungs
    /// changed and adds its own concession:
    ///
    /// * rung 0 — these options unchanged (the base attempt);
    /// * rung 1 — gmin floor raised 100× (stiffer regularization pulls
    ///   floating/bistable nodes toward convergence);
    /// * rung 2 — additionally forces [`KernelMode::Legacy`] with
    ///   bypassing off (full re-pivoting every iteration, no frozen
    ///   structure, no cached linearizations);
    /// * rung 3+ — additionally quarters the maximum and initial
    ///   transient steps (brute-force LTE headroom).
    ///
    /// Injected faults model a transient upset of the base attempt, so
    /// escalation also disarms the fault plan from rung 1 on — a retry
    /// is a *clean* re-run under more conservative numerics, which is
    /// exactly what a production retry would be.
    pub fn escalated(&self, rung: usize) -> Self {
        let mut o = self.clone();
        if rung == 0 {
            return o;
        }
        o.fault = FaultPlan::none();
        o.gmin = self.gmin * 100.0;
        if rung >= 2 {
            o.kernel = KernelMode::Legacy;
            o.bypass_vtol = 0.0;
            // Legacy ignores structuring anyway; force Natural so the
            // intent — the most conservative flat path — is explicit.
            o.structure = SolverStructure::Natural;
        }
        if rung >= 3 {
            o.max_step = self.max_step.map(|s| s / 4.0);
            o.initial_step = self.initial_step / 4.0;
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spice_like() {
        let o = SimOptions::default();
        assert_eq!(o.reltol, 1e-3);
        assert_eq!(o.gmin, 1e-12);
        assert_eq!(o.temperature, Temperature::ROOM);
        assert_eq!(o.sparse_pivot_tol, 1e-3);
        assert_eq!(o.kernel, KernelMode::Symbolic);
        // Bypass must default OFF so the kernel is exact by default.
        assert_eq!(o.bypass_vtol, 0.0);
        // Fault injection and budgets must default inert/unlimited.
        assert!(o.fault.is_empty());
        assert_eq!(o.newton_budget, None);
        assert_eq!(o.step_budget, None);
        // Natural structure is the bit-identity default; worker count
        // for the island fan-out defers to the environment.
        assert_eq!(o.structure, SolverStructure::Natural);
        assert_eq!(o.solver_jobs, None);
    }

    #[test]
    fn escalation_is_cumulative_and_disarms_faults() {
        let mut base = SimOptions {
            max_step: Some(1e-11),
            ..SimOptions::default()
        };
        base.fault = FaultPlan::parse("pivot").unwrap();
        base.structure = SolverStructure::Islands;
        assert_eq!(base.escalated(0), base, "rung 0 is the base attempt");
        let r1 = base.escalated(1);
        assert!(r1.fault.is_empty(), "retries run clean");
        assert_eq!(r1.gmin, base.gmin * 100.0);
        assert_eq!(r1.kernel, KernelMode::Symbolic);
        assert_eq!(
            r1.structure,
            SolverStructure::Islands,
            "rung 1 keeps the structure"
        );
        let r2 = base.escalated(2);
        assert_eq!(r2.gmin, base.gmin * 100.0);
        assert_eq!(r2.kernel, KernelMode::Legacy);
        assert_eq!(
            r2.structure,
            SolverStructure::Natural,
            "rung 2 de-structures"
        );
        assert_eq!(r2.max_step, base.max_step);
        let r3 = base.escalated(3);
        assert_eq!(r3.kernel, KernelMode::Legacy);
        assert_eq!(r3.max_step, Some(1e-11 / 4.0));
        assert_eq!(r3.initial_step, base.initial_step / 4.0);
    }

    #[test]
    fn at_celsius_only_changes_temperature() {
        let o = SimOptions::at_celsius(90.0);
        assert!((o.temperature.as_celsius() - 90.0).abs() < 1e-9);
        assert_eq!(o.reltol, SimOptions::default().reltol);
    }
}
