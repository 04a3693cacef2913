//! Simulation tolerances and controls.

use vls_check::CheckLevel;
use vls_fault::FaultPlan;
use vls_units::Temperature;

/// The order in which the sparse linear system is factorized. Only the
/// sparse path honors this; dense circuits (at or below
/// [`SimOptions::sparse_threshold`]) have no order to choose. Every
/// retry rung ([`SimOptions::escalated`]) keeps the caller's order.
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
    /// Transient local-truncation-error tolerance, V. Each step's
    /// predictor–corrector gap at every node is measured against this
    /// plus `reltol` of the node's voltage. The controller sizes the
    /// next step to bring the worst ratio near 1 and rejects a step only
    /// when that ratio exceeds 16, so this is a target, not a bound:
    /// an accepted step may exceed it up to 16-fold.
    pub lte_tol: f64,
    /// Unknown count above which the sparse solver is used.
    pub sparse_threshold: usize,
    /// Diagonal-preference pivot tolerance for the sparse LU: the
    /// diagonal is kept as pivot while its magnitude is at least this
    /// fraction of the column maximum. Also the pivot-health threshold
    /// guarding numeric-only refactorization. SPICE's classic value by
    /// default; `1.0` is strict partial pivoting (retry rung 2).
    pub sparse_pivot_tol: f64,
    /// Device-bypass voltage tolerance, V: a MOSFET (or its Meyer
    /// capacitances) is not re-evaluated while every terminal voltage
    /// stays within this of the cached evaluation. `0.0` (the default)
    /// disables bypassing, so every Newton iteration evaluates every
    /// device; small positive values (≈1e-6) trade exactness within
    /// `reltol` for fewer evaluations on waveform plateaus.
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
    /// Sparse factorization order: natural (the default, bit-identical
    /// to prior behavior) or fill-reducing minimum-degree. The dense
    /// path ignores it.
    pub structure: SolverStructure,
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
            bypass_vtol: 0.0,
            check: CheckLevel::Off,
            fault: FaultPlan::none(),
            newton_budget: None,
            step_budget: None,
            structure: SolverStructure::default(),
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
    /// * rung 2 — additionally strict partial pivoting
    ///   (`sparse_pivot_tol = 1.0`) with bypassing off, in the caller's
    ///   sparse order. A frozen pivot that is no longer its column's
    ///   largest candidate fails the refactorization health check, so
    ///   the sparse path factorizes as a fresh strict-pivoting
    ///   factorization would, and no linearization is replayed from a
    ///   cache. The dense path already pivots strictly, so on a circuit
    ///   of at most [`SimOptions::sparse_threshold`] unknowns with
    ///   bypass off this rung repeats rung 1;
    /// * rung 3+ — additionally quarters the LTE tolerance and the
    ///   initial transient step, and the maximum step when one is set
    ///   (LTE headroom on every stepper path, whatever `max_step` a
    ///   caller picks).
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
            o.sparse_pivot_tol = 1.0;
            o.bypass_vtol = 0.0;
        }
        if rung >= 3 {
            o.lte_tol = self.lte_tol / 4.0;
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
        // Bypass must default OFF so the kernel is exact by default.
        assert_eq!(o.bypass_vtol, 0.0);
        // Fault injection and budgets must default inert/unlimited.
        assert!(o.fault.is_empty());
        assert_eq!(o.newton_budget, None);
        assert_eq!(o.step_budget, None);
        // Natural structure is the bit-identity default.
        assert_eq!(o.structure, SolverStructure::Natural);
    }

    #[test]
    fn escalation_is_cumulative_and_disarms_faults() {
        let mut base = SimOptions {
            max_step: Some(1e-11),
            ..SimOptions::default()
        };
        base.fault = FaultPlan::parse("pivot").unwrap();
        base.structure = SolverStructure::Ordered;
        assert_eq!(base.escalated(0), base, "rung 0 is the base attempt");
        let r1 = base.escalated(1);
        assert!(r1.fault.is_empty(), "retries run clean");
        assert_eq!(r1.gmin, base.gmin * 100.0);
        assert_eq!(r1.sparse_pivot_tol, base.sparse_pivot_tol);
        assert_eq!(
            r1.structure,
            SolverStructure::Ordered,
            "rung 1 keeps the structure"
        );
        let r2 = base.escalated(2);
        assert_eq!(r2.gmin, base.gmin * 100.0);
        assert_eq!(r2.sparse_pivot_tol, 1.0, "rung 2 pivots strictly");
        assert_eq!(
            r2.structure,
            SolverStructure::Ordered,
            "rung 2 keeps the structure"
        );
        assert_eq!(r2.max_step, base.max_step);
        assert_eq!(r2.lte_tol, base.lte_tol);
        let r3 = base.escalated(3);
        assert_eq!(r3.sparse_pivot_tol, 1.0);
        assert_eq!(r3.max_step, Some(1e-11 / 4.0));
        assert_eq!(r3.initial_step, base.initial_step / 4.0);
    }

    #[test]
    fn rung_three_tightens_the_steps_of_a_default_transient() {
        // The default leaves `max_step` unset (the stepper derives
        // `tstop / 50`), so rung 3's LTE headroom must come from the
        // tolerance every stepper path reads.
        let base = SimOptions::default();
        assert_eq!(base.max_step, None);
        let r3 = base.escalated(3);
        assert_eq!(r3.lte_tol, base.lte_tol / 4.0);
        assert_eq!(r3.max_step, None);
        assert_eq!(r3.initial_step, base.initial_step / 4.0);
    }

    #[test]
    fn at_celsius_only_changes_temperature() {
        let o = SimOptions::at_celsius(90.0);
        assert!((o.temperature.as_celsius() - 90.0).abs() < 1e-9);
        assert_eq!(o.reltol, SimOptions::default().reltol);
    }
}
