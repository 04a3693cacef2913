//! Solver instrumentation counters.
//!
//! The Newton kernel counts what it actually did — device and
//! capacitance evaluations, full pivoting factorizations versus
//! numeric-only refactorizations — so a speedup claim is backed by
//! observable work reduction, not just wall time.

/// Counters accumulated by one solve (a DC operating point or a whole
/// transient), mergeable across runs for ensemble-level reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Newton iterations performed (every assembly/solve round).
    pub newton_iters: u64,
    /// Linear systems solved (forward/backward substitutions).
    pub linear_solves: u64,
    /// Full factorizations with pivot search (dense LU or sparse
    /// Gilbert–Peierls with symbolic analysis).
    pub full_factorizations: u64,
    /// Numeric-only sparse refactorizations reusing the frozen pivot
    /// order and symbolic structure.
    pub refactorizations: u64,
    /// Refactorizations whose pivot-health check failed, forcing a
    /// fall back to a full re-pivoting factorization.
    pub refactor_fallbacks: u64,
    /// MOSFET operating-point evaluations performed: one per MOSFET per
    /// Newton iteration, which in a transient also yields its
    /// capacitances.
    pub device_evals: u64,
    /// Always zero: nothing increments it, since the solver no longer
    /// bypasses device evaluations. Its only reader is the `vlsbench`
    /// benchmark; it goes when the benchmark stops reading it (ROADMAP
    /// item 3, step 1).
    pub device_bypasses: u64,
    /// Standalone walks of the MOSFET model for Meyer capacitances,
    /// outside any assembly: one per MOSFET at each transient restart (the DC or UIC start, a resume,
    /// a breakpoint landing). Every other step takes its capacitances
    /// from the previous step's last Newton assembly, whose walks
    /// [`SolverStats::device_evals`] counts. `tests/newton_kernel.rs`
    /// checks the rule on six cells.
    pub cap_evals: u64,
    /// Always zero, like [`SolverStats::device_bypasses`], and kept for
    /// the same reader.
    pub cap_bypasses: u64,
    /// Accepted transient time steps.
    pub tran_steps: u64,
    /// Rejected transient step attempts: LTE rejections (real or
    /// injected) and Newton failures, each retried at a smaller step.
    pub rejected_steps: u64,
    /// Faults injected into this solve by an armed fault plan. Zero in
    /// every production run; a nonzero value marks the counters above
    /// as describing a deliberately perturbed trajectory.
    pub injected_faults: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self` — the ensemble aggregation
    /// primitive.
    pub fn merge(&mut self, other: &SolverStats) {
        self.newton_iters += other.newton_iters;
        self.linear_solves += other.linear_solves;
        self.full_factorizations += other.full_factorizations;
        self.refactorizations += other.refactorizations;
        self.refactor_fallbacks += other.refactor_fallbacks;
        self.device_evals += other.device_evals;
        self.device_bypasses += other.device_bypasses;
        self.cap_evals += other.cap_evals;
        self.cap_bypasses += other.cap_bypasses;
        self.tran_steps += other.tran_steps;
        self.rejected_steps += other.rejected_steps;
        self.injected_faults += other.injected_faults;
    }

    /// `true` when no counter ever ticked (e.g. a report that never
    /// absorbed solver activity).
    pub fn is_empty(&self) -> bool {
        *self == SolverStats::default()
    }

    /// `device_bypasses / (device_evals + device_bypasses)`, so always
    /// zero. Kept for the `vlsbench` benchmark's `device.bypass_frac`
    /// metric, its only reader, like [`SolverStats::device_bypasses`].
    pub fn bypass_rate(&self) -> f64 {
        let total = self.device_evals + self.device_bypasses;
        if total == 0 {
            0.0
        } else {
            self.device_bypasses as f64 / total as f64
        }
    }

    /// One human-readable summary line for the bench drivers.
    pub fn render(&self) -> String {
        let mut line = format!(
            "newton {} iters, {} solves; factorizations {} full / {} refactor ({} fallback); \
             device evals {}; cap evals {}; steps {} accepted / {} rejected",
            self.newton_iters,
            self.linear_solves,
            self.full_factorizations,
            self.refactorizations,
            self.refactor_fallbacks,
            self.device_evals,
            self.cap_evals,
            self.tran_steps,
            self.rejected_steps,
        );
        if self.injected_faults > 0 {
            line.push_str(&format!("; {} injected faults", self.injected_faults));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter() {
        let mut a = SolverStats {
            newton_iters: 1,
            linear_solves: 2,
            full_factorizations: 3,
            refactorizations: 4,
            refactor_fallbacks: 5,
            device_evals: 6,
            device_bypasses: 7,
            cap_evals: 8,
            cap_bypasses: 9,
            tran_steps: 11,
            rejected_steps: 12,
            injected_faults: 10,
        };
        a.merge(&a.clone());
        assert_eq!(a.newton_iters, 2);
        assert_eq!(a.cap_bypasses, 18);
        assert_eq!(a.tran_steps, 22);
        assert_eq!(a.rejected_steps, 24);
        assert_eq!(a.injected_faults, 20);
        assert!(a.render().contains("20 injected faults"));
        assert!(a.render().contains("steps 22 accepted / 24 rejected"));
        assert!(!a.is_empty());
        assert!(SolverStats::default().is_empty());
    }

    #[test]
    fn bypass_rate_is_well_defined_at_zero() {
        let s = SolverStats::default();
        assert_eq!(s.bypass_rate(), 0.0);
        let t = SolverStats {
            device_evals: 1,
            device_bypasses: 3,
            ..SolverStats::default()
        };
        assert!((t.bypass_rate() - 0.75).abs() < 1e-15);
        assert!(!t.render().contains("bypass"));
    }
}
