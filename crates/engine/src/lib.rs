//! MNA-based analog simulation engine.
//!
//! This crate is the workspace's stand-in for SPICE's numerical core:
//!
//! * [`solve_dc`] — Newton–Raphson operating point with automatic
//!   gmin-stepping and source-stepping homotopies when plain Newton
//!   fails (floating dynamic nodes, bistable cells, …);
//! * [`run_transient`] — trapezoidal/backward-Euler transient with
//!   local-truncation-error step control and breakpoint handling, the
//!   analysis every delay/power number in the paper comes from;
//!   [`run_transient_from`] resumes one from a stored state;
//! * [`dc_sweep`] — repeated operating points over a swept source.
//!
//! The circuits this workspace characterizes have a few dozen unknowns,
//! so the engine uses the dense LU from [`vls_num`] by default and the
//! sparse Gilbert–Peierls factorization above a size threshold.
//!
//! # Example: resistive divider
//!
//! ```
//! use vls_netlist::Circuit;
//! use vls_device::SourceWaveform;
//! use vls_engine::{solve_dc, SimOptions};
//!
//! # fn main() -> Result<(), vls_engine::EngineError> {
//! let mut ckt = Circuit::new();
//! let top = ckt.node("top");
//! let mid = ckt.node("mid");
//! ckt.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(2.0));
//! ckt.add_resistor("r1", top, mid, 1000.0);
//! ckt.add_resistor("r2", mid, Circuit::GROUND, 1000.0);
//! let sol = solve_dc(&ckt, &SimOptions::default())?;
//! assert!((sol.voltage(mid) - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod ac;
mod dc;
mod kernel;
mod mna;
mod op_report;
mod options;
mod sweep;
mod tran;

pub use ac::{log_space, run_ac, AcResult};
pub use dc::{solve_dc, solve_dc_warm, DcSolution, DcSolveStats};
pub use mna::unknown_count;
pub use op_report::{op_report, MosRegion, OpEntry, OpReport};
pub use options::{SimOptions, SolverStructure};
pub use sweep::{dc_sweep, dc_sweep_with_stats, DcSweepPoint, SweepStats};
pub use tran::{run_transient, run_transient_from, run_transient_uic, TransientResult};
pub use vls_check::CheckLevel;
pub use vls_fault::{FaultPlan, FaultSession, FaultSite, FaultSpec, LadderStage};
pub use vls_num::SolverStats;

/// Structural validation plus (when [`SimOptions::check`] asks for it)
/// the `vls-check` electrical-rule pass. Every analysis entry point
/// funnels through here before touching the MNA matrix, so a
/// structurally broken circuit fails with named nodes and rule codes
/// instead of a numerical error deep inside a solve.
pub(crate) fn preflight(
    circuit: &vls_netlist::Circuit,
    options: &SimOptions,
) -> Result<(), EngineError> {
    circuit
        .validate()
        .map_err(|e| EngineError::BadNetlist(e.to_string()))?;
    if !matches!(options.check, CheckLevel::Off) {
        let report =
            vls_check::run_check(circuit, &vls_check::CheckOptions::at_level(options.check));
        if report.has_errors() {
            return Err(EngineError::BadNetlist(report.error_summary()));
        }
    }
    Ok(())
}

/// Errors produced by the analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Newton iteration failed to converge even with homotopy fallbacks.
    NoConvergence {
        /// Which analysis stage failed.
        context: String,
    },
    /// The MNA matrix was singular and gmin could not regularize it.
    Singular {
        /// Which analysis stage failed.
        context: String,
    },
    /// Transient step control underflowed the minimum step size.
    StepUnderflow {
        /// Simulation time at which the step collapsed.
        time: f64,
    },
    /// The netlist failed validation before simulation.
    BadNetlist(String),
    /// A per-trial work budget (Newton iterations or transient step
    /// attempts) was exhausted — the deterministic analogue of a
    /// wall-clock timeout.
    BudgetExhausted {
        /// Which analysis stage hit the ceiling.
        context: String,
        /// Work units spent when the ceiling was crossed.
        spent: u64,
        /// The configured ceiling.
        budget: u64,
    },
}

impl EngineError {
    /// A stable machine-readable class token for failure taxonomies
    /// (`no_convergence`, `singular`, `step_underflow`, `bad_netlist`,
    /// `budget_exhausted`).
    pub fn failure_class(&self) -> &'static str {
        match self {
            EngineError::NoConvergence { .. } => "no_convergence",
            EngineError::Singular { .. } => "singular",
            EngineError::StepUnderflow { .. } => "step_underflow",
            EngineError::BadNetlist(_) => "bad_netlist",
            EngineError::BudgetExhausted { .. } => "budget_exhausted",
        }
    }
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::NoConvergence { context } => {
                write!(f, "newton iteration failed to converge ({context})")
            }
            EngineError::Singular { context } => {
                write!(f, "singular MNA system ({context})")
            }
            EngineError::StepUnderflow { time } => {
                write!(f, "transient step size underflow at t = {time:.3e} s")
            }
            EngineError::BadNetlist(msg) => write!(f, "bad netlist: {msg}"),
            EngineError::BudgetExhausted {
                context,
                spent,
                budget,
            } => {
                write!(f, "work budget exhausted ({context}): {spent} of {budget}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
