//! The reproduction flows for "A Single-supply True Voltage Level
//! Shifter" (DATE 2008).
//!
//! This crate ties the substrate crates together into the paper's
//! experiments:
//!
//! * [`characterize`] — the measurement protocol of Section 4: drive a
//!   shifter with the standard two-cycle stimulus, extract rise/fall
//!   delay, rise/fall switching power, and steady-state leakage for
//!   the output-high and output-low states;
//! * [`experiments`] — one runner per table and figure: Tables 1–2
//!   (head-to-head vs the combined VS), Tables 3–4 (1000-run Monte
//!   Carlo), Figure 5 (timing diagram), Figures 8–9 (delay surfaces
//!   over the VDDI × VDDO plane), plus the robustness sweep and the
//!   layout-area check described in the text.
//!
//! # Example
//!
//! ```no_run
//! use vls_core::{characterize, CharacterizeOptions};
//! use vls_cells::{ShifterKind, VoltagePair};
//!
//! # fn main() -> Result<(), vls_core::CoreError> {
//! let metrics = characterize(
//!     &ShifterKind::sstvs(),
//!     VoltagePair::low_to_high(),
//!     &CharacterizeOptions::default(),
//! )?;
//! println!("rise delay: {}", metrics.delay_rise);
//! println!("leakage (output high): {}", metrics.leakage_high);
//! # Ok(())
//! # }
//! ```

mod characterize;
pub mod experiments;
mod meas;
mod report;

pub use characterize::{
    characterize, characterize_with, characterize_with_stats, characterize_worst_case, CellMetrics,
    CharacterizeOptions,
};
pub use meas::{evaluate_all_meas, evaluate_meas, node_waveform};
pub use report::{format_comparison_table, format_mc_table};

use vls_engine::EngineError;

/// Errors from the characterization flows.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The underlying simulation failed.
    Engine(EngineError),
    /// An expected output edge never occurred — the cell did not
    /// translate the level.
    MissingEdge(String),
    /// The output failed to reach the correct logic levels.
    NotFunctional(String),
    /// The leakage window had not settled; the extracted current would
    /// be meaningless.
    NotSettled(String),
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "simulation failed: {e}"),
            CoreError::MissingEdge(msg) => write!(f, "missing output edge: {msg}"),
            CoreError::NotFunctional(msg) => write!(f, "cell not functional: {msg}"),
            CoreError::NotSettled(msg) => write!(f, "leakage window not settled: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}
