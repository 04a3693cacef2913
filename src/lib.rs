//! # sstvs — a reproduction of "A Single-supply True Voltage Level Shifter" (DATE 2008)
//!
//! This facade crate re-exports the whole workspace: an analog circuit
//! simulator built from scratch (MNA + Newton–Raphson + adaptive
//! transient), an EKV-style 90 nm MOSFET compact model, the paper's
//! level-shifter cells (the proposed SS-TVS and every baseline it is
//! compared against), and the characterization/Monte-Carlo flows that
//! regenerate each table and figure of the paper.
//!
//! Layer map (bottom-up):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fault`] | `vls-fault` | deterministic fault-injection plans and charge sessions |
//! | [`num`] | `vls-num` | sparse LU for MNA systems, dense LU as its oracle |
//! | [`units`] | `vls-units` | typed volts/amps/seconds/…, temperature |
//! | [`device`] | `vls-device` | MOSFET model, model cards, sources, passives |
//! | [`netlist`] | `vls-netlist` | circuits, subcircuits, SPICE-deck parser |
//! | [`engine`] | `vls-engine` | DC operating point, DC sweep, transient |
//! | [`waveform`] | `vls-waveform` | waveform math: delays, power, leakage |
//! | [`cells`] | `vls-cells` | SS-TVS, combined VS, Khan SS-VS, CVS, primitives |
//! | [`variation`] | `vls-variation` | Monte Carlo process sampling |
//! | [`runner`] | `vls-runner` | sharded parallel execution, seeding, failure-capturing ensembles |
//! | [`check`] | `vls-check` | static ERC: connectivity + voltage-domain rules |
//! | [`flows`] | `vls-core` | the paper's experiments (Tables 1–4, Figures 5/8/9) |
//! | [`charlib`] | `vls-charlib` | Liberty-style tables: interpolated surrogate + exact fallback |
//! | [`opt`] | `vls-opt` | sizing & yield optimization over the charlib surrogate |
//! | [`serve`] | `vls-serve` | query daemon: HTTP/1.1 front end, admission control, metrics |
//! | [`cli`] | `vls-cli` | the `vls-spice` front end as a library: run/check/char/serve |
//!
//! # Quickstart
//!
//! ```
//! use sstvs::cells::{ShifterKind, VoltagePair};
//! use sstvs::flows::{characterize, CharacterizeOptions};
//!
//! # fn main() -> Result<(), sstvs::flows::CoreError> {
//! // Characterize the paper's cell at its headline corner.
//! let metrics = characterize(
//!     &ShifterKind::sstvs(),
//!     VoltagePair::low_to_high(), // 0.8 V -> 1.2 V
//!     &CharacterizeOptions::default(),
//! )?;
//! assert!(metrics.functional);
//! println!("rise delay {} / leakage {}", metrics.delay_rise, metrics.leakage_high);
//! # Ok(())
//! # }
//! ```
//!
//! The runnable entry points live in `examples/` (library tours) and
//! `crates/bench/src/bin/` (one binary per paper table/figure).

pub use vls_cells as cells;
pub use vls_charlib as charlib;
pub use vls_check as check;
pub use vls_cli as cli;
pub use vls_core as flows;
pub use vls_device as device;
pub use vls_engine as engine;
pub use vls_fault as fault;
pub use vls_netlist as netlist;
pub use vls_num as num;
pub use vls_opt as opt;
pub use vls_runner as runner;
pub use vls_serve as serve;
pub use vls_units as units;
pub use vls_variation as variation;
pub use vls_waveform as waveform;
