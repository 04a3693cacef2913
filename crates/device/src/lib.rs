//! Compact device models for the level-shifter reproduction.
//!
//! This crate is the stand-in for the 90 nm PTM BSIM4 model cards the
//! paper simulated with: an EKV-style MOSFET compact model that is
//! continuous from deep subthreshold (the leakage regime every claim in
//! the paper depends on) through strong inversion, plus the linear
//! passives and independent sources a SPICE-class engine needs.
//!
//! The headline parameters mirror the paper's text: nominal
//! `VT = 0.39 V` (NMOS) / `−0.35 V` (PMOS), high-VT `0.49 / −0.44 V`,
//! and the low-VT NMOS (`0.19 V`) used for device M8 of the SS-TVS.
//!
//! # Example: leakage ratio of high-VT vs nominal devices
//!
//! ```
//! use vls_device::{MosModel, MosGeometry};
//!
//! let nom = MosModel::ptm90_nmos();
//! let hvt = MosModel::ptm90_nmos_hvt();
//! let geom = MosGeometry::new(1.0e-6, 0.1e-6);
//! // Off-state leakage at vgs = 0, vds = 1.2 V:
//! let i_nom = nom.ids(&geom, 0.0, 1.2, 0.0, 300.15);
//! let i_hvt = hvt.ids(&geom, 0.0, 1.2, 0.0, 300.15);
//! assert!(i_nom > 5.0 * i_hvt, "high-VT must leak much less");
//! ```

mod mosfet;
mod passive;
mod source;

pub use mosfet::{BoundMos, MosBias, MosCaps, MosGeometry, MosModel, MosOp, MosPolarity, MosStamp};
pub use passive::{Capacitor, Resistor};
pub use source::SourceWaveform;
