//! EKV-style MOSFET compact model.
//!
//! The model interpolates continuously between deep subthreshold and
//! strong inversion using the EKV normalized-current function
//! `F(x) = ln²(1 + e^{x/2})`:
//!
//! ```text
//! I_DS = 2·n·β·φt² · (F((V_P−V_S)/φt) − F((V_P−V_D)/φt)) · (1 + λ·V_DS)
//! ```
//!
//! with pinch-off voltage `V_P = (V_GS − V_T)/n`. Deep below threshold
//! this reduces to the exponential subthreshold law with slope `n·φt`
//! (the regime all the paper's leakage numbers live in); far above
//! threshold it reduces to the square law with mobility degradation
//! `β/(1+θ·V_ov)` standing in for velocity saturation. V_T carries body
//! effect, DIBL and a linear temperature coefficient.
//!
//! Derivatives for the Newton iteration come from the analytic chain
//! rule through the same expressions that compute the current
//! ([`MosModel::op`]), so the stamped current is bitwise the terminal
//! current and each softplus shares one exponential with its sigmoid.
//! Central differences survive only as the test oracle.
//!
//! An analysis binds each card to its instance's geometry and the
//! analysis temperature once ([`MosModel::bind`]), which computes every
//! bias-independent term, and evaluates the [`BoundMos`] at every bias.
//!
//! Capacitances follow a smoothed Meyer partition of the intrinsic gate
//! capacitance plus constant overlap and junction terms. Like SPICE2's
//! Meyer model this is not exactly charge-conserving; the transient
//! engine's step control keeps the resulting error well below the delay
//! and power resolutions reported in EXPERIMENTS.md.
//!
//! [`BoundMos::op_caps`] returns the operating point and the
//! capacitances from one model walk; its operating point is bitwise
//! [`BoundMos::op`] (unit test `op_caps_is_op_bitwise`), and
//! [`BoundMos::caps`] is its capacitance half. The transient engine
//! stamps through `op_caps`, so every transient Newton iteration walks
//! each MOSFET once; it calls `caps` only when the stepper restarts.

use vls_units::{BOLTZMANN, ELECTRON_CHARGE};

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Drawn geometry of a MOSFET instance, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosGeometry {
    width: f64,
    length: f64,
}

impl MosGeometry {
    /// Creates a geometry from width and length in meters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    pub fn new(width: f64, length: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite() && length > 0.0 && length.is_finite(),
            "invalid MOS geometry: W={width}, L={length}"
        );
        Self { width, length }
    }

    /// Creates a geometry from width and length in micrometers — the
    /// unit the paper's schematic annotations use.
    pub fn from_microns(width_um: f64, length_um: f64) -> Self {
        Self::new(width_um * 1e-6, length_um * 1e-6)
    }

    /// Channel width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Channel length in meters.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Returns a copy scaled by multiplicative factors — the Monte Carlo
    /// sampler's entry point for geometry variation.
    ///
    /// # Panics
    ///
    /// Panics if a factor would produce a non-positive dimension.
    pub fn perturbed(&self, width_factor: f64, length_factor: f64) -> Self {
        Self::new(self.width * width_factor, self.length * length_factor)
    }
}

/// Small-signal operating point of a MOSFET: large-signal current plus
/// the conductances the Newton iteration stamps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOp {
    /// Current entering the drain terminal, in amperes.
    pub id: f64,
    /// `∂I_D/∂V_G`.
    pub gm: f64,
    /// `∂I_D/∂V_D`.
    pub gds: f64,
    /// `∂I_D/∂V_B`.
    pub gmb: f64,
}

/// Meyer-style capacitances of a MOSFET at an operating point, in farads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosCaps {
    /// Gate–source capacitance (intrinsic share + overlap).
    pub cgs: f64,
    /// Gate–drain capacitance (intrinsic share + overlap).
    pub cgd: f64,
    /// Gate–bulk capacitance.
    pub cgb: f64,
    /// Drain–bulk junction capacitance.
    pub cdb: f64,
    /// Source–bulk junction capacitance.
    pub csb: f64,
}

/// A MOSFET model card.
///
/// All threshold-like parameters are stored as magnitudes; `polarity`
/// selects the sign convention. Fields are public because a model card
/// is a plain data structure the Monte Carlo sampler perturbs directly.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage magnitude, V.
    pub vt0: f64,
    /// Body-effect coefficient, V^0.5.
    pub gamma: f64,
    /// Surface potential `2φ_F`, V.
    pub phi: f64,
    /// Subthreshold slope factor (dimensionless, ≥ 1).
    pub n: f64,
    /// Process transconductance `µ·C_ox`, A/V².
    pub kp: f64,
    /// Vertical-field mobility degradation, 1/V.
    pub theta: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// DIBL coefficient at the reference length:
    /// `ΔV_T = −dibl · (dibl_lref/L)² · V_DS`. The quadratic length
    /// roll-off models why long-channel devices make good leakage
    /// suppressors.
    pub dibl: f64,
    /// Reference channel length for the DIBL roll-off, m.
    pub dibl_lref: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate–drain overlap capacitance per meter of width, F/m.
    pub cgdo: f64,
    /// Gate–source overlap capacitance per meter of width, F/m.
    pub cgso: f64,
    /// Lumped source/drain junction capacitance per meter of width, F/m.
    pub cj: f64,
    /// Threshold temperature coefficient, V/K (V_T decreases with T).
    pub vt_tc: f64,
    /// Mobility temperature exponent (`µ ∝ (T/T_nom)^mu_exp`).
    pub mu_exp: f64,
    /// Nominal temperature, K.
    pub tnom: f64,
}

/// Overflow-safe softplus `ln(1 + e^x)`.
pub(crate) fn softplus(x: f64) -> f64 {
    if x > 40.0 {
        x
    } else if x < -40.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// [`softplus`] and its derivative `σ(x) = e^x / (1 + e^x)` from one
/// shared exponential, branch-for-branch consistent with `softplus` so
/// the value is bitwise `softplus(x)` (the saturated branches have
/// derivatives 1 and `e^x` respectively).
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    if x > 40.0 {
        (x, 1.0)
    } else if x < -40.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

/// The EKV interpolation function `F(x) = ln²(1 + e^{x/2})`.
pub(crate) fn ekv_f(x: f64) -> f64 {
    let s = softplus(x / 2.0);
    s * s
}

impl MosModel {
    // ---- PTM-90-like parameter cards -------------------------------
    //
    // Headline values taken from the paper's text (thresholds) and
    // public PTM 90 nm documentation (oxide, drive-current class);
    // everything else calibrated so that a W=1 µm / L=0.1 µm NMOS
    // delivers ≈ 0.7 mA on-current and ≈ 1–2 nA off-current at 1.2 V,
    // 27 °C — the operating class the paper's numbers imply.

    /// Nominal-VT 90 nm NMOS (`V_T = 0.39 V`).
    pub fn ptm90_nmos() -> Self {
        Self {
            polarity: MosPolarity::Nmos,
            vt0: 0.39,
            gamma: 0.20,
            phi: 0.85,
            n: 1.30,
            kp: 5.0e-4,
            theta: 1.10,
            lambda: 0.15,
            dibl: 0.08,
            dibl_lref: 0.1e-6,
            cox: 1.70e-2,
            cgdo: 2.5e-10,
            cgso: 2.5e-10,
            cj: 8.0e-10,
            vt_tc: 8.0e-4,
            mu_exp: -1.5,
            tnom: 300.15,
        }
    }

    /// High-VT 90 nm NMOS (`V_T = 0.49 V`) — devices M4 and M6 of the
    /// SS-TVS.
    pub fn ptm90_nmos_hvt() -> Self {
        Self {
            vt0: 0.49,
            ..Self::ptm90_nmos()
        }
    }

    /// Low-VT 90 nm NMOS (`V_T = 0.19 V`) — device M8 of the SS-TVS,
    /// chosen so the `ctrl` node can charge to a sufficiently large
    /// voltage when `VDDI ≈ VDDO`.
    pub fn ptm90_nmos_lvt() -> Self {
        Self {
            vt0: 0.19,
            ..Self::ptm90_nmos()
        }
    }

    /// Nominal-VT 90 nm PMOS (`V_T = −0.35 V`).
    pub fn ptm90_pmos() -> Self {
        Self {
            polarity: MosPolarity::Pmos,
            vt0: 0.35,
            gamma: 0.20,
            phi: 0.85,
            n: 1.35,
            kp: 2.1e-4,
            theta: 1.00,
            lambda: 0.18,
            dibl: 0.08,
            dibl_lref: 0.1e-6,
            cox: 1.70e-2,
            cgdo: 2.5e-10,
            cgso: 2.5e-10,
            cj: 8.0e-10,
            vt_tc: 8.0e-4,
            mu_exp: -1.5,
            tnom: 300.15,
        }
    }

    /// High-VT 90 nm PMOS (`V_T = −0.44 V`).
    pub fn ptm90_pmos_hvt() -> Self {
        Self {
            vt0: 0.44,
            ..Self::ptm90_pmos()
        }
    }

    /// Returns a copy with the threshold magnitude replaced — the Monte
    /// Carlo sampler's entry point for V_T variation.
    ///
    /// # Panics
    ///
    /// Panics if `vt0` is not finite.
    pub fn with_vt0(&self, vt0: f64) -> Self {
        assert!(vt0.is_finite(), "vt0 must be finite");
        Self {
            vt0,
            ..self.clone()
        }
    }

    /// Checks the card for physical sanity. The deck parser runs this
    /// on every `.model` after applying overrides, so a typo like
    /// `kp=-4e-4` is rejected at parse time instead of producing a
    /// silently broken simulation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first out-of-range
    /// parameter.
    pub fn validate(&self) -> Result<(), String> {
        let positive: [(&str, f64); 6] = [
            ("vt0", self.vt0),
            ("kp", self.kp),
            ("phi", self.phi),
            ("cox", self.cox),
            ("dibl_lref", self.dibl_lref),
            ("tnom", self.tnom),
        ];
        for (name, v) in positive {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("model parameter {name} must be positive, got {v}"));
            }
        }
        let non_negative: [(&str, f64); 7] = [
            ("gamma", self.gamma),
            ("theta", self.theta),
            ("lambda", self.lambda),
            ("dibl", self.dibl),
            ("cgdo", self.cgdo),
            ("cgso", self.cgso),
            ("cj", self.cj),
        ];
        for (name, v) in non_negative {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("model parameter {name} must be >= 0, got {v}"));
            }
        }
        if !(self.n >= 1.0 && self.n < 3.0) {
            return Err(format!(
                "subthreshold slope factor n must be in [1, 3), got {}",
                self.n
            ));
        }
        if self.vt0 > 2.0 {
            return Err(format!("vt0 = {} V is implausibly large", self.vt0));
        }
        Ok(())
    }

    // ---- physics ----------------------------------------------------

    /// Effective threshold (magnitude) including body effect,
    /// length-dependent DIBL and temperature, for source-referenced
    /// canonical voltages.
    fn vt_eff(&self, geom: &MosGeometry, vsb: f64, vds: f64, temp_k: f64) -> f64 {
        let body = self.gamma * ((self.phi + vsb).max(1e-3).sqrt() - self.phi.sqrt());
        let lr = self.dibl_lref / geom.length;
        let dibl_eff = self.dibl * lr * lr;
        self.vt0 - self.vt_tc * (temp_k - self.tnom) + body - dibl_eff * vds
    }

    /// Canonical drain current for `vds ≥ 0`, NMOS sign convention.
    fn ids_canonical(&self, geom: &MosGeometry, vgs: f64, vds: f64, vsb: f64, temp_k: f64) -> f64 {
        debug_assert!(vds >= 0.0);
        let phi_t = BOLTZMANN * temp_k / ELECTRON_CHARGE;
        let vt = self.vt_eff(geom, vsb, vds, temp_k);
        let vp = (vgs - vt) / self.n;
        // Smooth overdrive: ≈ vgs − vt above threshold, → 0 below.
        let vov = self.n * phi_t * softplus(vp / phi_t);
        let kp_t = self.kp * (temp_k / self.tnom).powf(self.mu_exp);
        let beta = kp_t * (geom.width / geom.length) / (1.0 + self.theta * vov);
        let i0 = 2.0 * self.n * beta * phi_t * phi_t;
        let fwd = ekv_f(vp / phi_t);
        let rev = ekv_f((vp - vds) / phi_t);
        i0 * (fwd - rev) * (1.0 + self.lambda * vds)
    }

    /// Drain current in the polarity-natural frame: for NMOS pass
    /// `vgs/vds/vsb` as-is; for PMOS pass the *signed* values (negative
    /// when the device is on). Returns the current entering the drain.
    ///
    /// Handles `vds` of either sign via the model's source–drain
    /// symmetry.
    pub fn ids(&self, geom: &MosGeometry, vgs: f64, vds: f64, vsb: f64, temp_k: f64) -> f64 {
        match self.polarity {
            MosPolarity::Nmos => self.ids_oriented(geom, vgs, vds, vsb, temp_k),
            MosPolarity::Pmos => -self.ids_oriented(geom, -vgs, -vds, -vsb, temp_k),
        }
    }

    /// NMOS-frame current with drain/source swap for negative `vds`.
    fn ids_oriented(&self, geom: &MosGeometry, vgs: f64, vds: f64, vsb: f64, temp_k: f64) -> f64 {
        if vds >= 0.0 {
            self.ids_canonical(geom, vgs, vds, vsb, temp_k)
        } else {
            // Swap drain and source: vgd = vgs − vds, vdb = vsb + vds.
            -self.ids_canonical(geom, vgs - vds, -vds, vsb + vds, temp_k)
        }
    }

    /// Drain current from absolute terminal voltages (gate, drain,
    /// source, bulk). This is what the simulation engine calls.
    pub fn ids_terminal(
        &self,
        geom: &MosGeometry,
        vg: f64,
        vd: f64,
        vs: f64,
        vb: f64,
        temp_k: f64,
    ) -> f64 {
        self.ids(geom, vg - vs, vd - vs, vs - vb, temp_k)
    }

    /// Binds the card to one instance's geometry and temperature: every
    /// term of the model that depends on no terminal voltage, computed
    /// once. An analysis binds each MOSFET when it starts and evaluates
    /// the bound device at every bias; [`Self::op`] and [`Self::caps`]
    /// bind on every call.
    pub fn bind(&self, geom: &MosGeometry, temp_k: f64) -> BoundMos {
        let phi_t = BOLTZMANN * temp_k / ELECTRON_CHARGE;
        let lr = self.dibl_lref / geom.length;
        let dibl_eff = self.dibl * lr * lr;
        let kp_t = self.kp * (temp_k / self.tnom).powf(self.mu_exp);
        BoundMos {
            sign: match self.polarity {
                MosPolarity::Nmos => 1.0,
                MosPolarity::Pmos => -1.0,
            },
            vt_t: self.vt0 - self.vt_tc * (temp_k - self.tnom),
            gamma: self.gamma,
            phi: self.phi,
            sqrt_phi: self.phi.sqrt(),
            dibl_eff,
            n: self.n,
            inv_n: 1.0 / self.n,
            dibl_n: dibl_eff / self.n,
            two_n: 2.0 * self.n,
            theta: self.theta,
            lambda: self.lambda,
            phi_t,
            n_phi_t: self.n * phi_t,
            two_phi_t: 2.0 * phi_t,
            kp_wl: kp_t * (geom.width / geom.length),
            cox_total: self.cox * geom.width * geom.length,
            ov_gd: self.cgdo * geom.width,
            ov_gs: self.cgso * geom.width,
            cj: self.cj * geom.width,
        }
    }

    /// Operating point: current plus conductances for the Newton
    /// iteration, from absolute terminal voltages. The current is
    /// bitwise [`Self::ids_terminal`]; the conductances are the analytic
    /// partial derivatives of that same expression. Binds the card on
    /// every call; see [`BoundMos::op`].
    pub fn op(&self, geom: &MosGeometry, vg: f64, vd: f64, vs: f64, vb: f64, temp_k: f64) -> MosOp {
        self.bind(geom, temp_k).op(vg, vd, vs, vb)
    }

    /// An alias of [`Self::op`], which is analytic too. Its only reader
    /// is the `vlsbench` device probe; it goes when the benchmark stops
    /// calling it (ROADMAP item 3, step 1).
    pub fn op_analytic(
        &self,
        geom: &MosGeometry,
        vg: f64,
        vd: f64,
        vs: f64,
        vb: f64,
        temp_k: f64,
    ) -> MosOp {
        self.op(geom, vg, vd, vs, vb, temp_k)
    }

    /// Meyer-style capacitances at an operating point, from absolute
    /// terminal voltages. Binds the card on every call; see
    /// [`BoundMos::caps`].
    pub fn caps(
        &self,
        geom: &MosGeometry,
        vg: f64,
        vd: f64,
        vs: f64,
        vb: f64,
        temp_k: f64,
    ) -> MosCaps {
        self.bind(geom, temp_k).caps(vg, vd, vs, vb)
    }
}

/// A MOSFET card bound to one instance's geometry and temperature by
/// [`MosModel::bind`]: the bias-independent terms of the model, each
/// computed by the same operations the per-bias expressions used, so a
/// bound evaluation is bitwise the unbound one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundMos {
    /// `+1` for NMOS, `−1` for PMOS: maps terminal voltages into the
    /// NMOS frame and the frame current back.
    sign: f64,
    /// Zero-bias threshold at temperature, `vt0 − vt_tc·(T − Tnom)`.
    vt_t: f64,
    gamma: f64,
    phi: f64,
    /// `√φ`.
    sqrt_phi: f64,
    /// DIBL coefficient at this length, `dibl·(dibl_lref/L)²`.
    dibl_eff: f64,
    n: f64,
    /// `1/n = ∂V_P/∂V_GS`.
    inv_n: f64,
    /// `dibl_eff/n = ∂V_P/∂V_DS`.
    dibl_n: f64,
    /// `2·n`.
    two_n: f64,
    theta: f64,
    lambda: f64,
    /// Thermal voltage `kT/q`.
    phi_t: f64,
    /// `n·φt`.
    n_phi_t: f64,
    /// `2·φt`.
    two_phi_t: f64,
    /// `kp·(T/Tnom)^μ·(W/L)`.
    kp_wl: f64,
    /// Intrinsic gate capacitance `Cox·W·L`.
    cox_total: f64,
    /// Gate–drain overlap capacitance.
    ov_gd: f64,
    /// Gate–source overlap capacitance.
    ov_gs: f64,
    /// Junction capacitance of each of drain and source.
    cj: f64,
}

impl BoundMos {
    /// Operating point from absolute terminal voltages: the current
    /// entering the drain and its analytic partial derivatives (one
    /// model walk, 3 `exp` + 3 `ln_1p`). The current is bitwise
    /// [`MosModel::ids_terminal`] of the bound card, geometry and
    /// temperature.
    pub fn op(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> MosOp {
        self.walk(vg, vd, vs, vb).0
    }

    /// [`Self::op`] and the Meyer-style capacitances from one model
    /// walk: the capacitances reuse the walk's threshold, pinch-off
    /// voltage and smoothed overdrive, and the operating point is bitwise
    /// [`Self::op`] (unit test `op_caps_is_op_bitwise`). The transient
    /// engine stamps through this.
    pub fn op_caps(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> (MosOp, MosCaps) {
        let (op, vds, vov, swapped) = self.walk(vg, vd, vs, vb);
        // Inversion factor: 0 deep below threshold, → 1 in strong inversion.
        let inv = vov / (vov + self.two_phi_t);
        // Saturation factor: 0 in triode (vds ≈ 0), → 1 deep in saturation.
        let sat = vds / (vds + vov + self.phi_t);
        // Meyer partition: triode ½/½, saturation ⅔/0, smooth in between.
        let cgs_i = self.cox_total * inv * (0.5 + sat / 6.0);
        let cgd_i = self.cox_total * inv * 0.5 * (1.0 - sat);
        let cgb_i = self.cox_total * (1.0 - inv) * 0.7;

        let (mut cgs, mut cgd) = (cgs_i + self.ov_gs, cgd_i + self.ov_gd);
        if swapped {
            core::mem::swap(&mut cgs, &mut cgd);
        }
        let caps = MosCaps {
            cgs,
            cgd,
            cgb: cgb_i,
            cdb: self.cj,
            csb: self.cj,
        };
        (op, caps)
    }

    /// Meyer-style capacitances at an operating point, from absolute
    /// terminal voltages: the capacitance half of [`Self::op_caps`].
    pub fn caps(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> MosCaps {
        self.op_caps(vg, vd, vs, vb).1
    }

    /// One model walk: the operating point, then the channel as the
    /// Meyer partition reads it in the NMOS frame after any drain/source
    /// swap (the drain–source voltage, `≥ 0`, the smoothed overdrive
    /// `n·φt·softplus(V_P/φt)`, and whether the swap was made).
    #[inline]
    fn walk(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> (MosOp, f64, f64, bool) {
        // NMOS frame. For PMOS every argument and the current are
        // negated, so the partial-derivative signs cancel.
        let vgs = self.sign * (vg - vs);
        let vds = self.sign * (vd - vs);
        let vsb = self.sign * (vs - vb);
        let swapped = vds < 0.0;
        let (id, di_dvgs, di_dvds, di_dvsb, vov) = if !swapped {
            self.canonical(vgs, vds, vsb)
        } else {
            // Drain/source swap: with canonical partials (c1, c2, c3)
            // at (vgs−vds, −vds, vsb+vds) and the negated current, the
            // chain rule gives (−c1, c1+c2−c3, −c3).
            let (i, c1, c2, c3, vov) = self.canonical(vgs - vds, -vds, vsb + vds);
            (-i, -c1, c1 + c2 - c3, -c3, vov)
        };
        // Terminal map: vgs = vg−vs, vds = vd−vs, vsb = vs−vb, so
        // gm = ∂/∂vgs, gds = ∂/∂vds, gmb = ∂/∂vb = −∂/∂vsb.
        let op = MosOp {
            id: self.sign * id,
            gm: di_dvgs,
            gds: di_dvds,
            gmb: -di_dvsb,
        };
        let vds = if swapped { -vds } else { vds };
        (op, vds, vov, swapped)
    }

    /// Canonical current, its partial derivatives with respect to
    /// `(vgs, vds, vsb)` and the smoothed overdrive, for `vds ≥ 0` in
    /// the NMOS frame. The value takes the operation sequence of
    /// [`MosModel::ids`], so it is bitwise identical; the partials come
    /// from the chain rule, each softplus sharing its exponential with
    /// its sigmoid.
    #[inline]
    fn canonical(&self, vgs: f64, vds: f64, vsb: f64) -> (f64, f64, f64, f64, f64) {
        debug_assert!(vds >= 0.0);
        let phi_t = self.phi_t;
        // Threshold, with the body-effect clamp differentiated
        // branch-for-branch (inside the clamp the derivative is zero).
        let shifted = self.phi + vsb;
        let clamped = shifted.max(1e-3);
        let body = self.gamma * (clamped.sqrt() - self.sqrt_phi);
        let vt = self.vt_t + body - self.dibl_eff * vds;
        let dvt_dvsb = if shifted > 1e-3 {
            self.gamma / (2.0 * clamped.sqrt())
        } else {
            0.0
        };

        let vp = (vgs - vt) / self.n;
        let u = vp / phi_t;
        let (sp_u, sig_u) = softplus_sigmoid(u);
        let vov = self.n_phi_t * sp_u;
        let denom = 1.0 + self.theta * vov;
        let beta = self.kp_wl / denom;
        let i0 = self.two_n * beta * phi_t * phi_t;
        let ur = (vp - vds) / phi_t;
        // F(x) = softplus(x/2)², as in `ekv_f`.
        let (sp_f, sig_f) = softplus_sigmoid(u / 2.0);
        let (sp_r, sig_r) = softplus_sigmoid(ur / 2.0);
        let fwd = sp_f * sp_f;
        let rev = sp_r * sp_r;
        let clm = 1.0 + self.lambda * vds;
        let i = i0 * (fwd - rev) * clm;

        // Chain rule. Everything flows through vp except the explicit
        // vds dependence of the reverse term and the CLM factor:
        //   F'(x) = softplus(x/2)·σ(x/2)   (F = softplus(x/2)²)
        //   vov'  = n·σ(u) per unit vp, which degrades beta (and i0).
        let dvp_dvsb = -dvt_dvsb / self.n;
        let dfwd_du = sp_f * sig_f;
        let drev_dur = sp_r * sig_r;
        let dvov_dvp = self.n * sig_u;
        let di0_dvp = -i0 * self.theta * dvov_dvp / denom;
        let di_dvp = (di0_dvp * (fwd - rev) + i0 * (dfwd_du - drev_dur) / phi_t) * clm;
        let di_dvgs = di_dvp * self.inv_n;
        let di_dvsb = di_dvp * dvp_dvsb;
        let di_dvds =
            di_dvp * self.dibl_n + i0 * (drev_dur / phi_t) * clm + i0 * (fwd - rev) * self.lambda;
        (i, di_dvgs, di_dvds, di_dvsb, vov)
    }
}

/// Absolute terminal voltages of a MOSFET at one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosBias {
    /// Gate voltage, volts.
    pub vg: f64,
    /// Drain voltage, volts.
    pub vd: f64,
    /// Source voltage, volts.
    pub vs: f64,
    /// Bulk voltage, volts.
    pub vb: f64,
}

impl MosBias {
    /// Bundles the four terminal voltages.
    pub fn new(vg: f64, vd: f64, vs: f64, vb: f64) -> Self {
        Self { vg, vd, vs, vb }
    }
}

/// The Newton-stamp linearization of a MOSFET: the conductances and the
/// equivalent current the MNA assembly writes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosStamp {
    /// `∂I_D/∂V_G`.
    pub gm: f64,
    /// `∂I_D/∂V_D`.
    pub gds: f64,
    /// `∂I_D/∂V_B`.
    pub gmb: f64,
    /// `∂I_D/∂V_S = −(gm + gds + gmb)`.
    pub gss: f64,
    /// Equivalent current source anchoring the tangent plane at the
    /// evaluated operating point.
    pub ieq: f64,
}

impl MosStamp {
    /// Builds the stamp from an evaluated operating point and the bias
    /// it was evaluated at.
    pub fn from_op(op: &MosOp, bias: &MosBias) -> Self {
        let gss = -(op.gm + op.gds + op.gmb);
        // Equivalent current source so that the tangent plane passes
        // through the evaluated operating point.
        let ieq = op.id - op.gm * bias.vg - op.gds * bias.vd - op.gmb * bias.vb - gss * bias.vs;
        Self {
            gm: op.gm,
            gds: op.gds,
            gmb: op.gmb,
            gss,
            ieq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_matches_manual_formula() {
        let op = MosOp {
            id: 1e-6,
            gm: 2e-5,
            gds: 3e-6,
            gmb: 4e-7,
        };
        let bias = MosBias::new(1.2, 0.8, 0.1, 0.0);
        let s = MosStamp::from_op(&op, &bias);
        let gss = -(op.gm + op.gds + op.gmb);
        assert_eq!(s.gss, gss);
        assert_eq!(
            s.ieq,
            op.id - op.gm * bias.vg - op.gds * bias.vd - op.gmb * bias.vb - gss * bias.vs
        );
    }

    const T: f64 = 300.15;

    fn nmos() -> (MosModel, MosGeometry) {
        (MosModel::ptm90_nmos(), MosGeometry::from_microns(1.0, 0.1))
    }

    fn pmos() -> (MosModel, MosGeometry) {
        (MosModel::ptm90_pmos(), MosGeometry::from_microns(1.0, 0.1))
    }

    #[test]
    fn on_current_is_in_the_90nm_class() {
        let (m, g) = nmos();
        let ion = m.ids(&g, 1.2, 1.2, 0.0, T);
        assert!(
            (2e-4..2e-3).contains(&ion),
            "NMOS on-current {ion:.3e} A outside the expected 0.2–2 mA/µm band"
        );
        let (mp, gp) = pmos();
        let ion_p = mp.ids(&gp, -1.2, -1.2, 0.0, T).abs();
        assert!((1e-4..1e-3).contains(&ion_p), "PMOS on-current {ion_p:.3e}");
        // NMOS should be roughly 2–3× stronger than PMOS at equal size.
        let ratio = ion / ion_p;
        assert!((1.5..4.0).contains(&ratio), "mobility ratio {ratio}");
    }

    #[test]
    fn off_current_is_nanoamp_class() {
        let (m, g) = nmos();
        let ioff = m.ids(&g, 0.0, 1.2, 0.0, T);
        assert!(
            (1e-11..1e-7).contains(&ioff),
            "NMOS off-current {ioff:.3e} A outside the pA–100 nA leakage band"
        );
        assert!(ioff > 0.0, "off-state current flows drain to source");
    }

    #[test]
    fn subthreshold_slope_is_n_phi_t() {
        let (m, g) = nmos();
        let phi_t = T * BOLTZMANN / ELECTRON_CHARGE;
        let decade = m.n * phi_t * core::f64::consts::LN_10;
        // Deep subthreshold so the EKV interpolation sits on its
        // exponential asymptote.
        let i1 = m.ids(&g, 0.05, 1.2, 0.0, T);
        let i2 = m.ids(&g, 0.05 - decade, 1.2, 0.0, T);
        let ratio = i1 / i2;
        assert!((ratio - 10.0).abs() < 0.4, "per-decade ratio {ratio}");
    }

    #[test]
    fn current_is_zero_at_zero_vds() {
        let (m, g) = nmos();
        for vgs in [0.0, 0.3, 0.8, 1.2] {
            assert_eq!(m.ids(&g, vgs, 0.0, 0.0, T), 0.0, "vgs={vgs}");
        }
    }

    #[test]
    fn drain_source_symmetry() {
        let (m, g) = nmos();
        // ids(vg, vd, vs) must equal -ids with drain/source exchanged.
        let fwd = m.ids_terminal(&g, 1.0, 0.7, 0.2, 0.0, T);
        let rev = m.ids_terminal(&g, 1.0, 0.2, 0.7, 0.0, T);
        assert!(
            (fwd + rev).abs() < 1e-9 * fwd.abs().max(1e-15),
            "{fwd} vs {rev}"
        );
    }

    #[test]
    fn current_is_continuous_across_vds_zero() {
        let (m, g) = nmos();
        let eps = 1e-9;
        let below = m.ids(&g, 0.8, -eps, 0.0, T);
        let above = m.ids(&g, 0.8, eps, 0.0, T);
        assert!(
            (above - below).abs() < 1e-9,
            "jump across vds=0: {below} vs {above}"
        );
    }

    #[test]
    fn current_is_monotonic_in_vgs() {
        let (m, g) = nmos();
        let mut last = -1.0;
        let mut v = -0.2;
        while v <= 1.4 {
            let i = m.ids(&g, v, 1.2, 0.0, T);
            assert!(i > last, "not monotonic at vgs={v}");
            last = i;
            v += 0.01;
        }
    }

    #[test]
    fn dibl_raises_leakage_with_vds() {
        let (m, g) = nmos();
        let low = m.ids(&g, 0.0, 0.4, 0.0, T);
        let high = m.ids(&g, 0.0, 1.2, 0.0, T);
        assert!(high > 2.0 * low, "DIBL effect missing: {low} vs {high}");
    }

    #[test]
    fn dibl_rolls_off_with_channel_length() {
        // A 2× longer channel suppresses leakage far more than the
        // 2× drive loss alone: the length-scaled DIBL dominates.
        let m = MosModel::ptm90_nmos();
        let short = MosGeometry::from_microns(0.2, 0.1);
        let long = MosGeometry::from_microns(0.2, 0.2);
        let i_short = m.ids(&short, 0.0, 1.2, 0.0, T);
        let i_long = m.ids(&long, 0.0, 1.2, 0.0, T);
        assert!(
            i_short / i_long > 4.0,
            "long-channel suppression too weak: {i_short:.2e} vs {i_long:.2e}"
        );
    }

    #[test]
    fn body_effect_reduces_current() {
        let (m, g) = nmos();
        let no_bias = m.ids(&g, 0.6, 1.2, 0.0, T);
        let reverse = m.ids(&g, 0.6, 1.2, 0.4, T);
        assert!(reverse < no_bias, "body effect must raise VT");
    }

    #[test]
    fn vt_ordering_nominal_hvt_lvt() {
        let g = MosGeometry::from_microns(1.0, 0.1);
        let leak = |m: &MosModel| m.ids(&g, 0.0, 1.2, 0.0, T);
        let nom = leak(&MosModel::ptm90_nmos());
        let hvt = leak(&MosModel::ptm90_nmos_hvt());
        let lvt = leak(&MosModel::ptm90_nmos_lvt());
        assert!(
            lvt > nom && nom > hvt,
            "lvt={lvt:.2e} nom={nom:.2e} hvt={hvt:.2e}"
        );
        // A 100 mV VT shift at n·φt slope is ≈ 19× in leakage.
        assert!(
            nom / hvt > 8.0 && nom / hvt < 40.0,
            "hvt ratio {}",
            nom / hvt
        );
    }

    #[test]
    fn leakage_increases_with_temperature() {
        let (m, g) = nmos();
        let cold = m.ids(&g, 0.0, 1.2, 0.0, 300.15);
        let hot = m.ids(&g, 0.0, 1.2, 0.0, 363.15);
        assert!(
            hot > 5.0 * cold,
            "leakage T-dependence too weak: {cold} vs {hot}"
        );
    }

    #[test]
    fn on_current_decreases_with_temperature() {
        let (m, g) = nmos();
        let cold = m.ids(&g, 1.2, 1.2, 0.0, 300.15);
        let hot = m.ids(&g, 1.2, 1.2, 0.0, 363.15);
        assert!(hot < cold, "mobility degradation with T missing");
    }

    #[test]
    fn op_derivatives_match_secants() {
        let (m, g) = nmos();
        let (vg, vd, vs, vb) = (0.9, 0.6, 0.1, 0.0);
        let op = m.op(&g, vg, vd, vs, vb, T);
        let h = 1e-5;
        let gm_ref = (m.ids_terminal(&g, vg + h, vd, vs, vb, T)
            - m.ids_terminal(&g, vg - h, vd, vs, vb, T))
            / (2.0 * h);
        assert!((op.gm - gm_ref).abs() < 1e-6 * gm_ref.abs().max(1e-12));
        assert!(
            op.gm > 0.0 && op.gds > 0.0,
            "on-state conductances positive"
        );
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let (m, g) = pmos();
        // On: vgs = −1.2, vds = −1.2 → current out of the drain.
        let ion = m.ids(&g, -1.2, -1.2, 0.0, T);
        assert!(ion < 0.0, "PMOS on-current sign");
        // Off: vgs = 0.
        let ioff = m.ids(&g, 0.0, -1.2, 0.0, T);
        assert!(ioff < 0.0 && ioff.abs() < 1e-7, "PMOS leakage {ioff:.3e}");
    }

    #[test]
    fn caps_partition_by_region() {
        let (m, g) = nmos();
        let cox_total = m.cox * g.width() * g.length();
        // Strong inversion, triode: cgs ≈ cgd ≈ cox/2 (+overlap).
        let triode = m.caps(&g, 1.2, 0.05, 0.0, 0.0, T);
        assert!((triode.cgs - triode.cgd).abs() < 0.2 * cox_total);
        // Strong inversion, saturation: cgd collapses toward the
        // constant overlap floor.
        let sat = m.caps(&g, 1.2, 1.2, 0.0, 0.0, T);
        assert!(
            sat.cgd < 0.7 * triode.cgd,
            "cgd {} vs triode {}",
            sat.cgd,
            triode.cgd
        );
        assert!(sat.cgs > triode.cgs * 0.8);
        // Subthreshold: gate-bulk dominates intrinsic cap.
        let off = m.caps(&g, 0.0, 1.2, 0.0, 0.0, T);
        assert!(off.cgb > off.cgs && off.cgb > off.cgd);
        // All caps are positive and finite.
        for c in [sat.cgs, sat.cgd, sat.cgb, sat.cdb, sat.csb] {
            assert!(c > 0.0 && c.is_finite());
        }
    }

    #[test]
    fn caps_swap_with_reversed_channel() {
        let (m, g) = nmos();
        let fwd = m.caps(&g, 1.2, 1.0, 0.0, 0.0, T);
        let rev = m.caps(&g, 1.2, 0.0, 1.0, 0.0, T);
        assert!((fwd.cgs - rev.cgd).abs() < 1e-18);
        assert!((fwd.cgd - rev.cgs).abs() < 1e-18);
    }

    #[test]
    fn geometry_validation() {
        let g = MosGeometry::from_microns(0.5, 0.09);
        assert!((g.width() - 0.5e-6).abs() < 1e-18);
        let p = g.perturbed(1.1, 0.9);
        assert!((p.width() - 0.55e-6).abs() < 1e-18);
        assert!((p.length() - 0.081e-6).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "invalid MOS geometry")]
    fn zero_width_panics() {
        let _ = MosGeometry::new(0.0, 1e-7);
    }

    #[test]
    fn with_vt0_shifts_threshold_only() {
        let m = MosModel::ptm90_nmos().with_vt0(0.45);
        assert_eq!(m.vt0, 0.45);
        assert_eq!(m.kp, MosModel::ptm90_nmos().kp);
    }

    #[test]
    fn builtin_cards_validate() {
        for card in [
            MosModel::ptm90_nmos(),
            MosModel::ptm90_nmos_hvt(),
            MosModel::ptm90_nmos_lvt(),
            MosModel::ptm90_pmos(),
            MosModel::ptm90_pmos_hvt(),
        ] {
            card.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut m = MosModel::ptm90_nmos();
        m.kp = -1.0;
        assert!(m.validate().unwrap_err().contains("kp"));
        let mut m = MosModel::ptm90_nmos();
        m.n = 0.5;
        assert!(m.validate().unwrap_err().contains("slope factor"));
        let mut m = MosModel::ptm90_nmos();
        m.gamma = f64::NAN;
        assert!(m.validate().unwrap_err().contains("gamma"));
        let m = MosModel::ptm90_nmos().with_vt0(5.0);
        assert!(m.validate().unwrap_err().contains("implausibly"));
    }

    #[test]
    fn wider_device_carries_proportional_current() {
        let m = MosModel::ptm90_nmos();
        let g1 = MosGeometry::from_microns(1.0, 0.1);
        let g2 = MosGeometry::from_microns(2.0, 0.1);
        let i1 = m.ids(&g1, 1.2, 1.2, 0.0, T);
        let i2 = m.ids(&g2, 1.2, 1.2, 0.0, T);
        assert!((i2 / i1 - 2.0).abs() < 1e-9);
    }

    /// Central-difference linearization, seven model walks: the oracle
    /// the analytic [`MosModel::op`] is checked against.
    fn op_central(
        m: &MosModel,
        g: &MosGeometry,
        vg: f64,
        vd: f64,
        vs: f64,
        vb: f64,
        temp_k: f64,
    ) -> MosOp {
        const H: f64 = 1e-6;
        let i = |vg, vd, vs, vb| m.ids_terminal(g, vg, vd, vs, vb, temp_k);
        MosOp {
            id: i(vg, vd, vs, vb),
            gm: (i(vg + H, vd, vs, vb) - i(vg - H, vd, vs, vb)) / (2.0 * H),
            gds: (i(vg, vd + H, vs, vb) - i(vg, vd - H, vs, vb)) / (2.0 * H),
            gmb: (i(vg, vd, vs, vb + H) - i(vg, vd, vs, vb - H)) / (2.0 * H),
        }
    }

    /// The analytic operating point must agree with the central-difference
    /// oracle across every built-in card (nominal, hvt, lvt), polarity,
    /// bias orientation (vds of both signs, so the drain/source-swap chain
    /// rule is exercised), body bias (both sides of the clamp), geometry,
    /// 27 °C and 90 °C, and a sub-threshold grid of terminal voltages
    /// (0.1 V steps up to 0.5 V). The current itself must be *bitwise*
    /// identical to `ids_terminal`: it is computed by the same operation
    /// sequence.
    #[test]
    fn op_analytic_matches_central_differences() {
        // Bias grid on multiples of 0.3 V never lands within 1e-5 of the
        // body-effect clamp kink at phi + vsb = 1e-3 (vsb ≈ −0.849 V for
        // phi = 0.85), where the one-sided derivative would disagree with
        // the straddling secant by construction.
        let biases = [-1.2, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9, 1.2];
        let mut strong = Vec::new();
        for vg in biases {
            for vd in biases {
                for vs in [0.0, 0.3, 0.6] {
                    strong.push((vg, vd, vs, 0.0));
                }
            }
        }
        // Sub-threshold supplies: every terminal on a 0.1 V grid up to
        // 0.5 V, the bulk at either end of it (|vsb| ≤ 0.5 V, far from
        // the clamp). Currents here are pA–nA, so the tolerance floor is
        // far below them.
        let low: Vec<f64> = (0..=5).map(|k| 0.1 * k as f64).collect();
        let mut weak = Vec::new();
        for &vg in &low {
            for &vd in &low {
                for &vs in &low {
                    for vb in [0.0, 0.5] {
                        weak.push((vg, vd, vs, vb));
                    }
                }
            }
        }
        let geoms = [
            MosGeometry::from_microns(0.2, 0.1),
            MosGeometry::from_microns(1.0, 0.2),
        ];
        let mut checked = 0usize;
        for m in [
            MosModel::ptm90_nmos(),
            MosModel::ptm90_nmos_hvt(),
            MosModel::ptm90_nmos_lvt(),
            MosModel::ptm90_pmos(),
            MosModel::ptm90_pmos_hvt(),
        ] {
            for g in &geoms {
                for temp_k in [300.15, 363.15] {
                    for (grid, floor) in [(&strong, 1e-9), (&weak, 1e-18)] {
                        for &(vg, vd, vs, vb) in grid {
                            let a = m.op(g, vg, vd, vs, vb, temp_k);
                            let c = op_central(&m, g, vg, vd, vs, vb, temp_k);
                            let id = m.ids_terminal(g, vg, vd, vs, vb, temp_k);
                            assert_eq!(a.id.to_bits(), id.to_bits(), "id not bitwise");
                            assert_eq!(a, m.op_analytic(g, vg, vd, vs, vb, temp_k));
                            for (name, ga, gc) in [
                                ("gm", a.gm, c.gm),
                                ("gds", a.gds, c.gds),
                                ("gmb", a.gmb, c.gmb),
                            ] {
                                // Secant truncation is O(h²·i'''), so
                                // allow 1e-6 relative with a small
                                // absolute floor for cutoff biases. At
                                // vds = 0 the drain/source swap makes
                                // the model C¹ only (DIBL breaks perfect
                                // symmetry), biasing the straddling
                                // secant by O(h).
                                let rel = if vd == vs { 1e-5 } else { 1e-6 };
                                let tol = rel * gc.abs().max(floor);
                                assert!(
                                    (ga - gc).abs() <= tol,
                                    "{name} mismatch at vg={vg} vd={vd} vs={vs} vb={vb} \
                                     T={temp_k} vt0={} {:?}: analytic {ga:e} secant {gc:e}",
                                    m.vt0,
                                    m.polarity,
                                );
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 8000, "sweep too small: {checked}");
    }

    /// Deep body reverse bias drives phi + vsb into the clamp; the
    /// analytic gmb must go to exactly zero there (clamp-consistent), and
    /// the other conductances must still match the secants.
    #[test]
    fn op_analytic_respects_body_clamp() {
        let (m, g) = nmos();
        // vs − vb = 1.2 − 2.2 → vsb = −1.0, phi + vsb = −0.15 < 1e-3.
        let a = m.op(&g, 2.0, 2.0, 1.2, 2.2, T);
        let c = op_central(&m, &g, 2.0, 2.0, 1.2, 2.2, T);
        assert_eq!(a.gmb, 0.0, "clamped body effect must have zero slope");
        assert!((a.gm - c.gm).abs() <= 1e-6 * c.gm.abs().max(1e-12));
        assert!((a.gds - c.gds).abs() <= 1e-6 * c.gds.abs().max(1e-12));
    }

    /// The operating point of the one-walk `op_caps` is `op` bit for bit
    /// on every PTM-90 card, over a bias grid that the test checks
    /// reaches cutoff, subthreshold and strong inversion, both channel
    /// orientations, the body-effect clamp and both saturated softplus
    /// branches of the overdrive.
    #[test]
    fn op_caps_is_op_bitwise() {
        let op_bits = |o: MosOp| [o.id, o.gm, o.gds, o.gmb].map(f64::to_bits);
        let volts = [
            -3.0, -1.2, -0.5, 0.0, 0.1, 0.25, 0.4, 0.6, 0.9, 1.2, 2.0, 3.5,
        ];
        let biases: Vec<MosBias> = volts
            .iter()
            .flat_map(|&vg| volts.map(|vd| (vg, vd)))
            .flat_map(|(vg, vd)| [-1.2, 0.0, 0.3, 1.2].map(|vs| (vg, vd, vs)))
            .flat_map(|(vg, vd, vs)| [-1.2, 0.0, 1.2].map(|vb| MosBias::new(vg, vd, vs, vb)))
            .collect();
        // Cutoff, subthreshold, strong inversion, swapped, clamped,
        // softplus saturated high, softplus saturated low.
        let mut seen = [0usize; 7];
        for card in [
            MosModel::ptm90_nmos(),
            MosModel::ptm90_nmos_hvt(),
            MosModel::ptm90_nmos_lvt(),
            MosModel::ptm90_pmos(),
            MosModel::ptm90_pmos_hvt(),
        ] {
            let dev = card.bind(&MosGeometry::from_microns(0.4, 0.1), T);
            for &MosBias { vg, vd, vs, vb } in &biases {
                let (op, _) = dev.op_caps(vg, vd, vs, vb);
                let at = format!("{:?} {} V at {vg} {vd} {vs} {vb}", card.polarity, card.vt0);
                assert_eq!(op_bits(op), op_bits(dev.op(vg, vd, vs, vb)), "{at}");

                // Where the bias sits, in the oriented NMOS frame.
                let [mut vgs, mut vds, mut vsb] = [vg - vs, vd - vs, vs - vb].map(|v| dev.sign * v);
                if vds < 0.0 {
                    seen[3] += 1;
                    (vgs, vds, vsb) = (vgs - vds, -vds, vsb + vds);
                }
                let shifted = dev.phi + vsb;
                seen[4] += usize::from(shifted < 1e-3);
                let body = dev.gamma * (shifted.max(1e-3).sqrt() - dev.sqrt_phi);
                let vt = dev.vt_t + body - dev.dibl_eff * vds;
                let u = (vgs - vt) / dev.n / dev.phi_t;
                seen[if u < -10.0 {
                    0
                } else if u < 0.0 {
                    1
                } else {
                    2
                }] += 1;
                seen[5] += usize::from(u > 40.0);
                seen[6] += usize::from(u < -40.0);
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "a regime is missing: {seen:?}");
    }
}
