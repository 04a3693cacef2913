//! AC small-signal analysis.
//!
//! Linearizes every device at the DC operating point (the same
//! conductance stamps the Newton iteration uses), replaces the named
//! source with a unit phasor, and solves the complex system
//! `(G + jωC)·x = b` at each requested frequency. `C` is the transient's
//! capacitive network (`capnet::CapNetwork`) with the Meyer
//! capacitances at the operating point: one branch per pair of distinct
//! nodes, each stamping its admittance `jωC`. The unit test
//! `capnet::tests::network_stamps_what_each_capacitor_stamped` checks
//! those admittances against one stamp per capacitor. This is the
//! analysis behind gain/bandwidth measurements of the level-shifter
//! cells and their feedback loops.

use vls_netlist::{Circuit, Element, NodeId};
use vls_num::{Complex, ComplexMatrix, TripletMatrix};

use crate::capnet::CapNetwork;
use crate::mna::{Mna, StampCtx};
use crate::{solve_dc, EngineError, SimOptions};

/// The frequency response of every unknown.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// `phasors[k]` is the complex unknown vector at `freqs[k]`.
    phasors: Vec<Vec<Complex>>,
    n_node_unknowns: usize,
}

impl AcResult {
    /// The analysis frequencies, Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// The complex phasor of `node` across frequency.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the analyzed circuit.
    pub fn phasor(&self, node: NodeId) -> Vec<Complex> {
        if node.is_ground() {
            return vec![Complex::ZERO; self.freqs.len()];
        }
        let i = node.index() - 1;
        assert!(i < self.n_node_unknowns, "node outside circuit");
        self.phasors.iter().map(|p| p[i]).collect()
    }

    /// Magnitude response `|V(node)|` (volts per volt of excitation).
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.phasor(node).into_iter().map(|z| z.abs()).collect()
    }

    /// Gain in dB relative to the unit excitation.
    pub fn gain_db(&self, node: NodeId) -> Vec<f64> {
        self.magnitude(node)
            .into_iter()
            .map(|m| 20.0 * m.max(1e-300).log10())
            .collect()
    }

    /// Phase response in degrees.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        self.phasor(node)
            .into_iter()
            .map(|z| z.arg().to_degrees())
            .collect()
    }

    /// The −3 dB bandwidth of `node` relative to its lowest-frequency
    /// gain: the first frequency where the magnitude falls below
    /// `1/√2` of the first point. `None` if it never does within the
    /// analyzed range.
    pub fn bandwidth(&self, node: NodeId) -> Option<f64> {
        let mag = self.magnitude(node);
        let reference = *mag.first()?;
        let corner = reference / core::f64::consts::SQRT_2;
        for (k, m) in mag.iter().enumerate() {
            if *m < corner {
                if k == 0 {
                    return Some(self.freqs[0]);
                }
                // Log-linear interpolation between the straddling points.
                let (f0, f1) = (self.freqs[k - 1], self.freqs[k]);
                let (m0, m1) = (mag[k - 1], mag[k]);
                let t = (m0 - corner) / (m0 - m1);
                return Some(f0 * (f1 / f0).powf(t));
            }
        }
        None
    }
}

/// Logarithmically spaced frequencies, `points_per_decade` per decade
/// from `f_start` to `f_stop` inclusive — the usual AC sweep grid.
///
/// # Panics
///
/// Panics if the range is degenerate or non-positive.
pub fn log_space(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start && points_per_decade > 0,
        "bad frequency range {f_start}..{f_stop}"
    );
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|k| f_start * 10f64.powf(decades * k as f64 / (n - 1) as f64))
        .collect()
}

/// Runs an AC analysis: unit excitation on the named source (voltage
/// or current), all other sources quieted, devices linearized at the
/// DC operating point.
///
/// # Errors
///
/// [`EngineError::BadNetlist`] if the source is unknown; otherwise
/// propagates DC failures and singular systems.
pub fn run_ac(
    circuit: &Circuit,
    ac_source: &str,
    freqs: &[f64],
    options: &SimOptions,
) -> Result<AcResult, EngineError> {
    let source_pos = circuit
        .elements()
        .iter()
        .position(|e| {
            matches!(
                e,
                Element::VoltageSource { .. } | Element::CurrentSource { .. }
            ) && e.name() == ac_source
        })
        .ok_or_else(|| EngineError::BadNetlist(format!("no source named {ac_source}")))?;

    // DC operating point and the small-signal conductance matrix G.
    let dc = solve_dc(circuit, options)?;
    let mna = Mna::new(circuit, options.temperature.as_kelvin());
    let n = mna.n_unknowns;
    let x = dc.unknowns();
    let mut g_trip = TripletMatrix::new(n);
    let mut b_unused = vec![0.0; n];
    let ctx = StampCtx {
        time: 0.0,
        source_scale: 1.0,
        gmin: options.gmin,
        reactive: None,
    };
    mna.assemble(x, &mut g_trip, &mut b_unused, &ctx, None);
    let g = g_trip.to_csc();

    // The capacitive network at the operating point: the explicit
    // capacitors and every MOSFET's Meyer capacitances there.
    let mut network = CapNetwork::new(circuit, &mna);
    network.set_caps(mna.mosfets().iter().map(|m| {
        let bias = m.bias(x);
        m.dev.caps(bias.vg, bias.vd, bias.vs, bias.vb)
    }));

    // Excitation vector.
    let mut b = vec![Complex::ZERO; n];
    match &circuit.elements()[source_pos] {
        Element::VoltageSource { .. } => {
            let br = mna.branch_index(source_pos).expect("vsource has a branch");
            b[br] = Complex::ONE;
        }
        Element::CurrentSource { pos, neg, .. } => {
            if let Some(i) = mna.idx(*pos) {
                b[i] = Complex::ONE;
            }
            if let Some(j) = mna.idx(*neg) {
                b[j] = b[j] - Complex::ONE;
            }
        }
        _ => unreachable!("position filtered to sources"),
    }

    // Per-frequency solve.
    let mut phasors = Vec::with_capacity(freqs.len());
    let mut a = ComplexMatrix::zeros(n);
    for &f in freqs {
        assert!(f > 0.0 && f.is_finite(), "invalid AC frequency {f}");
        let omega = 2.0 * core::f64::consts::PI * f;
        a.clear();
        for (j, (&start, &end)) in g.col_ptr().iter().zip(&g.col_ptr()[1..]).enumerate() {
            for k in start..end {
                a.add(g.row_indices()[k], j, Complex::from_real(g.values()[k]));
            }
        }
        network.stamp_admittances(omega, &mut a);
        let x = a.solve(&b).map_err(|_| EngineError::Singular {
            context: format!("AC at {f:.3e} Hz"),
        })?;
        phasors.push(x);
    }
    Ok(AcResult {
        freqs: freqs.to_vec(),
        phasors,
        n_node_unknowns: mna.node_unknowns(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    #[test]
    fn log_space_spans_the_range() {
        let f = log_space(1e3, 1e6, 10);
        assert!((f[0] - 1e3).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e6).abs() < 1.0);
        assert_eq!(f.len(), 31);
        for w in f.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn rc_low_pass_has_the_textbook_corner() {
        // R = 1 kΩ, C = 1 pF → f_c = 1/(2πRC) ≈ 159.2 MHz.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let freqs = log_space(1e6, 1e10, 40);
        let ac = run_ac(&c, "vin", &freqs, &SimOptions::default()).unwrap();

        // Low-frequency gain ≈ 1, high-frequency rolls off.
        let mag = ac.magnitude(out);
        assert!((mag[0] - 1.0).abs() < 1e-3, "LF gain {}", mag[0]);
        assert!(
            *mag.last().unwrap() < 0.05,
            "HF gain {}",
            mag.last().unwrap()
        );

        // −3 dB corner within 2 % of 1/(2πRC).
        let fc = ac.bandwidth(out).expect("corner inside range");
        let expect = 1.0 / (2.0 * core::f64::consts::PI * 1000.0 * 1e-12);
        assert!(
            (fc - expect).abs() < 0.02 * expect,
            "fc {fc:.3e} vs {expect:.3e}"
        );

        // Phase approaches −90° well above the corner.
        let ph = ac.phase_deg(out);
        assert!(
            (ph.last().unwrap() + 90.0).abs() < 3.0,
            "phase {}",
            ph.last().unwrap()
        );

        // At exactly the corner |H| = 1/√2 and phase −45°.
        let k = freqs.iter().position(|&f| f > expect).unwrap();
        assert!((mag[k] - core::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
        assert!((ph[k] + 45.0).abs() < 5.0);
    }

    #[test]
    fn common_source_amplifier_gain_matches_gm_ro() {
        // NMOS with a resistive load: |A_v| ≈ gm·(R ∥ ro) at low f.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("g");
        let drain = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource("vg", gate, Circuit::GROUND, SourceWaveform::Dc(0.6));
        c.add_resistor("rl", vdd, drain, 10_000.0);
        let model = MosModel::ptm90_nmos();
        let geom = MosGeometry::from_microns(1.0, 0.1);
        c.add_mosfet(
            "m1",
            drain,
            gate,
            Circuit::GROUND,
            Circuit::GROUND,
            model.clone(),
            geom,
        );

        let opts = SimOptions::default();
        let dc = solve_dc(&c, &opts).unwrap();
        let vd = dc.voltage(drain);
        let op = model.op(&geom, 0.6, vd, 0.0, 0.0, 300.15);
        let expected_gain = op.gm * (1.0 / (1.0 / 10_000.0 + op.gds));

        let ac = run_ac(&c, "vg", &[1e3], &opts).unwrap();
        let gain = ac.magnitude(drain)[0];
        assert!(
            (gain - expected_gain).abs() < 0.05 * expected_gain,
            "AC gain {gain:.3} vs small-signal prediction {expected_gain:.3}"
        );
        // Inverting stage: phase near 180°.
        let ph = ac.phase_deg(drain)[0].abs();
        assert!((ph - 180.0).abs() < 2.0, "phase {ph}");
    }

    #[test]
    fn current_source_excitation_sees_the_impedance() {
        // 1 A phasor into R ∥ C reads the impedance directly.
        let mut c = Circuit::new();
        let node = c.node("n");
        c.add_isource("iin", node, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_resistor("r1", node, Circuit::GROUND, 500.0);
        c.add_capacitor("c1", node, Circuit::GROUND, 2e-12);
        let ac = run_ac(&c, "iin", &[1e3], &SimOptions::default()).unwrap();
        // At 1 kHz the capacitor is negligible: |Z| ≈ R.
        assert!((ac.magnitude(node)[0] - 500.0).abs() < 0.5);
    }

    #[test]
    fn unknown_source_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::GROUND, 100.0);
        assert!(matches!(
            run_ac(&c, "nope", &[1e3], &SimOptions::default()),
            Err(EngineError::BadNetlist(_))
        ));
    }

    #[test]
    fn ground_phasor_is_zero() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::GROUND, 100.0);
        let ac = run_ac(&c, "v1", &[1e3, 1e4], &SimOptions::default()).unwrap();
        assert_eq!(ac.phasor(Circuit::GROUND), vec![Complex::ZERO; 2]);
        assert_eq!(ac.freqs().len(), 2);
        // The driven node follows the unit excitation exactly.
        assert!((ac.magnitude(a)[0] - 1.0).abs() < 1e-9);
    }
}
