//! The paper's measurement fixture.
//!
//! Section 4: "Both our SS-TVS and combined VS are driven by same sized
//! inverters" and "The outputs of both designs were loaded with a fixed
//! capacitance of 1 fF". The harness reproduces that fixture exactly:
//!
//! * a VDDI supply (`vddi` source) powering a two-inverter driver
//!   chain that shapes the raw stimulus into a realistic VDDI-domain
//!   edge,
//! * a VDDO supply (`vddo` source) powering the cell under test,
//! * the chosen shifter cell,
//! * a 1 fF load (configurable),
//! * for the combined VS, the external direction control tied to the
//!   correct rails for the given domain pair.
//!
//! Leakage and dynamic power are extracted from the `vddo` (and, where
//! applicable, `vddi`) branch currents of the returned circuit.

use vls_device::SourceWaveform;
use vls_netlist::{Circuit, NodeId};

use crate::primitives::Inverter;
use crate::{CombinedVs, ConventionalVs, KhanSsvs, PuriSsvs, Sstvs, SstvsNodes};

/// An input/output domain voltage pair, in volts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltagePair {
    /// Input-domain supply VDDI.
    pub vddi: f64,
    /// Output-domain supply VDDO.
    pub vddo: f64,
}

impl VoltagePair {
    /// Creates a pair, validating both rails.
    ///
    /// # Panics
    ///
    /// Panics if either voltage is not strictly positive and finite.
    pub fn new(vddi: f64, vddo: f64) -> Self {
        assert!(
            vddi > 0.0 && vddi.is_finite() && vddo > 0.0 && vddo.is_finite(),
            "invalid domain pair: VDDI={vddi}, VDDO={vddo}"
        );
        Self { vddi, vddo }
    }

    /// The paper's low→high corner: 0.8 V → 1.2 V.
    pub fn low_to_high() -> Self {
        Self::new(0.8, 1.2)
    }

    /// The paper's high→low corner: 1.2 V → 0.8 V.
    pub fn high_to_low() -> Self {
        Self::new(1.2, 0.8)
    }

    /// `true` when this pair requires a low→high conversion.
    pub fn is_up_conversion(&self) -> bool {
        self.vddi < self.vddo
    }
}

/// Which shifter the harness instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum ShifterKind {
    /// The paper's SS-TVS (optionally a specific variant).
    Sstvs(Sstvs),
    /// The Figure 6 combined VS with its control tied by direction.
    Combined(CombinedVs),
    /// The conventional dual-supply CVS (Figure 1).
    Conventional(ConventionalVs),
    /// The bare Khan SS-VS \[6\] (low→high only).
    Khan(KhanSsvs),
    /// The diode-rail shifter of Puri et al. \[13\] (low→high only).
    Puri(PuriSsvs),
    /// A bare inverter powered from VDDO (the paper's "best level
    /// shifter when VDDI > VDDO", leaky when VDDI < VDDO).
    Inverter(Inverter),
}

impl ShifterKind {
    /// The paper's SS-TVS with default sizing.
    pub fn sstvs() -> Self {
        ShifterKind::Sstvs(Sstvs::new())
    }

    /// The paper's combined-VS baseline with default sizing.
    pub fn combined() -> Self {
        ShifterKind::Combined(CombinedVs::new())
    }

    /// A short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShifterKind::Sstvs(_) => "SS-TVS",
            ShifterKind::Combined(_) => "Combined VS",
            ShifterKind::Conventional(_) => "CVS",
            ShifterKind::Khan(_) => "Khan SS-VS",
            ShifterKind::Puri(_) => "Puri SS-VS",
            ShifterKind::Inverter(_) => "Inverter",
        }
    }
}

/// A built measurement fixture.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The complete circuit, ready for any analysis.
    pub circuit: Circuit,
    /// The raw stimulus node (before the driver chain).
    pub stim: NodeId,
    /// The cell input (driver-chain output), VDDI swing.
    pub input: NodeId,
    /// The cell output, VDDO swing.
    pub output: NodeId,
    /// Internal probe nodes when the cell is an SS-TVS.
    pub sstvs_nodes: Option<SstvsNodes>,
    /// The domain pair the harness was built for.
    pub domains: VoltagePair,
}

impl Harness {
    /// Name of the VDDO supply source (for branch-current probing).
    pub const VDDO_SOURCE: &'static str = "vddo";
    /// Name of the VDDI supply source.
    pub const VDDI_SOURCE: &'static str = "vddi";
    /// Name of the stimulus source.
    pub const STIM_SOURCE: &'static str = "vstim";

    /// Builds the fixture around `kind` for the given domains.
    ///
    /// `stimulus` drives the first driver inverter; because the driver
    /// chain has two inversions, the cell input follows the stimulus
    /// polarity. `load_farads` is the output load (the paper uses
    /// 1 fF).
    pub fn build(
        kind: &ShifterKind,
        domains: VoltagePair,
        stimulus: SourceWaveform,
        load_farads: f64,
    ) -> Self {
        let mut c = Circuit::new();
        let vddi_n = c.node("vddi_rail");
        let vddo_n = c.node("vddo_rail");
        let stim = c.node("stim");
        let d1 = c.node("drv1");
        let input = c.node("cell_in");
        let output = c.node("cell_out");

        c.add_vsource(
            Self::VDDI_SOURCE,
            vddi_n,
            Circuit::GROUND,
            SourceWaveform::Dc(domains.vddi),
        );
        c.add_vsource(
            Self::VDDO_SOURCE,
            vddo_n,
            Circuit::GROUND,
            SourceWaveform::Dc(domains.vddo),
        );
        c.add_vsource(Self::STIM_SOURCE, stim, Circuit::GROUND, stimulus);

        // Two same-sized minimum inverters in the VDDI domain shape the
        // stimulus into the cell input.
        let drv = Inverter::minimum();
        drv.build(&mut c, "drv1", stim, d1, vddi_n);
        drv.build(&mut c, "drv2", d1, input, vddi_n);

        let mut sstvs_nodes = None;
        match kind {
            ShifterKind::Sstvs(cell) => {
                sstvs_nodes = Some(cell.build(&mut c, "dut", input, output, vddo_n));
            }
            ShifterKind::Combined(cell) => {
                let sel = c.node("sel");
                let selb = c.node("selb");
                let up = domains.is_up_conversion();
                c.add_vsource(
                    "vsel",
                    sel,
                    Circuit::GROUND,
                    SourceWaveform::Dc(if up { domains.vddo } else { 0.0 }),
                );
                c.add_vsource(
                    "vselb",
                    selb,
                    Circuit::GROUND,
                    SourceWaveform::Dc(if up { 0.0 } else { domains.vddo }),
                );
                cell.build(&mut c, "dut", input, output, vddo_n, sel, selb);
            }
            ShifterKind::Conventional(cell) => {
                cell.build(&mut c, "dut", input, output, vddi_n, vddo_n);
            }
            ShifterKind::Khan(cell) => {
                cell.build(&mut c, "dut", input, output, vddo_n);
            }
            ShifterKind::Puri(cell) => {
                cell.build(&mut c, "dut", input, output, vddo_n);
            }
            ShifterKind::Inverter(cell) => {
                cell.build(&mut c, "dut", input, output, vddo_n);
            }
        }
        c.add_capacitor("cload", output, Circuit::GROUND, load_farads);

        Self {
            circuit: c,
            stim,
            input,
            output,
            sstvs_nodes,
            domains,
        }
    }

    /// The paper's standard stimulus: a two-cycle pulse train (cycle 1
    /// initializes the cell's dynamic nodes, cycle 2 is measured),
    /// 50 ps edges, returned together with the window boundaries
    /// `(t_rise2, t_fall2, t_end)` of the measured cycle.
    pub fn standard_stimulus(domains: VoltagePair) -> (SourceWaveform, f64, f64, f64) {
        Self::pulse_stimulus_with_slew(domains, 7e-9, 8.9e-9, 50e-12)
    }

    /// A two-cycle pulse train with explicit high-phase `width` and
    /// low-phase `low_gap` durations — the knobs behind the paper's
    /// worst-case input-sequence search (a short high phase starves
    /// the `ctrl` node of charging time; a short low phase starves the
    /// recovery) — and edge `slew` (rise and fall time), seconds, the
    /// stimulus knob behind the characterization grid's input-slew
    /// axis. Returns `(waveform, t_rise2, t_fall2, t_end)` where the
    /// `2` edges belong to the measured second cycle.
    ///
    /// # Panics
    ///
    /// Panics if any duration is not strictly positive.
    pub fn pulse_stimulus_with_slew(
        domains: VoltagePair,
        width: f64,
        low_gap: f64,
        slew: f64,
    ) -> (SourceWaveform, f64, f64, f64) {
        assert!(
            width > 0.0 && low_gap > 0.0 && slew > 0.0,
            "degenerate stimulus"
        );
        let delay = 1e-9;
        let rise = slew;
        let period = rise + width + rise + low_gap;
        let wave = SourceWaveform::Pulse {
            v1: 0.0,
            v2: domains.vddi,
            delay,
            rise,
            fall: rise,
            width,
            period,
        };
        // Second cycle edges (stimulus polarity = cell-input polarity).
        let t_rise2 = delay + period;
        let t_fall2 = delay + period + rise + width;
        let t_end = delay + 2.0 * period;
        (wave, t_rise2, t_fall2, t_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_engine::{run_transient, SimOptions};

    #[test]
    fn voltage_pair_validation() {
        let p = VoltagePair::low_to_high();
        assert!(p.is_up_conversion());
        assert!(!VoltagePair::high_to_low().is_up_conversion());
        assert_eq!(VoltagePair::new(0.8, 1.2), p);
    }

    #[test]
    #[should_panic(expected = "invalid domain pair")]
    fn zero_rail_panics() {
        let _ = VoltagePair::new(0.0, 1.2);
    }

    #[test]
    fn labels() {
        assert_eq!(ShifterKind::sstvs().label(), "SS-TVS");
        assert_eq!(ShifterKind::combined().label(), "Combined VS");
        assert_eq!(
            ShifterKind::Conventional(ConventionalVs::new()).label(),
            "CVS"
        );
        assert_eq!(ShifterKind::Khan(KhanSsvs::new()).label(), "Khan SS-VS");
        assert_eq!(
            ShifterKind::Inverter(Inverter::minimum()).label(),
            "Inverter"
        );
    }

    #[test]
    fn harness_drives_the_sstvs_through_a_full_cycle() {
        let domains = VoltagePair::low_to_high();
        let (wave, t_rise2, t_fall2, t_end) = Harness::standard_stimulus(domains);
        let h = Harness::build(&ShifterKind::sstvs(), domains, wave, 1e-15);
        h.circuit.validate().unwrap();
        let res = run_transient(&h.circuit, t_end, &SimOptions::default()).unwrap();
        let out = res.node_series(h.output);
        let t = res.times();
        // Just before the measured rising input edge: output high.
        let before = t.iter().position(|&tt| tt >= t_rise2 - 0.2e-9).unwrap();
        assert!(
            (out[before] - 1.2).abs() < 0.06,
            "pre-edge out {}",
            out[before]
        );
        // Between the edges: output low.
        let mid = t
            .iter()
            .position(|&tt| tt >= (t_rise2 + t_fall2) / 2.0)
            .unwrap();
        assert!(out[mid] < 0.06, "mid out {}", out[mid]);
        // The driver chain really swings the cell input at VDDI.
        let vin = res.node_series(h.input);
        assert!((vin[mid] - 0.8).abs() < 0.05, "cell input {}", vin[mid]);
    }

    #[test]
    fn harness_builds_every_kind() {
        let domains = VoltagePair::high_to_low();
        let (wave, _, _, _) = Harness::standard_stimulus(domains);
        for kind in [
            ShifterKind::sstvs(),
            ShifterKind::combined(),
            ShifterKind::Conventional(ConventionalVs::new()),
            ShifterKind::Khan(KhanSsvs::new()),
            ShifterKind::Puri(PuriSsvs::new()),
            ShifterKind::Inverter(Inverter::minimum()),
        ] {
            let h = Harness::build(&kind, domains, wave.clone(), 1e-15);
            h.circuit
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(h.domains, domains);
        }
    }
}
