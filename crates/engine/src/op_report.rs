//! Operating-point reporting: the SPICE `.op` printout.
//!
//! Given a solved DC operating point, reports every device's bias,
//! current, small-signal parameters and operating region — the first
//! thing an analog designer asks a simulator for when a cell
//! misbehaves.

use vls_netlist::{Circuit, Element, NodeId};
use vls_units::fmt_eng;

use crate::{DcSolution, SimOptions};

/// The conduction region of a MOSFET at its bias point (heuristic
/// classification for reporting; the model itself is continuous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `|V_GS| < |V_T|`: subthreshold conduction.
    Subthreshold,
    /// Above threshold with `|V_DS|` below the overdrive: ohmic.
    Triode,
    /// Above threshold, pinched off.
    Saturation,
}

impl core::fmt::Display for MosRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            MosRegion::Subthreshold => "subthreshold",
            MosRegion::Triode => "triode",
            MosRegion::Saturation => "saturation",
        })
    }
}

/// One device's operating point.
#[derive(Debug, Clone, PartialEq)]
pub enum OpEntry {
    /// A MOSFET bias point.
    Mosfet {
        /// Device name.
        name: String,
        /// Gate–source voltage, V (polarity-natural sign).
        vgs: f64,
        /// Drain–source voltage, V.
        vds: f64,
        /// Drain current, A.
        id: f64,
        /// Transconductance, S.
        gm: f64,
        /// Output conductance, S.
        gds: f64,
        /// Region classification.
        region: MosRegion,
    },
    /// A resistor's voltage and current.
    Resistor {
        /// Device name.
        name: String,
        /// Voltage across (a − b), V.
        voltage: f64,
        /// Current a → b, A.
        current: f64,
    },
    /// A voltage source's branch current (SPICE convention).
    Source {
        /// Device name.
        name: String,
        /// Branch current, A.
        current: f64,
    },
}

/// A full `.op` report.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    entries: Vec<OpEntry>,
}

impl OpReport {
    /// All entries, in element order.
    pub fn entries(&self) -> &[OpEntry] {
        &self.entries
    }

    /// Looks up a device by name.
    pub fn entry(&self, name: &str) -> Option<&OpEntry> {
        self.entries.iter().find(|e| match e {
            OpEntry::Mosfet { name: n, .. }
            | OpEntry::Resistor { name: n, .. }
            | OpEntry::Source { name: n, .. } => n == name,
        })
    }
}

impl core::fmt::Display for OpReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for e in &self.entries {
            match e {
                OpEntry::Mosfet { name, vgs, vds, id, gm, gds, region } => writeln!(
                    f,
                    "{name:<14} MOS   vgs={vgs:7.4} V vds={vds:7.4} V id={:>10} gm={:>10} gds={:>10} {region}",
                    fmt_eng(*id, "A"),
                    fmt_eng(*gm, "S"),
                    fmt_eng(*gds, "S"),
                )?,
                OpEntry::Resistor { name, voltage, current } => writeln!(
                    f,
                    "{name:<14} RES   v={voltage:9.4} V i={:>10}",
                    fmt_eng(*current, "A")
                )?,
                OpEntry::Source { name, current } => writeln!(
                    f,
                    "{name:<14} VSRC  i={:>10}",
                    fmt_eng(*current, "A")
                )?,
            }
        }
        Ok(())
    }
}

/// Builds the `.op` report for a solved circuit.
pub fn op_report(circuit: &Circuit, solution: &DcSolution, options: &SimOptions) -> OpReport {
    let volt = |n: NodeId| solution.voltage(n);
    let temp_k = options.temperature.as_kelvin();
    let mut entries = Vec::new();
    for e in circuit.elements() {
        match e {
            Element::Mosfet {
                name,
                drain,
                gate,
                source,
                bulk,
                model,
                geom,
            } => {
                let (vg, vd, vs, vb) = (volt(*gate), volt(*drain), volt(*source), volt(*bulk));
                let op = model.op(geom, vg, vd, vs, vb, temp_k);
                // Polarity-natural bias voltages.
                let sign = match model.polarity {
                    vls_device::MosPolarity::Nmos => 1.0,
                    vls_device::MosPolarity::Pmos => -1.0,
                };
                let vgs = vg - vs;
                let vds = vd - vs;
                let (mag_vgs, mag_vds) = (sign * vgs, (sign * vds).abs());
                let vov = mag_vgs - model.vt0;
                let region = if vov <= 0.0 {
                    MosRegion::Subthreshold
                } else if mag_vds < vov {
                    MosRegion::Triode
                } else {
                    MosRegion::Saturation
                };
                entries.push(OpEntry::Mosfet {
                    name: name.clone(),
                    vgs,
                    vds,
                    id: op.id,
                    gm: op.gm,
                    gds: op.gds,
                    region,
                });
            }
            Element::Resistor {
                name,
                a,
                b,
                resistor,
            } => {
                let v = volt(*a) - volt(*b);
                entries.push(OpEntry::Resistor {
                    name: name.clone(),
                    voltage: v,
                    current: v * resistor.conductance(),
                });
            }
            Element::VoltageSource { name, .. } => {
                entries.push(OpEntry::Source {
                    name: name.clone(),
                    current: solution.branch_current(name).expect("solved source"),
                });
            }
            _ => {}
        }
    }
    OpReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_dc;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    fn amp() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource("vg", g, Circuit::GROUND, SourceWaveform::Dc(0.7));
        c.add_resistor("rl", vdd, d, 5000.0);
        c.add_mosfet(
            "m1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(1.0, 0.1),
        );
        c
    }

    #[test]
    fn report_covers_all_devices_consistently() {
        let c = amp();
        let opts = SimOptions::default();
        let sol = solve_dc(&c, &opts).unwrap();
        let rep = op_report(&c, &sol, &opts);
        assert_eq!(rep.entries().len(), 4); // 2 sources, 1 R, 1 MOS

        // KCL at the drain: resistor current equals drain current.
        let (r_i, m_id) = match (rep.entry("rl").unwrap(), rep.entry("m1").unwrap()) {
            (OpEntry::Resistor { current, .. }, OpEntry::Mosfet { id, .. }) => (*current, *id),
            _ => panic!("wrong kinds"),
        };
        // Within Newton's convergence tolerance (reltol 1e-3 leaves
        // ~1e-6-relative residuals at worst).
        assert!(
            (r_i - m_id).abs() < 1e-5 * m_id.abs().max(1e-12),
            "{r_i} vs {m_id}"
        );

        // The transistor is on and saturated at this bias.
        match rep.entry("m1").unwrap() {
            OpEntry::Mosfet {
                region, gm, vgs, ..
            } => {
                assert_eq!(*region, MosRegion::Saturation);
                assert!(*gm > 0.0);
                assert!((vgs - 0.7).abs() < 1e-9);
            }
            _ => unreachable!(),
        }

        // Display renders every row.
        let text = rep.to_string();
        assert!(text.contains("m1"));
        assert!(text.contains("saturation"));
        assert!(text.contains("VSRC"));
    }

    #[test]
    fn regions_classify_across_bias() {
        let opts = SimOptions::default();
        let region_at = |vg: f64, vd: f64| {
            let mut c = Circuit::new();
            let g = c.node("g");
            let d = c.node("d");
            c.add_vsource("vg", g, Circuit::GROUND, SourceWaveform::Dc(vg));
            c.add_vsource("vd", d, Circuit::GROUND, SourceWaveform::Dc(vd));
            c.add_mosfet(
                "m1",
                d,
                g,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(1.0, 0.1),
            );
            let sol = solve_dc(&c, &opts).unwrap();
            match op_report(&c, &sol, &opts).entry("m1").unwrap() {
                OpEntry::Mosfet { region, .. } => *region,
                _ => unreachable!(),
            }
        };
        assert_eq!(region_at(0.2, 1.2), MosRegion::Subthreshold);
        assert_eq!(region_at(1.2, 0.1), MosRegion::Triode);
        assert_eq!(region_at(0.8, 1.2), MosRegion::Saturation);
    }

    #[test]
    fn missing_entry_lookup() {
        let c = amp();
        let opts = SimOptions::default();
        let sol = solve_dc(&c, &opts).unwrap();
        let rep = op_report(&c, &sol, &opts);
        assert!(rep.entry("zz").is_none());
    }
}
