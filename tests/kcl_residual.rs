//! KCL residual oracle for the DC operating point.
//!
//! The Newton solver linearizes every MOSFET to find the operating
//! point; this suite checks the answer without the linearization. At a
//! converged DC point the currents leaving every node that no voltage
//! source drives must sum to zero: MOSFET channel currents from
//! `MosModel::ids_terminal` (the large-signal model itself, not its
//! derivatives), resistor currents from their conductance, current
//! sources from their waveform at t = 0, and the solver's gmin leak to
//! ground. Capacitors are open at DC.
//!
//! A residual in amperes means little on its own: a node held by an
//! on-state device in triode carries almost no current but a large
//! conductance. Each residual is therefore expressed as a voltage, the
//! residual over the node's self-conductance `∂r/∂v` (a secant of the
//! same large-signal currents). The bound is the solver's absolute
//! voltage tolerance `vabstol` (1 µV): Newton stops once its update is
//! within `vabstol + reltol·|v|`, and the quadratic last step leaves the
//! converged point far closer than that (about 2 nV at worst over the six
//! cells). A node 1 mV off reads as 1 mV.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, KhanSsvs, PuriSsvs, ShifterKind, VoltagePair};
use sstvs::engine::{solve_dc, SimOptions};
use sstvs::netlist::{Circuit, Element, NodeId};

/// Step of the secant that measures a node's self-conductance, V.
const SECANT_V: f64 = 1e-6;

/// All six cells, each in a direction it supports.
fn six_cells() -> Vec<(ShifterKind, VoltagePair)> {
    vec![
        (ShifterKind::sstvs(), VoltagePair::low_to_high()),
        (ShifterKind::combined(), VoltagePair::low_to_high()),
        (
            ShifterKind::Conventional(Default::default()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Khan(KhanSsvs::new()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Puri(PuriSsvs::new()),
            VoltagePair::low_to_high(),
        ),
        (
            ShifterKind::Inverter(Inverter::minimum()),
            VoltagePair::high_to_low(),
        ),
    ]
}

/// Signed sum of the currents leaving each node at node voltages `v`
/// (indexed by `NodeId::index`, ground at 0 V), or `None` for ground and
/// for nodes incident to a voltage source, whose branch current is an
/// unknown that balances them by construction.
fn kcl(circuit: &Circuit, v: &[f64], gmin: f64, temp_k: f64) -> Vec<Option<f64>> {
    let mut nodes = vec![Some(0.0); circuit.node_count()];
    nodes[Circuit::GROUND.index()] = None;
    for e in circuit.elements() {
        if let Element::VoltageSource { pos, neg, .. } = e {
            nodes[pos.index()] = None;
            nodes[neg.index()] = None;
        }
    }
    let volt = |n: NodeId| v[n.index()];
    let mut leave = |n: NodeId, i: f64| {
        if let Some(sum) = nodes[n.index()].as_mut() {
            *sum += i;
        }
    };
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, resistor, .. } => {
                let i = (volt(*a) - volt(*b)) * resistor.conductance();
                leave(*a, i);
                leave(*b, -i);
            }
            Element::Capacitor { .. } | Element::VoltageSource { .. } => {}
            Element::CurrentSource { pos, neg, wave, .. } => {
                // Conventional current leaves `pos` through the source
                // into the external circuit, i.e. it enters `pos`.
                let i = wave.value_at(0.0);
                leave(*pos, -i);
                leave(*neg, i);
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                bulk,
                model,
                geom,
                ..
            } => {
                let id = model.ids_terminal(
                    geom,
                    volt(*gate),
                    volt(*drain),
                    volt(*source),
                    volt(*bulk),
                    temp_k,
                );
                leave(*drain, id);
                leave(*source, -id);
            }
        }
    }
    for n in circuit.node_ids() {
        if !n.is_ground() {
            leave(n, gmin * volt(n));
        }
    }
    nodes
}

/// The KCL residual at free node `k` as a voltage: residual over the
/// node's self-conductance. `None` when a voltage source drives `k`.
fn voltage_residual(circuit: &Circuit, v: &[f64], k: usize, gmin: f64, temp_k: f64) -> Option<f64> {
    let at = |dv: f64| {
        let mut w = v.to_vec();
        w[k] += dv;
        kcl(circuit, &w, gmin, temp_k)[k]
    };
    let r = at(0.0)?;
    let g = (at(SECANT_V)? - at(-SECANT_V)?) / (2.0 * SECANT_V);
    assert!(g > 0.0, "node {k}: self-conductance {g:e} must be positive");
    Some(r / g)
}

/// Every cell's default-options DC operating point satisfies KCL to
/// within `vabstol` at every node no voltage source drives, and the same
/// check rejects the point once any one of those nodes moves 1 mV.
#[test]
fn dc_operating_points_satisfy_kcl_and_a_1mv_shift_does_not() {
    let opts = SimOptions::default();
    let temp_k = opts.temperature.as_kelvin();
    let mut checked_nodes = 0;
    for (kind, domains) in six_cells() {
        let (stim, ..) = Harness::standard_stimulus(domains);
        let h = Harness::build(&kind, domains, stim, 1e-15);
        let c = &h.circuit;
        let dc = solve_dc(c, &opts).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        let v: Vec<f64> = (0..c.node_count())
            .map(|k| dc.voltage(NodeId::from_index(k)))
            .collect();
        for k in 0..v.len() {
            let Some(err) = voltage_residual(c, &v, k, opts.gmin, temp_k) else {
                continue;
            };
            let name = c.node_name(NodeId::from_index(k));
            assert!(
                err.abs() <= opts.vabstol,
                "{}: KCL residual at {name} is {err:.3e} V",
                kind.label()
            );
            let mut shifted = v.clone();
            shifted[k] += 1e-3;
            let moved = voltage_residual(c, &shifted, k, opts.gmin, temp_k).expect("free node");
            assert!(
                moved.abs() > opts.vabstol,
                "{}: 1 mV at {name} went unnoticed ({moved:.3e} V)",
                kind.label()
            );
            checked_nodes += 1;
        }
    }
    assert!(checked_nodes >= 30, "too few free nodes: {checked_nodes}");
}
