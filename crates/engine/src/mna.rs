//! Modified nodal analysis: unknown numbering and system assembly.
//!
//! Unknowns are the non-ground node voltages (in node order) followed by
//! one branch current per voltage source (in element order). Assembly
//! produces the *linearized* system `A·x_new = b` for a Newton iterate:
//! each nonlinear device is replaced by its tangent conductances plus an
//! equivalent current source evaluated at the current iterate, exactly
//! the companion-model formulation SPICE uses. The KCL residual at the
//! iterate is then simply `A·x − b`.
//!
//! [`Mna::new`] compiles the circuit once per analysis: every element's
//! terminal unknowns and constants, with each MOSFET's card bound to its
//! geometry and the analysis temperature. Assembly reads that table.

use vls_device::{BoundMos, MosBias, MosCaps, MosStamp, SourceWaveform};
use vls_netlist::{Circuit, Element, NodeId};
use vls_num::TripletMatrix;

/// The number of MNA unknowns for a circuit: non-ground nodes plus one
/// branch current per voltage source.
pub fn unknown_count(circuit: &Circuit) -> usize {
    let branches = circuit
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .count();
    circuit.node_count() - 1 + branches
}

/// Anything stamps can accumulate into: a triplet list, or the
/// Newton kernel's scatter into a compiled pattern.
pub(crate) trait MatrixSink {
    fn stamp(&mut self, row: usize, col: usize, value: f64);
}

impl MatrixSink for TripletMatrix {
    fn stamp(&mut self, row: usize, col: usize, value: f64) {
        self.add(row, col, value);
    }
}

/// A linearized capacitive branch for one transient step:
/// `i(t_new) = geq·v(t_new) − ieq` across nodes `a` → `b`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompanionCap {
    pub a: Option<usize>,
    pub b: Option<usize>,
    pub geq: f64,
    pub ieq: f64,
}

/// Assembly context: what varies between calls.
pub(crate) struct StampCtx<'a> {
    /// Simulation time for source evaluation, s.
    pub time: f64,
    /// Source homotopy scale in `[0, 1]` (1 = full sources).
    pub source_scale: f64,
    /// Node-to-ground conductance floor.
    pub gmin: f64,
    /// Companion models for this step; `None` means DC (capacitors
    /// open, MOS capacitances ignored).
    pub reactive: Option<&'a [CompanionCap]>,
}

/// A MOSFET compiled for assembly: its terminal unknowns (`None` for
/// ground) and its card bound to its geometry and the analysis
/// temperature.
pub(crate) struct MosInstance {
    pub d: Option<usize>,
    pub g: Option<usize>,
    pub s: Option<usize>,
    pub b: Option<usize>,
    pub dev: BoundMos,
}

impl MosInstance {
    /// The terminal voltages at unknown vector `x`.
    pub fn bias(&self, x: &[f64]) -> MosBias {
        let v = |i: Option<usize>| i.map_or(0.0, |i| x[i]);
        MosBias::new(v(self.g), v(self.d), v(self.s), v(self.b))
    }

    /// The node pairs of the five Meyer capacitances, in the order of
    /// the `MosCaps` fields: gs, gd, gb, db, sb.
    pub fn cap_pairs(&self) -> [(Option<usize>, Option<usize>); 5] {
        [
            (self.g, self.s),
            (self.g, self.d),
            (self.g, self.b),
            (self.d, self.b),
            (self.s, self.b),
        ]
    }
}

/// One element compiled for assembly. Capacitors stamp only through
/// the companion models of `StampCtx::reactive`, so they have none.
enum Stamp<'c> {
    Conductance {
        a: Option<usize>,
        b: Option<usize>,
        g: f64,
    },
    VoltageSource {
        pos: Option<usize>,
        neg: Option<usize>,
        branch: usize,
        wave: &'c SourceWaveform,
    },
    CurrentSource {
        pos: Option<usize>,
        neg: Option<usize>,
        wave: &'c SourceWaveform,
    },
    /// Index into [`Mna::mosfets`].
    Mosfet(usize),
}

/// One circuit compiled for assembly at one temperature: the unknown
/// numbering, and every element's terminal unknowns and constants in
/// element order (the order assembly stamps in).
pub(crate) struct Mna<'c> {
    circuit: &'c Circuit,
    n_node_unknowns: usize,
    /// Branch unknown per element index (voltage sources only).
    branch_of: Vec<Option<usize>>,
    stamps: Vec<Stamp<'c>>,
    mosfets: Vec<MosInstance>,
    pub n_unknowns: usize,
}

impl<'c> Mna<'c> {
    /// Numbers the unknowns of `circuit` and compiles its elements,
    /// binding every MOSFET at `temp_k` kelvin.
    pub fn new(circuit: &'c Circuit, temp_k: f64) -> Self {
        let n_node_unknowns = circuit.node_count() - 1;
        let idx = |n: NodeId| (!n.is_ground()).then(|| n.index() - 1);
        let mut branch_of = Vec::with_capacity(circuit.elements().len());
        let mut stamps = Vec::with_capacity(circuit.elements().len());
        let mut mosfets = Vec::new();
        let mut next = n_node_unknowns;
        for e in circuit.elements() {
            let branch = e.needs_branch_current().then(|| {
                next += 1;
                next - 1
            });
            branch_of.push(branch);
            match e {
                Element::Resistor { a, b, resistor, .. } => stamps.push(Stamp::Conductance {
                    a: idx(*a),
                    b: idx(*b),
                    g: resistor.conductance(),
                }),
                Element::Capacitor { .. } => {}
                Element::VoltageSource { pos, neg, wave, .. } => {
                    stamps.push(Stamp::VoltageSource {
                        pos: idx(*pos),
                        neg: idx(*neg),
                        branch: branch.expect("vsource has a branch"),
                        wave,
                    })
                }
                Element::CurrentSource { pos, neg, wave, .. } => {
                    stamps.push(Stamp::CurrentSource {
                        pos: idx(*pos),
                        neg: idx(*neg),
                        wave,
                    })
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
                    stamps.push(Stamp::Mosfet(mosfets.len()));
                    mosfets.push(MosInstance {
                        d: idx(*drain),
                        g: idx(*gate),
                        s: idx(*source),
                        b: idx(*bulk),
                        dev: model.bind(geom, temp_k),
                    });
                }
            }
        }
        Self {
            circuit,
            n_node_unknowns,
            branch_of,
            stamps,
            mosfets,
            n_unknowns: next,
        }
    }

    /// Maps a node to its unknown index (`None` for ground).
    pub fn idx(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// The branch-current unknown of element `elem_idx`, if any (the
    /// AC analysis uses this to place the unit excitation).
    pub fn branch_index(&self, elem_idx: usize) -> Option<usize> {
        self.branch_of[elem_idx]
    }

    /// The number of node-voltage unknowns (they occupy the front of
    /// the unknown vector; branch currents follow).
    pub fn node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }

    /// The compiled MOSFETs, in element order.
    pub fn mosfets(&self) -> &[MosInstance] {
        &self.mosfets
    }

    /// The human name of unknown `i`: the circuit node name for voltage
    /// unknowns, `I(<element>)` for branch-current unknowns. This is
    /// what singular-matrix diagnostics print instead of a bare index.
    pub fn unknown_name(&self, i: usize) -> String {
        if i < self.n_node_unknowns {
            // Node unknown i is node index i + 1 (ground is index 0).
            let id = self
                .circuit
                .node_ids()
                .nth(i + 1)
                .expect("node unknown maps to a node");
            self.circuit.node_name(id).to_string()
        } else {
            self.branch_of
                .iter()
                .position(|&b| b == Some(i))
                .map(|elem_idx| format!("I({})", self.circuit.elements()[elem_idx].name()))
                .unwrap_or_else(|| format!("unknown {i}"))
        }
    }

    /// Assembles the linearized MNA system at iterate `x` into `a`
    /// (pre-cleared by the caller) and `b` (pre-zeroed), evaluating
    /// every MOSFET once. With a `record` (one slot per MOSFET, in
    /// [`Self::mosfets`] order) that one walk also writes each MOSFET's
    /// Meyer capacitances at `x` into it. Returns the number of MOSFET
    /// evaluations made (the MOSFET count), for the caller's
    /// `SolverStats::device_evals`. The stamp *positions* and their
    /// order depend only on the circuit and on which companion branches
    /// `ctx` carries, never on `x` or `record`.
    pub fn assemble<M: MatrixSink>(
        &self,
        x: &[f64],
        a: &mut M,
        b: &mut [f64],
        ctx: &StampCtx,
        mut record: Option<&mut [MosCaps]>,
    ) -> u64 {
        debug_assert_eq!(x.len(), self.n_unknowns);
        debug_assert_eq!(b.len(), self.n_unknowns);

        // gmin from every node unknown to ground keeps the matrix
        // nonsingular when devices are cut off.
        for i in 0..self.n_node_unknowns {
            a.stamp(i, i, ctx.gmin);
        }

        let stamp_conductance = |a: &mut M, na: Option<usize>, nb: Option<usize>, g: f64| {
            if let Some(i) = na {
                a.stamp(i, i, g);
                if let Some(j) = nb {
                    a.stamp(i, j, -g);
                }
            }
            if let Some(j) = nb {
                a.stamp(j, j, g);
                if let Some(i) = na {
                    a.stamp(j, i, -g);
                }
            }
        };

        for stamp in &self.stamps {
            match *stamp {
                Stamp::Conductance { a: na, b: nb, g } => stamp_conductance(a, na, nb, g),
                Stamp::VoltageSource {
                    pos,
                    neg,
                    branch: br,
                    wave,
                } => {
                    if let Some(i) = pos {
                        a.stamp(i, br, 1.0);
                        a.stamp(br, i, 1.0);
                    }
                    if let Some(j) = neg {
                        a.stamp(j, br, -1.0);
                        a.stamp(br, j, -1.0);
                    }
                    b[br] = wave.value_at(ctx.time) * ctx.source_scale;
                }
                Stamp::CurrentSource { pos, neg, wave } => {
                    let i_val = wave.value_at(ctx.time) * ctx.source_scale;
                    if let Some(i) = pos {
                        b[i] += i_val;
                    }
                    if let Some(j) = neg {
                        b[j] -= i_val;
                    }
                }
                Stamp::Mosfet(k) => {
                    let m = &self.mosfets[k];
                    let (nd, ng, ns, nb) = (m.d, m.g, m.s, m.b);
                    let bias = m.bias(x);
                    let (vg, vd, vs, vb) = (bias.vg, bias.vd, bias.vs, bias.vb);
                    let op = match record.as_deref_mut() {
                        Some(caps) => {
                            let (op, mc) = m.dev.op_caps(vg, vd, vs, vb);
                            caps[k] = mc;
                            op
                        }
                        None => m.dev.op(vg, vd, vs, vb),
                    };
                    let s = MosStamp::from_op(&op, &bias);
                    // Drain row: current I_D leaves the drain node into
                    // the channel.
                    if let Some(rd) = nd {
                        if let Some(c) = ng {
                            a.stamp(rd, c, s.gm);
                        }
                        if let Some(c) = nd {
                            a.stamp(rd, c, s.gds);
                        }
                        if let Some(c) = ns {
                            a.stamp(rd, c, s.gss);
                        }
                        if let Some(c) = nb {
                            a.stamp(rd, c, s.gmb);
                        }
                        b[rd] -= s.ieq;
                    }
                    // Source row: the same current arrives.
                    if let Some(rs) = ns {
                        if let Some(c) = ng {
                            a.stamp(rs, c, -s.gm);
                        }
                        if let Some(c) = nd {
                            a.stamp(rs, c, -s.gds);
                        }
                        if let Some(c) = ns {
                            a.stamp(rs, c, -s.gss);
                        }
                        if let Some(c) = nb {
                            a.stamp(rs, c, -s.gmb);
                        }
                        b[rs] += s.ieq;
                    }
                }
            }
        }

        if let Some(caps) = ctx.reactive {
            for c in caps {
                stamp_conductance(a, c.a, c.b, c.geq);
                if let Some(i) = c.a {
                    b[i] += c.ieq;
                }
                if let Some(j) = c.b {
                    b[j] -= c.ieq;
                }
            }
        }
        self.mosfets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_count_counts_nodes_and_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_vsource("v2", b, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("r1", a, b, 100.0);
        assert_eq!(unknown_count(&c), 4); // 2 nodes + 2 branches
        let mna = Mna::new(&c, 300.15);
        assert_eq!(mna.n_unknowns, 4);
        assert_eq!(mna.idx(Circuit::GROUND), None);
        assert_eq!(mna.idx(a), Some(0));
        assert_eq!(mna.branch_index(0), Some(2));
        assert_eq!(mna.branch_index(2), None);
    }

    #[test]
    fn unknown_names_cover_nodes_and_branches() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource("vsup", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_resistor("r1", vdd, mid, 1000.0);
        c.add_resistor("r2", mid, out, 1000.0);
        c.add_resistor("r3", out, Circuit::GROUND, 1000.0);
        let mna = Mna::new(&c, 300.15);
        assert_eq!(mna.unknown_name(0), "vdd");
        assert_eq!(mna.unknown_name(1), "mid");
        assert_eq!(mna.unknown_name(2), "out");
        assert_eq!(mna.unknown_name(3), "I(vsup)");
    }

    #[test]
    fn divider_assembles_to_the_textbook_system() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("r1", top, mid, 1000.0);
        c.add_resistor("r2", mid, Circuit::GROUND, 1000.0);
        let mna = Mna::new(&c, 300.15);
        let n = mna.n_unknowns;
        let mut t = TripletMatrix::new(n);
        let mut b = vec![0.0; n];
        let x = vec![0.0; n];
        let ctx = StampCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 0.0,
            reactive: None,
        };
        mna.assemble(&x, &mut t, &mut b, &ctx, None);
        let a = t.to_csc().to_dense();
        let g = 1e-3;
        assert!((a.get(0, 0) - g).abs() < 1e-15); // top: r1 only
        assert!((a.get(1, 1) - 2.0 * g).abs() < 1e-15); // mid: r1 + r2
        assert!((a.get(0, 1) + g).abs() < 1e-15);
        assert_eq!(a.get(0, 2), 1.0); // vsource column
        assert_eq!(a.get(2, 0), 1.0); // vsource row
        assert_eq!(b[2], 2.0);
        // Solving it gives the divider voltages.
        let sol = a.solve(&b).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-9);
        assert!((sol[1] - 1.0).abs() < 1e-9);
        // Branch current: 2 V across 2 kΩ delivered by the source ⇒
        // −1 mA in the + → − convention.
        assert!((sol[2] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_injects_at_pos() {
        let mut c = Circuit::new();
        let a_node = c.node("a");
        c.add_isource("i1", a_node, Circuit::GROUND, SourceWaveform::Dc(1e-3));
        c.add_resistor("r1", a_node, Circuit::GROUND, 1000.0);
        let mna = Mna::new(&c, 300.15);
        let mut t = TripletMatrix::new(1);
        let mut b = vec![0.0];
        let ctx = StampCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 0.0,
            reactive: None,
        };
        mna.assemble(&[0.0], &mut t, &mut b, &ctx, None);
        let sol = t.to_csc().to_dense().solve(&b).unwrap();
        // 1 mA into 1 kΩ ⇒ +1 V.
        assert!((sol[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn companion_caps_stamp_like_conductances() {
        let mut c = Circuit::new();
        let a_node = c.node("a");
        c.add_resistor("r1", a_node, Circuit::GROUND, 1000.0);
        let mna = Mna::new(&c, 300.15);
        let caps = [CompanionCap {
            a: Some(0),
            b: None,
            geq: 1e-3,
            ieq: 2e-3,
        }];
        let mut t = TripletMatrix::new(1);
        let mut b = vec![0.0];
        let ctx = StampCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 0.0,
            reactive: Some(&caps),
        };
        mna.assemble(&[0.0], &mut t, &mut b, &ctx, None);
        let a = t.to_csc().to_dense();
        assert!((a.get(0, 0) - 2e-3).abs() < 1e-15); // r + geq
        assert!((b[0] - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn source_scale_scales_sources_only() {
        let mut c = Circuit::new();
        let a_node = c.node("a");
        c.add_vsource("v1", a_node, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("r1", a_node, Circuit::GROUND, 100.0);
        let mna = Mna::new(&c, 300.15);
        let mut t = TripletMatrix::new(2);
        let mut b = vec![0.0; 2];
        let ctx = StampCtx {
            time: 0.0,
            source_scale: 0.25,
            gmin: 0.0,
            reactive: None,
        };
        mna.assemble(&[0.0, 0.0], &mut t, &mut b, &ctx, None);
        assert_eq!(b[1], 0.5);
    }
}
