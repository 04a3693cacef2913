//! The capacitive network of a circuit: every capacitance it holds,
//! merged into one branch per unordered pair of distinct nodes. The
//! transient stepper integrates it and the AC analysis stamps its
//! admittances; neither enumerates capacitors itself.
//!
//! Each explicit capacitor and each of a MOSFET's five Meyer slots (gs,
//! gd, gb, db, sb, in the order of `MosInstance::cap_pairs`) is a member
//! of the branch of its node pair, in either orientation. A slot whose
//! two terminals are one node (a source tied to its bulk, say) is a
//! member of none: its companion would stamp `+g` and `−g` on one
//! diagonal and add nothing. A branch's capacitance is the sum of its
//! members'. The θ-trapezoid companion (`geq = C/(θh)`, `ieq = geq·v +
//! (1 − θ)/θ·i`) and the AC admittance `jωC` are linear in `C`, and a
//! branch's history current is the sum of its members', so a branch
//! stamps what its members stamped one by one, up to floating-point
//! order. A branch between two source-held nodes stays: its current
//! reaches the sources' branch currents, which the supply-current
//! measurements read.
//!
//! The unit test `network_stamps_what_each_capacitor_stamped` checks the
//! merge against a per-capacitor reference at every stored sample of a
//! MOSFET inverter and of a chipgen floorplan: the transient assembly
//! and the AC admittances, entry by entry, within a few ulps of the
//! entry's summed stamp magnitudes. On the SS-TVS measurement harness
//! the 86 capacitor slots (17 MOSFETs and the load) are 35 branches.

use std::collections::HashMap;

use vls_device::MosCaps;
use vls_netlist::{Circuit, Element};
use vls_num::{Complex, ComplexMatrix};

use crate::mna::{CompanionCap, Mna};

/// One branch of a [`CapNetwork`]: the capacitance between two distinct
/// nodes and its integration history.
#[derive(Debug, Clone)]
struct CapBranch {
    /// The terminal unknowns (`None` for ground), oriented as the
    /// branch's first member.
    a: Option<usize>,
    b: Option<usize>,
    /// The summed capacitance of the branch's explicit capacitors, F.
    fixed: f64,
    /// The branch capacitance as last set: `fixed` plus its Meyer
    /// members, F.
    c: f64,
    /// Branch voltage `v(a) − v(b)` at the last accepted point.
    v_prev: f64,
    /// Branch current at the last accepted point (the trapezoid's
    /// history).
    i_prev: f64,
}

impl CapBranch {
    /// The companion model for a step of `h` at damping `theta`. A
    /// zero-capacitance branch stamps a zero placeholder, so the stamp
    /// pattern never changes between steps.
    fn companion(&self, theta: f64, h: f64) -> CompanionCap {
        let (geq, ieq) = if self.c <= 0.0 {
            (0.0, 0.0)
        } else {
            let geq = self.c / (theta * h);
            (geq, geq * self.v_prev + (1.0 - theta) / theta * self.i_prev)
        };
        CompanionCap {
            a: self.a,
            b: self.b,
            geq,
            ieq,
        }
    }
}

/// The capacitances of one circuit as one branch per node pair (see the
/// module docs), with each branch's transient history.
pub(crate) struct CapNetwork {
    /// In order of their first member, in element order.
    branches: Vec<CapBranch>,
    /// Per MOSFET, in `Mna::mosfets` order: the branch of each Meyer
    /// slot (gs, gd, gb, db, sb), `None` for a slot on one node.
    meyer: Vec<[Option<usize>; 5]>,
    /// The companions of the last [`Self::companions`] call, one per
    /// branch.
    companions: Vec<CompanionCap>,
}

impl CapNetwork {
    /// The network of `circuit`, compiled as `mna`: explicit capacitors
    /// of positive capacitance and every MOSFET's Meyer slots. Every
    /// branch starts uncharged, at the capacitance of its explicit
    /// capacitors.
    pub fn new(circuit: &Circuit, mna: &Mna<'_>) -> Self {
        let mut network = Self {
            branches: Vec::new(),
            meyer: Vec::with_capacity(mna.mosfets().len()),
            companions: Vec::new(),
        };
        let mut index = HashMap::new();
        let mut mosfets = mna.mosfets().iter();
        for e in circuit.elements() {
            match e {
                Element::Capacitor {
                    a, b, capacitor, ..
                } if capacitor.capacitance() > 0.0 => {
                    if let Some(k) = network.branch(&mut index, mna.idx(*a), mna.idx(*b)) {
                        network.branches[k].fixed += capacitor.capacitance();
                    }
                }
                Element::Mosfet { .. } => {
                    let m = mosfets.next().expect("one compiled MOSFET per element");
                    let slots = m.cap_pairs().map(|(a, b)| network.branch(&mut index, a, b));
                    network.meyer.push(slots);
                }
                _ => {}
            }
        }
        for br in &mut network.branches {
            br.c = br.fixed;
        }
        network
    }

    /// The branch joining `a` and `b`, added on first use and found in
    /// `index` by the pair with its smaller end first; `None` when the
    /// two are one node.
    fn branch(
        &mut self,
        index: &mut HashMap<(Option<usize>, Option<usize>), usize>,
        a: Option<usize>,
        b: Option<usize>,
    ) -> Option<usize> {
        if a == b {
            return None;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        Some(*index.entry(key).or_insert_with(|| {
            self.branches.push(CapBranch {
                a,
                b,
                fixed: 0.0,
                c: 0.0,
                v_prev: 0.0,
                i_prev: 0.0,
            });
            self.branches.len() - 1
        }))
    }

    /// Sets every branch's capacitance to its explicit capacitors' plus
    /// its Meyer members' in `meyer`, one entry per MOSFET in
    /// `Mna::mosfets` order.
    pub fn set_caps(&mut self, meyer: impl IntoIterator<Item = MosCaps>) {
        for br in &mut self.branches {
            br.c = br.fixed;
        }
        for (slots, mc) in self.meyer.iter().zip(meyer) {
            for (&slot, c) in slots.iter().zip([mc.cgs, mc.cgd, mc.cgb, mc.cdb, mc.csb]) {
                if let Some(k) = slot {
                    self.branches[k].c += c;
                }
            }
        }
    }

    /// Starts every branch's history at the point `x`: its voltage
    /// there, no current.
    pub fn start_at(&mut self, x: &[f64]) {
        for br in &mut self.branches {
            br.v_prev = volt(x, br.a) - volt(x, br.b);
            br.i_prev = 0.0;
        }
    }

    /// The companion of every branch for a step of `h` at damping
    /// `theta`, at the capacitances last set.
    pub fn companions(&mut self, theta: f64, h: f64) -> &[CompanionCap] {
        self.companions.clear();
        self.companions
            .extend(self.branches.iter().map(|br| br.companion(theta, h)));
        &self.companions
    }

    /// Advances every branch's history to the accepted point `x`, which
    /// solved the system the last [`Self::companions`] stamped, through
    /// the companion identity `i = geq·v − ieq`.
    pub fn advance(&mut self, x: &[f64]) {
        for (br, comp) in self.branches.iter_mut().zip(&self.companions) {
            let v = volt(x, br.a) - volt(x, br.b);
            if br.c > 0.0 {
                br.i_prev = comp.geq * v - comp.ieq;
            }
            br.v_prev = v;
        }
    }

    /// Adds every branch's admittance `jωC` at angular frequency `omega`
    /// and the capacitances last set into `a`.
    pub fn stamp_admittances(&self, omega: f64, a: &mut ComplexMatrix) {
        for br in &self.branches {
            stamp_admittance(a, br.a, br.b, Complex::new(0.0, omega * br.c));
        }
    }
}

/// The voltage of unknown `n` in `x` (`None` is ground).
fn volt(x: &[f64], n: Option<usize>) -> f64 {
    n.map_or(0.0, |i| x[i])
}

/// Adds the admittance `y` between `na` and `nb` into `a`.
fn stamp_admittance(a: &mut ComplexMatrix, na: Option<usize>, nb: Option<usize>, y: Complex) {
    if let Some(i) = na {
        a.add(i, i, y);
        if let Some(j) = nb {
            a.add(i, j, -y);
        }
    }
    if let Some(j) = nb {
        a.add(j, j, y);
        if let Some(i) = na {
            a.add(j, i, -y);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use vls_num::TripletMatrix;

    use super::*;
    use crate::kernel::tests::chip;
    use crate::mna::{MatrixSink, StampCtx};
    use crate::tran::tests::pwl_inverter;
    use crate::tran::THETA;
    use crate::{run_transient, SimOptions};

    /// Each MOSFET's Meyer capacitances at `x`, in `Mna::mosfets` order,
    /// from a standalone walk.
    pub(crate) fn meyer_at<'a>(
        mna: &'a Mna<'_>,
        x: &'a [f64],
    ) -> impl Iterator<Item = MosCaps> + 'a {
        mna.mosfets().iter().map(move |m| {
            let bias = m.bias(x);
            m.dev.caps(bias.vg, bias.vd, bias.vs, bias.vb)
        })
    }

    /// One capacitor of the per-capacitor [`Reference`].
    struct Member {
        a: Option<usize>,
        b: Option<usize>,
        c: f64,
        v_prev: f64,
        i_prev: f64,
    }

    /// The network the merged one replaced, kept as its oracle: one
    /// member per explicit capacitor and per Meyer slot, self-pairs
    /// included, each integrated on its own.
    struct Reference {
        members: Vec<Member>,
        /// The index of each MOSFET's first Meyer slot.
        mos_base: Vec<usize>,
    }

    impl Reference {
        fn new(circuit: &Circuit, mna: &Mna<'_>) -> Self {
            let member = |a, b, c| Member {
                a,
                b,
                c,
                v_prev: 0.0,
                i_prev: 0.0,
            };
            let mut members = Vec::new();
            let mut mos_base = Vec::new();
            let mut mosfets = mna.mosfets().iter();
            for e in circuit.elements() {
                match e {
                    Element::Capacitor {
                        a, b, capacitor, ..
                    } if capacitor.capacitance() > 0.0 => {
                        members.push(member(mna.idx(*a), mna.idx(*b), capacitor.capacitance()));
                    }
                    Element::Mosfet { .. } => {
                        let m = mosfets.next().expect("one compiled MOSFET per element");
                        mos_base.push(members.len());
                        members.extend(m.cap_pairs().map(|(a, b)| member(a, b, 0.0)));
                    }
                    _ => {}
                }
            }
            Self { members, mos_base }
        }

        fn set_caps(&mut self, meyer: &[MosCaps]) {
            for (&base, mc) in self.mos_base.iter().zip(meyer) {
                let values = [mc.cgs, mc.cgd, mc.cgb, mc.cdb, mc.csb];
                for (m, c) in self.members[base..base + 5].iter_mut().zip(values) {
                    m.c = c;
                }
            }
        }

        fn start_at(&mut self, x: &[f64]) {
            for m in &mut self.members {
                m.v_prev = volt(x, m.a) - volt(x, m.b);
            }
        }

        fn companions(&self, theta: f64, h: f64) -> Vec<CompanionCap> {
            self.members
                .iter()
                .map(|m| {
                    let (geq, ieq) = if m.c <= 0.0 {
                        (0.0, 0.0)
                    } else {
                        let geq = m.c / (theta * h);
                        (geq, geq * m.v_prev + (1.0 - theta) / theta * m.i_prev)
                    };
                    CompanionCap {
                        a: m.a,
                        b: m.b,
                        geq,
                        ieq,
                    }
                })
                .collect()
        }

        fn advance(&mut self, x: &[f64], companions: &[CompanionCap]) {
            for (m, comp) in self.members.iter_mut().zip(companions) {
                let v = volt(x, m.a) - volt(x, m.b);
                if m.c > 0.0 {
                    m.i_prev = comp.geq * v - comp.ieq;
                }
                m.v_prev = v;
            }
        }

        /// Each member's admittance `jωC` into `a`, or with
        /// `magnitudes` its modulus into every entry it touches.
        fn stamp_admittances(&self, omega: f64, a: &mut ComplexMatrix, magnitudes: bool) {
            for m in &self.members {
                let y = Complex::new(0.0, omega * m.c);
                if magnitudes {
                    let y = Complex::from_real(y.abs());
                    for (r, c) in [(m.a, m.a), (m.a, m.b), (m.b, m.a), (m.b, m.b)] {
                        if let (Some(r), Some(c)) = (r, c) {
                            a.add(r, c, y);
                        }
                    }
                } else {
                    stamp_admittance(a, m.a, m.b, y);
                }
            }
        }
    }

    /// A sink that sums the moduli of the stamps at each position.
    struct Magnitudes(TripletMatrix);

    impl MatrixSink for Magnitudes {
        fn stamp(&mut self, row: usize, col: usize, value: f64) {
            self.0.add(row, col, value.abs());
        }
    }

    /// Differences allowed, in units of `f64::EPSILON` times an entry's
    /// summed stamp magnitudes. Sums of the same terms in another order
    /// differ by at most a few; the right-hand side also carries each
    /// branch's history current, whose rounding differences from its
    /// members' sum accumulate from step to step, damped by (1 − θ)/θ.
    /// Measured worst: 4.6 on the matrices and admittances, 11.1 on a
    /// right-hand side of the chipgen floorplan.
    const ULPS: f64 = 16.0;

    fn assert_close(what: &str, got: f64, want: f64, magnitude: f64) {
        assert!(
            (got - want).abs() <= ULPS * f64::EPSILON * magnitude,
            "{what}: {got:e} against the reference's {want:e} (stamp magnitudes {magnitude:e})"
        );
    }

    /// Runs a default transient of `circuit` to `tstop` and, at every
    /// stored sample after the first, gives the network and the
    /// reference the Meyer capacitances at the sample before, the step
    /// between the two and the stepper's θ, then compares the full
    /// transient assembly at the sample (matrix and right-hand side)
    /// and the AC admittances entry by entry, and advances both
    /// histories to the sample. Returns the network and the reference's
    /// member count.
    fn check_against_reference(circuit: &Circuit, tstop: f64) -> (CapNetwork, usize) {
        let options = SimOptions::default();
        let mna = Mna::new(circuit, options.temperature.as_kelvin());
        let n = mna.n_unknowns;
        let mut network = CapNetwork::new(circuit, &mna);
        let mut reference = Reference::new(circuit, &mna);
        let res = run_transient(circuit, tstop, &options).expect("transient converges");
        let times = res.times();
        let sample = |s: usize| res.state_at(times[s]).expect("a stored sample").1;
        network.start_at(sample(0));
        reference.start_at(sample(0));
        let assemble = |x: &[f64], reactive: &[CompanionCap], t: f64| {
            let ctx = StampCtx {
                time: t,
                source_scale: 1.0,
                gmin: options.gmin,
                reactive: Some(reactive),
            };
            let mut a = TripletMatrix::new(n);
            let mut b = vec![0.0; n];
            mna.assemble(x, &mut a, &mut b, &ctx, None);
            let mut mag = Magnitudes(TripletMatrix::new(n));
            mna.assemble(x, &mut mag, &mut vec![0.0; n], &ctx, None);
            (a.to_csc(), b, mag.0.to_csc())
        };
        let omega = 2.0 * std::f64::consts::PI * 1e9;
        for s in 1..times.len() {
            let (x_prev, x, t) = (sample(s - 1), sample(s), times[s]);
            let h = t - times[s - 1];
            let theta = if s == 1 { 1.0 } else { THETA };
            let meyer: Vec<MosCaps> = meyer_at(&mna, x_prev).collect();
            network.set_caps(meyer.iter().copied());
            reference.set_caps(&meyer);

            let merged = network.companions(theta, h).to_vec();
            let members = reference.companions(theta, h);
            let (a_net, b_net, _) = assemble(x, &merged, t);
            let (a_ref, b_ref, a_mag) = assemble(x, &members, t);
            assert_eq!(a_net.col_ptr(), a_ref.col_ptr(), "pattern at sample {s}");
            assert_eq!(a_net.row_indices(), a_ref.row_indices());
            for (k, (&got, &want)) in a_net.values().iter().zip(a_ref.values()).enumerate() {
                let what = format!("matrix entry {k} at sample {s}");
                assert_close(&what, got, want, a_mag.values()[k]);
            }
            // The right-hand side's magnitudes: the elements' part, which
            // both assemble identically before the companions, plus the
            // two terms of every member companion's current.
            let (_, mut b_mag, _) = assemble(x, &[], t);
            b_mag.iter_mut().for_each(|v| *v = v.abs());
            for (comp, m) in members.iter().zip(&reference.members) {
                let charge = comp.geq * m.v_prev;
                let terms = charge.abs() + (comp.ieq - charge).abs();
                for i in [comp.a, comp.b].into_iter().flatten() {
                    b_mag[i] += terms;
                }
            }
            for (i, (&got, &want)) in b_net.iter().zip(&b_ref).enumerate() {
                assert_close(&format!("rhs {i} at sample {s}"), got, want, b_mag[i]);
            }

            let mut y_net = ComplexMatrix::zeros(n);
            let mut y_ref = ComplexMatrix::zeros(n);
            let mut y_mag = ComplexMatrix::zeros(n);
            network.stamp_admittances(omega, &mut y_net);
            reference.stamp_admittances(omega, &mut y_ref, false);
            reference.stamp_admittances(omega, &mut y_mag, true);
            for r in 0..n {
                for c in 0..n {
                    let (got, want) = (y_net.get(r, c), y_ref.get(r, c));
                    let what = format!("admittance ({r}, {c}) at sample {s}");
                    assert_eq!(got.re, 0.0, "{what}");
                    assert_close(&what, got.im, want.im, y_mag.get(r, c).re);
                }
            }

            network.advance(x);
            reference.advance(x, &members);
        }
        assert!(times.len() > 10, "{} samples", times.len());
        (network, reference.members.len())
    }

    #[test]
    fn network_stamps_what_each_capacitor_stamped() {
        // The inverter: the load and two MOSFETs' ten slots, two of them
        // on one node (each source tied to its bulk), on five pairs.
        let (network, slots) = check_against_reference(&pwl_inverter(), 2.5e-9);
        assert_eq!((slots, network.branches.len()), (11, 5));
        // A chipgen floorplan, where many MOSFETs share node pairs.
        let (network, slots) = check_against_reference(&chip(20), 0.2e-9);
        let branches = network.branches.len();
        assert!(branches < slots, "{branches} branches of {slots} slots");
    }
}
