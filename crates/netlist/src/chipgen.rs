//! `chipgen` — a floorplan-style chip generator for MSV verification.
//!
//! The MSV floorplanning literature (Yu et al.) reasons about a chip as
//! a set of *voltage islands* plus the nets that cross between them:
//! every up-crossing net must pass through a level shifter, and the
//! checker's job is to prove that property statically. This module
//! manufactures exactly that workload, deterministically from a seed:
//!
//! * `islands` voltage islands, each with its own rail (`vdd_i{k}`,
//!   cycling 0.8 / 1.0 / 1.2 V) and a full-swing stimulus net;
//! * `instances` signal units. Each unit places a driver inverter in a
//!   source island and a load inverter in a destination island; when
//!   the destination rail is higher, the paper's SS-TVS is inserted on
//!   the crossing net (the Yu et al. insertion rule). Down- and
//!   same-island units connect directly — an inverter is a legitimate
//!   down-shifter.
//!
//! The first `islands` units cover island pairs round-robin so every
//! rail powers at least one cell; the rest are drawn from the seeded
//! RNG. A clean generated chip checks ERC-clean at every level.
//!
//! [`ChipMutation`]s deliberately break a generated chip in the five
//! ways the MSV rule family ERC009–ERC013 exists to catch; each value
//! documents the rule it trips.

use vls_device::{MosGeometry, MosModel, SourceWaveform};
use vls_num::rng::{Rng, Xoshiro256pp};

use crate::{CellRole, Circuit, HierDesign, PortRole, Subcircuit};

/// Parameters of one generated chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipSpec {
    /// Number of signal units (driver → \[shifter\] → load chains).
    pub instances: usize,
    /// Number of voltage islands (each gets a rail and stimulus).
    pub islands: usize,
    /// Master seed; the same spec always generates the same design.
    pub seed: u64,
}

impl Default for ChipSpec {
    fn default() -> Self {
        Self {
            instances: 100,
            islands: 3,
            seed: 0x5510_c0de,
        }
    }
}

/// A deliberate defect to inject while generating, keyed to the MSV
/// rule that must catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipMutation {
    /// Forces `unit` onto the widest up-crossing (lowest → highest
    /// rail) and omits its level shifter: **ERC009** (and ERC007 on
    /// the receiver devices).
    DropShifter {
        /// Unit index to break.
        unit: usize,
    },
    /// Forces `unit` onto the widest up-crossing and chains a second
    /// shifter behind the first — the second shifts an already-high
    /// net: **ERC010**.
    RedundantShifter {
        /// Unit index to break.
        unit: usize,
    },
    /// Adds a second driver from a different island onto `unit`'s
    /// crossing net: **ERC011** (multi-domain drive contention).
    CrossDriver {
        /// Unit index to break.
        unit: usize,
    },
    /// Adds a statically-on NMOS pass device directly between the
    /// rails of islands `a` and `b`: **ERC012** (sneak rail-to-rail DC
    /// path).
    BridgeRails {
        /// First island.
        a: usize,
        /// Second island.
        b: usize,
    },
    /// Adds one extra island rail that powers nothing: **ERC013**
    /// (dangling voltage island).
    OrphanIsland,
}

/// Rail voltage of island `k`: 0.8 / 1.0 / 1.2 V cycling, the paper's
/// domain corners.
pub fn island_rail(k: usize) -> f64 {
    0.8 + 0.2 * (k % 3) as f64
}

fn geometry(w: f64, l: f64) -> MosGeometry {
    MosGeometry::from_microns(w, l)
}

/// A minimum-size inverter cell: ports `(in, out, vdd)`.
fn inverter_cell(name: &str) -> Subcircuit {
    let mut t = Circuit::new();
    let input = t.node("in");
    let output = t.node("out");
    let vdd = t.node("vdd");
    t.add_mosfet(
        "mp",
        output,
        input,
        vdd,
        vdd,
        MosModel::ptm90_pmos(),
        geometry(0.4, 0.1),
    );
    t.add_mosfet(
        "mn",
        output,
        input,
        Circuit::GROUND,
        Circuit::GROUND,
        MosModel::ptm90_nmos(),
        geometry(0.2, 0.1),
    );
    Subcircuit::new(name, &["in", "out", "vdd"], t).with_port_roles(&[
        PortRole::Signal,
        PortRole::Signal,
        PortRole::Supply,
    ])
}

/// The paper's SS-TVS as a library cell: ports `(in, out, vddo)`,
/// declared [`CellRole::LevelShifter`]. The topology mirrors
/// `vls-cells`' `Sstvs` builder (this crate sits below `vls-cells`, so
/// the template is reconstructed here from the same Figure 4 netlist).
fn sstvs_cell() -> Subcircuit {
    let mut t = Circuit::new();
    let input = t.node("in");
    let output = t.node("out");
    let vddo = t.node("vddo");
    let node1 = t.node("node1");
    let node2 = t.node("node2");
    let ctrl = t.node("ctrl");
    let x = t.node("x");
    let p1 = t.node("p1");
    let pmid = t.node("pmid");
    let nmos = MosModel::ptm90_nmos();
    let pmos = MosModel::ptm90_pmos();
    // M1: discharges node2 into the fallen input; gate on ctrl.
    t.add_mosfet(
        "m1",
        node2,
        ctrl,
        input,
        Circuit::GROUND,
        nmos.clone(),
        geometry(0.6, 0.1),
    );
    // M2: PMOS pass gate between x and ctrl, gated by the output.
    t.add_mosfet(
        "m2",
        ctrl,
        output,
        x,
        vddo,
        pmos.clone(),
        geometry(0.12, 0.15),
    );
    // M3: weak long-channel node2 pull-up, gated by node1.
    t.add_mosfet(
        "m3",
        node2,
        node1,
        vddo,
        vddo,
        pmos.clone(),
        geometry(0.12, 0.3),
    );
    // M5 (gate = node2) over M4 (high-VT, gate = in): node1 pull-up.
    t.add_mosfet(
        "m5",
        p1,
        node2,
        vddo,
        vddo,
        pmos.clone(),
        geometry(0.4, 0.1),
    );
    t.add_mosfet(
        "m4",
        node1,
        input,
        p1,
        vddo,
        MosModel::ptm90_pmos_hvt(),
        geometry(0.4, 0.1),
    );
    // M6: high-VT node1 pull-down.
    t.add_mosfet(
        "m6",
        node1,
        input,
        Circuit::GROUND,
        Circuit::GROUND,
        MosModel::ptm90_nmos_hvt(),
        geometry(0.3, 0.1),
    );
    // M7 / M8: the two charge paths of the internal node x.
    t.add_mosfet(
        "m7",
        vddo,
        input,
        x,
        Circuit::GROUND,
        nmos.clone(),
        geometry(0.2, 0.1),
    );
    t.add_mosfet(
        "m8",
        input,
        vddo,
        x,
        Circuit::GROUND,
        MosModel::ptm90_nmos_lvt(),
        geometry(0.2, 0.1),
    );
    // MC: NMOS gate capacitor holding ctrl.
    t.add_mosfet(
        "mc",
        Circuit::GROUND,
        ctrl,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos.clone(),
        geometry(1.2, 0.24),
    );
    // Output NOR2 (inputs: in, node2), powered from VDDO.
    t.add_mosfet(
        "mpa",
        pmid,
        input,
        vddo,
        vddo,
        pmos.clone(),
        geometry(0.8, 0.1),
    );
    t.add_mosfet("mpb", output, node2, pmid, vddo, pmos, geometry(0.8, 0.1));
    t.add_mosfet(
        "mna",
        output,
        input,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos.clone(),
        geometry(0.2, 0.1),
    );
    t.add_mosfet(
        "mnb",
        output,
        node2,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos,
        geometry(0.2, 0.1),
    );
    Subcircuit::new("sstvs", &["in", "out", "vddo"], t)
        .with_role(CellRole::LevelShifter)
        .with_port_roles(&[PortRole::Signal, PortRole::Signal, PortRole::Supply])
}

/// One unit's plan, resolved before any node is created so mutations
/// can override island assignments deterministically.
#[derive(Clone, Copy)]
struct UnitPlan {
    src: usize,
    dst: usize,
    drop_shifter: bool,
    redundant_shifter: bool,
    cross_driver: bool,
}

/// Generates a clean chip (see the module docs for the structure).
pub fn generate_chip(spec: &ChipSpec) -> HierDesign {
    generate_chip_mutated(spec, &[])
}

/// Generates a chip with the given defects injected. An empty slice
/// yields the clean chip byte-for-byte.
///
/// # Panics
///
/// Panics if the spec has zero islands or a mutation addresses a unit
/// or island out of range.
pub fn generate_chip_mutated(spec: &ChipSpec, mutations: &[ChipMutation]) -> HierDesign {
    assert!(spec.islands > 0, "a chip needs at least one island");
    let mut rng = Xoshiro256pp::seed_from_u64(spec.seed);

    // Island rails and stimulus in the top circuit.
    let mut top = Circuit::new();
    let mut rail_nodes = Vec::with_capacity(spec.islands);
    let mut stim_nodes = Vec::with_capacity(spec.islands);
    for k in 0..spec.islands {
        let rail = top.node(&format!("vdd_i{k}"));
        top.add_vsource(
            &format!("vvdd_i{k}"),
            rail,
            Circuit::GROUND,
            SourceWaveform::Dc(island_rail(k)),
        );
        let stim = top.node(&format!("stim_i{k}"));
        top.add_vsource(
            &format!("vstim_i{k}"),
            stim,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: island_rail(k),
                delay: 0.0,
                rise: 50e-12,
                fall: 50e-12,
                width: 1e-9,
                period: 2e-9,
            },
        );
        rail_nodes.push(rail);
        stim_nodes.push(stim);
    }

    // Plan every unit: the first `islands` units cover pairs
    // round-robin (so no rail dangles), the rest are seeded draws.
    let (lowest, highest) = {
        let mut lo = 0;
        let mut hi = 0;
        for k in 0..spec.islands {
            if island_rail(k) < island_rail(lo) {
                lo = k;
            }
            if island_rail(k) > island_rail(hi) {
                hi = k;
            }
        }
        (lo, hi)
    };
    let mut plans: Vec<UnitPlan> = (0..spec.instances)
        .map(|j| {
            let (src, dst) = if j < spec.islands {
                (j, (j + 1) % spec.islands)
            } else {
                (rng.gen_index(spec.islands), rng.gen_index(spec.islands))
            };
            UnitPlan {
                src,
                dst,
                drop_shifter: false,
                redundant_shifter: false,
                cross_driver: false,
            }
        })
        .collect();

    let mut bridges: Vec<(usize, usize)> = Vec::new();
    let mut orphans = 0usize;
    for m in mutations {
        match *m {
            ChipMutation::DropShifter { unit } => {
                plans[unit].src = lowest;
                plans[unit].dst = highest;
                plans[unit].drop_shifter = true;
            }
            ChipMutation::RedundantShifter { unit } => {
                plans[unit].src = lowest;
                plans[unit].dst = highest;
                plans[unit].redundant_shifter = true;
            }
            ChipMutation::CrossDriver { unit } => {
                plans[unit].src = lowest;
                plans[unit].dst = highest;
                plans[unit].cross_driver = true;
            }
            ChipMutation::BridgeRails { a, b } => {
                assert!(a < spec.islands && b < spec.islands && a != b);
                bridges.push((a, b));
            }
            ChipMutation::OrphanIsland => orphans += 1,
        }
    }

    // Resolve every unit's nets up front, then build the design.
    let mut design = HierDesign::new(top);
    design.add_subckt(inverter_cell("driver"));
    design.add_subckt(inverter_cell("load"));
    design.add_subckt(sstvs_cell());

    for (j, plan) in plans.iter().enumerate() {
        let (rail_s, rail_d) = (island_rail(plan.src), island_rail(plan.dst));
        let top = design.top_mut();
        let crossing = top.node(&format!("u{j}_a"));
        let sink = top.node(&format!("u{j}_y"));
        let stim = stim_nodes[plan.src];
        let (vdd_s, vdd_d) = (rail_nodes[plan.src], rail_nodes[plan.dst]);
        design.add_instance(&format!("xd{j}"), "driver", &[stim, crossing, vdd_s]);
        let needs_shifter = rail_d > rail_s + 1e-9 && !plan.drop_shifter;
        let load_in = if needs_shifter {
            let shifted = design.top_mut().node(&format!("u{j}_b"));
            design.add_instance(&format!("xs{j}"), "sstvs", &[crossing, shifted, vdd_d]);
            if plan.redundant_shifter {
                let twice = design.top_mut().node(&format!("u{j}_c"));
                design.add_instance(&format!("xs{j}r"), "sstvs", &[shifted, twice, vdd_d]);
                twice
            } else {
                shifted
            }
        } else {
            crossing
        };
        design.add_instance(&format!("xl{j}"), "load", &[load_in, sink, vdd_d]);
        if plan.cross_driver {
            // A second driver from a *different* island fights over the
            // crossing net.
            let other = if plan.src == highest { lowest } else { highest };
            let (stim_o, vdd_o) = (stim_nodes[other], rail_nodes[other]);
            design.add_instance(&format!("xc{j}"), "driver", &[stim_o, crossing, vdd_o]);
        }
    }

    // Rail bridges: a pass NMOS whose gate is tied to the highest rail
    // — statically on, conducting between two supply rails.
    let highest_rail = rail_nodes[highest];
    for (i, &(a, b)) in bridges.iter().enumerate() {
        let top = design.top_mut();
        top.add_mosfet(
            &format!("mbridge{i}"),
            rail_nodes[a],
            highest_rail,
            rail_nodes[b],
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            geometry(0.4, 0.1),
        );
    }

    // Orphan islands: rails that power nothing.
    for i in 0..orphans {
        let k = spec.islands + i;
        let top = design.top_mut();
        let rail = top.node(&format!("vdd_i{k}"));
        top.add_vsource(
            &format!("vvdd_i{k}"),
            rail,
            Circuit::GROUND,
            SourceWaveform::Dc(island_rail(k)),
        );
    }

    design
}

/// MNA unknown count of a flattened circuit: every non-ground node
/// plus one branch current per element that carries one (voltage
/// sources). This is the dimension of the linear system the solver
/// builds, which is what bench and test sizing reason about.
pub fn unknowns_of(flat: &Circuit) -> usize {
    let branches = flat
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .count();
    flat.node_count() - 1 + branches
}

/// Chains `ohms` resistors `u{j-1}_y → u{j}_a` across every generated
/// unit, welding all signal units into one connected component. On a
/// clean chip each unit's signal path is electrically private; after
/// this shorting pass all units form one connected interior — the
/// welded floorplan the golden suite solves.
///
/// # Panics
///
/// Panics if the circuit was not produced by flattening a chip with at
/// least `instances` units (the unit net names must exist).
pub fn short_units(flat: &mut Circuit, instances: usize, ohms: f64) {
    for j in 1..instances {
        let prev = flat
            .find_node(&format!("u{}_y", j - 1))
            .expect("unit sink net missing");
        let next = flat
            .find_node(&format!("u{j}_a"))
            .expect("unit crossing net missing");
        flat.add_resistor(&format!("rshort{j}"), prev, next, ohms);
    }
}

/// Sizes a [`ChipSpec`] so the flattened chip has at least `target`
/// MNA unknowns, as close to it as the unit granularity allows. Units
/// differ in size (up-crossings carry a shifter), so the size is found
/// by probing generated chips rather than from a closed form; the
/// probe is deterministic in `(target, islands, seed)`.
pub fn spec_for_unknowns(target: usize, islands: usize, seed: u64) -> ChipSpec {
    assert!(islands > 0, "a chip needs at least one island");
    let probe = |instances: usize| {
        let spec = ChipSpec {
            instances,
            islands,
            seed,
        };
        unknowns_of(&generate_chip(&spec).flatten())
    };
    // Estimate unknowns-per-unit from a mid-size probe, then walk to
    // the first count meeting the target.
    let base = islands.max(8);
    let per_unit = (probe(2 * base) - probe(base)).max(1) as f64 / base as f64;
    let mut hi = ((target as f64 / per_unit).ceil() as usize).max(islands);
    while probe(hi) < target {
        hi += (hi / 4).max(1);
    }
    // Binary search the smallest unit count meeting the target
    // (unknown count grows monotonically with the unit count).
    let mut lo = islands;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    ChipSpec {
        instances: hi,
        islands,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = ChipSpec {
            instances: 20,
            islands: 3,
            seed: 7,
        };
        let a = generate_chip(&spec).flatten();
        let b = generate_chip(&spec).flatten();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.elements().len(), b.elements().len());
        for (x, y) in a.elements().iter().zip(b.elements()) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.nodes(), y.nodes());
        }
        // A different seed rearranges island assignments, changing the
        // shifter population (and therefore the netlist shape).
        let c = generate_chip(&ChipSpec { seed: 8, ..spec }).flatten();
        let differs = a.node_count() != c.node_count()
            || a.elements()
                .iter()
                .zip(c.elements())
                .any(|(x, y)| x.name() != y.name() || x.nodes() != y.nodes());
        assert!(differs, "seed change left the chip identical");
    }

    #[test]
    fn clean_chip_flattens_and_validates() {
        let d = generate_chip(&ChipSpec {
            instances: 12,
            islands: 3,
            seed: 42,
        });
        assert_eq!(d.subckts().len(), 3);
        assert!(d.instances().len() >= 2 * 12);
        let flat = d.flatten();
        flat.validate().unwrap();
        // Round-robin coverage: every island rail feeds some instance.
        for k in 0..3 {
            let rail = flat.find_node(&format!("vdd_i{k}")).unwrap();
            let users = flat
                .elements()
                .iter()
                .filter(|e| !matches!(e, crate::Element::VoltageSource { .. }))
                .filter(|e| e.nodes().contains(&rail))
                .count();
            assert!(users > 0, "island {k} powers nothing");
        }
    }

    #[test]
    fn shifters_appear_exactly_on_up_crossings() {
        let d = generate_chip(&ChipSpec {
            instances: 30,
            islands: 3,
            seed: 1,
        });
        let shifters = d.instances().iter().filter(|i| i.subckt == "sstvs").count();
        assert!(shifters > 0, "no up-crossing generated in 30 units");
        // Every shifter's cell is declared a level shifter.
        assert_eq!(d.subckt("sstvs").unwrap().role(), CellRole::LevelShifter);
    }

    #[test]
    fn unknowns_counts_nodes_and_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("r1", a, b, 1e3);
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        // Two non-ground nodes plus one vsource branch current.
        assert_eq!(unknowns_of(&c), 3);
    }

    #[test]
    fn short_units_welds_the_unit_chain() {
        let spec = ChipSpec {
            instances: 5,
            islands: 3,
            seed: 11,
        };
        let mut flat = generate_chip(&spec).flatten();
        let before = flat.elements().len();
        short_units(&mut flat, spec.instances, 10.0);
        assert_eq!(flat.elements().len(), before + spec.instances - 1);
        for j in 1..spec.instances {
            assert!(flat.element(&format!("rshort{j}")).is_some());
        }
        flat.validate().unwrap();
    }

    #[test]
    fn spec_for_unknowns_meets_target_tightly() {
        for target in [100, 400] {
            let spec = spec_for_unknowns(target, 3, 77);
            let got = unknowns_of(&generate_chip(&spec).flatten());
            assert!(got >= target, "sized {got} unknowns for target {target}");
            // One fewer unit must fall below the target.
            let smaller = ChipSpec {
                instances: spec.instances - 1,
                ..spec
            };
            let fewer = unknowns_of(&generate_chip(&smaller).flatten());
            assert!(fewer < target, "{fewer} unknowns at one fewer unit");
        }
    }

    #[test]
    fn mutations_change_the_structure() {
        let spec = ChipSpec {
            instances: 6,
            islands: 3,
            seed: 3,
        };
        let clean = generate_chip(&spec);
        let broken = generate_chip_mutated(
            &spec,
            &[
                ChipMutation::DropShifter { unit: 0 },
                ChipMutation::BridgeRails { a: 0, b: 1 },
                ChipMutation::OrphanIsland,
            ],
        );
        let flat = broken.flatten();
        assert!(flat.element("mbridge0").is_some());
        assert!(flat.find_node("vdd_i3").is_some());
        // Unit 0 was forced up-crossing yet has no shifter.
        assert!(broken.instances().iter().all(|i| i.name != "xs0"));
        assert!(clean.instances().len() != broken.instances().len() || !flat.elements().is_empty());
    }
}
