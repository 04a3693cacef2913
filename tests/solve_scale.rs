//! Golden suite for the chip-scale sparse solver orders.
//!
//! Above `SimOptions::sparse_threshold` the kernel factorizes in
//! natural MNA order (`Natural`, the default) or under a minimum-degree
//! fill-reducing order (`Ordered`). This file pins them:
//!
//! * **property sweep** — over seeded random hub-and-chain patterns,
//!   the ordered factorization represents the same operator (solving
//!   against unit vectors reproduces the identity to 1e-10, i.e.
//!   P·A·Pᵀ = L·U reconstructs A) and never fills in more than the
//!   natural order;
//! * **ordered against natural** — the ordered solve of a generated
//!   100-instance floorplan matches the natural-order solve to 1e-9;
//! * **welded floorplan** — a floorplan whose units are all shorted
//!   together into one connected interior still solves on `Ordered`
//!   and matches `Natural` to 1e-9;
//! * **ordering-off identity** — `SolverStructure::Natural` is the
//!   default and takes literally the pre-ordering code path, asserted
//!   by a bitwise comparison against explicitly-defaulted options.

use sstvs::engine::{solve_dc, SimOptions, SolverStructure};
use sstvs::netlist::chipgen::{generate_chip, short_units, unknowns_of, ChipSpec};
use sstvs::netlist::Circuit;
use sstvs::num::rng::{Rng, Xoshiro256pp};
use sstvs::num::{invert_permutation, DenseMatrix, SparseLu, TripletMatrix};

/// Options tightened so two differently-ordered Newton trajectories
/// land within 1e-9 V of each other, with `structure` choosing the
/// order on every circuit.
fn tight(structure: SolverStructure) -> SimOptions {
    SimOptions {
        structure,
        sparse_threshold: 0,
        reltol: 1e-6,
        vabstol: 1e-9,
        iabstol: 1e-14,
        ..SimOptions::default()
    }
}

/// A seeded hub-and-chain pattern: dense diagonal, one hub row/column
/// coupling every unknown, a wrap-around chain, and random symmetric
/// extras. Natural elimination hits the hub first and fills the whole
/// matrix; minimum degree defers it to the end and stays sparse —
/// exactly the fill asymmetry the ordering exists to remove.
fn random_hub_stamps(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut stamps = Vec::new();
    for i in 0..n {
        // Strong diagonal keeps every pivot healthy under the
        // diagonal-preference rule, so natural and ordered paths pivot
        // identically (no fallback noise in the fill comparison).
        stamps.push((i, i, 8.0 + rng.gen_range(0.0, 4.0)));
    }
    for i in 1..n {
        let v = rng.gen_range(-1.0, 1.0);
        stamps.push((0, i, v));
        stamps.push((i, 0, v));
        let w = rng.gen_range(-1.0, 1.0);
        let j = (i % (n - 1)) + 1;
        stamps.push((i, j, w));
        stamps.push((j, i, w));
    }
    for _ in 0..n {
        let i = rng.gen_index(n - 1) + 1;
        let j = rng.gen_index(n - 1) + 1;
        let v = rng.gen_range(-0.5, 0.5);
        stamps.push((i, j, v));
        stamps.push((j, i, v));
    }
    stamps
}

#[test]
fn ordered_factorization_reconstructs_and_reduces_fill_over_a_seed_sweep() {
    let n = 30;
    for seed in 0..8u64 {
        let stamps = random_hub_stamps(n, seed);
        let mut t = TripletMatrix::new(n);
        for &(r, c, v) in &stamps {
            t.add(r, c, v);
        }
        let natural = t.to_csc();
        let nat_lu = SparseLu::factorize(&natural).expect("natural factorization");

        // The compiled ordered pattern starts zero-valued; replay the
        // stamp sequence through its scatter map, as the kernel does.
        let (mut ordered, map, perm) = t.compile_ordered();
        for (k, &(_, _, v)) in stamps.iter().enumerate() {
            ordered.values_mut()[map[k]] += v;
        }
        let ord_lu = SparseLu::factorize(&ordered).expect("ordered factorization");
        let new_of = invert_permutation(&perm);

        // Fill: minimum degree must never lose to natural order on a
        // hub pattern (it wins by a wide margin; ≤ is the contract).
        assert!(
            ord_lu.factor_nnz() <= nat_lu.factor_nnz(),
            "seed {seed}: ordering increased fill ({} > {})",
            ord_lu.factor_nnz(),
            nat_lu.factor_nnz()
        );

        // Reconstruction: solving P·A·Pᵀ·(P·x) = P·e_j for every unit
        // vector and mapping back through the permutation must invert
        // the dense operator — L·U represents exactly A.
        let dense: DenseMatrix = natural.to_dense();
        let reference = dense.factorize().expect("dense factorization");
        let mut pb = vec![0.0; n];
        let mut px = vec![0.0; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            for (old, &bv) in e.iter().enumerate() {
                pb[new_of[old]] = bv;
            }
            ord_lu.solve_into(&pb, &mut px).expect("ordered solve");
            let x: Vec<f64> = (0..n).map(|old| px[new_of[old]]).collect();
            // x must reproduce the dense solution…
            let xd = reference.solve(&e);
            for (i, (a, b)) in x.iter().zip(&xd).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-10,
                    "seed {seed}, rhs {j}: x[{i}] ordered {a} vs dense {b}"
                );
            }
            // …and A·x must reproduce the unit vector.
            let ax = dense.mul_vec(&x).expect("dimensions match");
            for (i, v) in ax.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - want).abs() <= 1e-10,
                    "seed {seed}: (A·x)[{i}] = {v}, want {want}"
                );
            }
        }
    }
}

/// A 100-instance floorplan: flattened, it is well past
/// `sparse_threshold`.
fn chip_100() -> Circuit {
    generate_chip(&ChipSpec {
        instances: 100,
        islands: 3,
        seed: 0x5510_c0de,
    })
    .flatten()
}

#[test]
fn structured_solves_match_the_flat_natural_solve() {
    let flat = chip_100();
    let natural = solve_dc(&flat, &tight(SolverStructure::Natural))
        .expect("natural solve")
        .unknowns()
        .to_vec();
    assert_eq!(natural.len(), unknowns_of(&flat), "chipgen's unknown count");
    let ordered = solve_dc(&flat, &tight(SolverStructure::Ordered))
        .expect("ordered solve")
        .unknowns()
        .to_vec();
    let worst = max_difference(&natural, &ordered);
    assert!(
        worst <= 1e-9,
        "Ordered strayed {worst:.3e} from the flat natural solve"
    );
}

/// The largest absolute difference between two solutions.
fn max_difference(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn welded_floorplan_solves_ordered_and_matches_natural() {
    let spec = ChipSpec {
        instances: 20,
        islands: 3,
        seed: 0x5510_c0de,
    };
    let mut flat = generate_chip(&spec).flatten();
    // Weld every unit's signal path to its neighbour's: one connected
    // interior remains.
    short_units(&mut flat, spec.instances, 10.0);

    let natural = solve_dc(&flat, &tight(SolverStructure::Natural))
        .expect("natural solve of shorted chip")
        .unknowns()
        .to_vec();
    let ordered = solve_dc(&flat, &tight(SolverStructure::Ordered))
        .expect("ordered solve of shorted chip")
        .unknowns()
        .to_vec();
    let worst = max_difference(&natural, &ordered);
    assert!(worst <= 1e-9, "welded ordered solve strayed {worst:.3e}");
}

#[test]
fn natural_default_is_the_ordering_off_path_bit_for_bit() {
    // Ordering off is bit-identical to the unordered solver: `Natural`
    // is the default and compiles the identical pattern the
    // pre-ordering kernel compiled, so defaulted options and an
    // explicit `Natural` request must agree bitwise.
    assert_eq!(SimOptions::default().structure, SolverStructure::Natural);

    let flat = generate_chip(&ChipSpec {
        instances: 12,
        islands: 3,
        seed: 0x5510_c0de,
    })
    .flatten();
    let defaulted = SimOptions {
        sparse_threshold: 0,
        ..SimOptions::default()
    };
    let explicit = SimOptions {
        structure: SolverStructure::Natural,
        ..defaulted.clone()
    };
    let a = solve_dc(&flat, &defaulted).expect("default solve");
    let b = solve_dc(&flat, &explicit).expect("explicit natural solve");
    for (i, (x, y)) in a.unknowns().iter().zip(b.unknowns()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "unknown {i} differs: {x} vs {y}");
    }
}
