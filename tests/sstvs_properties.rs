//! Randomized testing of the paper's central claim: the SS-TVS
//! translates correctly for *any* pair of domain voltages in the
//! operating range — not just the grid points the figures sample.

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::{characterize, CharacterizeOptions};
use sstvs::num::rng::{Rng, Xoshiro256pp};

/// Random (VDDI, VDDO) pairs in the paper's range: the cell must be
/// functional, with positive sub-nanosecond delays and sub-µA leakage.
///
/// Each case is a full characterization (~0.5 s), so keep the count
/// modest; the deterministic grid sweeps cover density, this covers
/// arbitrariness.
#[test]
fn sstvs_translates_any_domain_pair() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_0020);
    for _case in 0..8 {
        let vddi = rng.gen_range(0.8, 1.4);
        let vddo = rng.gen_range(0.8, 1.4);
        let m = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::new(vddi, vddo),
            &CharacterizeOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{vddi:.3}/{vddo:.3}: {e}"));
        assert!(m.functional, "not functional at {vddi:.3} -> {vddo:.3}");
        assert!(m.delay_rise.value() > 0.0 && m.delay_rise.value() < 1e-9);
        assert!(m.delay_fall.value() > 0.0 && m.delay_fall.value() < 1e-9);
        assert!(m.leakage_high.value() > 0.0 && m.leakage_high.value() < 1e-6);
        assert!(m.leakage_low.value() > 0.0 && m.leakage_low.value() < 1e-6);
    }
}

/// The charlib grid points where the default's `leakage_low` misses the
/// 1e-3 budget, at 2.0–3.1e-3 from the reference. ROADMAP items 7 (the
/// leakage hold) and 8 (the time step) are where to close them. Each
/// must still miss the budget, so the change that closes one removes it
/// here, and must stay below 5e-3.
const LEAKAGE_LOW_EXCEPTIONS: [(f64, f64); 5] =
    [(0.8, 0.8), (1.0, 0.8), (1.0, 1.0), (1.2, 1.0), (1.2, 1.2)];

/// Self-convergence: the default tolerances must reproduce a tightly
/// converged reference (reltol 1e-6, vabstol 1e-9) to within 2e-3
/// relative on delays and power and 1e-3 on leakage, at every point of
/// the charlib grid {0.8, 1.0, 1.2} V², up and down conversions and
/// equal rails alike, except the known `leakage_low` misses above. This
/// is the accuracy budget any change to the stepper (its Newton start,
/// step control or tolerances) has to stay inside.
#[test]
fn default_tolerances_match_a_tight_reference() {
    let tight = {
        let mut o = CharacterizeOptions::default();
        o.sim.reltol = 1e-6;
        o.sim.vabstol = 1e-9;
        o
    };
    let grid = [0.8, 1.0, 1.2];
    for (vddi, vddo) in grid.into_iter().flat_map(|i| grid.map(|o| (i, o))) {
        let domains = VoltagePair::new(vddi, vddo);
        let kind = ShifterKind::sstvs();
        let run = |o: &CharacterizeOptions| {
            characterize(&kind, domains, o).unwrap_or_else(|e| panic!("{domains:?}: {e}"))
        };
        let m = run(&CharacterizeOptions::default());
        let r = run(&tight);
        assert!(m.functional && r.functional, "{domains:?} not functional");
        let pairs = [
            (m.delay_rise.value(), r.delay_rise.value()),
            (m.delay_fall.value(), r.delay_fall.value()),
            (m.power_rise.value(), r.power_rise.value()),
            (m.power_fall.value(), r.power_fall.value()),
            (m.leakage_high.value(), r.leakage_high.value()),
            (m.leakage_low.value(), r.leakage_low.value()),
        ];
        let names = [
            "delay_rise",
            "delay_fall",
            "power_rise",
            "power_fall",
            "leakage_high",
            "leakage_low",
        ];
        for (k, (name, (value, reference))) in names.iter().zip(pairs).enumerate() {
            let rel = (value - reference).abs() / reference.abs();
            let at = format!(
                "{vddi:.1}->{vddo:.1} V {name}: {value:e} is {rel:.2e} from the reference \
                 {reference:e}"
            );
            if *name == "leakage_low" && LEAKAGE_LOW_EXCEPTIONS.contains(&(vddi, vddo)) {
                assert!(rel > 1e-3, "{at}, inside the budget: drop the exception");
                assert!(rel < 5e-3, "{at}");
                continue;
            }
            // Delays and power first, then the two leakage currents.
            let tol = if k < 4 { 2e-3 } else { 1e-3 };
            assert!(rel <= tol, "{at}");
        }
    }
}
