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

/// Self-convergence: the default tolerances must reproduce a tightly
/// converged reference (reltol 1e-6, vabstol 1e-9) to within 2e-3
/// relative on delays and power and 1e-3 on leakage, in both
/// directions. This is the accuracy budget any change to the stepper
/// (its Newton start, step control or tolerances) has to stay inside.
#[test]
fn default_tolerances_match_a_tight_reference() {
    let tight = {
        let mut o = CharacterizeOptions::default();
        o.sim.reltol = 1e-6;
        o.sim.vabstol = 1e-9;
        o
    };
    for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
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
            // Delays and power first, then the two leakage currents.
            let tol = if k < 4 { 2e-3 } else { 1e-3 };
            let rel = (value - reference).abs() / reference.abs();
            assert!(
                rel <= tol,
                "{:.1}->{:.1} V {name}: {value:e} is {rel:.2e} from the reference {reference:e}",
                domains.vddi,
                domains.vddo
            );
        }
    }
}
