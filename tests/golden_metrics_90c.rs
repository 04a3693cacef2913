//! Golden values at 90 °C, Table 3's hot corner. Every other golden
//! runs at 27 °C, where `T = Tnom`: the mobility factor `(T/Tnom)^μ` is
//! exactly 1 and the threshold shift `vt_tc·(T − Tnom)` exactly 0, so a
//! device model evaluated at the wrong temperature would still pass
//! them. These pins hold the temperature-dependent terms to the same
//! 1e-9 relative tolerance: the nominal SS-TVS characterization with
//! its solver counters, and an 8-trial Monte Carlo ensemble.

// Golden values are pinned verbatim from a `{:.17e}` dump, one digit
// past f64's shortest round-trip form.
#![allow(clippy::excessive_precision)]

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::experiments::tables::{monte_carlo_stats, DEFAULT_MC_SEED};
use sstvs::flows::{characterize_with_stats, CharacterizeOptions};
use sstvs::num::SolverStats;
use sstvs::runner::RunnerOptions;

const CELSIUS: f64 = 90.0;
const REL_TOL: f64 = 1e-9;

fn assert_pinned(name: &str, value: f64, golden: f64) {
    assert!(
        (value - golden).abs() <= REL_TOL * golden.abs(),
        "{name}: {value:e} drifted from golden {golden:e}"
    );
}

#[test]
fn golden_nominal_characterization_at_90c() {
    let (m, stats) = characterize_with_stats(
        &ShifterKind::sstvs(),
        VoltagePair::low_to_high(),
        &CharacterizeOptions::at_celsius(CELSIUS),
        None,
    )
    .expect("nominal SS-TVS characterizes at 90 °C");

    assert!(m.functional);
    assert_pinned("delay_rise", m.delay_rise.value(), 1.84850352222941134e-10);
    assert_pinned("delay_fall", m.delay_fall.value(), 1.44096679652532077e-10);
    assert_pinned("power_rise", m.power_rise.value(), 5.37233977744602212e-6);
    assert_pinned("power_fall", m.power_fall.value(), 5.16941788725198657e-6);
    assert_pinned(
        "leakage_high",
        m.leakage_high.value(),
        1.71205561878186164e-8,
    );
    assert_pinned("leakage_low", m.leakage_low.value(), 3.26772137991791067e-8);

    // The same work, counted exactly.
    assert_eq!(
        stats,
        SolverStats {
            newton_iters: 1415,
            linear_solves: 1415,
            full_factorizations: 1415,
            refactorizations: 0,
            refactor_fallbacks: 0,
            device_evals: 23925,
            device_bypasses: 0,
            cap_evals: 187,
            cap_bypasses: 0,
            tran_steps: 1051,
            rejected_steps: 0,
            injected_faults: 0,
        }
    );
}

#[test]
fn golden_8_run_mc_at_90c() {
    let s = monte_carlo_stats(
        &ShifterKind::sstvs(),
        VoltagePair::low_to_high(),
        &CharacterizeOptions::at_celsius(CELSIUS),
        8,
        DEFAULT_MC_SEED,
        &RunnerOptions::default(),
    )
    .expect("8-run MC converges at 90 °C");

    assert_eq!(s.trials, 8);
    assert_eq!(s.passed, 8, "every trial translates correctly");
    for (name, stats, mean, std) in [
        (
            "delay_rise",
            s.delay_rise,
            1.89203810473696499e-10,
            1.08928036956768491e-11,
        ),
        (
            "delay_fall",
            s.delay_fall,
            1.44944823057718716e-10,
            8.05386930518336564e-12,
        ),
        (
            "power_rise",
            s.power_rise,
            5.38808504793994716e-6,
            8.85730964003098348e-8,
        ),
        (
            "power_fall",
            s.power_fall,
            5.14184688209266887e-6,
            8.14517279516425579e-8,
        ),
        (
            "leakage_high",
            s.leakage_high,
            1.87423004370088876e-8,
            3.95168133691260205e-9,
        ),
        (
            "leakage_low",
            s.leakage_low,
            3.21090604765456653e-8,
            7.82263163107769673e-9,
        ),
    ] {
        assert_pinned(&format!("{name}.mean"), stats.mean, mean);
        assert_pinned(&format!("{name}.std"), stats.std, std);
    }
}
