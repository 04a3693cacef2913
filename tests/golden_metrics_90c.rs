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
    assert_pinned("delay_rise", m.delay_rise.value(), 1.84850513450335600e-10);
    assert_pinned("delay_fall", m.delay_fall.value(), 1.44097088866454034e-10);
    assert_pinned("power_rise", m.power_rise.value(), 5.37233975866659187e-6);
    assert_pinned("power_fall", m.power_fall.value(), 5.16942854765441036e-6);
    assert_pinned(
        "leakage_high",
        m.leakage_high.value(),
        1.71205561883634009e-8,
    );
    assert_pinned("leakage_low", m.leakage_low.value(), 3.26772137992184275e-8);

    // The same work, counted exactly.
    assert_eq!(
        stats,
        SolverStats {
            newton_iters: 1956,
            linear_solves: 1956,
            full_factorizations: 1956,
            refactorizations: 0,
            refactor_fallbacks: 0,
            device_evals: 33122,
            device_bypasses: 0,
            cap_evals: 17867,
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
            1.89203976164378053e-10,
            1.08926208210735794e-11,
        ),
        (
            "delay_fall",
            s.delay_fall,
            1.44945160324205116e-10,
            8.05387098177664814e-12,
        ),
        (
            "power_rise",
            s.power_rise,
            5.38808553583686926e-6,
            8.85717056043266371e-8,
        ),
        (
            "power_fall",
            s.power_fall,
            5.14185596006207160e-6,
            8.14520754407371310e-8,
        ),
        (
            "leakage_high",
            s.leakage_high,
            1.87423004370398572e-8,
            3.95168133697497974e-9,
        ),
        (
            "leakage_low",
            s.leakage_low,
            3.21090604765664771e-8,
            7.82263163109265547e-9,
        ),
    ] {
        assert_pinned(&format!("{name}.mean"), stats.mean, mean);
        assert_pinned(&format!("{name}.std"), stats.std, std);
    }
}
