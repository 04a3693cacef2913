//! Golden Monte Carlo statistics: the 64-run SS-TVS ensemble at the
//! paper's headline corner, pinned to the exact values the seeded
//! runner produces. The ensemble is deterministic for every worker
//! count, so these hold at a 1e-9 relative tolerance — any drift means
//! the sampling stream, the seed derivation, or the simulator changed.

// Golden values are pinned verbatim from a `{:.17e}` dump of the
// ensemble, one digit past f64's shortest round-trip form.
#![allow(clippy::excessive_precision)]

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::experiments::tables::{monte_carlo_stats, DEFAULT_MC_SEED};
use sstvs::flows::CharacterizeOptions;
use sstvs::runner::RunnerOptions;

const TRIALS: usize = 64;
const REL_TOL: f64 = 1e-9;

fn assert_pinned(name: &str, value: f64, golden: f64) {
    assert!(
        (value - golden).abs() <= REL_TOL * golden.abs(),
        "{name}: {value:e} drifted from golden {golden:e}"
    );
}

#[test]
fn golden_64_run_mc_at_27c() {
    // Pinned from the seeded ensemble (identical in dev and release
    // profiles and at every --jobs value).
    let s = monte_carlo_stats(
        &ShifterKind::sstvs(),
        VoltagePair::low_to_high(),
        &CharacterizeOptions::default(),
        TRIALS,
        DEFAULT_MC_SEED,
        &RunnerOptions::default(),
    )
    .expect("64-run MC converges");

    assert_eq!(s.trials, TRIALS);
    assert_eq!(s.passed, TRIALS, "every trial translates correctly");

    assert_pinned(
        "delay_rise.mean",
        s.delay_rise.mean,
        1.86332423701151970e-10,
    );
    assert_pinned("delay_rise.std", s.delay_rise.std, 1.26939286735919002e-11);
    assert_pinned(
        "delay_fall.mean",
        s.delay_fall.mean,
        1.24873391710470085e-10,
    );
    assert_pinned("delay_fall.std", s.delay_fall.std, 4.92004492395807244e-12);
    assert_pinned(
        "leakage_high.mean",
        s.leakage_high.mean,
        1.10494775103870693e-9,
    );
    assert_pinned(
        "leakage_high.std",
        s.leakage_high.std,
        2.51197229262731322e-10,
    );
    assert_pinned(
        "leakage_low.mean",
        s.leakage_low.mean,
        2.87246593115220797e-9,
    );
    assert_pinned(
        "leakage_low.std",
        s.leakage_low.std,
        9.72887622157685825e-10,
    );
}
