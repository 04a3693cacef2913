//! Golden characterization table: the 3×3 (VDDI, VDDO) SS-TVS grid at
//! the nominal slew/load/temperature, pinned to the exact values the
//! measurement protocol produces. The fill is deterministic for every
//! worker count and identical in dev and release profiles, so these
//! hold at a 1e-9 relative tolerance — any drift means the protocol,
//! the stimulus, or the simulator changed.

// Golden values are pinned verbatim from a `{:.17e}` dump of the
// filled table, one digit past f64's shortest round-trip form.
#![allow(clippy::excessive_precision)]

use sstvs::cells::ShifterKind;
use sstvs::charlib::{CharLib, GridSpec};
use sstvs::flows::CharacterizeOptions;
use sstvs::runner::RunnerOptions;

const REL_TOL: f64 = 1e-9;

fn assert_pinned(name: &str, value: f64, golden: f64) {
    assert!(
        (value - golden).abs() <= REL_TOL * golden.abs(),
        "{name}: {value:e} drifted from golden {golden:e}"
    );
}

/// One golden grid point: (vddi, vddo, the six metrics).
const GOLDEN: [(f64, f64, [f64; 6]); 9] = [
    (
        0.8,
        0.8,
        [
            2.02424751618818592e-10,
            7.58300861534438092e-11,
            2.40133862588543490e-6,
            1.94487805702706538e-6,
            3.79595717468924284e-10,
            3.26753201531757518e-10,
        ],
    ),
    (
        0.8,
        1.0,
        [
            1.65311464921017417e-10,
            9.04004588187070894e-11,
            3.47114316885337383e-6,
            2.46922718202733898e-6,
            6.19106066813175966e-10,
            1.61279318536476286e-9,
        ],
    ),
    (
        0.8,
        1.2,
        [
            1.83311986440520471e-10,
            1.23415405706739473e-10,
            5.31282739214215206e-6,
            4.25593057986421867e-6,
            1.01175149379105660e-9,
            2.66647319468603291e-9,
        ],
    ),
    (
        1.0,
        0.8,
        [
            1.51939067156253544e-10,
            4.28984320209653593e-11,
            2.79862564523053690e-6,
            2.68118655580155436e-6,
            3.79598306011157792e-10,
            4.33680910464382211e-10,
        ],
    ),
    (
        1.0,
        1.0,
        [
            1.12185058463435621e-10,
            4.94678160556414066e-11,
            3.79402103374410444e-6,
            3.13555194206623718e-6,
            6.19109745484581580e-10,
            4.30540408414676314e-10,
        ],
    ),
    (
        1.0,
        1.2,
        [
            9.55268589321992184e-11,
            5.86040074105723664e-11,
            5.11739806240696913e-6,
            3.92068011399409795e-6,
            1.01175633867022224e-9,
            2.48125677676452760e-9,
        ],
    ),
    (
        1.2,
        0.8,
        [
            1.15193657417203873e-10,
            2.83618499836638691e-11,
            3.30709102685639046e-6,
            3.61195181690459732e-6,
            3.79606314713006811e-10,
            9.67410342744613538e-10,
        ],
    ),
    (
        1.2,
        1.0,
        [
            9.44466876343008357e-11,
            3.27736734151695243e-11,
            4.30962074368284214e-6,
            4.08234076522384903e-6,
            6.19117535835386770e-10,
            4.69017736763879154e-10,
        ],
    ),
    (
        1.2,
        1.2,
        [
            7.79419943800626003e-11,
            3.71129766205524988e-11,
            5.58377732539363953e-6,
            4.70006309528035241e-6,
            1.01176848256992812e-9,
            5.08012494165586247e-10,
        ],
    ),
];

fn golden_grid() -> GridSpec {
    GridSpec::new(
        vec![50e-12],
        vec![1e-15],
        vec![0.8, 1.0, 1.2],
        vec![0.8, 1.0, 1.2],
        vec![27.0],
        0.0,
    )
    .expect("golden grid is statically valid")
}

#[test]
fn golden_3x3_sstvs_table() {
    let lib = CharLib::build(
        &ShifterKind::sstvs(),
        &CharacterizeOptions::default(),
        golden_grid(),
        &RunnerOptions::default(),
    );
    assert_eq!(lib.grid().n_points(), 9);
    for (flat, (vddi, vddo, metrics)) in GOLDEN.iter().enumerate() {
        let q = lib.grid().point(flat);
        assert_eq!((q.vddi, q.vddo), (*vddi, *vddo), "grid order changed");
        let m = lib.point_metrics(flat);
        assert!(m.functional, "({vddi}, {vddo}) must translate");
        let tag = |what: &str| format!("({vddi}, {vddo}).{what}");
        assert_pinned(&tag("delay_rise"), m.delay_rise, metrics[0]);
        assert_pinned(&tag("delay_fall"), m.delay_fall, metrics[1]);
        assert_pinned(&tag("power_rise"), m.power_rise, metrics[2]);
        assert_pinned(&tag("power_fall"), m.power_fall, metrics[3]);
        assert_pinned(&tag("leakage_high"), m.leakage_high, metrics[4]);
        assert_pinned(&tag("leakage_low"), m.leakage_low, metrics[5]);
    }
}
