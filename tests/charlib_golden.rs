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
            2.02425350060211986e-10,
            7.58300937900347813e-11,
            2.40133883618972907e-6,
            1.94487860178855463e-6,
            3.79595717558163114e-10,
            3.26758983457015588e-10,
        ],
    ),
    (
        0.8,
        1.0,
        [
            1.65311611873805683e-10,
            9.04004673730781122e-11,
            3.47114296333551292e-6,
            2.46922794617242155e-6,
            6.19106066823988870e-10,
            1.61279363904988034e-9,
        ],
    ),
    (
        0.8,
        1.2,
        [
            1.83311926810211621e-10,
            1.23415405452053871e-10,
            5.31282614811197327e-6,
            4.25593052877211455e-6,
            1.01175149381543568e-9,
            2.66647403847661290e-9,
        ],
    ),
    (
        1.0,
        0.8,
        [
            1.51939480232083258e-10,
            4.28984366626066486e-11,
            2.79862576848753021e-6,
            2.68118740431963413e-6,
            3.79598306050130665e-10,
            4.33684929805244239e-10,
        ],
    ),
    (
        1.0,
        1.0,
        [
            1.12185385678185759e-10,
            4.94678377078185504e-11,
            3.79402133166750219e-6,
            3.13555516269416243e-6,
            6.19109745657969389e-10,
            4.30551034777166731e-10,
        ],
    ),
    (
        1.0,
        1.2,
        [
            9.55270292563900489e-11,
            5.86040115343191829e-11,
            5.11739786438602785e-6,
            3.92068028466233451e-6,
            1.01175633892133814e-9,
            2.48125768942802158e-9,
        ],
    ),
    (
        1.2,
        0.8,
        [
            1.15193794931927525e-10,
            2.83618599730642145e-11,
            3.30709120686633824e-6,
            3.61195402786094768e-6,
            3.79606314711109466e-10,
            9.67409699614287727e-10,
        ],
    ),
    (
        1.2,
        1.0,
        [
            9.44469633350779986e-11,
            3.27736967981526167e-11,
            4.30962107443666179e-6,
            4.08234667836064460e-6,
            6.19117535832024694e-10,
            4.69028348957110819e-10,
        ],
    ),
    (
        1.2,
        1.2,
        [
            7.79422578573470060e-11,
            3.71130052942158763e-11,
            5.58377787495932644e-6,
            4.70006715335666087e-6,
            1.01176848241228962e-9,
            5.08023809084935256e-10,
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
