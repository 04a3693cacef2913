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
            2.02425377818229439e-10,
            7.58301096557030372e-11,
            2.40134198257683899e-6,
            1.94487847825525747e-6,
            3.79595717506667864e-10,
            3.26760226054417297e-10,
        ],
    ),
    (
        0.8,
        1.0,
        [
            1.65311438692357655e-10,
            9.04004718052607268e-11,
            3.47114334268086837e-6,
            2.46923763957776399e-6,
            6.19106066830405517e-10,
            1.61279363651274701e-9,
        ],
    ),
    (
        0.8,
        1.2,
        [
            1.83311945037913969e-10,
            1.23415002169159181e-10,
            5.31283013381156696e-6,
            4.25592147706200966e-6,
            1.01175149388154871e-9,
            2.66647402541122564e-9,
        ],
    ),
    (
        1.0,
        0.8,
        [
            1.51939410955071682e-10,
            4.28985083462108813e-11,
            2.79862670453218918e-6,
            2.68119518441016570e-6,
            3.79598306113379221e-10,
            4.33686172886847390e-10,
        ],
    ),
    (
        1.0,
        1.0,
        [
            1.12185220274025507e-10,
            4.94678416694809802e-11,
            3.79402704651860616e-6,
            3.13556078410897136e-6,
            6.19109745526384393e-10,
            4.30551803094288576e-10,
        ],
    ),
    (
        1.0,
        1.2,
        [
            9.55268880195091504e-11,
            5.86039985213222357e-11,
            5.11740995639550216e-6,
            3.92067735374925815e-6,
            1.01175633894154864e-9,
            2.48125767621197951e-9,
        ],
    ),
    (
        1.2,
        0.8,
        [
            1.15193588529711648e-10,
            2.83619078023710767e-11,
            3.30709622530811907e-6,
            3.61196118666166394e-6,
            3.79606314749447219e-10,
            9.67409698365589730e-10,
        ],
    ),
    (
        1.2,
        1.0,
        [
            9.44471587486957467e-11,
            3.27737102294845781e-11,
            4.30963370134261420e-6,
            4.08235635045715335e-6,
            6.19117535632636116e-10,
            4.69029209189207468e-10,
        ],
    ),
    (
        1.2,
        1.2,
        [
            7.79420492624341433e-11,
            3.71129854799248657e-11,
            5.58378281243986985e-6,
            4.70006763192446034e-6,
            1.01176848240331223e-9,
            5.08024221407071704e-10,
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
