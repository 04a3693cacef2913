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
            7.58301096557063459e-11,
            2.40134198257667932e-6,
            1.94487847825535065e-6,
            3.79595717064986400e-10,
            3.26760226056053305e-10,
        ],
    ),
    (
        0.8,
        1.0,
        [
            1.65311438692357655e-10,
            9.04004718052607268e-11,
            3.47114334268141598e-6,
            2.46923763957782710e-6,
            6.19106066442233437e-10,
            1.61279363653355515e-9,
        ],
    ),
    (
        0.8,
        1.2,
        [
            1.83311945037904042e-10,
            1.23415002169155872e-10,
            5.31283013381176262e-6,
            4.25592147706183432e-6,
            1.01175149386840316e-9,
            2.66647402536698885e-9,
        ],
    ),
    (
        1.0,
        0.8,
        [
            1.51939410955051830e-10,
            4.28985083462108813e-11,
            2.79862670453183639e-6,
            2.68119518441021483e-6,
            3.79598305955327753e-10,
            4.33686172946811264e-10,
        ],
    ),
    (
        1.0,
        1.0,
        [
            1.12185220274032125e-10,
            4.94678416694743628e-11,
            3.79402704651854052e-6,
            3.13556078410879433e-6,
            6.19109744754847806e-10,
            4.30551803104674449e-10,
        ],
    ),
    (
        1.0,
        1.2,
        [
            9.55268880195025330e-11,
            5.86039985213222357e-11,
            5.11740995639576982e-6,
            3.92067735374940468e-6,
            1.01175633811837076e-9,
            2.48125767624207730e-9,
        ],
    ),
    (
        1.2,
        0.8,
        [
            1.15193588529701722e-10,
            2.83619078023776941e-11,
            3.30709622530798142e-6,
            3.61196118666182487e-6,
            3.79606314624182089e-10,
            9.67409698410899168e-10,
        ],
    ),
    (
        1.2,
        1.0,
        [
            9.44471587487023641e-11,
            3.27737102294878868e-11,
            4.30963370134234230e-6,
            4.08235635045772001e-6,
            6.19117535261729157e-10,
            4.69029209187910862e-10,
        ],
    ),
    (
        1.2,
        1.2,
        [
            7.79420492624242171e-11,
            3.71129854799182483e-11,
            5.58378281244061947e-6,
            4.70006763192395890e-6,
            1.01176848134573472e-9,
            5.08024221364864813e-10,
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
