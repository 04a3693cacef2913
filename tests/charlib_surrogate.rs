//! The surrogate accuracy and fallback contract: on held-out midpoints
//! of a dense grid the interpolated answer is within 1% of the exact
//! transient, and queries outside the trust region demonstrably fall
//! back to exact simulation with the miss recorded.

use sstvs::cells::ShifterKind;
use sstvs::charlib::{CharLib, EvalSource, FallbackReason, GridSpec, QueryPoint};
use sstvs::flows::CharacterizeOptions;
use sstvs::runner::RunnerOptions;

/// A dense (0.05 V pitch) patch of the functional region. Small enough
/// to fill in test time, fine enough for multilinear interpolation to
/// be well under the 1% contract.
fn dense_grid() -> GridSpec {
    GridSpec::new(
        vec![50e-12],
        vec![1e-15],
        vec![1.1, 1.15, 1.2],
        vec![1.15, 1.2, 1.25],
        vec![27.0],
        0.0,
    )
    .expect("dense grid is statically valid")
}

fn dense_lib() -> CharLib {
    CharLib::build(
        &ShifterKind::sstvs(),
        &CharacterizeOptions::default(),
        dense_grid(),
        &RunnerOptions::default(),
    )
}

fn at(vddi: f64, vddo: f64) -> QueryPoint {
    QueryPoint {
        slew: 50e-12,
        load: 1e-15,
        vddi,
        vddo,
        temp: 27.0,
    }
}

#[test]
fn held_out_midpoints_within_one_percent() {
    let lib = dense_lib();
    // Cell-center midpoints: coordinates the table has never seen.
    for &(vddi, vddo) in &[
        (1.125, 1.175),
        (1.175, 1.225),
        (1.125, 1.225),
        (1.175, 1.175),
    ] {
        let q = at(vddi, vddo);
        let s = lib.eval_table(&q).expect("midpoint inside the table");
        let e = lib.eval_exact(&q).expect("exact protocol runs");
        assert!(e.functional, "midpoint ({vddi}, {vddo}) must translate");
        for (surrogate, exact, what) in [
            (s.delay_rise, e.delay_rise, "delay_rise"),
            (s.delay_fall, e.delay_fall, "delay_fall"),
            (s.power_rise, e.power_rise, "power_rise"),
            (s.power_fall, e.power_fall, "power_fall"),
        ] {
            let rel = (surrogate - exact).abs() / exact.abs();
            assert!(
                rel < 0.01,
                "({vddi}, {vddo}).{what}: surrogate error {:.3}% breaks the 1% contract",
                rel * 100.0
            );
        }
    }
}

#[test]
fn on_grid_queries_are_exact_table_hits() {
    let lib = dense_lib();
    let q = at(1.15, 1.2);
    let flat = lib.grid().flat_index([0, 0, 1, 1, 0]);
    let stored = lib.point_metrics(flat);
    let ev = lib.eval(&q).expect("grid-node query");
    assert_eq!(ev.source, EvalSource::Table);
    assert_eq!(
        ev.metrics.delay_rise, stored.delay_rise,
        "bit-exact at nodes"
    );
    assert_eq!(lib.hit_count(), 1);
    assert_eq!(lib.miss_count(), 0);
}

#[test]
fn out_of_trust_region_falls_back_and_counts_the_miss() {
    let lib = dense_lib();
    assert_eq!(lib.miss_count(), 0);

    // VDDI below the hull: the vddi axis rejects it.
    let q = at(1.0, 1.2);
    let ev = lib.eval(&q).expect("exact fallback runs");
    assert_eq!(
        ev.source,
        EvalSource::Exact(FallbackReason::OutOfTrustRegion("vddi"))
    );
    assert!(ev.metrics.functional);
    assert_eq!(lib.miss_count(), 1);
    assert_eq!(lib.hit_count(), 0);

    // The same point answered exactly must agree with the fallback —
    // both run the identical protocol.
    let e = lib.eval_exact(&q).expect("exact protocol runs");
    assert_eq!(ev.metrics, e);

    // A singleton-axis violation (temperature) also falls back.
    let hot = QueryPoint {
        temp: 90.0,
        ..at(1.15, 1.2)
    };
    let ev = lib.eval(&hot).expect("exact fallback runs");
    assert_eq!(
        ev.source,
        EvalSource::Exact(FallbackReason::OutOfTrustRegion("temp"))
    );
    assert_eq!(lib.miss_count(), 2);

    // So does a 500 fF load against the single 1 fF load sample: the
    // slack around a singleton axis is a rounding allowance, not a
    // picofarad.
    let heavy = QueryPoint {
        load: 500e-15,
        ..at(1.15, 1.2)
    };
    let ev = lib.eval(&heavy).expect("exact fallback runs");
    assert_eq!(
        ev.source,
        EvalSource::Exact(FallbackReason::OutOfTrustRegion("load"))
    );
    assert_eq!(
        ev.metrics,
        lib.eval_exact(&heavy).expect("exact protocol runs")
    );
    assert_eq!(lib.miss_count(), 3);

    // eval_table never serves those queries.
    assert!(lib.eval_table(&q).is_none());
    assert!(lib.eval_table(&hot).is_none());
    assert!(lib.eval_table(&heavy).is_none());

    // Inside the region the table serves without touching the miss
    // counter.
    let ok = lib.eval(&at(1.15, 1.2)).expect("table hit");
    assert_eq!(ok.source, EvalSource::Table);
    assert_eq!(lib.miss_count(), 3);
    assert_eq!(lib.hit_count(), 1);
}
