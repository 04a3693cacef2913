//! Integration smoke tests over the experiment runners: every
//! table/figure flow executes end-to-end at reduced scale and its
//! output carries the paper's qualitative structure.

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::experiments::{area, figures, robustness, tables};
use sstvs::flows::{
    characterize, characterize_switching, format_comparison_table, format_mc_table,
    CharacterizeOptions,
};
use sstvs::runner::RunnerOptions;

#[test]
fn table1_and_table2_flows_render() {
    let opts = CharacterizeOptions::default();
    let t1 = tables::table1(&opts).expect("table 1 runs");
    let t2 = tables::table2(&opts).expect("table 2 runs");
    let s1 = format_comparison_table("Table 1", &t1);
    let s2 = format_comparison_table("Table 2", &t2);
    for s in [&s1, &s2] {
        assert!(s.contains("Delay Rise"));
        assert!(s.contains("Leakage Current Low"));
    }
    // Leakage advantage is the paper's central claim in both tables.
    assert!(t1.advantage().2 > 1.0 && t1.advantage().3 > 1.0);
    assert!(t2.advantage().2 > 1.0 && t2.advantage().3 > 1.0);
}

#[test]
fn mc_table_flow_renders_and_reports_yield() {
    let opts = CharacterizeOptions::default();
    let t = tables::monte_carlo_table(
        VoltagePair::low_to_high(),
        &opts,
        4,
        11,
        &RunnerOptions::default(),
    )
    .expect("small MC runs");
    assert_eq!(t.sstvs.trials, 4);
    assert!(t.sstvs.passed > 0 && t.combined.passed > 0);
    let s = format_mc_table("Table 3 (reduced)", &t);
    assert!(s.contains("SSTVS mu"));
    assert!(s.contains("functional:"));
}

#[test]
fn figure5_runs_in_both_scenarios() {
    let opts = CharacterizeOptions::default();
    for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
        let d = figures::figure5(domains, &opts).expect("figure 5 runs");
        // The ctrl trace must show the charge/discharge cycle the
        // paper's Figure 5 depicts: high while the input is high,
        // partially retained afterwards.
        let ctrl = &d
            .series
            .iter()
            .find(|(n, _)| n == "ctrl")
            .expect("ctrl traced")
            .1;
        let max = ctrl.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 0.5, "ctrl never charged: max {max}");
    }
}

#[test]
fn delay_surface_covers_the_grid_with_structure() {
    let opts = CharacterizeOptions::default();
    let s = figures::delay_surface(
        &ShifterKind::sstvs(),
        0.8,
        1.4,
        0.3,
        &opts,
        &RunnerOptions::default(),
    );
    assert_eq!(s.vddi.len(), 3);
    assert_eq!(s.vddo.len(), 3);
    assert!(s.yield_fraction() >= 1.0, "yield {}", s.yield_fraction());
    // Smoothness claim at coarse scale: neighbouring points within 2x.
    assert!(
        s.max_relative_step(true) < 0.75,
        "rise surface jumpy: {}",
        s.max_relative_step(true)
    );
    assert!(
        s.max_relative_step(false) < 0.75,
        "fall surface jumpy: {}",
        s.max_relative_step(false)
    );
    let csv = s.to_csv();
    assert_eq!(csv.lines().count(), 10);
}

#[test]
fn delay_surface_agrees_with_characterize() {
    // A 2×2 grid whose 0.5 V VDDI row does not translate. The surface
    // runs only the stimulus half of the protocol; wherever the full
    // protocol succeeds it must read the same bits.
    let opts = CharacterizeOptions::default();
    let kind = ShifterKind::sstvs();
    let s = figures::delay_surface(&kind, 0.5, 0.8, 0.3, &opts, &RunnerOptions::default());
    assert_eq!((s.vddi.len(), s.vddo.len()), (2, 2));
    let (mut agreed, mut stimulus_failures) = (0, 0);
    for (i, &vi) in s.vddi.iter().enumerate() {
        for (j, &vo) in s.vddo.iter().enumerate() {
            let pair = VoltagePair::new(vi, vo);
            let at = format!("({vi}, {vo}) V");
            match characterize(&kind, pair, &opts) {
                Ok(m) => {
                    assert_eq!(s.functional[i][j], m.functional, "{at}");
                    if m.functional {
                        let rise = m.delay_rise.as_picos().to_bits();
                        let fall = m.delay_fall.as_picos().to_bits();
                        assert_eq!(s.rise_ps[i][j].to_bits(), rise, "{at}");
                        assert_eq!(s.fall_ps[i][j].to_bits(), fall, "{at}");
                    }
                    agreed += 1;
                }
                Err(e) => {
                    // This grid has no point that fails in a leakage
                    // hold only: every failure is the stimulus run's.
                    assert!(
                        characterize_switching(&kind, pair, &opts).is_err(),
                        "{at}: {e}"
                    );
                    assert!(!s.functional[i][j], "{at}");
                    assert!(s.rise_ps[i][j].is_nan() && s.fall_ps[i][j].is_nan(), "{at}");
                    stimulus_failures += 1;
                }
            }
        }
    }
    assert_eq!((agreed, stimulus_failures), (2, 2), "{s:?}");
}

#[test]
fn characterize_agrees_with_the_switching_half_at_90c_0p55_to_1p2() {
    // The stimulus run translates here, and both leakage holds start
    // from the state it leaves, so they settle: `characterize` must
    // read the delay bits and verdict that `delay_surface` reads.
    let opts = CharacterizeOptions::at_celsius(90.0);
    let kind = ShifterKind::sstvs();
    let pair = VoltagePair::new(0.55, 1.20);
    let s = characterize_switching(&kind, pair, &opts).expect("the stimulus run translates");
    assert!(s.functional);
    let m = characterize(&kind, pair, &opts).expect("both leakage holds settle");
    assert_eq!(m.functional, s.functional);
    assert_eq!(
        m.delay_rise.value().to_bits(),
        s.delay_rise.value().to_bits()
    );
    assert_eq!(
        m.delay_fall.value().to_bits(),
        s.delay_fall.value().to_bits()
    );
}

#[test]
fn robustness_flow_aggregates() {
    let r =
        robustness::robustness_report(0.3, 2, 3, &[27.0], &RunnerOptions::default()).expect("runs");
    assert_eq!(r.grid_yield.len(), 1);
    assert!(r.all_pass(), "{r:?}");
}

#[test]
fn area_flow_matches_paper_class() {
    let entries = area::area_report();
    let sstvs = entries
        .iter()
        .find(|e| e.label == "SS-TVS")
        .expect("SS-TVS entry");
    assert!(
        (sstvs.area_um2 - 4.47).abs() < 1.5,
        "area {} µm²",
        sstvs.area_um2
    );
    assert_eq!(sstvs.devices, 13);
}
