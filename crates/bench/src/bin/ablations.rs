//! Ablation studies for the design choices the paper calls out in
//! Section 3 (indexed in DESIGN.md §5):
//!
//! 1. **High-VT M4/M6** — "the devices M4 and M6 are high VT devices,
//!    to reduce leakage currents": compare leakage with all-nominal
//!    thresholds.
//! 2. **Low-VT M8** — "a low VT NMOS device is used for M8 to ensure
//!    that ctrl can charge to a sufficiently large voltage value …
//!    also helps in increasing the voltage translation range": sweep
//!    the hardest line of the plane (VDDI = VDDO, minimal charge
//!    headroom) with and without the low-VT device.
//! 3. **ctrl capacitance (MC)** — "selected to be large enough to
//!    allow the discharge of node2": sweep the capacitor width and
//!    watch the rising (node2-discharge) edge.
//! 4. **NOR output stage** — sweep the NOR gate's PMOS width and watch
//!    the rise/fall balance.
//!
//! Ablations 2–4 read only delays and functionality, so they run the
//! stimulus half of the protocol (`characterize_switching`); ablation 1
//! reads leakage and runs all of it.
//!
//! ```text
//! cargo run --release -p vls-bench --bin ablations
//! ```

use vls_bench::BinArgs;
use vls_cells::{ShifterKind, Sstvs, SstvsSizes, VoltagePair};
use vls_core::{characterize, characterize_switching};

fn main() {
    let args = BinArgs::parse(std::env::args().skip(1));
    let opts = args.options();

    println!("Ablation 1: high-VT M4/M6 vs all-nominal thresholds (0.8 V -> 1.2 V)");
    let paper = characterize(&ShifterKind::sstvs(), VoltagePair::low_to_high(), &opts)
        .expect("paper variant failed");
    let nominal = characterize(
        &ShifterKind::Sstvs(Sstvs::from_variant(SstvsSizes::paper().all_nominal_vt())),
        VoltagePair::low_to_high(),
        &opts,
    )
    .expect("nominal-VT variant failed");
    println!(
        "  leakage high: paper {} vs all-nominal {}  ({:.1}x penalty without high VT)",
        paper.leakage_high,
        nominal.leakage_high,
        nominal.leakage_high / paper.leakage_high
    );
    println!(
        "  leakage low:  paper {} vs all-nominal {}  ({:.1}x penalty)",
        paper.leakage_low,
        nominal.leakage_low,
        nominal.leakage_low / paper.leakage_low
    );
    println!(
        "  rise delay:   paper {} vs all-nominal {} (speed cost of high VT)",
        paper.delay_rise, nominal.delay_rise
    );

    println!(
        "\nAblation 2: low-VT M8 vs nominal-VT M8 along the VDDI = VDDO line\n\
         (equal rails give ctrl the least headroom: ctrl = VDDO - VT_M8, so a higher\n\
         VT_M8 starves M1's gate and slows the node2-discharge / output-rise edge)"
    );
    for vt_label in ["low-VT (paper)", "nominal-VT"] {
        let kind = if vt_label.starts_with("low") {
            ShifterKind::sstvs()
        } else {
            ShifterKind::Sstvs(Sstvs::from_variant(SstvsSizes::paper().nominal_vt_m8()))
        };
        let mut line = String::new();
        let mut v = 0.8;
        while v <= 1.4 + 1e-9 {
            match characterize_switching(&kind, VoltagePair::new(v, v), &opts) {
                Ok(m) if m.functional => {
                    line.push_str(&format!(" {v:.1}V:{:>5.0}ps", m.delay_rise.as_picos()))
                }
                _ => line.push_str(&format!(" {v:.1}V: FAIL")),
            }
            v += 0.1;
        }
        println!("  {vt_label:16}{line}");
    }

    println!("\nAblation 3: ctrl capacitor (MC) width vs the node2-discharge edge");
    for w_mc in [0.2, 0.4, 0.8, 1.2, 1.6] {
        let sizes = SstvsSizes {
            w_mc,
            ..SstvsSizes::paper()
        };
        let kind = ShifterKind::Sstvs(Sstvs::with_sizes(sizes));
        match characterize_switching(&kind, VoltagePair::low_to_high(), &opts) {
            Ok(m) => println!(
                "  W(MC) = {w_mc:.1} um: rise delay {} fall delay {} functional {}",
                m.delay_rise, m.delay_fall, m.functional
            ),
            Err(e) => println!("  W(MC) = {w_mc:.1} um: FAILED ({e})"),
        }
    }

    println!(
        "\nAblation 4: NOR output-stage PMOS width vs rise/fall balance\n\
         (the paper: \"the NOR gate allows us to balance the rising and the falling\n\
         delays of the SS-TVS\" — the stack width is the balancing knob)"
    );
    for wp in [0.4, 0.6, 0.8, 1.2, 1.6] {
        let sizes = SstvsSizes {
            nor: vls_cells::primitives::Nor2 {
                wp,
                ..vls_cells::primitives::Nor2::minimum_drive()
            },
            ..SstvsSizes::paper()
        };
        let kind = ShifterKind::Sstvs(Sstvs::with_sizes(sizes));
        match characterize_switching(&kind, VoltagePair::low_to_high(), &opts) {
            Ok(m) => println!(
                "  W(NOR pmos) = {wp:.1} um: rise {} fall {} (rise/fall ratio {:.2})",
                m.delay_rise,
                m.delay_fall,
                m.delay_rise / m.delay_fall
            ),
            Err(e) => println!("  W(NOR pmos) = {wp:.1} um: FAILED ({e})"),
        }
    }
}
