//! Process-variation yield analysis: the paper's Monte Carlo protocol
//! (W, L and VT of every cell device varied independently, σ = 3.34 %)
//! run through the resilient ensemble path — the same code the
//! `vls-opt` yield objective drives. Per-trial seeds derive from one
//! master seed, non-converging trials walk the escalation ladder
//! before being booked (with a failure class) instead of silently
//! dropping, and the worker count (`VLS_JOBS` or all cores) never
//! changes a single number.
//!
//! ```text
//! cargo run --release --example monte_carlo_yield [trials]
//! VLS_JOBS=1 cargo run --release --example monte_carlo_yield   # same output
//! ```

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::CharacterizeOptions;
use sstvs::opt::{yield_ensemble, YieldSpec};
use sstvs::runner::RunnerOptions;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let options = CharacterizeOptions::default();
    let domains = VoltagePair::low_to_high();
    // RunnerOptions::default() honors VLS_JOBS, falling back to all
    // cores — exactly what the optimizer's yield mode does.
    let runner = RunnerOptions::default();
    let spec = YieldSpec {
        trials,
        // Spec yield: functional AND under the worst-edge delay /
        // worst-state leakage targets (loose enough that the nominal
        // cell passes; process outliers fail them).
        max_delay: Some(400e-12),
        max_leakage: Some(20e-9),
        ..YieldSpec::default()
    };

    println!(
        "Monte Carlo, {trials} trials, VDDI = 0.8 V -> VDDO = 1.2 V, {} worker(s)",
        runner.effective_jobs()
    );
    println!(
        "targets: delay <= 400 ps, leakage <= 20 nA, {} escalated retr(ies) per trial",
        spec.retries
    );
    for kind in [ShifterKind::sstvs(), ShifterKind::combined()] {
        let y = yield_ensemble(&kind, domains, &options, &spec, &runner);
        println!("{}:", kind.label());
        println!(
            "  spec yield     : {}/{} ({:.1}%)",
            y.passed,
            y.trials,
            100.0 * y.rate()
        );
        println!("  sim failures   : {}", y.sim_failures);
        if y.recovered.is_empty() {
            println!("  recovered      : none needed");
        } else {
            let listed: Vec<String> = y
                .recovered
                .iter()
                .map(|(trial, rung)| format!("#{trial}@rung{rung}"))
                .collect();
            println!(
                "  recovered      : {} trial(s) via escalation ({})",
                y.recovered.len(),
                listed.join(", ")
            );
        }
        for (class, count) in &y.failure_classes {
            println!("  failure class  : {class} x{count}");
        }
    }
    println!("(the paper's Tables 3/4 use 1000 trials; see `cargo run -p vls-bench --bin table3`)");
}
