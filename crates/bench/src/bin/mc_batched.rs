//! Measures the lane-batched Monte Carlo path against the featured
//! scalar path (symbolic kernel + device bypass, the PR-4 baseline) on
//! the paper's 1000-run ensemble.
//!
//! For each lane width K ∈ {1, 4, 8, 16} the ensemble is re-run with
//! `batch_lanes = K`: trials pack into K-wide lockstep groups sharing
//! one compiled sparsity pattern, SoA device evaluation with analytic
//! derivatives, a multi-lane LU, and one adaptive time grid per group.
//! `K = 1` routes through the *unchanged* scalar path, so its
//! statistics must be bit-identical to the baseline; the ≥2x floor is
//! enforced at the widest measured lane width ≥ 8.
//!
//! Writes the `BENCH_mc_batched.json` perf-trajectory artifact (or `--out PATH`).
//!
//! ```text
//! cargo run --release -p vls-bench --bin mc_batched [-- --smoke] [-- --jobs 4] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks the ensemble for CI; the floor is enforced either
//! way.

use std::time::Instant;

use vls_bench::BinArgs;
use vls_cells::{ShifterKind, VoltagePair};
use vls_core::experiments::tables::monte_carlo_stats_reported;

/// The featured scalar baseline's bypass tolerance (as in
/// `newton_speedup`).
const BYPASS_VTOL: f64 = 1e-4;

const LANE_WIDTHS: [usize; 4] = [1, 4, 8, 16];

fn main() {
    let (mut args, smoke) = BinArgs::parse_smoke(std::env::args().skip(1));
    if smoke && args.trials == BinArgs::default().trials {
        args.trials = 32;
    }
    let trials = args.trials;
    let kind = ShifterKind::sstvs();
    let domains = VoltagePair::low_to_high();
    let runner = args.runner();

    // The PR-4 featured configuration: scalar per-trial MC on the
    // symbolic kernel with device bypass.
    let mut featured = args.options();
    featured.sim.bypass_vtol = BYPASS_VTOL;
    featured.sim.batch_lanes = 1;

    println!(
        "mc_batched: {trials}-trial {} Monte Carlo, seed {:#x}",
        kind.label(),
        args.seed
    );
    let t0 = Instant::now();
    let (base_stats, base_report) =
        monte_carlo_stats_reported(&kind, domains, &featured, trials, args.seed, &runner)
            .expect("featured baseline MC failed");
    let base_t = t0.elapsed().as_secs_f64();
    println!(
        "  featured scalar baseline: {base_t:>8.3} s, {}/{trials} passed",
        base_stats.passed
    );
    println!("  baseline report:\n{}", base_report.render());

    let mut rows = Vec::new();
    let mut floor_speedup: Option<(usize, f64)> = None;
    // The first K>1 run anchors the cross-lane-width comparison: the
    // batched path turns off the device bypass and uses analytic
    // derivatives, so its statistics sit a bypass-tolerance away
    // (~1e-4 relative) from the featured baseline. Lane widths are
    // compared against *each other* — different K only changes how
    // trials pack into groups, which perturbs the per-group shared
    // time grid, so the means must agree to well under the ensemble
    // sigma but not bitwise.
    let mut batched_ref: Option<vls_core::experiments::tables::McStats> = None;
    for k in LANE_WIDTHS {
        let mut opts = featured.clone();
        opts.sim.batch_lanes = k;
        let t0 = Instant::now();
        let (stats, report) =
            monte_carlo_stats_reported(&kind, domains, &opts, trials, args.seed, &runner)
                .unwrap_or_else(|e| panic!("batched MC at K={k} failed: {e}"));
        let t = t0.elapsed().as_secs_f64();
        let speedup = base_t / t;
        println!(
            "  K={k:<2}  {t:>8.3} s  ({speedup:.2}x)  {}/{trials} passed, {}",
            stats.passed,
            report.solver.render()
        );
        if k == 1 {
            // K=1 must be the scalar path itself, statistic for
            // statistic.
            assert_eq!(
                stats, base_stats,
                "K=1 is not bit-identical to the scalar featured path"
            );
        } else {
            assert_eq!(
                stats.passed, base_stats.passed,
                "lane width {k} changed the pass verdicts"
            );
            match &batched_ref {
                None => batched_ref = Some(stats),
                Some(reference) => {
                    let rel = (stats.delay_rise.mean - reference.delay_rise.mean).abs()
                        / reference.delay_rise.mean;
                    println!(
                        "       mean rise delay vs K={}: {rel:.2e} relative",
                        LANE_WIDTHS[1]
                    );
                    assert!(
                        rel < 1e-3,
                        "lane width {k} moved the mean rise delay by {rel:.2e} (relative) \
                         against the batched reference"
                    );
                }
            }
            if k >= 8 {
                let best = floor_speedup.map_or(0.0, |(_, s)| s);
                if speedup > best {
                    floor_speedup = Some((k, speedup));
                }
            }
        }
        rows.push((k, t, speedup, stats.passed));
    }

    // Worker-count invariance of the lockstep path: group composition
    // depends only on (trials, K), so a single worker must reproduce
    // the sharded statistics exactly.
    let det_k = LANE_WIDTHS[1];
    let mut det_opts = featured.clone();
    det_opts.sim.batch_lanes = det_k;
    let (serial_stats, _) = monte_carlo_stats_reported(
        &kind,
        domains,
        &det_opts,
        trials,
        args.seed,
        &vls_runner::RunnerOptions::serial(),
    )
    .expect("serial batched MC failed");
    let (sharded_stats, _) = monte_carlo_stats_reported(
        &kind,
        domains,
        &det_opts,
        trials,
        args.seed,
        &vls_runner::RunnerOptions::with_jobs(4),
    )
    .expect("sharded batched MC failed");
    assert_eq!(
        serial_stats, sharded_stats,
        "batched MC is not worker-count deterministic at K={det_k}"
    );
    println!("  worker-count determinism held at K={det_k} (1 vs 4 workers)");

    let lane_rows: Vec<String> = rows
        .iter()
        .map(|(k, t, s, passed)| {
            format!(
                "    {{ \"lanes\": {k}, \"wall_s\": {t:.6}, \"speedup\": {s:.3}, \
                 \"passed\": {passed} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"trials\": {trials},\n  \"seed\": {},\n  \
         \"baseline_featured_s\": {base_t:.6},\n  \"lanes\": [\n{}\n  ]\n}}\n",
        args.seed,
        lane_rows.join(",\n"),
    );
    args.write_artifact("BENCH_mc_batched.json", &json);

    let (k, speedup) = floor_speedup.expect("no lane width >= 8 was measured");
    assert!(
        speedup >= 2.0,
        "batched MC speedup {speedup:.2}x at K={k} is under the 2x floor"
    );
    println!("floor held: batched MC speedup {speedup:.2}x at K={k} >= 2x");
}
