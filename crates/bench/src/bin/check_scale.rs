//! Chip-scale static-verification benchmark.
//!
//! Generates `chipgen` floorplans at increasing instance counts and
//! measures the hierarchical checker against flattening the same
//! design and re-deriving every fact per copy:
//!
//! 1. clean chips at each size — the hierarchical report must be
//!    empty, byte-identical at 1/2/8 workers, and near-linear in the
//!    instance count (per-instance cost may grow at most 8x from the
//!    smallest to the largest size);
//! 2. a flattened run at the sizes where it is affordable — the
//!    hierarchical speedup floor is enforced at the pin size
//!    (≥4x at 1000 instances; ≥1.5x at 240 under `--smoke`);
//! 3. a mutated chip carrying all five MSV defects — every rule
//!    (ERC009–ERC013) must fire, fingerprints must not depend on the
//!    worker count, and a recorded baseline must suppress the full
//!    report on re-application.
//!
//! Writes the `BENCH_check.json` perf-trajectory artifact (or `--out PATH`).
//!
//! ```text
//! cargo run --release -p vls-bench --bin check_scale [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks the sizes to [60, 240] for CI; every correctness
//! assertion and the (smaller) speedup floor still hold.

use std::fmt::Write as _;
use std::time::Instant;

use vls_bench::BinArgs;
use vls_check::{run_check, run_check_design_with, Baseline, CheckOptions, ErcCode, Report};
use vls_netlist::chipgen::{generate_chip, generate_chip_mutated, ChipMutation, ChipSpec};
use vls_netlist::HierDesign;
use vls_runner::RunnerOptions;

/// Minimum hierarchical-vs-flat speedup at the pin size.
const FULL_FLOOR: f64 = 4.0;
const SMOKE_FLOOR: f64 = 1.5;
/// Per-instance hierarchical cost may grow at most this much from the
/// smallest to the largest size (near-linear scaling).
const LINEARITY_CAP: f64 = 8.0;

fn spec(instances: usize) -> ChipSpec {
    ChipSpec {
        instances,
        ..ChipSpec::default()
    }
}

/// Best-of-`reps` wall time for `f`, with the last result.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("reps >= 1"))
}

struct Row {
    instances: usize,
    hier_serial_s: f64,
    hier_j8_s: f64,
    flat_s: Option<f64>,
    speedup: Option<f64>,
}

fn check_hier(design: &HierDesign, options: &CheckOptions, jobs: usize) -> Report {
    run_check_design_with(design, options, &RunnerOptions::with_jobs(jobs))
}

fn main() {
    let (args, smoke) = BinArgs::parse_smoke(std::env::args().skip(1));
    let sizes: &[usize] = if smoke {
        &[60, 240]
    } else {
        &[100, 1000, 10_000]
    };
    let (pin_size, floor) = if smoke {
        (240, SMOKE_FLOOR)
    } else {
        (1000, FULL_FLOOR)
    };
    let flat_cap = pin_size; // flattened runs stop where they stop being affordable
    let options = CheckOptions::default();
    let mut rows: Vec<Row> = Vec::new();

    println!(
        "chip-scale MSV verification ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    for &n in sizes {
        let design = generate_chip(&spec(n));
        let (hier_serial_s, serial) = time_best(3, || check_hier(&design, &options, 1));
        assert_eq!(
            serial.diagnostics.len(),
            0,
            "clean {n}-instance chip is not clean:\n{}",
            serial.render_text()
        );

        // Worker count must never change a byte of output.
        let mut hier_j8_s = hier_serial_s;
        for jobs in [2usize, 8] {
            let (t, parallel) = time_best(3, || check_hier(&design, &options, jobs));
            assert_eq!(serial.render_text(), parallel.render_text(), "jobs={jobs}");
            assert_eq!(serial.render_json(), parallel.render_json(), "jobs={jobs}");
            if jobs == 8 {
                hier_j8_s = t;
            }
        }

        let (flat_s, speedup) = if n <= flat_cap {
            let flat = design.flatten();
            let (t_flat, report) = time_best(2, || run_check(&flat, &options));
            assert!(
                !report.has_errors(),
                "clean {n}-instance flat chip has errors:\n{}",
                report.render_text()
            );
            (Some(t_flat), Some(t_flat / hier_serial_s))
        } else {
            (None, None)
        };

        println!(
            "  {n:>6} instances: hier {:>9.3} ms (j8 {:>9.3} ms){}",
            hier_serial_s * 1e3,
            hier_j8_s * 1e3,
            match (flat_s, speedup) {
                (Some(f), Some(s)) => format!(", flat {:.3} ms ({s:.1}x)", f * 1e3),
                _ => ", flat skipped".to_string(),
            }
        );
        rows.push(Row {
            instances: n,
            hier_serial_s,
            hier_j8_s,
            flat_s,
            speedup,
        });
    }

    // Floors: speedup at the pin size, near-linear hierarchical cost.
    let pin = rows
        .iter()
        .find(|r| r.instances == pin_size)
        .expect("pin size is benchmarked");
    let pin_speedup = pin.speedup.expect("pin size ran flat");
    assert!(
        pin_speedup >= floor,
        "hierarchical speedup {pin_speedup:.2}x at {pin_size} instances is under the {floor}x floor"
    );
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let per_instance_growth = (last.hier_serial_s / last.instances as f64)
        / (first.hier_serial_s / first.instances as f64);
    assert!(
        per_instance_growth <= LINEARITY_CAP,
        "per-instance hierarchical cost grew {per_instance_growth:.2}x from {} to {} instances",
        first.instances,
        last.instances
    );
    println!(
        "  speedup floor: {pin_speedup:.2}x >= {floor}x at {pin_size}; \
         per-instance growth {per_instance_growth:.2}x <= {LINEARITY_CAP}x"
    );

    // Mutation scenario: all five MSV rules, stable fingerprints, and
    // a baseline that suppresses the whole recorded report.
    let mutated = generate_chip_mutated(
        &spec(100.min(sizes[0].max(60))),
        &[
            ChipMutation::DropShifter { unit: 1 },
            ChipMutation::RedundantShifter { unit: 2 },
            ChipMutation::CrossDriver { unit: 3 },
            ChipMutation::BridgeRails { a: 0, b: 1 },
            ChipMutation::OrphanIsland,
        ],
    );
    let report = check_hier(&mutated, &options, 1);
    for code in [
        ErcCode::Erc009MissingShifter,
        ErcCode::Erc010RedundantShifter,
        ErcCode::Erc011DomainContention,
        ErcCode::Erc012SneakRailPath,
        ErcCode::Erc013DanglingIsland,
    ] {
        assert!(
            !report.with_code(code).is_empty(),
            "{code:?} did not fire:\n{}",
            report.render_text()
        );
    }
    let parallel = check_hier(&mutated, &options, 8);
    let fingerprints: Vec<String> = report.diagnostics.iter().map(|d| d.fingerprint()).collect();
    assert_eq!(
        fingerprints,
        parallel
            .diagnostics
            .iter()
            .map(|d| d.fingerprint())
            .collect::<Vec<_>>(),
        "fingerprints depend on the worker count"
    );
    let baseline = Baseline::from_report(&report);
    let parsed = Baseline::parse(&baseline.render()).expect("baseline round-trips");
    let mut suppressed = check_hier(&mutated, &options, 1);
    let n_suppressed = suppressed.apply_baseline(&parsed);
    assert_eq!(n_suppressed, fingerprints.len());
    assert_eq!(suppressed.diagnostics.len(), 0);
    assert!(!suppressed.has_errors());
    println!(
        "  mutated chip: {} findings, all five rules fired, baseline suppresses all",
        fingerprints.len()
    );

    // Artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"instances\": {}, \"hier_serial_s\": {:.6}, \"hier_j8_s\": {:.6}",
            r.instances, r.hier_serial_s, r.hier_j8_s
        );
        if let (Some(f), Some(s)) = (r.flat_s, r.speedup) {
            let _ = write!(json, ", \"flat_s\": {f:.6}, \"speedup\": {s:.3}");
        }
        let _ = writeln!(json, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"pin\": {{\"instances\": {pin_size}, \"speedup\": {pin_speedup:.3}, \
         \"floor\": {floor}}},"
    );
    let _ = writeln!(json, "  \"per_instance_growth\": {per_instance_growth:.3},");
    let _ = writeln!(
        json,
        "  \"mutated\": {{\"findings\": {}, \"rules\": [\"ERC009\", \"ERC010\", \"ERC011\", \
         \"ERC012\", \"ERC013\"], \"baseline_suppresses_all\": true}}",
        fingerprints.len()
    );
    json.push_str("}\n");
    args.write_artifact("BENCH_check.json", &json);
}
