//! Chip-scale sparse-solve benchmark.
//!
//! Generates `chipgen` floorplans sized to 100 / 1 000 / 10 000 MNA
//! unknowns and measures the PR-10 structured solver against the
//! natural-order flat LU baseline, on two legs:
//!
//! 1. **kernel leg** — the chip's MNA sparsity pattern (element
//!    cliques plus voltage-source branch rows) assembled with
//!    deterministic synthetic conductances, solved by (a) natural-order
//!    flat LU — a from-scratch `SparseLu` factorization plus solve,
//!    the cost any kernel without the structured machinery pays — and
//!    (b) the island-partitioned `SchurSolver` steady-state hot path
//!    (numeric refactorize + solve; its one-time tearing/symbolic cost
//!    is reported separately). The rail/stim hub rows sit first in
//!    natural order, so flat LU's pivot search goes superlinear
//!    (measured ~0.7 ms → ~39 ms → ~750 ms at 100/400/1000 unknowns)
//!    while the island path stays near-linear — the complexity-curve
//!    floor pins the structured path ≥4x faster at 1 000 unknowns
//!    (≥1.5x at 400 under `--smoke`). For calibration the rows also
//!    report the incremental frozen-pivot `refactorize` time of the
//!    natural path — the PR-9 Newton steady state, which is already
//!    near-optimal on this matrix and is *not* the floor's baseline.
//!    The flat baseline is skipped above the pin size, where its
//!    superlinear cost makes it unaffordable;
//! 2. **engine leg** — the largest floorplan solved end to end through
//!    `vls-engine` with `SolverStructure::Islands`: the DC operating
//!    point and a short transient window, proving the 10k-unknown
//!    chip solves DC+transient through the structured kernel.
//!
//! Writes the `BENCH_solve.json` perf-trajectory artifact (or `--out PATH`).
//!
//! ```text
//! cargo run --release -p vls-bench --bin solve_scale [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks the sizes to [100, 400] for CI; every correctness
//! assertion and the (smaller) speedup floor still hold.

use std::fmt::Write as _;
use std::time::Instant;

use vls_bench::BinArgs;
use vls_engine::{island_report, run_transient, solve_dc, SimOptions, SolverStructure};
use vls_netlist::chipgen::{generate_chip, spec_for_unknowns, unknowns_of};
use vls_netlist::Circuit;
use vls_num::{CscMatrix, SchurSolver, SparseLu, TripletMatrix};

/// Minimum structured-vs-natural speedup at the pin size.
const FULL_FLOOR: f64 = 4.0;
const SMOKE_FLOOR: f64 = 1.5;
/// Agreement tolerance between the two kernels' solutions.
const SOLVE_TOL: f64 = 1e-9;

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

/// The chip's MNA system with synthetic values: every element stamps a
/// diagonally-dominant conductance clique over its non-ground nodes
/// (the structural model of its Jacobian), voltage sources add their
/// branch row/column pair. Deterministic in the circuit alone. Returns
/// the assembled matrix and the boundary unknowns the engine would
/// tear (source-incident nodes plus every branch current).
fn synthetic_mna(flat: &Circuit) -> (CscMatrix, Vec<usize>) {
    let node_unknowns = flat.node_count() - 1;
    let branches = flat
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .count();
    let n = node_unknowns + branches;
    let mut t = TripletMatrix::new(n);
    let mut boundary = Vec::new();
    // Small diagonal everywhere (the engine's gmin) keeps isolated
    // nodes nonsingular without masking the clique structure.
    for i in 0..n {
        t.add(i, i, 1e-9);
    }
    let idx =
        |id: vls_netlist::NodeId| -> Option<usize> { (!id.is_ground()).then(|| id.index() - 1) };
    let mut branch = node_unknowns;
    for (k, e) in flat.elements().iter().enumerate() {
        let pins: Vec<usize> = {
            let mut p: Vec<usize> = e.nodes().into_iter().filter_map(idx).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        // Deterministic per-element conductance in [1e-4, 1.1e-3).
        let g = 1e-4 * (1.0 + (k % 10) as f64);
        for (a, &i) in pins.iter().enumerate() {
            for &j in &pins[a + 1..] {
                t.add(i, i, g);
                t.add(j, j, g);
                t.add(i, j, -g);
                t.add(j, i, -g);
            }
        }
        if e.needs_branch_current() {
            // v-source constraint row: ±1 incidence, zero diagonal.
            for &i in &pins {
                t.add(branch, i, 1.0);
                t.add(i, branch, 1.0);
            }
            boundary.extend(&pins);
            boundary.push(branch);
            branch += 1;
        }
    }
    boundary.sort_unstable();
    boundary.dedup();
    (t.to_csc(), boundary)
}

struct Row {
    unknowns: usize,
    instances: usize,
    islands: usize,
    boundary: usize,
    /// From-scratch natural-order flat LU (factorize + solve) — the
    /// floor's baseline. `None` above the pin size.
    flat_s: Option<f64>,
    /// Incremental natural refactorize + solve (PR-9 steady state),
    /// reported for calibration only.
    refactor_s: Option<f64>,
    structured_s: f64,
    speedup: Option<f64>,
}

fn main() {
    let (args, smoke) = BinArgs::parse_smoke(std::env::args().skip(1));
    let targets: &[usize] = if smoke {
        &[100, 400]
    } else {
        &[100, 1000, 10_000]
    };
    let (pin_target, floor) = if smoke {
        (400, SMOKE_FLOOR)
    } else {
        (1000, FULL_FLOOR)
    };
    let flat_cap = pin_target; // natural flat LU stops being affordable
    let reps = if smoke { 3 } else { 5 };
    let mut rows: Vec<Row> = Vec::new();
    let mut biggest: Option<Circuit> = None;

    println!(
        "chip-scale sparse solve ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    for &target in targets {
        let spec = spec_for_unknowns(target, 3, 0x5510_c0de);
        let flat = generate_chip(&spec).flatten();
        let n = unknowns_of(&flat);
        assert!(n >= target, "sizing fell short: {n} < {target}");
        let (a, boundary) = synthetic_mna(&flat);
        let b = vec![1.0; n];

        // Structured path, timed on its Newton steady state: the
        // one-time symbolic phase (tearing, per-island minimum degree)
        // runs once per circuit in the engine, then every iteration
        // pays one numeric refactorization plus one boundary-coupled
        // solve — that per-iteration cost is what scales with fill.
        let mut schur =
            SchurSolver::factorize(&a, &boundary, 1e-3).expect("structured factorization");
        let (structured_s, xs) = time_best(reps, || {
            schur.refactorize(&a, 1e-3).expect("structured refactorize");
            schur.solve(&b).expect("structured solve")
        });
        let (islands, boundary_len, structured_nnz) = (
            schur.partition().island_count(),
            schur.partition().boundary_len(),
            schur.factor_nnz(),
        );

        // Natural-order flat LU — a from-scratch factorization plus
        // solve — is the floor's baseline, skipped above the pin size
        // where its superlinear pivot-search cost is unaffordable. The
        // incremental frozen-pivot refactorize of the same natural
        // factorization rides along for calibration.
        let (flat_s, refactor_s, natural_nnz, speedup) = if target <= flat_cap {
            let flat_reps = if target >= 1000 { 2 } else { reps };
            let (t_flat, xf) = time_best(flat_reps, || {
                let f = SparseLu::factorize_with_tolerance(&a, 1e-3).expect("flat factorization");
                f.solve(&b).expect("flat solve")
            });
            let worst = xs
                .iter()
                .zip(&xf)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= SOLVE_TOL,
                "kernels disagree by {worst:.3e} at {n} unknowns"
            );
            let mut lu = SparseLu::factorize(&a).expect("natural factorization");
            let mut xn = vec![0.0; n];
            let (t_ref, ()) = time_best(reps, || {
                lu.refactorize(&a, 1e-3).expect("natural refactorize");
                lu.solve_into(&b, &mut xn).expect("natural solve");
            });
            (
                Some(t_flat),
                Some(t_ref),
                Some(lu.factor_nnz()),
                Some(t_flat / structured_s),
            )
        } else {
            (None, None, None, None)
        };

        println!(
            "  {n:>6} unknowns ({} units, {islands} islands + {boundary_len} boundary): \
             structured {:>9.3} ms / {structured_nnz} nnz{}",
            spec.instances,
            structured_s * 1e3,
            match (flat_s, refactor_s, natural_nnz, speedup) {
                (Some(f), Some(r), Some(nnz), Some(s)) => format!(
                    ", flat LU {:.3} ms ({s:.0}x), incr. natural {:.3} ms / {nnz} nnz",
                    f * 1e3,
                    r * 1e3
                ),
                _ => ", flat LU skipped".to_string(),
            }
        );
        rows.push(Row {
            unknowns: n,
            instances: spec.instances,
            islands,
            boundary: boundary_len,
            flat_s,
            refactor_s,
            structured_s,
            speedup,
        });
        biggest = Some(flat);
    }

    // Floor: structured speedup at the pin size.
    let pin = rows
        .iter()
        .find(|r| r.unknowns >= pin_target && r.speedup.is_some())
        .expect("pin size is benchmarked against the flat baseline");
    let pin_speedup = pin.speedup.expect("pin ran the flat baseline");
    assert!(
        pin_speedup >= floor,
        "structured speedup {pin_speedup:.2}x at {} unknowns is under the {floor}x floor",
        pin.unknowns
    );
    println!(
        "  speedup floor: {pin_speedup:.2}x >= {floor}x at {} unknowns",
        pin.unknowns
    );

    // Engine leg: the largest floorplan through the islands kernel,
    // DC operating point plus a short transient window.
    let flat = biggest.expect("at least one size ran");
    let sim = SimOptions {
        structure: SolverStructure::Islands,
        sparse_threshold: 0,
        ..SimOptions::default()
    };
    let report = island_report(&flat, &sim);
    let t0 = Instant::now();
    let dc = solve_dc(&flat, &sim).expect("chip DC through the islands kernel");
    let dc_s = t0.elapsed().as_secs_f64();
    let rail = flat.find_node("vdd_i0").expect("island rail");
    assert!(
        (dc.voltage(rail) - 0.8).abs() < 1e-6,
        "rail solved to {} V",
        dc.voltage(rail)
    );
    let tstop = if smoke { 1e-10 } else { 2e-10 };
    let t0 = Instant::now();
    let tran =
        run_transient(&flat, tstop, &sim).expect("chip transient through the islands kernel");
    let tran_s = t0.elapsed().as_secs_f64();
    assert!(tran.len() > 1, "transient accepted no steps");
    println!(
        "  engine leg: {} unknowns ({} islands, {} boundary) \
         dc {:.3} ms, transient({} steps) {:.3} ms",
        report.unknowns,
        report.islands,
        report.boundary,
        dc_s * 1e3,
        tran.len(),
        tran_s * 1e3
    );

    // Artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"unknowns\": {}, \"instances\": {}, \"islands\": {}, \
             \"boundary\": {}, \"structured_s\": {:.6}",
            r.unknowns, r.instances, r.islands, r.boundary, r.structured_s
        );
        if let (Some(f), Some(rf), Some(s)) = (r.flat_s, r.refactor_s, r.speedup) {
            let _ = write!(
                json,
                ", \"flat_s\": {f:.6}, \"natural_refactor_s\": {rf:.6}, \"speedup\": {s:.3}"
            );
        }
        let _ = writeln!(json, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"pin\": {{\"unknowns\": {}, \"speedup\": {pin_speedup:.3}, \"floor\": {floor}}},",
        pin.unknowns
    );
    let _ = writeln!(
        json,
        "  \"engine\": {{\"unknowns\": {}, \"islands\": {}, \"boundary\": {}, \
         \"dc_s\": {dc_s:.6}, \"tran_steps\": {}, \"tran_s\": {tran_s:.6}}}",
        report.unknowns,
        report.islands,
        report.boundary,
        tran.len()
    );
    json.push_str("}\n");
    args.write_artifact("BENCH_solve.json", &json);
}
