//! Convergence and speedup bench for the `vls-opt` sizing optimizer.
//!
//! ```text
//! cargo run --release -p vls-bench --bin opt_convergence [-- --smoke --jobs N --out PATH]
//! ```
//!
//! Runs the real thing — a [`SimSource`] over two SS-TVS knobs (the
//! pull-down width `w_m1` and the current-limiter width `w_mc`) at the
//! paper's 0.8 V → 1.2 V corner — through the surrogate-served search,
//! then measures the per-evaluation cost of the surrogate probe
//! against the exact characterization protocol (min-of-reps on both
//! sides). The run fails loudly when the optimizer exceeds its
//! evaluation budget, when the accepted optimum's surrogate-vs-exact
//! gap breaks tolerance, or when the per-evaluation speedup falls
//! under the 50× floor. Writes the `BENCH_opt.json` artifact (or
//! `--out PATH`).
//!
//! `--smoke` shrinks the grid and budget to CI size; the measured
//! speedup floor is identical in both modes (it is per-evaluation, not
//! per-run).

use std::fmt::Write as _;
use std::time::Instant;

use vls_bench::BinArgs;
use vls_cells::VoltagePair;
use vls_opt::{
    optimize, CostSource, Knob, Objective, OptimizerConfig, ParamSpace, SimSource, SizingSurrogate,
    SurrogateConfig, Verdict,
};

fn main() {
    let (args, smoke) = BinArgs::parse_smoke(std::env::args().skip(1));

    let (samples, budget, restarts) = if smoke { (3, 24, 0) } else { (4, 80, 1) };
    let space = ParamSpace::new(vec![
        Knob::new("w_m1", 0.4, 0.8, 0.05),
        Knob::new("w_mc", 0.8, 1.6, 0.1),
    ])
    .expect("bench space is statically valid");
    let mut source = SimSource::new(space.clone(), VoltagePair::low_to_high());
    source.options = args.options();
    let runner = args.runner();

    let t0 = Instant::now();
    let surrogate = SizingSurrogate::build(
        &space,
        &SurrogateConfig {
            samples_per_knob: samples,
            trust_margin: 0.25,
        },
        &source,
        &runner,
    )
    .expect("surrogate fill failed");
    let fill_s = t0.elapsed().as_secs_f64();
    let n_fill = surrogate.table().grid().n_points();
    println!(
        "surrogate: {n_fill} exact fills in {fill_s:.2} s ({} non-functional)",
        surrogate.fill_failures
    );

    let objective = Objective::DelayAtLeakageCap {
        cap_amps: f64::INFINITY,
    };
    let config = OptimizerConfig {
        budget,
        restarts,
        seed: args.seed,
        gap_tolerance: 0.15,
        runner,
    };
    let t0 = Instant::now();
    let outcome =
        optimize(&space, &objective, &source, Some(&surrogate), &config).expect("search failed");
    let search_s = t0.elapsed().as_secs_f64();
    print!("{}", outcome.render());
    println!("search wall time: {search_s:.3} s");

    // Hard gates: budget respected, optimum accepted within tolerance.
    assert!(
        outcome.evaluations <= budget,
        "evaluations {} exceed the budget {budget}",
        outcome.evaluations
    );
    let best = outcome
        .best_restart()
        .expect("no restart optimum survived exact verification");
    assert_eq!(best.verification.verdict, Verdict::Accepted);
    let gap = best
        .verification
        .gap
        .expect("accepted optimum carries a gap");
    assert!(
        gap <= config.gap_tolerance,
        "accepted gap {gap} breaks tolerance {}",
        config.gap_tolerance
    );
    let evals_to_best = outcome
        .trajectory
        .iter()
        .rfind(|s| s.restart == best.restart && s.accepted)
        .map_or(0, |s| s.eval_index + 1);
    println!(
        "evaluations to optimum: {evals_to_best} (of {} used)",
        outcome.evaluations
    );

    // Per-evaluation speedup, min-of-reps on both sides. The exact
    // side runs the full characterization protocol once per rep; the
    // surrogate side amortizes a probe batch per rep.
    let mid = vec![0.5 * (0.4 + 0.8), 0.5 * (0.8 + 1.6)];
    let mut exact_per_eval = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let m = source
            .exact(&mid)
            .expect("exact midpoint evaluation failed");
        assert!(m.functional, "bench midpoint must be functional");
        exact_per_eval = exact_per_eval.min(t0.elapsed().as_secs_f64());
    }
    const BATCH: usize = 20_000;
    let mut surrogate_per_eval = f64::INFINITY;
    let mut checksum = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..BATCH {
            // Jittered in-hull probes so the loop cannot be hoisted.
            let f = i as f64 / BATCH as f64;
            let q = [0.4 + 0.4 * f, 1.6 - 0.8 * f];
            checksum += surrogate
                .probe(&q)
                .expect("in-hull probe refused")
                .delay_rise;
        }
        surrogate_per_eval = surrogate_per_eval.min(t0.elapsed().as_secs_f64() / BATCH as f64);
    }
    let speedup = exact_per_eval / surrogate_per_eval;
    println!("exact:     {:.2} ms/eval (min of 3)", exact_per_eval * 1e3);
    println!(
        "surrogate: {:.0} ns/eval (min of 3 x {BATCH}, checksum {checksum:.3e})",
        surrogate_per_eval * 1e9
    );
    println!("speedup:   {speedup:.0}x per evaluation");
    assert!(
        speedup >= 50.0,
        "surrogate-vs-exact speedup {speedup:.0}x is below the 50x floor"
    );

    // The BENCH_opt.json perf-trajectory artifact.
    let mut json = String::from("{\n  \"format\": 1,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"space\": \"w_m1 [0.4, 0.8] step 0.05 x w_mc [0.8, 1.6] step 0.1\","
    );
    let _ = writeln!(json, "  \"surrogate_fill_points\": {n_fill},");
    let _ = writeln!(json, "  \"surrogate_fill_s\": {fill_s:.6},");
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"evaluations\": {},", outcome.evaluations);
    let _ = writeln!(json, "  \"evals_to_optimum\": {evals_to_best},");
    let _ = writeln!(json, "  \"search_s\": {search_s:.6},");
    let a = &outcome.accounting;
    let _ = writeln!(
        json,
        "  \"accounting\": {{\"surrogate_hits\": {}, \"exact_evals\": {}, \"fallbacks\": {}, \"verifications\": {}}},",
        a.surrogate_hits,
        a.exact_evals,
        a.fallback_out_of_trust + a.fallback_clamped_corner + a.fallback_non_functional,
        a.verification_evals
    );
    let _ = writeln!(
        json,
        "  \"best\": {{\"w_m1\": {}, \"w_mc\": {},",
        best.best[0], best.best[1]
    );
    let _ = writeln!(
        json,
        "    \"exact_delay_s\": {:e}, \"gap\": {gap:.6}}},",
        best.verification.exact_cost.unwrap_or(f64::NAN)
    );
    let _ = writeln!(json, "  \"exact_s_per_eval\": {exact_per_eval:e},");
    let _ = writeln!(json, "  \"surrogate_s_per_eval\": {surrogate_per_eval:e},");
    let _ = writeln!(json, "  \"speedup_per_eval\": {speedup:.1},");
    let _ = writeln!(json, "  \"speedup_floor\": 50.0");
    json.push_str("}\n");
    args.write_artifact("BENCH_opt.json", &json);

    args.maybe_write_csv(&format!(
        "metric,value\nevaluations,{}\nevals_to_optimum,{evals_to_best}\nexact_s_per_eval,\
         {exact_per_eval:e}\nsurrogate_s_per_eval,{surrogate_per_eval:e}\nspeedup,{speedup}\n",
        outcome.evaluations
    ));
}
