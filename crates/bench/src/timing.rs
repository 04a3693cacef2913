//! A minimal wall-clock benchmark harness.
//!
//! The workspace builds with zero registry access, so the performance
//! benches cannot use an external harness crate. This module provides
//! the small subset actually needed: run a closure enough times to get
//! above timer resolution, repeat for a handful of samples, and print
//! the per-iteration median and mean.

use std::time::Instant;

/// Number of timed samples per benchmark.
const SAMPLES: usize = 10;

/// Target wall time per sample; the harness batches enough iterations
/// of fast closures to reach this.
const TARGET_SAMPLE_SECS: f64 = 5e-3;

/// Times `f` and prints `name` with per-iteration median/mean.
///
/// One untimed warm-up call is followed by a calibration call that
/// picks the batch size, then `SAMPLES` timed batches.
pub fn bench_function(name: &str, mut f: impl FnMut()) {
    f(); // warm-up (allocator, caches, lazy statics)

    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((TARGET_SAMPLE_SECS / once).ceil() as usize).clamp(1, 1_000_000);

    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    println!(
        "{name:<40} median {:>10}  mean {:>10}  ({iters} iters/sample)",
        fmt_duration(median),
        fmt_duration(mean),
    );
}

/// Formats a duration in seconds with an auto-selected unit.
fn fmt_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_selection_covers_the_scale() {
        assert_eq!(fmt_duration(2.5e-9), "2.5 ns");
        assert_eq!(fmt_duration(3.1e-6), "3.10 µs");
        assert_eq!(fmt_duration(4.2e-3), "4.20 ms");
        assert_eq!(fmt_duration(1.5), "1.500 s");
    }

    #[test]
    fn bench_function_runs_the_closure() {
        let mut count = 0u64;
        bench_function("noop", || count += 1);
        // warm-up + calibration + SAMPLES batches of >= 1 iteration.
        assert!(count >= 2 + SAMPLES as u64);
    }
}
