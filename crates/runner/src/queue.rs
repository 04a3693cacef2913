//! The chunked atomic work queue.
//!
//! `n` independent jobs are distributed across scoped worker threads
//! through a single [`AtomicUsize`] cursor: each worker claims the
//! next `chunk` indices with one `fetch_add`, evaluates them, and
//! appends `(index, value)` pairs to its private buffer. After the
//! scope joins, the buffers are scattered back into index order, so
//! the output is a plain `Vec<T>` identical to what a serial loop
//! would produce — the thread schedule decides only *who* computes an
//! index, never *what* it computes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vls_num::SolverStats;

use crate::RunnerOptions;

/// One worker's take: shard id, `(index, value)` pairs, busy time.
type ShardBuffer<T> = (usize, Vec<(usize, T)>, Duration);

/// Wall-clock accounting of one worker (shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Worker index, `0..jobs`.
    pub shard: usize,
    /// Jobs this worker completed.
    pub jobs_done: usize,
    /// Busy wall time of this worker.
    pub wall: Duration,
}

/// One exhausted trial in a resilient ensemble's machine-readable
/// failure taxonomy: everything needed to understand — and replay —
/// the failure without rerunning the ensemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureTaxonomyEntry {
    /// Run index within the ensemble.
    pub index: usize,
    /// The trial's derived seed; replaying it reproduces the failure
    /// deterministically.
    pub seed: u64,
    /// Highest retry-ladder rung attempted before giving up (0 = the
    /// base attempt was the only one).
    pub stage_reached: usize,
    /// Stable failure-class token of the final error (e.g.
    /// `no_convergence`, `budget_exhausted`).
    pub class: String,
    /// Work units spent when the trial gave up (what the classifier
    /// extracted from the final error; 0 when not applicable).
    pub budget_spent: u64,
}

impl FailureTaxonomyEntry {
    /// One line for reports: `trial 17 (seed 0x1234): no_convergence
    /// after rung 2`.
    pub fn render(&self) -> String {
        let budget = if self.budget_spent > 0 {
            format!(", {} work units spent", self.budget_spent)
        } else {
            String::new()
        };
        format!(
            "trial {} (seed {:#x}): {} after rung {}{}",
            self.index, self.seed, self.class, self.stage_reached, budget
        )
    }
}

/// Wall-clock accounting of one parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Per-worker accounting, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// End-to-end wall time of the run (spawn to join).
    pub total_wall: Duration,
    /// Aggregated solver work counters across every job. The queue
    /// itself cannot see inside jobs, so this starts empty; drivers
    /// that collect per-job [`SolverStats`] fold them in through
    /// [`RunReport::absorb_solver`].
    pub solver: SolverStats,
    /// Taxonomy of trials that exhausted their retries, in index
    /// order. Empty for fully successful (or non-resilient) runs; a
    /// nonempty list marks the report as *partial* — the run completed
    /// and every other trial's result is valid.
    pub failures: Vec<FailureTaxonomyEntry>,
}

impl RunReport {
    /// Sum of the busy time of every shard — the serial-equivalent
    /// cost. `busy_total / total_wall` approximates the achieved
    /// parallel speedup.
    pub fn busy_total(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Achieved speedup: serial-equivalent busy time over elapsed wall
    /// time. Close to the worker count for well-balanced ensembles on
    /// idle hardware.
    pub fn speedup(&self) -> f64 {
        self.busy_total().as_secs_f64() / self.total_wall.as_secs_f64().max(1e-12)
    }

    /// Accumulates one job's solver counters into the report.
    pub fn absorb_solver(&mut self, stats: &SolverStats) {
        self.solver.merge(stats);
    }

    /// One line per shard plus the speedup summary, for the bench
    /// drivers.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.shards {
            let _ = writeln!(
                out,
                "  shard {:>2}: {:>5} job(s) in {:>10.3?}",
                s.shard, s.jobs_done, s.wall
            );
        }
        let _ = writeln!(
            out,
            "  total {:.3?} wall, {:.3?} busy, speedup {:.2}x",
            self.total_wall,
            self.busy_total(),
            self.speedup()
        );
        if !self.solver.is_empty() {
            let _ = writeln!(out, "  solver: {}", self.solver.render());
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {}", f.render());
        }
        out
    }
}

/// Runs `f(0..n)` across the configured workers and returns the
/// results in index order, plus the per-shard wall-time report.
///
/// `f` must be a pure function of the index (up to floating-point
/// determinism, which Rust guarantees for identical inputs), in which
/// case the output is bit-identical for every worker count.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope unwinds.
pub fn run_indexed_reported<T: Send>(
    n: usize,
    options: &RunnerOptions,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, RunReport) {
    let jobs = options.effective_jobs().min(n.max(1));
    let chunk = options.chunk_size(n);
    let started = Instant::now();

    if jobs == 1 {
        // Serial fast path: no thread spawn, no scatter — the report
        // keeps the same one-shard shape a single worker would produce.
        let results: Vec<T> = (0..n).map(&f).collect();
        let wall = started.elapsed();
        return (
            results,
            RunReport {
                shards: vec![ShardReport {
                    shard: 0,
                    jobs_done: n,
                    wall,
                }],
                total_wall: wall,
                solver: SolverStats::default(),
                failures: Vec::new(),
            },
        );
    }

    let cursor = AtomicUsize::new(0);

    let mut buffers: Vec<ShardBuffer<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|shard| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for k in start..(start + chunk).min(n) {
                            local.push((k, f(k)));
                        }
                    }
                    (shard, local, t0.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runner worker panicked"))
            .collect()
    });

    let total_wall = started.elapsed();
    let shards = buffers
        .iter()
        .map(|(shard, local, wall)| ShardReport {
            shard: *shard,
            jobs_done: local.len(),
            wall: *wall,
        })
        .collect();

    // Scatter back to index order.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (_, local, _) in buffers.drain(..) {
        for (k, v) in local {
            slots[k] = Some(v);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect();
    (
        results,
        RunReport {
            shards,
            total_wall,
            solver: SolverStats::default(),
            failures: Vec::new(),
        },
    )
}

/// [`run_indexed_reported`] without the report.
pub fn run_indexed<T: Send>(
    n: usize,
    options: &RunnerOptions,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    run_indexed_reported(n, options, f).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let out = run_indexed(100, &RunnerOptions::with_jobs(jobs), |k| k * k);
            assert_eq!(out, (0..100).map(|k| k * k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let f = |k: usize| (k as f64).sqrt().sin() * 1e9;
        let serial = run_indexed(257, &RunnerOptions::serial(), f);
        for jobs in [2, 5, 16] {
            let par = run_indexed(257, &RunnerOptions::with_jobs(jobs), f);
            // Bit-level comparison, not approximate.
            let a: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn report_accounts_for_every_job() {
        let (out, report) = run_indexed_reported(37, &RunnerOptions::with_jobs(4), |k| k);
        assert_eq!(out.len(), 37);
        let done: usize = report.shards.iter().map(|s| s.jobs_done).sum();
        assert_eq!(done, 37);
        assert!(report.shards.len() <= 4);
        assert!(report.speedup() >= 0.0);
        assert!(report.render().contains("shard"));
    }

    #[test]
    fn empty_run_is_fine() {
        let (out, report) = run_indexed_reported(0, &RunnerOptions::default(), |k| k);
        assert!(out.is_empty());
        assert_eq!(report.busy_total() + Duration::ZERO, report.busy_total());
    }

    #[test]
    fn serial_fast_path_reports_one_shard() {
        let (out, report) = run_indexed_reported(12, &RunnerOptions::serial(), |k| 2 * k);
        assert_eq!(out, (0..12).map(|k| 2 * k).collect::<Vec<_>>());
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].jobs_done, 12);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_indexed(3, &RunnerOptions::with_jobs(16), |k| k + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
