//! Parallel experiment execution.
//!
//! The paper's bulk workloads — 1000-run Monte Carlo ensembles and the
//! full `VDDI × VDDO` sweep grid — are embarrassingly parallel: every
//! run is independent given its index. This crate turns that shape
//! into a reusable execution layer:
//!
//! * [`run_indexed`] / [`run_indexed_reported`] — shard `n` independent
//!   jobs across [`std::thread::scope`] workers pulling fixed-size
//!   chunks from an atomic work queue; results come back in index
//!   order, bit-identical for any worker count (including 1);
//! * [`run_ensemble`] — the seeded variant: every job receives a
//!   deterministic seed derived from `(master_seed, index)` via
//!   [`derive_seed`], and per-job failures are captured as
//!   [`JobOutcome`]s (with the seed, for replay) instead of aborting
//!   the ensemble;
//! * [`run_ensemble_resilient`] — the degradation-aware variant: each
//!   trial gets a [`RetryPolicy`]-bounded ladder of escalated attempts
//!   (`eval(job, rung)`), runs that exhaust every rung are captured as
//!   [`TrialFailure`]s, and the report gains a machine-readable
//!   [`FailureTaxonomyEntry`] per exhausted trial — partial results
//!   instead of an aborted run;
//! * [`OpCache`] — a small LRU of solved DC operating points keyed by
//!   quantized `(VDDI, VDDO, temp)`, the warm-start store for sweep
//!   shards (kept shard-local so results stay independent of the
//!   thread schedule).
//!
//! Determinism contract: a job's output may depend only on its index
//! (and derived seed), never on which worker ran it or on what else
//! ran concurrently. Everything in this crate preserves that property;
//! warm-start state is therefore scoped to a work item, not shared
//! across the queue.
//!
//! # Example
//!
//! ```
//! use vls_runner::{run_ensemble, RunnerOptions};
//!
//! let opts = RunnerOptions::with_jobs(4);
//! let ensemble = run_ensemble::<_, String>(100, 42, &opts, |job| {
//!     if job.index == 17 {
//!         Err("did not converge".to_string())
//!     } else {
//!         Ok(job.seed as f64)
//!     }
//! });
//! assert_eq!(ensemble.outcomes.len(), 100);
//! assert_eq!(ensemble.failures().len(), 1);
//! // Identical regardless of worker count.
//! let serial = run_ensemble::<_, String>(100, 42, &RunnerOptions::serial(), |job| {
//!     if job.index == 17 { Err("did not converge".into()) } else { Ok(job.seed as f64) }
//! });
//! assert_eq!(ensemble.successes(), serial.successes());
//! ```

mod cache;
mod ensemble;
mod queue;
mod seed;

pub use cache::{OpCache, OpKey};
pub use ensemble::{
    run_ensemble, run_ensemble_resilient, Ensemble, Job, JobOutcome, ResilientEnsemble,
    RetryPolicy, TrialFailure, TrialSuccess,
};
pub use queue::{
    run_indexed, run_indexed_mut, run_indexed_reported, FailureTaxonomyEntry, RunReport,
    ShardReport,
};
pub use seed::{derive_seed, rng_for_run};

/// How an experiment is spread across workers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunnerOptions {
    /// Worker threads; `None` means [`std::thread::available_parallelism`].
    pub jobs: Option<usize>,
    /// Jobs handed out per queue pull; `None` picks a small multiple of
    /// the worker count. Chunking balances load without per-job
    /// synchronization; it never affects results.
    pub chunk: Option<usize>,
}

impl RunnerOptions {
    /// One worker: the serial baseline every parallel run must match
    /// bit-for-bit.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// Exactly `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> Self {
        assert!(jobs > 0, "at least one worker required");
        Self {
            jobs: Some(jobs),
            chunk: None,
        }
    }

    /// The worker count this configuration resolves to. An unset
    /// `jobs` falls back to the `VLS_JOBS` environment variable (so CI
    /// can pin the whole suite to one worker and prove the serial
    /// configuration first-class), then to
    /// [`std::thread::available_parallelism`]. Results never depend on
    /// the resolved count — only wall time does.
    pub fn effective_jobs(&self) -> usize {
        self.jobs
            .or_else(|| {
                std::env::var("VLS_JOBS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }

    /// The chunk size used for `n` jobs: explicit, or a small multiple
    /// of the worker count so the queue can rebalance stragglers.
    pub fn chunk_size(&self, n: usize) -> usize {
        self.chunk
            .unwrap_or_else(|| n.div_ceil(4 * self.effective_jobs().max(1)))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves() {
        assert_eq!(RunnerOptions::serial().effective_jobs(), 1);
        assert_eq!(RunnerOptions::with_jobs(8).effective_jobs(), 8);
        assert!(RunnerOptions::default().effective_jobs() >= 1);
    }

    #[test]
    fn chunk_size_is_positive_and_rebalances() {
        let o = RunnerOptions::with_jobs(4);
        assert_eq!(o.chunk_size(0), 1);
        assert!(o.chunk_size(1000) <= 1000usize.div_ceil(16));
        let explicit = RunnerOptions {
            chunk: Some(7),
            ..RunnerOptions::serial()
        };
        assert_eq!(explicit.chunk_size(1000), 7);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_rejected() {
        let _ = RunnerOptions::with_jobs(0);
    }
}
