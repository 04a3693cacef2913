//! A generic named-axis N-dimensional grid and interpolated table.
//!
//! The five-axis operating grid ([`crate::GridSpec`]) is hard-wired to
//! `(slew, load, vddi, vddo, temp)`. The sizing optimizer (`vls-opt`)
//! needs the same machinery — strictly increasing sample axes,
//! row-major flat indexing, per-axis trust region, clamped multilinear
//! interpolation with non-functional vetoes, corner-clamp refusal —
//! over an *arbitrary* set of named axes (per-device W/L knobs). This
//! module is that machinery, dimension-generic up to [`MAX_DIMS`].
//!
//! Unlike [`crate::CharLib`], an [`NdTable`] carries no traffic
//! counters: callers (the optimizer's trust accounting) fold the
//! returned [`NdFallback`] reasons themselves, which keeps the
//! aggregation deterministic under parallel candidate fan-out.

use crate::grid::rounding_slack;
use crate::interp::locate;
use crate::{CharLibError, TableMetrics};

/// The corner loop uses a `u32` mask, so 16 axes is a hard ceiling —
/// far above any practical sizing space (2^16 corners per probe).
pub const MAX_DIMS: usize = 16;

/// One named sample axis.
#[derive(Debug, Clone, PartialEq)]
pub struct NdAxis {
    /// The axis name (a sizing knob like `w_m1`).
    pub name: String,
    /// Strictly increasing, finite sample coordinates.
    pub samples: Vec<f64>,
}

/// Why an [`NdTable`] probe could not be served — the N-dimensional
/// mirror of [`crate::FallbackReason`], with an owned axis name
/// because the axes are caller-defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdFallback {
    /// The probe left the trust region of the named axis.
    OutOfTrustRegion(String),
    /// The probe clamps onto the grid hull on ≥ 2 axes at once.
    ClampedCorner,
    /// A contributing grid point is non-functional.
    NonFunctionalRegion,
}

impl core::fmt::Display for NdFallback {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NdFallback::OutOfTrustRegion(axis) => write!(f, "out of trust region on '{axis}'"),
            NdFallback::ClampedCorner => write!(f, "clamped corner"),
            NdFallback::NonFunctionalRegion => write!(f, "non-functional region"),
        }
    }
}

/// An N-dimensional named-axis grid with a shared trust margin.
#[derive(Debug, Clone, PartialEq)]
pub struct NdGrid {
    axes: Vec<NdAxis>,
    trust_margin: f64,
}

impl NdGrid {
    /// Builds a grid from `(name, samples)` axes and a trust margin
    /// (fraction of each axis span a query may overhang by and still
    /// be served from the clamped table edge).
    ///
    /// # Errors
    ///
    /// [`CharLibError::BadGrid`] for zero axes, more than [`MAX_DIMS`]
    /// axes, duplicate axis names, an empty / non-finite /
    /// non-strictly-increasing axis, or a non-finite / negative
    /// margin.
    pub fn new(axes: Vec<(String, Vec<f64>)>, trust_margin: f64) -> Result<Self, CharLibError> {
        if axes.is_empty() {
            return Err(CharLibError::BadGrid("grid needs at least one axis".into()));
        }
        if axes.len() > MAX_DIMS {
            return Err(CharLibError::BadGrid(format!(
                "{} axes exceeds the {MAX_DIMS}-axis ceiling",
                axes.len()
            )));
        }
        if !trust_margin.is_finite() || trust_margin < 0.0 {
            return Err(CharLibError::BadGrid(format!(
                "trust margin must be finite and non-negative, got {trust_margin}"
            )));
        }
        for (k, (name, samples)) in axes.iter().enumerate() {
            if name.is_empty() {
                return Err(CharLibError::BadGrid(format!("axis {k} has no name")));
            }
            if axes[..k].iter().any(|(other, _)| other == name) {
                return Err(CharLibError::BadGrid(format!(
                    "duplicate axis name '{name}'"
                )));
            }
            if samples.is_empty() {
                return Err(CharLibError::BadGrid(format!(
                    "axis '{name}' has no samples"
                )));
            }
            if samples.iter().any(|v| !v.is_finite()) {
                return Err(CharLibError::BadGrid(format!(
                    "axis '{name}' has a non-finite sample"
                )));
            }
            if samples.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CharLibError::BadGrid(format!(
                    "axis '{name}' samples must be strictly increasing"
                )));
            }
        }
        Ok(Self {
            axes: axes
                .into_iter()
                .map(|(name, samples)| NdAxis { name, samples })
                .collect(),
            trust_margin,
        })
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// The axes, in definition order.
    pub fn axes(&self) -> &[NdAxis] {
        &self.axes
    }

    /// The trust margin.
    pub fn trust_margin(&self) -> f64 {
        self.trust_margin
    }

    /// Total grid points (product of axis lengths).
    pub fn n_points(&self) -> usize {
        self.axes.iter().map(|a| a.samples.len()).product()
    }

    /// The coordinates of flat index `flat`, row-major with the *last*
    /// axis fastest (matching [`crate::GridSpec::point`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat >= n_points()`.
    pub fn point(&self, flat: usize) -> Vec<f64> {
        assert!(flat < self.n_points(), "flat index {flat} out of range");
        let mut coords = vec![0.0; self.dims()];
        let mut rem = flat;
        for k in (0..self.dims()).rev() {
            let n = self.axes[k].samples.len();
            coords[k] = self.axes[k].samples[rem % n];
            rem /= n;
        }
        coords
    }

    /// The flat index of per-axis sample indices `idx`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or an out-of-range index.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.dims(), "index dimension mismatch");
        let mut flat = 0;
        for (k, &i) in idx.iter().enumerate() {
            let n = self.axes[k].samples.len();
            assert!(i < n, "axis '{}' index {i} out of range", self.axes[k].name);
            flat = flat * n + i;
        }
        flat
    }

    /// `None` when `x` lies inside the trust region of every axis;
    /// otherwise the name of the first offending axis. Same slack
    /// policy as [`crate::GridSpec::out_of_trust`].
    pub fn out_of_trust(&self, x: &[f64]) -> Option<&str> {
        assert_eq!(x.len(), self.dims(), "query dimension mismatch");
        for (k, axis) in self.axes.iter().enumerate() {
            let (lo, hi) = (
                axis.samples[0],
                *axis.samples.last().expect("validated non-empty"),
            );
            let span = hi - lo;
            let margin = if span > 0.0 {
                self.trust_margin * span
            } else {
                self.trust_margin * lo.abs()
            };
            let slack = margin + rounding_slack(lo, hi);
            if x[k] < lo - slack || x[k] > hi + slack {
                return Some(&axis.name);
            }
        }
        None
    }

    /// How many axes `x` lies strictly outside the hull on (beyond
    /// rounding slack; the trust margin does not excuse a coordinate).
    pub fn clamped_axes(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.dims(), "query dimension mismatch");
        self.axes
            .iter()
            .enumerate()
            .filter(|(k, axis)| {
                let (lo, hi) = (
                    axis.samples[0],
                    *axis.samples.last().expect("validated non-empty"),
                );
                let rounding = rounding_slack(lo, hi);
                x[*k] < lo - rounding || x[*k] > hi + rounding
            })
            .count()
    }
}

/// A filled N-dimensional table: one [`TableMetrics`] per grid point,
/// flat row-major parallel to [`NdGrid::point`].
#[derive(Debug, Clone, PartialEq)]
pub struct NdTable {
    grid: NdGrid,
    metrics: Vec<TableMetrics>,
}

impl NdTable {
    /// Wraps pre-computed metrics over `grid`.
    ///
    /// # Errors
    ///
    /// [`CharLibError::BadGrid`] when `metrics.len()` does not match
    /// the grid's point count.
    pub fn from_metrics(grid: NdGrid, metrics: Vec<TableMetrics>) -> Result<Self, CharLibError> {
        if metrics.len() != grid.n_points() {
            return Err(CharLibError::BadGrid(format!(
                "{} metrics for a {}-point grid",
                metrics.len(),
                grid.n_points()
            )));
        }
        Ok(Self { grid, metrics })
    }

    /// The grid.
    pub fn grid(&self) -> &NdGrid {
        &self.grid
    }

    /// The stored metrics of grid point `flat` (no interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn metrics_at(&self, flat: usize) -> TableMetrics {
        self.metrics[flat]
    }

    /// Overwrites one grid point. Exists for fault-injection tests —
    /// the `vls-opt` surrogate-lie suite plants a falsified optimum
    /// and asserts exact verification refuses it.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn set_point(&mut self, flat: usize, m: TableMetrics) {
        self.metrics[flat] = m;
    }

    /// Clamped multilinear probe at `x`: trust-region check, then
    /// corner-clamp refusal (≥ 2 clamped axes), then interpolation
    /// over the 2^dims cell corners with zero-weight corners skipped
    /// and non-functional contributing corners vetoing the answer.
    ///
    /// # Errors
    ///
    /// The [`NdFallback`] reason the caller must fall back to an exact
    /// evaluation for.
    ///
    /// # Panics
    ///
    /// Panics on a query dimension mismatch.
    pub fn probe(&self, x: &[f64]) -> Result<TableMetrics, NdFallback> {
        if let Some(axis) = self.grid.out_of_trust(x) {
            return Err(NdFallback::OutOfTrustRegion(axis.to_string()));
        }
        if self.grid.clamped_axes(x) >= 2 {
            return Err(NdFallback::ClampedCorner);
        }
        let dims = self.grid.dims();
        let brackets: Vec<(usize, f64)> = (0..dims)
            .map(|k| locate(&self.grid.axes[k].samples, x[k]))
            .collect();

        let mut acc = [0.0f64; 6];
        for mask in 0u32..(1u32 << dims) {
            let mut weight = 1.0;
            let mut idx = vec![0usize; dims];
            for k in 0..dims {
                let (lo, frac) = brackets[k];
                if mask & (1 << k) == 0 {
                    weight *= 1.0 - frac;
                    idx[k] = lo;
                } else {
                    weight *= frac;
                    idx[k] = (lo + 1).min(self.grid.axes[k].samples.len() - 1);
                }
            }
            if weight == 0.0 {
                continue;
            }
            let m = self.metrics[self.grid.flat_index(&idx)];
            if !m.functional {
                return Err(NdFallback::NonFunctionalRegion);
            }
            for (a, v) in acc.iter_mut().zip([
                m.delay_rise,
                m.delay_fall,
                m.power_rise,
                m.power_fall,
                m.leakage_high,
                m.leakage_low,
            ]) {
                *a += weight * v;
            }
        }
        Ok(TableMetrics {
            delay_rise: acc[0],
            delay_fall: acc[1],
            power_rise: acc[2],
            power_fall: acc[3],
            leakage_high: acc[4],
            leakage_low: acc[5],
            functional: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(v: f64) -> TableMetrics {
        TableMetrics {
            delay_rise: v,
            delay_fall: 2.0 * v,
            power_rise: 3.0 * v,
            power_fall: 4.0 * v,
            leakage_high: 5.0 * v,
            leakage_low: 6.0 * v,
            functional: true,
        }
    }

    /// A 3×2 grid over a linear function of (a, b) — multilinear
    /// interpolation must be exact.
    fn linear_table(margin: f64) -> NdTable {
        let grid = NdGrid::new(
            vec![
                ("a".into(), vec![0.0, 0.5, 1.0]),
                ("b".into(), vec![1.0, 2.0]),
            ],
            margin,
        )
        .unwrap();
        let metrics = (0..grid.n_points())
            .map(|flat| {
                let c = grid.point(flat);
                metric(2.0 * c[0] + 3.0 * c[1])
            })
            .collect();
        NdTable::from_metrics(grid, metrics).unwrap()
    }

    #[test]
    fn validation_rejects_bad_grids() {
        assert!(NdGrid::new(vec![], 0.0).is_err());
        assert!(NdGrid::new(vec![("a".into(), vec![])], 0.0).is_err());
        assert!(NdGrid::new(vec![("a".into(), vec![1.0, 1.0])], 0.0).is_err());
        assert!(NdGrid::new(vec![("a".into(), vec![1.0, f64::NAN])], 0.0).is_err());
        assert!(NdGrid::new(vec![("".into(), vec![1.0])], 0.0).is_err());
        assert!(NdGrid::new(vec![("a".into(), vec![1.0]), ("a".into(), vec![2.0])], 0.0).is_err());
        assert!(NdGrid::new(vec![("a".into(), vec![1.0])], -0.1).is_err());
        let too_many = (0..=MAX_DIMS)
            .map(|k| (format!("x{k}"), vec![0.0, 1.0]))
            .collect();
        assert!(NdGrid::new(too_many, 0.0).is_err());
        // Metrics length must match.
        let g = NdGrid::new(vec![("a".into(), vec![0.0, 1.0])], 0.0).unwrap();
        assert!(NdTable::from_metrics(g, vec![metric(1.0)]).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let t = linear_table(0.0);
        let g = t.grid();
        assert_eq!(g.dims(), 2);
        assert_eq!(g.n_points(), 6);
        // Last axis fastest: flat 0 → (0.0, 1.0), flat 1 → (0.0, 2.0).
        assert_eq!(g.point(0), vec![0.0, 1.0]);
        assert_eq!(g.point(1), vec![0.0, 2.0]);
        assert_eq!(g.point(2), vec![0.5, 1.0]);
        assert_eq!(g.flat_index(&[1, 0]), 2);
        for flat in 0..g.n_points() {
            let c = g.point(flat);
            let idx: Vec<usize> = (0..g.dims())
                .map(|k| g.axes()[k].samples.iter().position(|&s| s == c[k]).unwrap())
                .collect();
            assert_eq!(g.flat_index(&idx), flat);
        }
    }

    #[test]
    fn probe_is_exact_on_a_linear_function() {
        let t = linear_table(0.0);
        for (a, b) in [(0.0, 1.0), (1.0, 2.0), (0.25, 1.5), (0.7, 1.3)] {
            let m = t.probe(&[a, b]).unwrap();
            let expect = 2.0 * a + 3.0 * b;
            assert!((m.delay_rise - expect).abs() < 1e-12, "at ({a}, {b})");
            assert!((m.leakage_low - 6.0 * expect).abs() < 1e-12);
        }
    }

    #[test]
    fn trust_and_corner_policy() {
        let t = linear_table(0.2);
        // Single-axis overhang inside the 20% margin: clamped serve.
        let m = t.probe(&[1.05, 1.5]).unwrap();
        assert!((m.delay_rise - (2.0 * 1.0 + 3.0 * 1.5)).abs() < 1e-12);
        // Outside the margin: refused with the axis name.
        assert_eq!(
            t.probe(&[1.5, 1.5]),
            Err(NdFallback::OutOfTrustRegion("a".into()))
        );
        // Overhanging two axes at once: corner refusal, even though
        // each axis alone is inside its margin.
        assert_eq!(t.probe(&[1.05, 2.1]), Err(NdFallback::ClampedCorner));
        assert_eq!(t.grid().clamped_axes(&[1.05, 2.1]), 2);
        assert_eq!(t.grid().clamped_axes(&[1.05, 1.5]), 1);
        // Exactly on the hull corner: zero clamped axes, serves.
        assert!(t.probe(&[1.0, 2.0]).is_ok());
        // A picosecond-scale singleton axis admits its sample only.
        let g = NdGrid::new(vec![("slew".into(), vec![50e-12])], 0.0).unwrap();
        assert_eq!(g.out_of_trust(&[50e-12]), None);
        assert_eq!(g.out_of_trust(&[51e-12]), Some("slew"));
        assert_eq!(g.clamped_axes(&[51e-12]), 1);
    }

    #[test]
    fn non_functional_corner_vetoes_and_set_point_plants_lies() {
        let mut t = linear_table(0.0);
        let flat = t.grid().flat_index(&[2, 1]);
        let mut dead = metric(f64::NAN);
        dead.functional = false;
        t.set_point(flat, dead);
        assert_eq!(t.probe(&[0.9, 1.9]), Err(NdFallback::NonFunctionalRegion));
        // The untouched half still serves.
        assert!(t.probe(&[0.1, 1.1]).is_ok());
        // set_point can also plant a falsified value (the lie the
        // opt-regression suite hunts).
        t.set_point(flat, metric(-1.0));
        let m = t.probe(&[1.0, 2.0]).unwrap();
        assert!((m.delay_rise - -1.0).abs() < 1e-12);
    }
}
