//! The characterization grid: five axes, row-major point order, and
//! the per-axis trust region a query must fall inside for the table to
//! be allowed to answer.

use crate::CharLibError;

/// Axis order of the grid, slowest-varying first. The flat point index
/// is row-major in this order; every table vector follows it.
pub const AXIS_NAMES: [&str; 5] = ["slew", "load", "vddi", "vddo", "temp"];

/// A grid specification over (input slew, output load, VDDI, VDDO,
/// temperature). Axes hold the sample coordinates; every axis is
/// non-empty, strictly increasing and finite. The electrical axes must
/// be strictly positive (a zero rail or load is not a characterizable
/// corner); temperature may be any finite Celsius value.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Input-stimulus edge slew samples, s.
    pub slew: Vec<f64>,
    /// Output load samples, F.
    pub load: Vec<f64>,
    /// Input-domain supply samples, V.
    pub vddi: Vec<f64>,
    /// Output-domain supply samples, V.
    pub vddo: Vec<f64>,
    /// Temperature samples, °C.
    pub temp: Vec<f64>,
    /// Relative extension of every axis hull that still counts as
    /// trusted: a query within `span ± trust_margin · span` of an axis
    /// is clamped onto the hull and served from the table; anything
    /// further falls back to an exact simulation. Zero means the hull
    /// itself. On a singleton axis the query must match the single
    /// sample (to within `trust_margin · |value|` plus rounding).
    pub trust_margin: f64,
}

/// One fully-specified operating point, in the same units as the grid
/// axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPoint {
    /// Input-stimulus edge slew, s.
    pub slew: f64,
    /// Output load, F.
    pub load: f64,
    /// Input-domain supply, V.
    pub vddi: f64,
    /// Output-domain supply, V.
    pub vddo: f64,
    /// Temperature, °C.
    pub temp: f64,
}

impl QueryPoint {
    /// The coordinates in canonical axis order.
    pub fn coords(&self) -> [f64; 5] {
        [self.slew, self.load, self.vddi, self.vddo, self.temp]
    }
}

fn validate_axis(name: &str, axis: &[f64], must_be_positive: bool) -> Result<(), CharLibError> {
    if axis.is_empty() {
        return Err(CharLibError::BadGrid(format!("{name} axis is empty")));
    }
    if axis.iter().any(|v| !v.is_finite()) {
        return Err(CharLibError::BadGrid(format!(
            "{name} axis has a non-finite sample"
        )));
    }
    if must_be_positive && axis.iter().any(|&v| v <= 0.0) {
        return Err(CharLibError::BadGrid(format!(
            "{name} axis has a non-positive sample"
        )));
    }
    if axis.windows(2).any(|w| w[1] <= w[0]) {
        return Err(CharLibError::BadGrid(format!(
            "{name} axis is not strictly increasing"
        )));
    }
    Ok(())
}

impl GridSpec {
    /// Builds and validates a grid.
    ///
    /// # Errors
    ///
    /// [`CharLibError::BadGrid`] when any axis is empty, non-finite,
    /// non-increasing, or (for the four electrical axes) non-positive,
    /// or when `trust_margin` is negative or non-finite.
    pub fn new(
        slew: Vec<f64>,
        load: Vec<f64>,
        vddi: Vec<f64>,
        vddo: Vec<f64>,
        temp: Vec<f64>,
        trust_margin: f64,
    ) -> Result<Self, CharLibError> {
        validate_axis("slew", &slew, true)?;
        validate_axis("load", &load, true)?;
        validate_axis("vddi", &vddi, true)?;
        validate_axis("vddo", &vddo, true)?;
        validate_axis("temp", &temp, false)?;
        if !trust_margin.is_finite() || trust_margin < 0.0 {
            return Err(CharLibError::BadGrid(format!(
                "trust margin {trust_margin} must be finite and non-negative"
            )));
        }
        Ok(Self {
            slew,
            load,
            vddi,
            vddo,
            temp,
            trust_margin,
        })
    }

    /// The CI smoke grid: the paper's two corner rails at nominal
    /// slew/load/temperature — four points, seconds to fill.
    pub fn smoke() -> Self {
        Self::new(
            vec![50e-12],
            vec![1e-15],
            vec![0.8, 1.2],
            vec![0.8, 1.2],
            vec![27.0],
            0.0,
        )
        .expect("smoke grid is statically valid")
    }

    /// A uniform VDDI × VDDO grid over `[v_min, v_max]` at pitch
    /// `step`, nominal slew/load and the given temperatures — the
    /// Figure 8/9 serving grid.
    ///
    /// # Errors
    ///
    /// [`CharLibError::BadGrid`] for a degenerate range or step.
    pub fn rails(v_min: f64, v_max: f64, step: f64, temp: Vec<f64>) -> Result<Self, CharLibError> {
        if !(v_max > v_min && step > 0.0) {
            return Err(CharLibError::BadGrid(format!(
                "bad rail range {v_min}..{v_max} step {step}"
            )));
        }
        let n = ((v_max - v_min) / step).round() as usize + 1;
        let axis: Vec<f64> = (0..n).map(|k| v_min + step * k as f64).collect();
        Self::new(vec![50e-12], vec![1e-15], axis.clone(), axis, temp, 0.0)
    }

    /// The axes in canonical order, paired with [`AXIS_NAMES`].
    pub fn axes(&self) -> [&[f64]; 5] {
        [&self.slew, &self.load, &self.vddi, &self.vddo, &self.temp]
    }

    /// Total number of grid points.
    pub fn n_points(&self) -> usize {
        self.axes().iter().map(|a| a.len()).product()
    }

    /// The operating point of flat index `flat` (row-major in
    /// [`AXIS_NAMES`] order).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn point(&self, flat: usize) -> QueryPoint {
        assert!(flat < self.n_points(), "grid index {flat} out of range");
        let axes = self.axes();
        let mut rem = flat;
        let mut coords = [0.0; 5];
        for k in (0..5).rev() {
            let n = axes[k].len();
            coords[k] = axes[k][rem % n];
            rem /= n;
        }
        QueryPoint {
            slew: coords[0],
            load: coords[1],
            vddi: coords[2],
            vddo: coords[3],
            temp: coords[4],
        }
    }

    /// The flat index of the grid point with the given per-axis sample
    /// indices, in [`AXIS_NAMES`] order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its axis.
    pub fn flat_index(&self, idx: [usize; 5]) -> usize {
        let axes = self.axes();
        let mut flat = 0;
        for k in 0..5 {
            assert!(idx[k] < axes[k].len(), "axis {} index out of range", k);
            flat = flat * axes[k].len() + idx[k];
        }
        flat
    }

    /// `None` when `q` lies inside the trust region of every axis;
    /// otherwise the name of the first offending axis.
    pub fn out_of_trust(&self, q: &QueryPoint) -> Option<&'static str> {
        let coords = q.coords();
        for (k, axis) in self.axes().iter().enumerate() {
            let (lo, hi) = (axis[0], *axis.last().expect("validated non-empty"));
            let span = hi - lo;
            let margin = if span > 0.0 {
                self.trust_margin * span
            } else {
                self.trust_margin * lo.abs()
            };
            let slack = margin + rounding_slack(lo, hi);
            if coords[k] < lo - slack || coords[k] > hi + slack {
                return Some(AXIS_NAMES[k]);
            }
        }
        None
    }

    /// How many axes `q` lies strictly outside the grid hull on
    /// (beyond rounding slack only — the trust *margin* does not
    /// excuse a coordinate here). These are the axes the clamped
    /// interpolation would pin to a boundary sample; a count ≥ 2 means
    /// the query extrapolates a corner of the table.
    pub fn clamped_axes(&self, q: &QueryPoint) -> usize {
        let coords = q.coords();
        self.axes()
            .iter()
            .enumerate()
            .filter(|(k, axis)| {
                let (lo, hi) = (axis[0], *axis.last().expect("validated non-empty"));
                let rounding = rounding_slack(lo, hi);
                coords[*k] < lo - rounding || coords[*k] > hi + rounding
            })
            .count()
    }
}

/// Float-noise allowance when comparing a coordinate with an axis hull
/// `[lo, hi]`: it keeps an exact re-query of a boundary sample (or of a
/// singleton axis, whose span is zero) inside despite float noise in the
/// margin arithmetic. Relative to the axis magnitude, so it stays a
/// rounding allowance in any unit (5e-23 s on a 50 ps slew axis).
pub(crate) fn rounding_slack(lo: f64, hi: f64) -> f64 {
    1e-12 * lo.abs().max(hi.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GridSpec {
        GridSpec::new(
            vec![50e-12],
            vec![1e-15, 2e-15],
            vec![0.8, 1.0, 1.2],
            vec![0.8, 1.2],
            vec![27.0],
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let bad = GridSpec::new(vec![], vec![1e-15], vec![1.0], vec![1.0], vec![27.0], 0.0);
        assert!(matches!(bad, Err(CharLibError::BadGrid(_))));
        let dup = GridSpec::new(
            vec![50e-12],
            vec![1e-15],
            vec![1.0, 1.0],
            vec![1.0],
            vec![27.0],
            0.0,
        );
        assert!(matches!(dup, Err(CharLibError::BadGrid(_))));
        let neg = GridSpec::new(
            vec![50e-12],
            vec![-1e-15],
            vec![1.0],
            vec![1.0],
            vec![27.0],
            0.0,
        );
        assert!(matches!(neg, Err(CharLibError::BadGrid(_))));
        // Temperature may be negative Celsius.
        assert!(GridSpec::new(
            vec![50e-12],
            vec![1e-15],
            vec![1.0],
            vec![1.0],
            vec![-40.0, 27.0],
            0.0,
        )
        .is_ok());
        let margin = GridSpec::new(
            vec![50e-12],
            vec![1e-15],
            vec![1.0],
            vec![1.0],
            vec![27.0],
            -0.1,
        );
        assert!(matches!(margin, Err(CharLibError::BadGrid(_))));
    }

    #[test]
    fn point_indexing_is_row_major() {
        let g = tiny();
        assert_eq!(g.n_points(), 12);
        let p0 = g.point(0);
        assert_eq!(
            (p0.slew, p0.load, p0.vddi, p0.vddo, p0.temp),
            (50e-12, 1e-15, 0.8, 0.8, 27.0)
        );
        // Last axis (temp) is fastest; vddo next.
        let p1 = g.point(1);
        assert_eq!((p1.vddi, p1.vddo), (0.8, 1.2));
        let p2 = g.point(2);
        assert_eq!((p2.vddi, p2.vddo), (1.0, 0.8));
        let last = g.point(11);
        assert_eq!((last.load, last.vddi, last.vddo), (2e-15, 1.2, 1.2));
        assert_eq!(g.flat_index([0, 1, 2, 1, 0]), 11);
        assert_eq!(g.flat_index([0, 0, 0, 1, 0]), 1);
    }

    #[test]
    fn trust_region_covers_hull_and_margin() {
        let mut g = tiny();
        let inside = QueryPoint {
            slew: 50e-12,
            load: 1.5e-15,
            vddi: 0.9,
            vddo: 1.0,
            temp: 27.0,
        };
        assert_eq!(g.out_of_trust(&inside), None);
        // Off the vddi hull.
        let off = QueryPoint {
            vddi: 1.3,
            ..inside
        };
        assert_eq!(g.out_of_trust(&off), Some("vddi"));
        // A margin admits it (0.25 * 0.4 V span = 0.1 V).
        g.trust_margin = 0.25;
        assert_eq!(g.out_of_trust(&off), None);
        assert_eq!(
            g.out_of_trust(&QueryPoint {
                vddi: 1.31,
                ..inside
            }),
            Some("vddi")
        );
        // Singleton axis: the sample itself is inside, anything else out.
        g.trust_margin = 0.0;
        assert_eq!(
            g.out_of_trust(&QueryPoint {
                temp: 90.0,
                ..inside
            }),
            Some("temp")
        );
        assert_eq!(
            g.out_of_trust(&QueryPoint {
                slew: 60e-12,
                ..inside
            }),
            Some("slew")
        );
    }

    /// Every sample of every axis, re-queried exactly, is in trust and
    /// clamps nothing — with no margin to hide rounding behind.
    #[test]
    fn every_grid_sample_requeried_exactly_stays_in_trust() {
        let picoscale = GridSpec::new(
            vec![20e-12, 50e-12, 80e-12],
            vec![1e-15, 5e-15],
            vec![0.8, 1.1, 1.4],
            vec![0.8, 1.1, 1.4],
            vec![-40.0, 0.0, 27.0, 125.0],
            0.0,
        )
        .unwrap();
        for g in [
            tiny(),
            picoscale,
            GridSpec::rails(0.8, 1.4, 0.3, vec![27.0]).unwrap(),
        ] {
            for flat in 0..g.n_points() {
                let q = g.point(flat);
                assert_eq!(g.out_of_trust(&q), None, "{q:?}");
                assert_eq!(g.clamped_axes(&q), 0, "{q:?}");
            }
        }
    }

    /// The rails grid's singleton slew (50 ps) and load (1 fF) axes
    /// admit their own sample only: the rounding slack is relative, so
    /// it is not a picosecond or a picofarad wide.
    #[test]
    fn rails_grid_rejects_off_sample_slew_and_load() {
        let g = GridSpec::rails(0.8, 1.4, 0.3, vec![27.0]).unwrap();
        let on = g.point(0);
        let load = |load| QueryPoint { load, ..on };
        for (q, axis) in [
            (load(500e-15), "load"),
            (load(990e-15), "load"),
            (QueryPoint { slew: 51e-12, ..on }, "slew"),
        ] {
            assert_eq!(g.out_of_trust(&q), Some(axis), "{q:?}");
            assert_eq!(g.clamped_axes(&q), 1, "{q:?}");
        }
    }

    #[test]
    fn smoke_and_rails_constructors() {
        assert_eq!(GridSpec::smoke().n_points(), 4);
        let r = GridSpec::rails(0.8, 1.4, 0.2, vec![27.0]).unwrap();
        assert_eq!(r.vddi.len(), 4);
        assert_eq!(r.n_points(), 16);
        assert!(GridSpec::rails(1.0, 0.8, 0.1, vec![27.0]).is_err());
    }
}
