//! Serving the Figure 8/9 delay surface from a prebuilt library.

use vls_core::experiments::figures::DelaySurface;

use crate::{CharLib, QueryPoint};

/// Regenerates the Figure 8/9 [`DelaySurface`] by querying `lib`
/// instead of re-simulating every grid point. Slew, load and
/// temperature are the library grid's first coordinates (the nominal
/// protocol point); every (VDDI, VDDO) pair goes through
/// [`CharLib::eval`], so points inside the trust region are served by
/// the surrogate and points outside it (or over non-functional table
/// cells) transparently fall back to exact transients — the miss
/// counter shows how much of the surface actually needed simulation.
/// Points where even the exact fallback fails become NaN/non-functional.
/// The fallback runs the full protocol, leakage holds included, while
/// [`vls_core::experiments::figures::delay_surface`] runs only the
/// stimulus run: the two agree wherever the cell translates, but a
/// point that fails in a leakage hold alone reads non-functional here
/// and functional there.
///
/// # Panics
///
/// Panics if the range or step is degenerate.
pub fn delay_surface_from_lib(lib: &CharLib, v_min: f64, v_max: f64, step: f64) -> DelaySurface {
    assert!(v_max > v_min && step > 0.0, "bad sweep range");
    let n = ((v_max - v_min) / step).round() as usize + 1;
    let axis: Vec<f64> = (0..n).map(|k| v_min + step * k as f64).collect();
    let grid = lib.grid();
    let (slew, load, temp) = (grid.slew[0], grid.load[0], grid.temp[0]);

    let mut rise_ps = Vec::with_capacity(n);
    let mut fall_ps = Vec::with_capacity(n);
    let mut functional = Vec::with_capacity(n);
    for &vi in &axis {
        let mut rise = Vec::with_capacity(n);
        let mut fall = Vec::with_capacity(n);
        let mut func = Vec::with_capacity(n);
        for &vo in &axis {
            let q = QueryPoint {
                slew,
                load,
                vddi: vi,
                vddo: vo,
                temp,
            };
            match lib.eval(&q) {
                Ok(ev) if ev.metrics.functional => {
                    rise.push(ev.metrics.delay_rise * 1e12);
                    fall.push(ev.metrics.delay_fall * 1e12);
                    func.push(true);
                }
                _ => {
                    rise.push(f64::NAN);
                    fall.push(f64::NAN);
                    func.push(false);
                }
            }
        }
        rise_ps.push(rise);
        fall_ps.push(fall);
        functional.push(func);
    }
    DelaySurface {
        vddi: axis.clone(),
        vddo: axis,
        rise_ps,
        fall_ps,
        functional,
    }
}
