//! The paper's measurement protocol.
//!
//! Three transient runs per characterization:
//!
//! * the **stimulus run**, a two-cycle pulse train driving the cell
//!   through its input driver chain, 33 ns at the default 50 ps slew: a
//!   1 ns delay, then two 16 ns cycles. Cycle 1 initializes the cell's
//!   dynamic nodes (both designs contain them); cycle 2 is measured. It
//!   gives the delays, the switching powers and the functionality
//!   verdict, [`SwitchingMetrics`], and is all that
//!   [`characterize_switching`] runs;
//! * two **leakage holds**, one per input state. Each continues the
//!   stimulus run from one of its stored samples
//!   ([`vls_engine::run_transient_from`]) with the input held: the
//!   input-high hold from the start of the measured falling edge, the
//!   input-low hold from the end of the run. Each averages the 50 ns
//!   window that ends 395 ns after its last input edge completed.
//!
//! The metrics:
//!
//! * **fall delay** — cell input rising through VDDI/2 → output
//!   falling through VDDO/2;
//! * **rise delay** — cell input falling through VDDI/2 → output
//!   rising through VDDO/2;
//! * **fall/rise power** — average power drawn from *both* supplies
//!   over a fixed window starting at the input edge (the paper's
//!   "Power Rise/Fall"). Both rails must be summed because a
//!   high-to-low conversion pumps charge from the 1.2 V input domain
//!   *into* the 0.8 V output rail through the shifter — metering VDDO
//!   alone would read negative. The identically sized input drivers
//!   contribute equally to every design, keeping the comparison fair;
//! * **leakage high/low** — the cell's total static supply draw with
//!   the output settled high respectively low, expressed as an
//!   equivalent VDDO current:
//!   `(VDDI·I_vddi + VDDO·I_vddo − P_driver) / VDDO`, where
//!   `P_driver` is the static power of the bare input-driver chain
//!   (measured separately at DC and subtracted, since the drivers are
//!   shared by every design). Summing both rails matters because in a
//!   high-to-low configuration part of the static current enters from
//!   the input domain and *exits* into the VDDO rail — metering VDDO
//!   alone would under- or even negative-count it. Extracted from the
//!   two leakage holds: the cell's dynamic internal nodes keep
//!   relaxing for hundreds of nanoseconds after a switching event, so
//!   the tail of the fast delay/power run is *not* yet the static
//!   state the paper's leakage numbers describe.
//!
//! # Protocol revision
//!
//! A characterization library keys its artifacts on the protocol's
//! options and on [`PROTOCOL_REVISION`], which stands for the protocol's
//! code. Bump it in any change that moves a measured number at unchanged
//! options (a new hold start, window or stimulus, say, or a new Newton
//! start or capacitance evaluation point in the engine, which moves
//! each converged point within the Newton tolerance), so libraries
//! built before the change are rebuilt instead of served. A change that
//! moves only counters or run time leaves it alone.

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_engine::{run_transient, run_transient_from, SimOptions, SolverStats, TransientResult};
use vls_units::{Current, Power, Time};
use vls_variation::PerturbationMap;
use vls_waveform::{average, delay_between, is_settled, Edge, Waveform};

use crate::CoreError;

/// The revision of the measurement protocol's code (see the module
/// docs). Revision 5 integrates the capacitances as one branch per node
/// pair instead of one companion per capacitor, which changes only the
/// floating-point order of the companion sums and moved measured numbers
/// by up to 4e-13 relative on delays and powers and 9.1e-8 on leakages.
/// Revision 4 takes each transient step's Meyer capacitances
/// from the previous step's last Newton assembly instead of a separate
/// walk at the accepted point, which moved measured numbers by up to
/// 2.4e-5 relative. Revision 3 starts each transient Newton solve from
/// a cubic extrapolation and judges its first iteration on node
/// voltages, which moved measured numbers by up to 1.2e-6 relative.
/// Revision 2 continues both leakage holds from the stimulus run, which
/// moved leakages by up to 0.7 %; revision 1 is every protocol before
/// it.
pub const PROTOCOL_REVISION: u32 = 5;

/// Options for one characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeOptions {
    /// Engine tolerances and temperature.
    pub sim: SimOptions,
    /// Output load, F (the paper: 1 fF).
    pub load_farads: f64,
    /// Input-stimulus edge slew, s (the paper: 50 ps). Together with
    /// [`Self::load_farads`] this is a characterization-grid axis.
    pub input_slew: f64,
    /// Power-measurement window after each input edge, s.
    pub power_window: f64,
    /// Fraction of VDDO the output must approach for functionality.
    pub level_tolerance: f64,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self {
            sim: SimOptions::default(),
            load_farads: 1e-15,
            input_slew: 50e-12,
            power_window: 3e-9,
            level_tolerance: 0.1,
        }
    }
}

impl CharacterizeOptions {
    /// Default options at the given temperature (°C).
    pub fn at_celsius(celsius: f64) -> Self {
        Self {
            sim: SimOptions::at_celsius(celsius),
            ..Self::default()
        }
    }
}

/// The six metrics of the paper's Tables 1–4 plus a functionality
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Output rising delay.
    pub delay_rise: Time,
    /// Output falling delay.
    pub delay_fall: Time,
    /// Average switching power for the rising-output event.
    pub power_rise: Power,
    /// Average switching power for the falling-output event.
    pub power_fall: Power,
    /// Steady-state VDDO current, output high.
    pub leakage_high: Current,
    /// Steady-state VDDO current, output low.
    pub leakage_low: Current,
    /// `true` when the output reached both rails within tolerance.
    pub functional: bool,
}

/// What the stimulus run measures: the delays, the switching powers
/// and the functionality verdict — every [`CellMetrics`] field but the
/// two leakages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingMetrics {
    /// Output rising delay.
    pub delay_rise: Time,
    /// Output falling delay.
    pub delay_fall: Time,
    /// Average switching power for the rising-output event.
    pub power_rise: Power,
    /// Average switching power for the falling-output event.
    pub power_fall: Power,
    /// `true` when the output reached both rails within tolerance.
    pub functional: bool,
}

/// Extracts all waveforms the protocol needs from a transient run.
struct Probes {
    input: Waveform,
    output: Waveform,
    vddo_current: Waveform,
    vddi_current: Waveform,
}

fn supply_current(res: &TransientResult, source: &str) -> Waveform {
    let times = res.times().to_vec();
    // Delivered current is minus the branch current (SPICE convention).
    let i = res
        .branch_series(source)
        .expect("harness always defines its supply sources")
        .iter()
        .map(|v| -v)
        .collect();
    Waveform::new(times, i).expect("engine produces monotonic time")
}

fn probes(harness: &Harness, res: &TransientResult) -> Probes {
    let times = res.times().to_vec();
    let input = Waveform::new(times.clone(), res.node_series(harness.input))
        .expect("engine produces monotonic time");
    let output = Waveform::new(times, res.node_series(harness.output))
        .expect("engine produces monotonic time");
    Probes {
        input,
        output,
        vddo_current: supply_current(res, Harness::VDDO_SOURCE),
        vddi_current: supply_current(res, Harness::VDDI_SOURCE),
    }
}

/// Static power of the bare input-driver chain at the given input
/// state — the baseline subtracted from every leakage measurement.
fn driver_baseline_power(
    domains: VoltagePair,
    options: &CharacterizeOptions,
    input_high: bool,
    stats: &mut SolverStats,
) -> Result<f64, CoreError> {
    use vls_netlist::Circuit;
    let mut c = Circuit::new();
    let vddi_n = c.node("vddi_rail");
    let stim = c.node("stim");
    let d1 = c.node("drv1");
    let d2 = c.node("drv2out");
    let level = if input_high { domains.vddi } else { 0.0 };
    c.add_vsource(
        Harness::VDDI_SOURCE,
        vddi_n,
        Circuit::GROUND,
        vls_device::SourceWaveform::Dc(domains.vddi),
    );
    c.add_vsource(
        Harness::STIM_SOURCE,
        stim,
        Circuit::GROUND,
        vls_device::SourceWaveform::Dc(level),
    );
    let drv = vls_cells::primitives::Inverter::minimum();
    drv.build(&mut c, "drv1", stim, d1, vddi_n);
    drv.build(&mut c, "drv2", d1, d2, vddi_n);
    let sol = vls_engine::solve_dc(&c, &options.sim)?;
    stats.merge(&sol.solver_stats());
    let i_vddi = -sol
        .branch_current(Harness::VDDI_SOURCE)
        .expect("source exists");
    Ok(i_vddi * domains.vddi)
}

/// Distance from a leakage hold's last input edge to the end of its
/// averaging window, s.
const HOLD_SETTLE: f64 = 395e-9;
/// The settled tail each leakage is averaged over, s.
const HOLD_WINDOW: f64 = 50e-9;

/// Where a leakage hold takes over from the stimulus run.
struct HoldStart {
    /// The time of a stored sample of the stimulus run, s.
    t0: f64,
    /// The stimulus run's unknowns at `t0`.
    state: Vec<f64>,
    /// When the input's last edge before `t0` completed, s.
    last_edge: f64,
}

/// The stimulus run's hand-over to the two leakage holds.
struct Handover {
    /// The start of the measured falling edge: the input has been high
    /// since the measured rising edge.
    input_high: HoldStart,
    /// The end of the run: the input has been low since the measured
    /// falling edge.
    input_low: HoldStart,
}

/// The harness of one leakage hold: the stimulus run's circuit with
/// the input held in the requested state.
fn hold_harness(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    input_high: bool,
    perturbation: Option<&PerturbationMap>,
) -> Harness {
    let level = if input_high { domains.vddi } else { 0.0 };
    let wave = vls_device::SourceWaveform::Dc(level);
    let mut harness = Harness::build(kind, domains, wave, options.load_farads);
    if let Some(map) = perturbation {
        map.apply(&mut harness.circuit);
    }
    harness
}

/// One leakage hold: the stimulus run continued from `start` with the
/// input held, to the end of its averaging window.
fn run_hold(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
    input_high: bool,
    start: &HoldStart,
) -> Result<(Harness, TransientResult), CoreError> {
    let harness = hold_harness(kind, domains, options, input_high, perturbation);
    // The circuit is quiet, so the step controller may stride.
    let sim = SimOptions {
        max_step: Some(5e-9),
        ..options.sim.clone()
    };
    let end = start.last_edge + HOLD_SETTLE;
    let res = run_transient_from(&harness.circuit, start.t0, &start.state, end, &sim)?;
    Ok((harness, res))
}

/// The leakage one hold measured: the total static supply power over
/// the window that ends it, corrected for the driver baseline and
/// referred to VDDO.
fn hold_leakage(
    harness: &Harness,
    res: &TransientResult,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    input_high: bool,
    stats: &mut SolverStats,
) -> Result<f64, CoreError> {
    let i_vddo = supply_current(res, Harness::VDDO_SOURCE);
    let i_vddi = supply_current(res, Harness::VDDI_SOURCE);
    let out = Waveform::new(res.times().to_vec(), res.node_series(harness.output))
        .expect("engine produces monotonic time");
    if !is_settled(&out, HOLD_WINDOW, 0.02 * domains.vddo) {
        return Err(CoreError::NotSettled(format!(
            "leakage run (input {}) did not settle",
            if input_high { "high" } else { "low" }
        )));
    }
    let (_, end) = out.span();
    let tail = end - HOLD_WINDOW;
    let p_total =
        average(&i_vddo, tail, end) * domains.vddo + average(&i_vddi, tail, end) * domains.vddi;
    let p_cell = p_total - driver_baseline_power(domains, options, input_high, stats)?;
    Ok(p_cell / domains.vddo)
}

/// Both leakage holds, continued from the stimulus run's `handover`,
/// as `(leakage_high, leakage_low)` in amperes. The input-high hold
/// holds the output low, the input-low hold holds it high.
fn leakage_holds(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
    handover: &Handover,
    stats: &mut SolverStats,
) -> Result<(f64, f64), CoreError> {
    let mut leakage = |input_high: bool, start: &HoldStart| {
        let (harness, res) = run_hold(kind, domains, options, perturbation, input_high, start)?;
        stats.merge(&res.solver_stats());
        hold_leakage(&harness, &res, domains, options, input_high, stats)
    };
    let leakage_low = leakage(true, &handover.input_high)?;
    let leakage_high = leakage(false, &handover.input_low)?;
    Ok((leakage_high, leakage_low))
}

/// Runs the paper's measurement protocol for `kind` at `domains`.
///
/// # Errors
///
/// Propagates engine failures and reports [`CoreError::MissingEdge`] /
/// [`CoreError::NotSettled`] when the run cannot be measured. A run
/// whose output levels are degraded is *not* an error — it comes back
/// with `functional = false` so sweeps can map the working region.
pub fn characterize(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<CellMetrics, CoreError> {
    characterize_with(kind, domains, options, None)
}

/// The stimulus run of [`characterize`] alone: the delays, switching
/// powers and functionality verdict, without the two leakage holds.
/// Each field is bitwise the one [`characterize`] reports — what delay
/// sweeps such as
/// [`delay_surface`](crate::experiments::figures::delay_surface) call.
///
/// # Errors
///
/// Propagates engine failures and reports [`CoreError::MissingEdge`]
/// when an output edge never occurs. A point whose leakage hold would
/// not settle still succeeds here.
pub fn characterize_switching(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<SwitchingMetrics, CoreError> {
    switching_run(kind, domains, options, None, &mut SolverStats::default()).map(|(s, _)| s)
}

/// [`characterize`] with an optional process-variation sample applied
/// to the cell under test in every run of the protocol — the Monte
/// Carlo entry point (Tables 3 and 4).
pub fn characterize_with(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
) -> Result<CellMetrics, CoreError> {
    characterize_with_stats(kind, domains, options, perturbation).map(|(m, _)| m)
}

/// [`characterize_with`] also returning the aggregated
/// [`SolverStats`] of every engine run the protocol performed (the
/// stimulus transient, both leakage transients and the driver-baseline
/// DC solves) — what the Monte Carlo drivers fold into the runner's
/// [`vls_runner::RunReport`].
pub fn characterize_with_stats(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
) -> Result<(CellMetrics, SolverStats), CoreError> {
    let mut stats = SolverStats::default();
    let (s, handover) = switching_run(kind, domains, options, perturbation, &mut stats)?;
    let (leakage_high, leakage_low) =
        leakage_holds(kind, domains, options, perturbation, &handover, &mut stats)?;
    let metrics = CellMetrics {
        delay_rise: s.delay_rise,
        delay_fall: s.delay_fall,
        power_rise: s.power_rise,
        power_fall: s.power_fall,
        leakage_high: Current::from_amps(leakage_high),
        leakage_low: Current::from_amps(leakage_low),
        functional: s.functional,
    };
    Ok((metrics, stats))
}

/// The paper's worst-case delay protocol: "the delays … are dependent
/// on the input sequence. … The delay numbers reported in this paper
/// are the worst-case delays across all possible input sequences."
/// Re-measures the delays under stressing sequences — a short high
/// phase (minimal `ctrl` charging time before the measured falling
/// input) and a short low phase (minimal recovery before the measured
/// rising input) — and reports the per-edge maximum; power and leakage
/// come from the standard protocol run. The stressing sequences use
/// the configured [`CharacterizeOptions::input_slew`], like the
/// standard run.
///
/// # Errors
///
/// As [`characterize`]; a sequence in which an expected output edge
/// never occurs is reported as [`CoreError::MissingEdge`].
pub fn characterize_worst_case(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<CellMetrics, CoreError> {
    let mut metrics = characterize(kind, domains, options)?;
    // (high width, low gap) stress pairs, seconds. Each phase is kept
    // long enough for legal operation — the worst case ranges over
    // input *sequences*, not over-spec switching rates.
    for (width, low_gap) in [(0.5e-9, 8.9e-9), (7e-9, 1.5e-9)] {
        let (wave, t_rise2, t_fall2, t_end) =
            Harness::pulse_stimulus_with_slew(domains, width, low_gap, options.input_slew);
        let harness = Harness::build(kind, domains, wave, options.load_farads);
        let res = run_transient(&harness.circuit, t_end, &options.sim)?;
        let p = probes(&harness, &res);
        let vin_half = domains.vddi / 2.0;
        let vout_half = domains.vddo / 2.0;
        let margin = 0.2e-9;
        let delay_fall = delay_between(
            &p.input,
            vin_half,
            Edge::Rising,
            &p.output,
            vout_half,
            Edge::Falling,
            t_rise2 - margin,
        )
        .ok_or_else(|| CoreError::MissingEdge("worst-case falling edge not found".into()))?;
        let delay_rise = delay_between(
            &p.input,
            vin_half,
            Edge::Falling,
            &p.output,
            vout_half,
            Edge::Rising,
            t_fall2 - margin,
        )
        .ok_or_else(|| CoreError::MissingEdge("worst-case rising edge not found".into()))?;
        metrics.delay_fall = metrics.delay_fall.max(Time::from_secs(delay_fall));
        metrics.delay_rise = metrics.delay_rise.max(Time::from_secs(delay_rise));
    }
    Ok(metrics)
}

/// The stimulus run: the standard two-cycle train at the configured
/// edge slew, with an optional process-variation sample, adding its
/// work to `stats`. Also returns its hand-over to the leakage holds.
fn switching_run(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
    stats: &mut SolverStats,
) -> Result<(SwitchingMetrics, Handover), CoreError> {
    // The default 50 ps slew reproduces `Harness::standard_stimulus`
    // exactly.
    let (wave, t_rise2, t_fall2, t_end) =
        Harness::pulse_stimulus_with_slew(domains, 7e-9, 8.9e-9, options.input_slew);
    let mut harness = Harness::build(kind, domains, wave, options.load_farads);
    if let Some(map) = perturbation {
        map.apply(&mut harness.circuit);
    }
    let res = run_transient(&harness.circuit, t_end, &options.sim)?;
    stats.merge(&res.solver_stats());
    let p = probes(&harness, &res);

    let vin_half = domains.vddi / 2.0;
    let vout_half = domains.vddo / 2.0;

    // Measured (second) cycle edges. The input driver chain preserves
    // stimulus polarity, so the cell input rises near t_rise2.
    let margin = 0.5e-9;
    let delay_fall = delay_between(
        &p.input,
        vin_half,
        Edge::Rising,
        &p.output,
        vout_half,
        Edge::Falling,
        t_rise2 - margin,
    )
    .ok_or_else(|| CoreError::MissingEdge("falling output edge not found".into()))?;
    let delay_rise = delay_between(
        &p.input,
        vin_half,
        Edge::Falling,
        &p.output,
        vout_half,
        Edge::Rising,
        t_fall2 - margin,
    )
    .ok_or_else(|| CoreError::MissingEdge("rising output edge not found".into()))?;

    // Power windows anchored at the input edges of the measured cycle,
    // summing both supplies (see the module docs for why).
    let w = options.power_window;
    let power_at = |t0: f64| {
        average(&p.vddo_current, t0, t0 + w) * domains.vddo
            + average(&p.vddi_current, t0, t0 + w) * domains.vddi
    };
    let power_fall_avg = power_at(t_rise2);
    let power_rise_avg = power_at(t_fall2);

    // Functionality: the output must approach both rails in the fast
    // run.
    let low_phase_end = t_fall2 - 0.2e-9;
    let tol = options.level_tolerance * domains.vddo;
    let v_low = p.output.value_at(low_phase_end);
    let v_high = p.output.value_at(t_end);
    let functional = v_low.abs() <= tol && (v_high - domains.vddo).abs() <= tol;

    // Both hand-over times are stored samples: the start of the
    // measured falling edge is a source breakpoint, and the run ends at
    // `t_end`.
    let hold_start = |t: f64, last_edge: f64| {
        let (t0, x) = res
            .state_at(t)
            .expect("breakpoints and the stop time are stored samples");
        HoldStart {
            t0,
            state: x.to_vec(),
            last_edge,
        }
    };
    let handover = Handover {
        input_high: hold_start(t_fall2, t_rise2 + options.input_slew),
        input_low: hold_start(t_end, t_fall2 + options.input_slew),
    };

    let metrics = SwitchingMetrics {
        delay_rise: Time::from_secs(delay_rise),
        delay_fall: Time::from_secs(delay_fall),
        power_rise: Power::from_watts(power_rise_avg),
        power_fall: Power::from_watts(power_fall_avg),
        functional,
    };
    Ok((metrics, handover))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sstvs_low_to_high_characterizes_sanely() {
        let m = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(m.functional);
        // Delays: positive, sub-nanosecond for a loaded minimum cell.
        assert!(
            m.delay_rise.value() > 0.0 && m.delay_rise.value() < 1.5e-9,
            "{}",
            m.delay_rise
        );
        assert!(
            m.delay_fall.value() > 0.0 && m.delay_fall.value() < 1.5e-9,
            "{}",
            m.delay_fall
        );
        // Leakage: positive, nanoamp class (paper: 3.6–20.8 nA).
        assert!(
            m.leakage_high.value() > 0.0 && m.leakage_high.value() < 1e-6,
            "leak high {}",
            m.leakage_high
        );
        assert!(
            m.leakage_low.value() > 0.0 && m.leakage_low.value() < 1e-6,
            "leak low {}",
            m.leakage_low
        );
        // Switching power: microwatt class.
        assert!(m.power_rise.value() > 0.0 && m.power_rise.value() < 1e-4);
        assert!(m.power_fall.value() > 0.0 && m.power_fall.value() < 1e-4);
    }

    #[test]
    fn sstvs_high_to_low_characterizes_sanely() {
        let m = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::high_to_low(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(m.functional);
        assert!(m.delay_rise.value() > 0.0 && m.delay_rise.value() < 1.5e-9);
        assert!(m.leakage_high.value() < 1e-6);
    }

    #[test]
    fn combined_vs_characterizes_in_both_directions() {
        for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
            let m = characterize(
                &ShifterKind::combined(),
                domains,
                &CharacterizeOptions::default(),
            )
            .unwrap();
            assert!(m.functional, "combined VS at {domains:?}");
            assert!(m.delay_rise.value() > 0.0);
        }
    }

    #[test]
    fn sstvs_beats_combined_on_leakage_low_to_high() {
        // The paper's headline claim (Table 1): 7.5× lower leakage for
        // a high output, 19.5× for low. Exact factors depend on the
        // device models; the *ordering* must hold.
        let opts = CharacterizeOptions::default();
        let dom = VoltagePair::low_to_high();
        let sstvs = characterize(&ShifterKind::sstvs(), dom, &opts).unwrap();
        let comb = characterize(&ShifterKind::combined(), dom, &opts).unwrap();
        assert!(
            sstvs.leakage_high.value() < comb.leakage_high.value(),
            "SS-TVS {} vs combined {}",
            sstvs.leakage_high,
            comb.leakage_high
        );
        assert!(
            sstvs.leakage_low.value() < comb.leakage_low.value(),
            "SS-TVS {} vs combined {}",
            sstvs.leakage_low,
            comb.leakage_low
        );
    }

    #[test]
    fn worst_case_delays_dominate_the_standard_ones() {
        let opts = CharacterizeOptions::default();
        let dom = VoltagePair::low_to_high();
        let standard = characterize(&ShifterKind::sstvs(), dom, &opts).unwrap();
        let worst = characterize_worst_case(&ShifterKind::sstvs(), dom, &opts).unwrap();
        assert!(worst.delay_rise >= standard.delay_rise);
        assert!(worst.delay_fall >= standard.delay_fall);
        // The short-high-phase sequence starves ctrl, so the paper's
        // predicted effect — a visibly slower rising output — must
        // appear.
        assert!(
            worst.delay_rise.value() > 1.02 * standard.delay_rise.value(),
            "worst-case rise {} vs standard {}",
            worst.delay_rise,
            standard.delay_rise
        );
        // Non-delay metrics come from the standard run.
        assert_eq!(worst.leakage_high, standard.leakage_high);
    }

    #[test]
    fn worst_case_stress_runs_use_the_configured_slew() {
        let dom = VoltagePair::low_to_high();
        let kind = ShifterKind::sstvs();
        let slow = CharacterizeOptions {
            input_slew: 400e-12,
            ..CharacterizeOptions::default()
        };
        let worst_fast =
            characterize_worst_case(&kind, dom, &CharacterizeOptions::default()).unwrap();
        let worst_slow = characterize_worst_case(&kind, dom, &slow).unwrap();
        let standard_slow = characterize_switching(&kind, dom, &slow).unwrap();
        // Stress sequences at 50 ps edges would put the 50 ps answer
        // back on the rising edge.
        assert_ne!(worst_slow.delay_rise, worst_fast.delay_rise);
        assert_ne!(worst_slow.delay_fall, worst_fast.delay_fall);
        assert!(worst_slow.delay_rise >= standard_slow.delay_rise);
        assert!(worst_slow.delay_fall >= standard_slow.delay_fall);
    }

    #[test]
    fn switching_half_is_bitwise_the_full_protocols() {
        let opts = CharacterizeOptions::default();
        let dom = VoltagePair::high_to_low();
        let kind = ShifterKind::sstvs();
        let full = characterize(&kind, dom, &opts).unwrap();
        let s = characterize_switching(&kind, dom, &opts).unwrap();
        let bits = |t: f64| t.to_bits();
        assert_eq!(bits(s.delay_rise.value()), bits(full.delay_rise.value()));
        assert_eq!(bits(s.delay_fall.value()), bits(full.delay_fall.value()));
        assert_eq!(bits(s.power_rise.value()), bits(full.power_rise.value()));
        assert_eq!(bits(s.power_fall.value()), bits(full.power_fall.value()));
        assert_eq!(s.functional, full.functional);
    }

    #[test]
    fn each_hold_continues_the_stimulus_run_from_its_hand_over_sample() {
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let opts = CharacterizeOptions::default();
        for kind in [ShifterKind::sstvs(), ShifterKind::combined()] {
            for dom in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
                let label = format!("{} at {dom:?}", kind.label());
                // The stimulus run, built apart from `switching_run`.
                let (wave, _, t_fall2, t_end) = Harness::standard_stimulus(dom);
                let stimulus = Harness::build(&kind, dom, wave, opts.load_farads);
                let run = run_transient(&stimulus.circuit, t_end, &opts.sim).unwrap();
                let (full, full_stats) = characterize_with_stats(&kind, dom, &opts, None).unwrap();

                let (_, handover) =
                    switching_run(&kind, dom, &opts, None, &mut SolverStats::default()).unwrap();
                let mut sum = run.solver_stats();
                for (input_high, start, t, leakage) in [
                    (true, &handover.input_high, t_fall2, full.leakage_low),
                    (false, &handover.input_low, t_end, full.leakage_high),
                ] {
                    let at = format!("{label}, input high {input_high}");
                    // The hand-over time is a stored breakpoint sample.
                    let (t0, x0) = run
                        .state_at(t)
                        .unwrap_or_else(|| panic!("{at}: no sample at {t:e} s"));
                    assert_eq!(start.t0.to_bits(), t0.to_bits(), "{at}");
                    assert_eq!(bits(&start.state), bits(x0), "{at}");
                    // The hold starts from exactly that sample.
                    let (harness, hold) =
                        run_hold(&kind, dom, &opts, None, input_high, start).unwrap();
                    assert_eq!(hold.times()[0].to_bits(), t0.to_bits(), "{at}");
                    assert_eq!(bits(hold.state_at(t0).unwrap().1), bits(x0), "{at}");
                    let mine = hold_leakage(
                        &harness,
                        &hold,
                        dom,
                        &opts,
                        input_high,
                        &mut SolverStats::default(),
                    )
                    .unwrap();
                    assert_eq!(leakage.value().to_bits(), mine.to_bits(), "{at}");
                    sum.merge(&hold.solver_stats());
                    driver_baseline_power(dom, &opts, input_high, &mut sum).unwrap();
                }
                // The protocol's work is these five solves', field by field.
                assert_eq!(full_stats, sum, "{label}");
            }
        }
    }

    /// The leakage a hold would report if its held harness sat at its
    /// DC operating point: the same driver-baseline subtraction and the
    /// same division by VDDO.
    fn dc_leakage(
        kind: &ShifterKind,
        domains: VoltagePair,
        options: &CharacterizeOptions,
        input_high: bool,
    ) -> f64 {
        let harness = hold_harness(kind, domains, options, input_high, None);
        let sol = vls_engine::solve_dc(&harness.circuit, &options.sim).unwrap();
        let delivered = |source: &str| -sol.branch_current(source).unwrap();
        let p_total = delivered(Harness::VDDO_SOURCE) * domains.vddo
            + delivered(Harness::VDDI_SOURCE) * domains.vddi;
        let baseline =
            driver_baseline_power(domains, options, input_high, &mut SolverStats::default())
                .unwrap();
        (p_total - baseline) / domains.vddo
    }

    #[test]
    fn settled_holds_read_the_dc_leakage_of_the_held_harness() {
        // Holds whose window does not read the DC operating point, as
        // (cell, VDDI, input high, why). Every other hold is checked.
        const EXCEPTIONS: [(&str, f64, bool, &str); 4] = [
            (
                "SS-TVS",
                0.8,
                false,
                "the stored charge on ctrl, which DC does not keep, holds the current \
                 about 6.5 % below DC for microseconds",
            ),
            (
                "SS-TVS",
                1.2,
                false,
                "the stored charge on ctrl: about 5.3 % below DC",
            ),
            (
                "SS-TVS",
                1.2,
                true,
                "still relaxing toward DC when its window closes: about 2.6 % above it",
            ),
            (
                "Combined VS",
                0.8,
                true,
                "not settled when its window closes: about 129 % above DC, which a 40 µs \
                 hold reaches",
            ),
        ];
        let opts = CharacterizeOptions::default();
        let cells = [
            ShifterKind::sstvs(),
            ShifterKind::combined(),
            ShifterKind::Conventional(vls_cells::ConventionalVs::new()),
            ShifterKind::Khan(vls_cells::KhanSsvs::new()),
            ShifterKind::Inverter(vls_cells::primitives::Inverter::minimum()),
        ];
        let (mut checked, mut excepted) = (0, 0);
        for kind in &cells {
            for dom in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
                let m = characterize(kind, dom, &opts).unwrap();
                // The input-high hold holds the output low.
                for (input_high, hold) in [(true, m.leakage_low), (false, m.leakage_high)] {
                    let at = format!("{} at {dom:?}, input high {input_high}", kind.label());
                    let dc = dc_leakage(kind, dom, &opts, input_high);
                    let off = hold.value() / dc - 1.0;
                    let exception = EXCEPTIONS
                        .iter()
                        .find(|e| (e.0, e.1, e.2) == (kind.label(), dom.vddi, input_high));
                    match exception {
                        None => {
                            assert!(
                                off.abs() <= 0.01,
                                "{at}: hold {hold}, DC {dc:e} A, {off:+e}"
                            );
                            checked += 1;
                        }
                        // A named exception that now agrees belongs with
                        // the checked holds.
                        Some((.., why)) => {
                            assert!(off.abs() > 0.01, "{at} ({why}) now agrees: {off:+e}");
                            excepted += 1;
                        }
                    }
                }
            }
        }
        assert_eq!((checked, excepted), (16, EXCEPTIONS.len()));
    }

    #[test]
    fn temperature_option_plumbs_through() {
        let opts = CharacterizeOptions::at_celsius(90.0);
        assert!((opts.sim.temperature.as_celsius() - 90.0).abs() < 1e-9);
        let hot = characterize(&ShifterKind::sstvs(), VoltagePair::low_to_high(), &opts).unwrap();
        let cold = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(
            hot.leakage_high.value() > cold.leakage_high.value(),
            "leakage must grow with temperature: {} vs {}",
            hot.leakage_high,
            cold.leakage_high
        );
    }
}
