//! Process and temperature variation.
//!
//! Implements the paper's Monte Carlo protocol (Section 4): channel
//! width, channel length and threshold voltage of **every device are
//! varied independently** with normal distributions — W and L with
//! `σ = 3.34 %` of the process minimum length (90 nm), VT with
//! `σ = 3.34 %` of its nominal value ("so that three times the
//! standard deviation is 10 % of the nominal value") — at fixed
//! temperatures of 27/60/90 °C, 1000 trials per scenario.
//!
//! # Example
//!
//! ```
//! use vls_variation::{VariationSpec, perturb_circuit};
//! use vls_netlist::Circuit;
//! use vls_device::{MosModel, MosGeometry, SourceWaveform};
//!
//! let mut ckt = Circuit::new();
//! let d = ckt.node("d");
//! ckt.add_vsource("vd", d, Circuit::GROUND, SourceWaveform::Dc(1.2));
//! ckt.add_mosfet("m1", d, d, Circuit::GROUND, Circuit::GROUND,
//!     MosModel::ptm90_nmos(), MosGeometry::from_microns(1.0, 0.1));
//! let mut rng = vls_num::rng::Xoshiro256pp::seed_from_u64(7);
//! let sample = perturb_circuit(&ckt, &VariationSpec::paper(), &mut rng);
//! assert_eq!(sample.elements().len(), ckt.elements().len());
//! ```

use normal::Normal;
use vls_netlist::{Circuit, Element};
use vls_num::rng::Rng;

/// A tiny Box–Muller normal sampler over the workspace's vendored
/// generator (no external `rand` dependency — the build must work
/// with zero registry access).
mod normal {
    use vls_num::rng::Rng;

    /// Normal distribution via the Box–Muller transform.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Normal {
        mean: f64,
        std: f64,
    }

    impl Normal {
        /// Creates a normal distribution.
        ///
        /// # Panics
        ///
        /// Panics if `std` is negative or not finite.
        pub fn new(mean: f64, std: f64) -> Self {
            assert!(std >= 0.0 && std.is_finite(), "invalid std {std}");
            Self { mean, std }
        }

        /// Draws one sample.
        pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE, 1.0);
            let u2: f64 = rng.gen_range(0.0, 1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            self.mean + self.std * z
        }
    }
}

/// The variation magnitudes of the paper's Monte Carlo experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Absolute σ applied to both channel width and length, meters.
    pub sigma_wl: f64,
    /// Relative σ applied to each device's VT (fraction of nominal).
    pub sigma_vt_rel: f64,
}

impl VariationSpec {
    /// The paper's values: σ(W) = σ(L) = 3.34 % of 90 nm ≈ 3 nm;
    /// σ(VT) = 3.34 % of nominal.
    pub fn paper() -> Self {
        Self {
            sigma_wl: 0.0334 * 90e-9,
            sigma_vt_rel: 0.0334,
        }
    }

    /// A spec scaled by `factor` (for sensitivity studies).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            sigma_wl: self.sigma_wl * factor,
            sigma_vt_rel: self.sigma_vt_rel * factor,
        }
    }
}

impl Default for VariationSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// Returns a copy of `circuit` with every MOSFET's W, L and VT
/// independently perturbed per `spec`. Geometry perturbations are
/// additive in meters (clamped to 10 % of nominal at minimum so a
/// three-sigma-plus tail cannot produce a non-physical device); VT
/// perturbations are multiplicative.
pub fn perturb_circuit<R: Rng + ?Sized>(
    circuit: &Circuit,
    spec: &VariationSpec,
    rng: &mut R,
) -> Circuit {
    let map = sample_perturbation(circuit, spec, rng, |_| true);
    let mut out = circuit.clone();
    map.apply(&mut out);
    out
}

/// One sampled process instance: absolute W/L offsets (meters) and a
/// VT scale factor per device name. Sampling is separated from
/// application so a single process sample can be applied consistently
/// to every circuit a multi-run measurement flow builds (delay run,
/// leakage runs, …), keyed by the stable device names.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerturbationMap {
    entries: std::collections::HashMap<String, (f64, f64, f64)>,
}

impl PerturbationMap {
    /// Number of perturbed devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no device is perturbed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies the sample to every matching MOSFET in `circuit`.
    /// Devices without an entry are left nominal.
    pub fn apply(&self, circuit: &mut Circuit) {
        for e in circuit.elements_mut() {
            if let Element::Mosfet {
                name, model, geom, ..
            } = e
            {
                if let Some(&(dw, dl, vt_scale)) = self.entries.get(name.as_str()) {
                    // Additive W/L offsets clamped to 10 % of nominal,
                    // multiplicative VT scale.
                    let w = (geom.width() + dw).max(0.1 * geom.width());
                    let l = (geom.length() + dl).max(0.1 * geom.length());
                    *geom = vls_device::MosGeometry::new(w, l);
                    *model = model.with_vt0(model.vt0 * vt_scale);
                }
            }
        }
    }
}

/// Expresses the device-level difference between two structurally
/// identical circuits as a [`PerturbationMap`]: for every MOSFET whose
/// geometry or threshold differs, an entry with the W/L offsets and
/// the VT scale factor. Lets deterministic transforms (corners,
/// what-if edits) ride the same multi-run application machinery as
/// Monte Carlo samples.
///
/// # Panics
///
/// Panics if the circuits differ structurally (element count, names or
/// kinds).
pub fn diff_as_perturbation(original: &Circuit, modified: &Circuit) -> PerturbationMap {
    assert_eq!(
        original.elements().len(),
        modified.elements().len(),
        "circuits differ structurally"
    );
    let mut entries = std::collections::HashMap::new();
    for (a, b) in original.elements().iter().zip(modified.elements()) {
        assert_eq!(a.name(), b.name(), "circuits differ structurally");
        if let (
            Element::Mosfet {
                name,
                model: ma,
                geom: ga,
                ..
            },
            Element::Mosfet {
                model: mb,
                geom: gb,
                ..
            },
        ) = (a, b)
        {
            let dw = gb.width() - ga.width();
            let dl = gb.length() - ga.length();
            let vt_scale = mb.vt0 / ma.vt0;
            if dw != 0.0 || dl != 0.0 || vt_scale != 1.0 {
                entries.insert(name.clone(), (dw, dl, vt_scale));
            }
        }
    }
    PerturbationMap { entries }
}

/// Samples one process instance for every MOSFET of `circuit` whose
/// name satisfies `filter` (e.g. only the cell under test, not the
/// shared measurement fixture).
pub fn sample_perturbation<R: Rng + ?Sized>(
    circuit: &Circuit,
    spec: &VariationSpec,
    rng: &mut R,
    filter: impl Fn(&str) -> bool,
) -> PerturbationMap {
    let wl = Normal::new(0.0, spec.sigma_wl);
    let vt = Normal::new(1.0, spec.sigma_vt_rel);
    let mut entries = std::collections::HashMap::new();
    for e in circuit.elements() {
        if let Element::Mosfet { name, .. } = e {
            if filter(name) {
                entries.insert(
                    name.clone(),
                    (wl.sample(rng), wl.sample(rng), vt.sample(rng)),
                );
            }
        }
    }
    PerturbationMap { entries }
}

/// A global process corner: a systematic shift applied to every device
/// of one polarity, in units of the Monte Carlo σ. Classic five-corner
/// analysis (TT/FF/SS/FS/SF) complements the paper's Monte Carlo with
/// worst-case bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical–typical: no shift.
    Tt,
    /// Fast NMOS, fast PMOS (−3σ VT on both).
    Ff,
    /// Slow NMOS, slow PMOS (+3σ VT on both).
    Ss,
    /// Fast NMOS, slow PMOS.
    Fs,
    /// Slow NMOS, fast PMOS.
    Sf,
}

impl Corner {
    /// All five corners in conventional order.
    pub const ALL: [Corner; 5] = [Corner::Tt, Corner::Ff, Corner::Ss, Corner::Fs, Corner::Sf];

    /// The VT shift in σ units for `(nmos, pmos)`; fast = lower |VT|.
    fn sigma_shift(self) -> (f64, f64) {
        match self {
            Corner::Tt => (0.0, 0.0),
            Corner::Ff => (-3.0, -3.0),
            Corner::Ss => (3.0, 3.0),
            Corner::Fs => (-3.0, 3.0),
            Corner::Sf => (3.0, -3.0),
        }
    }

    /// The conventional name ("TT", "FF", …).
    pub fn name(self) -> &'static str {
        match self {
            Corner::Tt => "TT",
            Corner::Ff => "FF",
            Corner::Ss => "SS",
            Corner::Fs => "FS",
            Corner::Sf => "SF",
        }
    }
}

impl core::fmt::Display for Corner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Returns a copy of `circuit` with every MOSFET matching `filter`
/// shifted to the given corner (±3σ systematic VT shift per polarity,
/// using the VT σ from `spec`).
pub fn apply_corner(
    circuit: &Circuit,
    corner: Corner,
    spec: &VariationSpec,
    filter: impl Fn(&str) -> bool,
) -> Circuit {
    let (n_sigma, p_sigma) = corner.sigma_shift();
    let mut out = circuit.clone();
    for e in out.elements_mut() {
        let name = e.name().to_string();
        if let Element::Mosfet { model, .. } = e {
            if filter(&name) {
                let shift = match model.polarity {
                    vls_device::MosPolarity::Nmos => n_sigma,
                    vls_device::MosPolarity::Pmos => p_sigma,
                };
                let factor = 1.0 + shift * spec.sigma_vt_rel;
                *model = model.with_vt0(model.vt0 * factor);
            }
        }
    }
    out
}

/// Summary statistics of a metric across Monte Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats {
    /// Computes statistics over `samples`, or `None` when there are no
    /// samples (a Monte Carlo shard whose every trial failed must
    /// surface as a reportable condition, not a panic in the
    /// aggregator).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Self {
            n,
            mean,
            std: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

/// One Monte Carlo trial's full record: its index in the ensemble, the
/// derived per-trial seed (re-seeding a generator with it replays the
/// exact process sample), the sampled perturbation, and the evaluation
/// outcome. A failed trial keeps its seed and perturbation so it can
/// be replayed in isolation.
#[derive(Debug, Clone)]
pub struct McTrial<T, E> {
    /// Position of the trial in the ensemble, `0..trials`.
    pub index: usize,
    /// The per-trial seed, `derive_seed(master_seed, index)`.
    pub seed: u64,
    /// The process sample drawn for this trial.
    pub perturbation: PerturbationMap,
    /// What the evaluation produced.
    pub result: Result<T, E>,
}

/// A complete Monte Carlo ensemble: every trial's record (in index
/// order, independent of the thread schedule) plus the runner's
/// per-shard wall-time report.
#[derive(Debug, Clone)]
pub struct McEnsemble<T, E> {
    /// All trials, ordered by [`McTrial::index`].
    pub trials: Vec<McTrial<T, E>>,
    /// Per-shard wall-time accounting from the runner.
    pub report: vls_runner::RunReport,
}

impl<T, E> McEnsemble<T, E> {
    /// The successful evaluation results, in trial order.
    pub fn successes(&self) -> Vec<&T> {
        self.trials
            .iter()
            .filter_map(|t| t.result.as_ref().ok())
            .collect()
    }

    /// The failed trials (each carrying its replay seed), in order.
    pub fn failures(&self) -> Vec<&McTrial<T, E>> {
        self.trials.iter().filter(|t| t.result.is_err()).collect()
    }
}

/// Runs `trials` Monte Carlo evaluations sharded across threads per
/// `runner`: each trial samples a perturbation of the devices of
/// `circuit` accepted by `filter` with a deterministic per-trial RNG
/// derived from `master_seed`, then maps the sample through `eval`.
/// Failed trials are captured per-trial — they never abort the
/// ensemble or poison sibling shards.
///
/// The per-trial seed stream and the sampled perturbations are
/// bit-identical for every worker count, including one.
pub fn monte_carlo_trials<T: Send, E: Send>(
    circuit: &Circuit,
    spec: &VariationSpec,
    trials: usize,
    master_seed: u64,
    runner: &vls_runner::RunnerOptions,
    filter: impl Fn(&str) -> bool + Sync,
    eval: impl Fn(usize, &PerturbationMap) -> Result<T, E> + Sync,
) -> McEnsemble<T, E> {
    let (records, report) = vls_runner::run_indexed_reported(trials, runner, |k| {
        let (seed, perturbation) = sample_trial_map(circuit, spec, master_seed, k, &filter);
        let result = eval(k, &perturbation);
        McTrial {
            index: k,
            seed,
            perturbation,
            result,
        }
    });
    McEnsemble {
        trials: records,
        report,
    }
}

/// Reproduces trial `index` of the ensemble `monte_carlo_trials` would
/// run for `(circuit, spec, master_seed, filter)`: the derived per-trial
/// seed and the exact process sample, independent of which trials run
/// around it. This is the *definition* of the per-trial stream: the
/// ensemble above draws every trial through it, and a caller that
/// replays or re-runs one trial gets the identical process sample.
pub fn sample_trial_map(
    circuit: &Circuit,
    spec: &VariationSpec,
    master_seed: u64,
    index: usize,
    filter: impl Fn(&str) -> bool,
) -> (u64, PerturbationMap) {
    let seed = vls_runner::derive_seed(master_seed, index as u64);
    let mut rng = vls_num::rng::Xoshiro256pp::seed_from_u64(seed);
    let perturbation = sample_perturbation(circuit, spec, &mut rng, filter);
    (seed, perturbation)
}

/// Runs `trials` Monte Carlo evaluations: each trial perturbs
/// `circuit` with a deterministic per-trial RNG derived from `seed`
/// and maps it through `eval`. Trials are sharded across available
/// cores; their seeds are stable and the output is in trial order, so
/// results are bit-identical regardless of the thread schedule.
pub fn monte_carlo<T: Send>(
    circuit: &Circuit,
    spec: &VariationSpec,
    trials: usize,
    seed: u64,
    eval: impl Fn(usize, Circuit) -> T + Sync,
) -> Vec<T> {
    vls_runner::run_indexed(trials, &vls_runner::RunnerOptions::default(), |k| {
        let mut rng = vls_runner::rng_for_run(seed, k as u64);
        let sample = perturb_circuit(circuit, spec, &mut rng);
        eval(k, sample)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};
    use vls_num::rng::Xoshiro256pp;

    fn base_circuit() -> Circuit {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.add_vsource("vd", d, Circuit::GROUND, SourceWaveform::Dc(1.2));
        for i in 0..4 {
            c.add_mosfet(
                &format!("m{i}"),
                d,
                d,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(1.0, 0.1),
            );
        }
        c
    }

    #[test]
    fn perturbation_changes_every_device_independently() {
        let c = base_circuit();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let p = perturb_circuit(&c, &VariationSpec::paper(), &mut rng);
        let mut widths = Vec::new();
        let mut vts = Vec::new();
        for e in p.elements() {
            if let Element::Mosfet { geom, model, .. } = e {
                widths.push(geom.width());
                vts.push(model.vt0);
                // Perturbed but nearby.
                assert!((geom.width() - 1e-6).abs() < 20e-9);
                assert!((geom.length() - 0.1e-6).abs() < 20e-9);
                assert!((model.vt0 - 0.39).abs() < 0.39 * 0.2);
            }
        }
        assert_eq!(widths.len(), 4);
        // Devices vary independently: not all equal.
        assert!(widths.windows(2).any(|w| w[0] != w[1]));
        assert!(vts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn sampled_sigma_matches_the_spec() {
        let c = base_circuit();
        let spec = VariationSpec::paper();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut dws = Vec::new();
        for _ in 0..2000 {
            let p = perturb_circuit(&c, &spec, &mut rng);
            if let Element::Mosfet { geom, .. } = &p.elements()[1] {
                dws.push(geom.width() - 1e-6);
            }
        }
        let s = Stats::from_samples(&dws).unwrap();
        assert!(s.mean.abs() < 0.2e-9, "mean offset {}", s.mean);
        let expect = spec.sigma_wl;
        assert!(
            (s.std - expect).abs() < 0.1 * expect,
            "σ = {} vs spec {expect}",
            s.std
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let c = base_circuit();
        let widths = |seed| {
            monte_carlo(&c, &VariationSpec::paper(), 5, seed, |_, s| {
                match &s.elements()[1] {
                    Element::Mosfet { geom, .. } => geom.width(),
                    _ => unreachable!(),
                }
            })
        };
        assert_eq!(widths(42), widths(42));
        assert_ne!(widths(42), widths(43));
    }

    #[test]
    fn stats_summary() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        let single = Stats::from_samples(&[7.0]).unwrap();
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn empty_stats_are_none_not_a_panic() {
        assert!(Stats::from_samples(&[]).is_none());
    }

    #[test]
    fn trial_ensemble_records_failures_without_poisoning_siblings() {
        let c = base_circuit();
        let run = |runner: &vls_runner::RunnerOptions| {
            monte_carlo_trials(
                &c,
                &VariationSpec::paper(),
                8,
                42,
                runner,
                |_| true,
                |k, map| {
                    if k == 3 {
                        Err("synthetic non-convergence")
                    } else {
                        Ok(map.len())
                    }
                },
            )
        };
        let serial = run(&vls_runner::RunnerOptions::serial());
        let parallel = run(&vls_runner::RunnerOptions::with_jobs(4));
        assert_eq!(serial.trials.len(), 8);
        assert_eq!(serial.successes().len(), 7);
        let failures = serial.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 3);
        // The failed trial carries its replay seed and sampled map.
        assert_eq!(failures[0].seed, vls_runner::derive_seed(42, 3));
        assert_eq!(failures[0].perturbation.len(), 4);
        // Sharding does not change any trial's record.
        for (a, b) in serial.trials.iter().zip(&parallel.trials) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.perturbation, b.perturbation);
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn scaled_spec() {
        let s = VariationSpec::paper().scaled(2.0);
        assert!((s.sigma_wl - 2.0 * 0.0334 * 90e-9).abs() < 1e-15);
        assert!((s.sigma_vt_rel - 0.0668).abs() < 1e-12);
    }

    #[test]
    fn perturbation_map_applies_consistently_across_clones() {
        let c = base_circuit();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let map = sample_perturbation(&c, &VariationSpec::paper(), &mut rng, |_| true);
        assert_eq!(map.len(), 4);
        assert!(!map.is_empty());
        let mut a = c.clone();
        let mut b = c.clone();
        map.apply(&mut a);
        map.apply(&mut b);
        for (ea, eb) in a.elements().iter().zip(b.elements()) {
            if let (
                Element::Mosfet {
                    geom: ga,
                    model: ma,
                    ..
                },
                Element::Mosfet {
                    geom: gb,
                    model: mb,
                    ..
                },
            ) = (ea, eb)
            {
                assert_eq!(ga, gb);
                assert_eq!(ma.vt0, mb.vt0);
            }
        }
    }

    #[test]
    fn sample_trial_map_reproduces_the_ensemble_stream() {
        let c = base_circuit();
        let spec = VariationSpec::paper();
        let ensemble = monte_carlo_trials(
            &c,
            &spec,
            6,
            0xBEEF,
            &vls_runner::RunnerOptions::serial(),
            |n| n != "m0",
            |_, map| Ok::<usize, ()>(map.len()),
        );
        for trial in &ensemble.trials {
            let (seed, map) = sample_trial_map(&c, &spec, 0xBEEF, trial.index, |n| n != "m0");
            assert_eq!(seed, trial.seed);
            assert_eq!(map, trial.perturbation);
        }
    }

    #[test]
    fn perturbation_filter_scopes_devices() {
        let c = base_circuit();
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let map = sample_perturbation(&c, &VariationSpec::paper(), &mut rng, |n| n == "m0");
        assert_eq!(map.len(), 1);
        let mut p = c.clone();
        map.apply(&mut p);
        // m1 untouched, m0 perturbed.
        match (&c.elements()[1], &p.elements()[1]) {
            (Element::Mosfet { geom: g0, .. }, Element::Mosfet { geom: g1, .. }) => {
                assert_ne!(g0, g1)
            }
            _ => panic!(),
        }
        match (&c.elements()[2], &p.elements()[2]) {
            (Element::Mosfet { geom: g0, .. }, Element::Mosfet { geom: g1, .. }) => {
                assert_eq!(g0, g1)
            }
            _ => panic!(),
        }
    }

    #[test]
    fn corners_shift_vt_systematically() {
        let mut c = base_circuit();
        // Add a PMOS so polarity-dependent corners are visible.
        let d = c.find_node("d").unwrap();
        c.add_mosfet(
            "mp0",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(1.0, 0.1),
        );
        let spec = VariationSpec::paper();
        let vt_of = |ckt: &Circuit, name: &str| match ckt.element(name).unwrap() {
            Element::Mosfet { model, .. } => model.vt0,
            _ => unreachable!(),
        };
        let nominal_n = vt_of(&c, "m0");
        let nominal_p = vt_of(&c, "mp0");

        let tt = apply_corner(&c, Corner::Tt, &spec, |_| true);
        assert_eq!(vt_of(&tt, "m0"), nominal_n);

        let ss = apply_corner(&c, Corner::Ss, &spec, |_| true);
        assert!((vt_of(&ss, "m0") - nominal_n * 1.1002).abs() < 1e-4);
        assert!(vt_of(&ss, "mp0") > nominal_p);

        let fs = apply_corner(&c, Corner::Fs, &spec, |_| true);
        assert!(vt_of(&fs, "m0") < nominal_n, "fast NMOS lowers VT");
        assert!(vt_of(&fs, "mp0") > nominal_p, "slow PMOS raises |VT|");

        // Filter scoping.
        let scoped = apply_corner(&c, Corner::Ff, &spec, |n| n == "m0");
        assert!(vt_of(&scoped, "m0") < nominal_n);
        assert_eq!(vt_of(&scoped, "m1"), nominal_n);

        // Names and ALL.
        assert_eq!(Corner::ALL.len(), 5);
        assert_eq!(Corner::Ff.to_string(), "FF");
    }

    #[test]
    fn non_mosfet_elements_are_untouched() {
        let c = base_circuit();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let p = perturb_circuit(&c, &VariationSpec::paper(), &mut rng);
        match (&c.elements()[0], &p.elements()[0]) {
            (Element::VoltageSource { wave: w0, .. }, Element::VoltageSource { wave: w1, .. }) => {
                assert_eq!(w0, w1)
            }
            _ => panic!("source expected first"),
        }
    }
}
