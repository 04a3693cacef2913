//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts the same tiny flag set (no external CLI crate
//! needed):
//!
//! * `--trials N` — Monte Carlo trials (default 1000, the paper's
//!   count);
//! * `--seed S` — Monte Carlo seed (default: the workspace seed, so
//!   printed rows are reproducible);
//! * `--step-mv X` — sweep grid pitch in millivolts (default 25;
//!   pass 5 for the paper's exact grid);
//! * `--temp C` — temperature in °C (default 27);
//! * `--jobs N` — worker threads for sharded runs (default: all
//!   available cores; results are identical for any value);
//! * `--csv PATH` — also write machine-readable output;
//! * `--from-lib PATH` — serve from a prebuilt characterization
//!   library artifact (built on first use) where the binary supports
//!   it (`figure8`, `table3`).

use std::collections::HashMap;

use vls_core::CharacterizeOptions;
use vls_runner::RunnerOptions;

/// Parsed command-line options for the regeneration binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BinArgs {
    /// Monte Carlo trial count.
    pub trials: usize,
    /// Monte Carlo seed.
    pub seed: u64,
    /// Sweep pitch, volts.
    pub step_v: f64,
    /// Temperature, °C.
    pub temp_celsius: f64,
    /// Worker threads; `None` = all available cores.
    pub jobs: Option<usize>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional prebuilt characterization-library artifact path.
    pub from_lib: Option<String>,
}

impl Default for BinArgs {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: vls_core::experiments::tables::DEFAULT_MC_SEED,
            step_v: 0.025,
            temp_celsius: 27.0,
            jobs: None,
            csv: None,
            from_lib: None,
        }
    }
}

impl BinArgs {
    /// Parses `--key value` pairs from an iterator of arguments
    /// (typically `std::env::args().skip(1)`).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or bad values,
    /// which is the right behaviour for a measurement script.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut map = HashMap::new();
        let mut iter = args.into_iter();
        while let Some(key) = iter.next() {
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("flag {key} requires a value"));
            map.insert(key, value);
        }
        for (key, value) in map {
            match key.as_str() {
                "--trials" => out.trials = value.parse().expect("--trials takes an integer"),
                "--seed" => out.seed = value.parse().expect("--seed takes an integer"),
                "--step-mv" => {
                    let mv: f64 = value.parse().expect("--step-mv takes a number");
                    assert!(mv > 0.0, "--step-mv must be positive");
                    out.step_v = mv * 1e-3;
                }
                "--temp" => out.temp_celsius = value.parse().expect("--temp takes a number"),
                "--jobs" => {
                    let jobs: usize = value.parse().expect("--jobs takes an integer");
                    assert!(jobs > 0, "--jobs must be positive");
                    out.jobs = Some(jobs);
                }
                "--csv" => out.csv = Some(value),
                "--from-lib" => out.from_lib = Some(value),
                other => panic!(
                    "unknown flag {other}; supported: --trials --seed --step-mv --temp --jobs \
                     --csv --from-lib"
                ),
            }
        }
        out
    }

    /// Characterization options at the selected temperature.
    pub fn options(&self) -> CharacterizeOptions {
        CharacterizeOptions::at_celsius(self.temp_celsius)
    }

    /// Runner configuration from `--jobs` (default: all cores).
    pub fn runner(&self) -> RunnerOptions {
        self.jobs
            .map_or_else(RunnerOptions::default, RunnerOptions::with_jobs)
    }

    /// Writes `content` to the `--csv` path if one was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn maybe_write_csv(&self, content: &str) {
        if let Some(path) = &self.csv {
            std::fs::write(path, content).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_the_paper() {
        let a = BinArgs::default();
        assert_eq!(a.trials, 1000);
        assert_eq!(a.temp_celsius, 27.0);
        assert!((a.step_v - 0.025).abs() < 1e-12);
    }

    #[test]
    fn parses_all_flags() {
        let a = BinArgs::parse(strings(&[
            "--trials",
            "50",
            "--seed",
            "9",
            "--step-mv",
            "5",
            "--temp",
            "90",
            "--jobs",
            "3",
            "--csv",
            "/tmp/x.csv",
        ]));
        assert_eq!(a.trials, 50);
        assert_eq!(a.seed, 9);
        assert!((a.step_v - 0.005).abs() < 1e-12);
        assert_eq!(a.temp_celsius, 90.0);
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.runner().effective_jobs(), 3);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert!((a.options().sim.temperature.as_celsius() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn parses_from_lib() {
        let a = BinArgs::parse(strings(&["--from-lib", "/tmp/lib.json"]));
        assert_eq!(a.from_lib.as_deref(), Some("/tmp/lib.json"));
        assert_eq!(BinArgs::default().from_lib, None);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = BinArgs::parse(strings(&["--bogus", "1"]));
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn missing_value_panics() {
        let _ = BinArgs::parse(strings(&["--trials"]));
    }
}
