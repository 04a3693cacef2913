//! The documents name only targets the tree has. README.md, DESIGN.md
//! and the verify skill's SKILL.md may name a `--bin`, `--example` or
//! `--test` target, or a `BENCH_*.json` file, only if it exists:
//!
//! * bins are the files `crates/*/src/bin/*.rs` and the `[[bin]]`
//!   `name` entries of the root and crate manifests;
//! * examples are the files `examples/*.rs`;
//! * tests are the files `tests/*.rs` and `crates/*/tests/*.rs`;
//! * `BENCH_*.json` files sit at the repository root.
//!
//! EXPERIMENTS.md joins the checked documents once its references to
//! deleted binaries are gone (22 of them, to eight binaries; ROADMAP
//! item 16 step 2). CHANGELOG.md keeps retired history and stays out.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The checked documents, relative to the repository root.
const DOCUMENTS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The entries of `dir`, sorted; none when it does not exist.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.expect("a readable entry").path()).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

/// The crate directories under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    entries(&root().join("crates"))
        .into_iter()
        .filter(|p| p.is_dir())
        .collect()
}

/// The stems of the `.rs` files directly in `dir`.
fn rs_stems(dir: &Path) -> Vec<String> {
    entries(dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| {
            p.file_stem()
                .expect("a file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// The `name` of every `[[bin]]` table in the manifest `text`.
fn manifest_bins(text: &str) -> Vec<String> {
    let mut bins = Vec::new();
    let mut in_bin = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bin = line == "[[bin]]";
        } else if let Some(value) = line.strip_prefix("name").map(str::trim_start) {
            if let (true, Some(value)) = (in_bin, value.strip_prefix('=')) {
                bins.push(value.trim().trim_matches('"').to_string());
            }
        }
    }
    bins
}

/// What the tree has: each target kind's names, and the root's
/// `BENCH_*.json` files.
struct Tree {
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
    tests: BTreeSet<String>,
    bench_files: BTreeSet<String>,
}

impl Tree {
    fn scan() -> Self {
        let root = root();
        let mut bins = BTreeSet::new();
        let mut tests: BTreeSet<String> = rs_stems(&root.join("tests")).into_iter().collect();
        let mut manifests = vec![root.join("Cargo.toml")];
        for dir in crate_dirs() {
            bins.extend(rs_stems(&dir.join("src/bin")));
            tests.extend(rs_stems(&dir.join("tests")));
            manifests.push(dir.join("Cargo.toml"));
        }
        for manifest in manifests {
            if let Ok(text) = fs::read_to_string(&manifest) {
                bins.extend(manifest_bins(&text));
            }
        }
        let bench_files = entries(&root)
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        Self {
            bins,
            examples: rs_stems(&root.join("examples")).into_iter().collect(),
            tests,
            bench_files,
        }
    }

    /// Every reference in `text` the tree does not have, as written
    /// (`--bin name`, `BENCH_x.json`).
    fn missing(&self, text: &str) -> Vec<String> {
        let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
        let mut missing = Vec::new();
        for (flag, names) in [
            ("--bin", &self.bins),
            ("--example", &self.examples),
            ("--test", &self.tests),
        ] {
            for (at, _) in text.match_indices(flag) {
                let rest = &text[at + flag.len()..];
                // `--test-threads` and `--tests` are other flags.
                let Some(arg) = rest.strip_prefix(' ') else {
                    continue;
                };
                let name: String = arg
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_name(c))
                    .collect();
                if !name.is_empty() && !names.contains(&name) {
                    missing.push(format!("{flag} {name}"));
                }
            }
        }
        for (at, _) in text.match_indices("BENCH_") {
            let name: String = text[at..]
                .chars()
                .take_while(|&c| is_name(c) || c == '.')
                .collect();
            let name = name.trim_end_matches('.');
            if name.ends_with(".json") && !self.bench_files.contains(name) {
                missing.push(name.to_string());
            }
        }
        missing
    }
}

#[test]
fn documents_name_only_targets_the_tree_has() {
    let tree = Tree::scan();
    // The scan sees each kind of target.
    assert!(tree.bins.contains("table1") && tree.bins.contains("vls-spice"));
    assert!(tree.examples.contains("quickstart"));
    assert!(tree.tests.contains("newton_kernel") && tree.tests.contains("check_cli"));
    assert!(tree.bench_files.contains("BENCH_vlsbench.json"));
    for doc in DOCUMENTS {
        let text = fs::read_to_string(root().join(doc)).expect("a checked document");
        let missing = tree.missing(&text);
        assert!(
            missing.is_empty(),
            "{doc} names what the tree lacks: {missing:?}"
        );
    }
}

#[test]
fn a_deleted_target_is_reported() {
    let tree = Tree::scan();
    let planted = "Run `cargo run --release --bin mc_speedup` and compare with \
                   BENCH_mc_speedup.json; `--bin table1`, `--example quickstart`, \
                   `--test newton_kernel` and `--test-threads 1` are fine.";
    assert_eq!(
        tree.missing(planted),
        ["--bin mc_speedup", "BENCH_mc_speedup.json"]
    );
}
