//! End-to-end exit-code contract of `vls-spice` — the `check` CI lint
//! gate, deck parse errors, and fault-plan failures with their replay
//! line and retry recovery. Spawns the real binary via
//! `CARGO_BIN_EXE_vls-spice`.

use std::path::PathBuf;
use std::process::{Command, Output};

const CLEAN_DECK: &str = "\
clean inverter
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0 50p 50p 1n 2n)
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.tran 10p 2n
.end
";

const SINGULAR_DECK: &str = "\
parallel sources
V1 a 0 1.2
V2 a 0 1.0
R1 a 0 1k
.op
.end
";

fn deck_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("vls_check_cli_{name}_{}.sp", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn vls_spice(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vls-spice"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_clean_deck_exits_zero() {
    let path = deck_file("clean", CLEAN_DECK);
    let out = vls_spice(&["check", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_singular_deck_exits_one_and_names_the_rule() {
    let path = deck_file("singular", SINGULAR_DECK);
    let out = vls_spice(&["check", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("ERC003"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_json_is_machine_readable() {
    let path = deck_file("json", SINGULAR_DECK);
    let out = vls_spice(&["check", "--json", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.trim_start().starts_with("{\"errors\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"ERC003\""), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_mode_gate_refuses_singular_deck() {
    let path = deck_file("gate", SINGULAR_DECK);
    let out = vls_spice(&[path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("static check failed"), "{stderr}");
    assert!(stderr.contains("ERC003"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

const HIER_DECK: &str = "\
hierarchical paths
Vdd vdd 0 1.2
Vin a 0 PULSE(0 1.2 0 50p 50p 1n 2n)
.subckt leaky in out vdd
Mp out floatg vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
.ends
X1 a y vdd leaky
Cl y 0 1fF
.op
.end
";

#[test]
fn check_reports_hierarchical_paths() {
    let path = deck_file("hier", HIER_DECK);
    let out = vls_spice(&["check", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // The undriven gate inside the subckt is named by its full path.
    assert!(stdout.contains("ERC006"), "{stdout}");
    assert!(stdout.contains("x1.floatg"), "{stdout}");
    let json = vls_spice(&["check", "--json", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"x1.floatg\""), "{stdout}");
    assert!(stdout.contains("\"x1.mp\""), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn baseline_suppresses_known_findings_round_trip() {
    let deck = deck_file("baseline", SINGULAR_DECK);
    let base = std::env::temp_dir().join(format!("vls_check_cli_base_{}.json", std::process::id()));
    // Record: still exits 1 (the findings are real) but writes the file.
    let out = vls_spice(&[
        "check",
        deck.to_str().unwrap(),
        "--record-baseline",
        base.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let recorded = std::fs::read_to_string(&base).unwrap();
    assert!(recorded.trim_start().starts_with('['), "{recorded}");
    // Apply: the known finding is suppressed and the gate passes.
    let out = vls_spice(&[
        "check",
        deck.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("suppressed"), "{stdout}");
    assert!(!stdout.contains("ERC003"), "{stdout}");
    let _ = std::fs::remove_file(deck);
    let _ = std::fs::remove_file(base);
}

#[test]
fn non_positive_tran_stop_time_exits_one_without_a_panic() {
    for (name, tstop) in [("tstop_zero", "0"), ("tstop_negative", "-1n")] {
        let deck = format!("bad stop time\nV1 a 0 1\nR1 a 0 1k\n.tran 1p {tstop}\n.end\n");
        let path = deck_file(name, &deck);
        let out = vls_spice(&[path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), ".tran 1p {tstop}: {stderr}");
        assert!(stderr.contains("deck line 4"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn missing_operands_exit_two() {
    assert_eq!(vls_spice(&[]).status.code(), Some(2));
    assert_eq!(vls_spice(&["check"]).status.code(), Some(2));
    assert_eq!(vls_spice(&["--check", "bogus"]).status.code(), Some(2));
}

/// The inverter deck a fault plan is armed on.
const FAULT_DECK: &str = "\
fault smoke deck
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0.5n 50p 50p 2n 6n)
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.op
.tran 10p 4n
.end
";

#[test]
fn fault_plan_fails_with_a_replay_line_and_the_retry_ladder_recovers() {
    // Forces Newton non-convergence at every stage of the DC homotopy.
    const PLAN: &str = "newton@warm,newton@plain,newton@gmin,newton@source";
    let path = deck_file("fault", FAULT_DECK);
    let deck = path.to_str().unwrap();

    let out = vls_spice(&[deck, "--fault-plan", PLAN, "--seed", "0xf5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the armed run succeeded: {stderr}");
    assert!(stderr.contains("replay:"), "{stderr}");

    let out = vls_spice(&[deck, "--fault-plan", PLAN, "--seed", "0xf5", "--retry", "3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("recovered at escalation rung"), "{stdout}");
    let _ = std::fs::remove_file(path);
}
