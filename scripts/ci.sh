#!/usr/bin/env bash
# CI gate: formatting, lints and docs (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

# Doc comments may only link to items that exist and are public, so a
# deleted or private item cannot stay referenced from the docs.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The runner suites must hold on a single worker too: the determinism
# contract says sharding never changes a result, so the serial path is
# a first-class configuration, not a degenerate one. VLS_JOBS=1 pins
# every RunnerOptions::default() to one worker; the default-parallelism
# pass already ran as part of the workspace suite above.
echo "==> cargo test (runner suites, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test runner_determinism --test golden_metrics_mc --test golden_metrics_90c

# The charlib leg: build a smoke grid through the CLI, prove the
# artifact round-trips (second run loads instead of rebuilding and the
# bytes don't move), serve one query from it, then run the surrogate
# accuracy/golden/artifact suites in both the serial and the
# default-parallelism configuration — the fill must be bit-identical
# either way.
echo "==> charlib smoke grid (characterize --smoke, artifact round trip)"
CHARLIB_TMP="$(mktemp -d)"
trap 'rm -rf "$CHARLIB_TMP"' EXIT
cargo run -q --release -p vls-cli --bin vls-spice -- \
    characterize --smoke --out "$CHARLIB_TMP/smoke.json"
cp "$CHARLIB_TMP/smoke.json" "$CHARLIB_TMP/first.json"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    characterize --smoke --out "$CHARLIB_TMP/smoke.json" \
    | grep -q "status: Loaded"
cmp "$CHARLIB_TMP/first.json" "$CHARLIB_TMP/smoke.json"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    query --lib "$CHARLIB_TMP/smoke.json" --vddi 0.8 --vddo 1.2 \
    | grep -q "source: Table"

echo "==> cargo test (charlib suites, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test charlib_surrogate --test charlib_golden --test charlib_artifact
cargo test -q --test charlib_surrogate --test charlib_golden --test charlib_artifact

# The Newton-kernel leg: the equivalence suite (retry rung 2 against
# the default on all six cells, which must also book different work on
# at least one, natural against minimum-degree order, the structure-reuse counter
# invariants, and the six-cell counter rule that a transient walks each
# MOSFET once per Newton iteration and makes a standalone capacitance
# walk only at its start and at each breakpoint landing; the companions
# come from the capacitive network, one branch per node pair, which
# the vls-engine unit test network_stamps_what_each_capacitor_stamped
# checks against one companion per capacitor) must hold on
# one worker and at default parallelism (the kernel is pure per-circuit
# state, so sharding must not change a single bit).
echo "==> cargo test (newton kernel equivalence, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test newton_kernel
cargo test -q --test newton_kernel

# The fault leg: the soak suite (256-trial injected-fault ensemble,
# taxonomy/replay determinism, counter invariants, fuzzed
# perturbations) must hold serial and at default parallelism. The CLI
# side (a fault plan fails a deck with a replay line, the retry ladder
# recovers it) is in crates/cli/tests/check_cli.rs, in the workspace suite.
echo "==> cargo test (fault soak, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test fault_soak
cargo test -q --test fault_soak

# The check leg: clippy scoped to the checker crate (it is the newest
# surface and must stay warning-free on its own). The chip-scale MSV
# suite (tests/erc_msv.rs) and the CLI baseline round trip
# (crates/cli/tests/check_cli.rs) run in the workspace suite.
echo "==> cargo clippy -p vls-check (deny warnings)"
cargo clippy -p vls-check --all-targets -- -D warnings

# The serve leg: clippy scoped to the daemon crate, then the protocol
# and soak suites on one worker and at default parallelism (the soak
# demands byte-identical bodies and balanced counters either way). A
# live `vls-spice serve` is booted, probed over the wire and shut down
# by crates/cli/tests/serve_cli.rs in the workspace suite.
echo "==> cargo clippy -p vls-serve (deny warnings)"
cargo clippy -p vls-serve --all-targets -- -D warnings

echo "==> cargo test (serve protocol + soak, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test serve_api --test serve_soak
cargo test -q --test serve_api --test serve_soak

# The opt leg: clippy scoped to the optimizer crate, then the
# regression suite on one worker and at default parallelism (the
# outcome — trajectory, accounting, verdicts, rendered JSON — must be
# bit-identical either way; the suite includes a search on the real
# simulator held to its budget and gap tolerance).
echo "==> cargo clippy -p vls-opt (deny warnings)"
cargo clippy -p vls-opt --all-targets -- -D warnings

echo "==> cargo test (opt regression, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test opt_regression
cargo test -q --test opt_regression

# The numerics leg: clippy scoped to the numerics crate (the sparse LU
# with its replayed refactorization, the minimum-degree ordering and the
# dense LU oracle live there and must stay warning-free on their own;
# the vls-num unit test refactorize_matches_full_factorization_bitwise
# runs in the workspace test leg). The sparse-order golden suite
# (tests/solve_scale.rs) runs in the workspace test leg above; no
# solve starts a thread, so it has no worker count to vary.
echo "==> cargo clippy -p vls-num (deny warnings)"
cargo clippy -p vls-num --all-targets -- -D warnings

echo "==> cargo test --release"
cargo test -q --release

# The benchmark's self-test: vlsbench is a package of its own, not a
# workspace member, so no leg above builds it. Its tests run every
# workload at --quick size, traced and untraced, and check their
# outputs, so a library change that breaks the benchmark's build (a
# renamed entry point) or its output checks fails here, before any
# benchmark run.
echo "==> cargo test (vlsbench self-test)"
cargo test -q --manifest-path crates/bench/src/bin/vlsbench/Cargo.toml

# The workspace-wide fmt and clippy legs above skip the benchmark for
# the same reason, so it gets its own.
echo "==> cargo fmt --check (vlsbench)"
cargo fmt --manifest-path crates/bench/src/bin/vlsbench/Cargo.toml -- --check

echo "==> cargo clippy (vlsbench, deny warnings)"
cargo clippy --manifest-path crates/bench/src/bin/vlsbench/Cargo.toml --all-targets -- -D warnings

echo "CI green."
