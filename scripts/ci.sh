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
VLS_JOBS=1 cargo test -q --test runner_determinism --test golden_metrics_mc

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

# The Newton-kernel leg: the symbolic/legacy equivalence suite must
# hold on one worker and at default parallelism (the kernel is pure
# per-circuit state, so sharding must not change a single bit), then
# the release-mode speedup bench enforces its ≥2x floor on the SoC
# mesh with smoke-sized workloads. Every smoke bench below writes its
# JSON into the CI temp directory, so the committed full-mode
# BENCH_*.json artifacts stay as they are.
echo "==> cargo test (newton kernel equivalence, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test newton_kernel
cargo test -q --test newton_kernel

echo "==> newton_speedup --smoke (release, 2x floor enforced)"
cargo run -q --release -p vls-bench --bin newton_speedup -- \
    --smoke --out "$CHARLIB_TMP/newton_smoke.json"

# The fault leg: the soak suite (256-trial injected-fault ensemble,
# taxonomy/replay determinism, counter invariants, fuzzed
# perturbations) must hold serial and at default parallelism, then a
# release-mode smoke soak drives the CLI with a fault plan armed —
# the base attempt must fail with a replay line, and the retry ladder
# must recover the same deck.
echo "==> cargo test (fault soak, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test fault_soak
cargo test -q --test fault_soak

echo "==> fault-plan smoke soak (release, CLI inject + retry recovery)"
FAULT_DECK="$CHARLIB_TMP/fault_smoke.sp"
cat > "$FAULT_DECK" <<'EOF'
ci fault smoke deck
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0.5n 50p 50p 2n 6n)
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.op
.tran 10p 4n
.end
EOF
FAULT_PLAN='newton@warm,newton@plain,newton@gmin,newton@source'
if cargo run -q --release -p vls-cli --bin vls-spice -- \
    "$FAULT_DECK" --fault-plan "$FAULT_PLAN" --seed 0xf5 \
    2> "$CHARLIB_TMP/fault_err.txt"; then
    echo "fault-plan run unexpectedly succeeded" >&2
    exit 1
fi
grep -q "replay:" "$CHARLIB_TMP/fault_err.txt"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    "$FAULT_DECK" --fault-plan "$FAULT_PLAN" --seed 0xf5 --retry 3 \
    | grep -q "recovered at escalation rung"

# The check leg: clippy scoped to the checker crate (it is the newest
# surface and must stay warning-free on its own), the chip-scale smoke
# benchmark (clean 60/240-instance floorplans, worker-count byte
# identity, 1.5x hierarchical speedup floor, all five MSV rules on the
# mutated chip), then a CLI baseline
# round-trip: record the fingerprints of a known-bad deck (exit 1),
# re-check against the recording and the gate must pass with the
# findings suppressed.
echo "==> cargo clippy -p vls-check (deny warnings)"
cargo clippy -p vls-check --all-targets -- -D warnings

echo "==> check_scale --smoke (release, speedup floor + baseline round trip)"
cargo run -q --release -p vls-bench --bin check_scale -- \
    --smoke --out "$CHARLIB_TMP/check_smoke.json"

echo "==> vls-spice check baseline round trip"
CHECK_DECK="$CHARLIB_TMP/check_baseline.sp"
cat > "$CHECK_DECK" <<'EOF'
ci baseline deck
V1 a 0 1.2
V2 a 0 1.0
R1 a 0 1k
.op
.end
EOF
if cargo run -q --release -p vls-cli --bin vls-spice -- \
    check "$CHECK_DECK" --record-baseline "$CHARLIB_TMP/check_base.json" \
    > /dev/null; then
    echo "check unexpectedly passed while recording the baseline" >&2
    exit 1
fi
cargo run -q --release -p vls-cli --bin vls-spice -- \
    check "$CHECK_DECK" --baseline "$CHARLIB_TMP/check_base.json" \
    | grep -q "suppressed"

# The serve leg: clippy scoped to the daemon crate, the protocol and
# soak suites on one worker and at default parallelism (the soak
# demands byte-identical bodies and balanced counters either way),
# the release-mode load generator with its 500-QPS floor (reusing the
# smoke artifact built above; its result goes to the CI temp directory,
# so the committed full-mode BENCH_serve.json stays as it is), then a CLI
# smoke: validate the deployment with --check-config, boot a real
# daemon on an ephemeral port, drive it over the wire with the load
# generator's attach probe, and require a clean shutdown.
echo "==> cargo clippy -p vls-serve (deny warnings)"
cargo clippy -p vls-serve --all-targets -- -D warnings

echo "==> cargo test (serve protocol + soak, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test serve_api --test serve_soak
cargo test -q --test serve_api --test serve_soak

echo "==> serve_qps --smoke (release, 500-QPS floor enforced)"
cargo run -q --release -p vls-bench --bin serve_qps -- \
    --smoke --lib "$CHARLIB_TMP/smoke.json" --out "$CHARLIB_TMP/serve_qps_smoke.json"

echo "==> vls-spice serve smoke (check-config, boot, attach probe, clean shutdown)"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    serve --lib "$CHARLIB_TMP/smoke.json" --check-config \
    | grep -q "serve config: OK"
SERVE_LOG="$CHARLIB_TMP/serve.log"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    serve --lib "$CHARLIB_TMP/smoke.json" --port 0 > "$SERVE_LOG" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^vls-serve listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "daemon never reported its address" >&2; exit 1; }
cargo run -q --release -p vls-bench --bin serve_qps -- \
    --attach "$SERVE_ADDR" --shutdown
wait "$SERVE_PID"
grep -q "clean shutdown" "$SERVE_LOG"

# The opt leg: clippy scoped to the optimizer crate, the regression
# suite on one worker and at default parallelism (the outcome —
# trajectory, accounting, verdicts, rendered JSON — must be
# bit-identical either way), then the release-mode convergence bench
# with smoke sizing: it enforces the evaluation budget, the accepted
# optimum's surrogate-vs-exact gap tolerance and the 50x per-eval
# speedup floor.
echo "==> cargo clippy -p vls-opt (deny warnings)"
cargo clippy -p vls-opt --all-targets -- -D warnings

echo "==> cargo test (opt regression, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test opt_regression
cargo test -q --test opt_regression

echo "==> opt_convergence --smoke (release, budget + gap + 50x floors enforced)"
cargo run -q --release -p vls-bench --bin opt_convergence -- \
    --smoke --out "$CHARLIB_TMP/opt_smoke.json"

# The structured-solve leg: clippy scoped to the numerics crate (the
# ordering and Schur machinery live there and must stay warning-free
# on their own), the golden suite on one worker and at default
# parallelism (island solves must be bit-identical at any worker
# count), then the release-mode scaling smoke: flat-LU baseline vs
# island hot path with the 1.5x floor at 400 unknowns, engine-leg
# DC + transient through the Islands path.
echo "==> cargo clippy -p vls-num (deny warnings)"
cargo clippy -p vls-num --all-targets -- -D warnings

echo "==> cargo test (solve_scale golden, VLS_JOBS=1 and default jobs)"
VLS_JOBS=1 cargo test -q --test solve_scale
cargo test -q --test solve_scale

echo "==> solve_scale --smoke (release, speedup floor + engine leg enforced)"
cargo run -q --release -p vls-bench --bin solve_scale -- \
    --smoke --out "$CHARLIB_TMP/solve_smoke.json"

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

echo "CI green."
