#!/usr/bin/env bash
# Writes every paper table, figure and study this repository
# regenerates, a smoke characterization artifact and the stdout of each
# root example, into <out_dir>: one file per output, plus the
# full-precision CSV of each binary that writes one (table1, figure5,
# figure8, figure9), where moves below the printed digits show. The
# outputs are deterministic (serial runner
# where a run shards), so two commits that should compute the same
# answers can be compared byte for byte:
#
#   scripts/paper_outputs.sh /tmp/before   # at one commit
#   scripts/paper_outputs.sh /tmp/after    # at the other
#   diff -r /tmp/before /tmp/after
#
# Builds release once (into CARGO_TARGET_DIR when set) and runs the
# built binaries directly. Takes a few minutes.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <out_dir>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
mkdir -p "$1"
out="$(cd "$1" && pwd)"

cargo build --release -q -p vls-bench -p vls-cli
cargo build --release -q -p sstvs --examples
bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"

run() {
    local name="$1"
    shift
    echo "==> $name" >&2
    "$bin/$@" > "$out/$name.txt"
}

run table1 table1 --csv "$out/table1.csv"
run table2 table2
run table3 table3 --trials 200 --jobs 1
run table4 table4 --trials 200 --jobs 1
run figure5 figure5 --csv "$out/figure5.csv"
run figure8 figure8 --jobs 1 --csv "$out/figure8.csv"
run figure9 figure9 --jobs 1 --csv "$out/figure9.csv"
run robustness robustness --trials 64
run worst_case worst_case
run ablations ablations
run corners corners
run prior_art prior_art
run area area

# The smoke characterization: the artifact and what the command prints.
# Its stdout names the artifact path, so it is written from inside the
# output directory with a relative path.
echo "==> characterize --smoke" >&2
rm -f "$out/charlib_smoke.json"
(cd "$out" && "$bin/vls-spice" characterize --smoke --out charlib_smoke.json \
    > characterize_smoke.txt)

# The six root examples, one file each. They cover what the tables do
# not: `frequency_response` runs the AC analysis on a MOSFET stage with
# its Meyer capacitances, and `spice_deck` the deck path. VLS_JOBS=1
# fixes the worker count `monte_carlo_yield` prints.
for ex in dvs_domain_crossing frequency_response monte_carlo_yield \
    multi_voltage_soc quickstart spice_deck; do
    echo "==> example $ex" >&2
    VLS_JOBS=1 "$bin/examples/$ex" > "$out/example_$ex.txt"
done
