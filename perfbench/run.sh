#!/usr/bin/env bash
# Build the benchmark and the subscale CLI from source, then run one
# workload from the repository root:
#
#   bash perfbench/run.sh --workload paper|circuits|tcad|serve --seed N \
#     --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe ./bin/subscale_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
