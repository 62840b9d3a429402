#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload rubis-ro --seed 1 --seconds 12 --trace 0
# Build output stays inside the checkout: dune's cache is off and the
# compiler's temporary files go to .bench_build/tmp.
set -euo pipefail
export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
