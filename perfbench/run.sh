#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hit_path --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), apart
# from the developer's _build; dune's shared cache is off so nothing is
# written outside the checkout. Build logs go to stderr: stdout carries
# only the benchmark's report, ending in its one-line JSON summary.
set -euo pipefail

build_dir=${CARGO_TARGET_DIR:-.bench_build}
export DUNE_CACHE=disabled

dune build --root . --build-dir "$build_dir" --display quiet \
  ./perfbench/perfbench.exe 1>&2

exec "$build_dir/default/perfbench/perfbench.exe" "$@"
