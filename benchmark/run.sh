#!/usr/bin/env bash
# Build bwsim and the benchmark runner in Release mode, then run the
# benchmark from the repository root. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--smoke]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=benchmark/build

# Build output goes to stderr: stdout carries only the results.
{
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" -j4 --target bwsim bwsim_bench
} >&2

# Never search above the checkout for a repository.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
    git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/bwsim_bench" --bwsim "$build/bwsim/bwsim" --commit "$commit" "$@"
