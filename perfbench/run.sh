#!/usr/bin/env bash
# Builds perfbench (Release) from this checkout, then runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload rounds-lstm-n1000 --seed 42 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

# Stamp: the commit when this is a git checkout, and a digest of src/.
commit=none
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)"
fi
export PERFBENCH_COMMIT="$commit"
PERFBENCH_SOURCE_SHA256="$(cd "$root" && find src -type f -print0 |
  LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_SOURCE_SHA256

cd "$root"
exec "$build/perfbench" "$@"
