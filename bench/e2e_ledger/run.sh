#!/usr/bin/env bash
# Builds the e2e_ledger harness (Release, into build-e2e/ at the repository
# root) and runs one workload. Every argument is passed to the harness:
#
#   bench/e2e_ledger/run.sh --workload sparse_wordcount --seed 1 \
#       --seconds 20 --trace 0 [--scheduler fifo|mrs1|s3]
#
# Build output goes to stderr; stdout is the harness's report, whose last
# line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: need CMakeLists.txt and src/ at $root" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "$root" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DS3_BUILD_TESTS=OFF -DS3_BUILD_EXAMPLES=OFF -DS3_BUILD_BENCHMARKS=OFF \
      -DCMAKE_PROJECT_INCLUDE="$here/attach.cmake"
  fi
  cmake --build "$build" --target e2e_ledger -j "$jobs"
} >&2

sha=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null 2>&1; then
  sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

export S3_TRACE=0
exec "$build/e2e_ledger" --git-sha "$sha" "$@"
