#!/usr/bin/env bash
# Full pre-merge check matrix.
#
#   scripts/check.sh                 tier-1 (warnings-as-errors build + ctest)
#                                    then Release build + bench smoke
#   scripts/check.sh --skip-release  tier-1 only
#   scripts/check.sh --asan          ASan build + ctest   (build-asan/)
#   scripts/check.sh --ubsan         UBSan build + ctest  (build-ubsan/)
#   scripts/check.sh --tsan          TSan build + ctest   (build-tsan/)
#   scripts/check.sh --tidy          clang-tidy over every TU (build-tidy/)
#   scripts/check.sh --lint          build + run s3lint over the whole tree
#   scripts/check.sh --lockcheck     build + run s3lockcheck (whole-project
#                                    lock-order, rank-order, and
#                                    blocking-under-lock analysis) over src/
#   scripts/check.sh --viewcheck     build + run s3viewcheck (whole-project
#                                    arena/view lifetime and escape
#                                    analysis: dangling views, append-after-
#                                    read, views escaping their arena,
#                                    cross-thread view capture) over src/
#   scripts/check.sh --trace         trace smoke: capture a Chrome trace from
#                                    the wordcount example, validate it with
#                                    s3trace, and fail if enabling the tracer
#                                    slows BM_MapRunnerEndToEnd by >5%
#   scripts/check.sh --chaos         failure-domain matrix: run the chaos
#                                    suite plain and under ASan, then the
#                                    chaos_recovery example over a fixed seed
#                                    matrix with s3trace --validate on each
#                                    captured trace
#   scripts/check.sh --bench-smoke   run the locality-engine micro-benchmarks
#                                    (pinned pool, tokenizer, threaded map
#                                    path, prefix-wordcount map task) once
#                                    each, fail on zero throughput
#                                    or a benchmark error, and re-check the
#                                    5% trace-overhead budget
#   scripts/check.sh --flight        flight-recorder smoke: crash the
#                                    s3crashtest fixture three ways (check
#                                    failure, lock-rank inversion, stale
#                                    view), require each dump to parse via
#                                    `s3trace postmortem` and to name the
#                                    in-flight batch, then fail if the
#                                    always-on recorder slows
#                                    BM_MapRunnerEndToEnd by >2%
#   scripts/check.sh --storm         admission-storm matrix: run the 24-seed
#                                    arrival-storm suite plain and under
#                                    TSan, then drive the s3d_service
#                                    example at 4x overload and leave its
#                                    admission-latency Prometheus snapshot
#                                    in build/storm-admission.prom (CI
#                                    uploads it as an artifact)
#   scripts/check.sh --ledger [--base REF] [--pairs N] [--workload W]...
#                    [--seconds S] [--seed N]
#                                    end-to-end A/B: check out REF (default:
#                                    the merge-base with main) in a temporary
#                                    git worktree, build it and this checkout
#                                    (working tree included) each with its own
#                                    bench/e2e_ledger/run.sh into its own
#                                    build-e2e/, run N alternating base/change
#                                    pairs (default 10) of each workload
#                                    (default: every BENCHMARK.json workload)
#                                    at S seconds (default 10), then
#                                    bench/e2e_ledger/compare.py; fails on a
#                                    REGRESSION or an incorrect run. Results
#                                    stay in build-ledger/; the worktree is
#                                    removed on exit. Not part of --all.
#   scripts/check.sh --all           tier-1 + lint + lockcheck
#                                    + viewcheck + asan
#                                    + ubsan + tsan
#                                    + tidy + format check + Release smoke
#                                    + trace smoke + bench smoke + flight
#                                    smoke + chaos matrix + storm matrix
#
# Sanitizer modes build tests only (benches/examples are covered by the
# default mode) so the instrumented builds stay fast. --tidy and the format
# check degrade to a notice when the LLVM binaries are not installed.
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_RELEASE=0
declare -a MODES=()
LEDGER_BASE=""
LEDGER_PAIRS=10
LEDGER_SECONDS=10
LEDGER_SEED=1
declare -a LEDGER_WORKLOADS=()
need_value() {  # <flag> <remaining argument count>
  if [[ "$2" -lt 2 ]]; then
    echo "check.sh: $1 needs a value" >&2
    exit 2
  fi
}
while [[ $# -gt 0 ]]; do
  arg="$1"
  case "$arg" in
    --ledger) MODES+=(ledger) ;;
    --base) need_value "$arg" $#; LEDGER_BASE="$2"; shift ;;
    --pairs) need_value "$arg" $#; LEDGER_PAIRS="$2"; shift ;;
    --seconds) need_value "$arg" $#; LEDGER_SECONDS="$2"; shift ;;
    --seed) need_value "$arg" $#; LEDGER_SEED="$2"; shift ;;
    --workload) need_value "$arg" $#; LEDGER_WORKLOADS+=("$2"); shift ;;
    --skip-release) SKIP_RELEASE=1 ;;
    --asan) MODES+=(asan) ;;
    --ubsan) MODES+=(ubsan) ;;
    --tsan) MODES+=(tsan) ;;
    --tidy) MODES+=(tidy) ;;
    --lint) MODES+=(lint) ;;
    --lockcheck) MODES+=(lockcheck) ;;
    --viewcheck) MODES+=(viewcheck) ;;
    --trace) MODES+=(trace) ;;
    --chaos) MODES+=(chaos) ;;
    --bench-smoke) MODES+=(bench-smoke) ;;
    --flight) MODES+=(flight) ;;
    --storm) MODES+=(storm) ;;
    --all) MODES+=(tier1 lint lockcheck viewcheck asan ubsan tsan tidy format release trace bench-smoke flight chaos storm) ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
  shift
done
# No explicit mode: the classic tier-1 (+ Release unless skipped) flow.
if [[ ${#MODES[@]} -eq 0 ]]; then
  MODES=(tier1)
  [[ "$SKIP_RELEASE" == 1 ]] || MODES+=(release)
fi

bench_median_ns() {  # <S3_TRACE value> -> median cpu time (ns) on stdout
  S3_TRACE="$1" ./build/bench/micro_benchmarks \
    --benchmark_filter='^BM_MapRunnerEndToEnd/4$' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_format=csv 2> /dev/null \
    | awk -F, '/_median/ { print $4; exit }'
}

bench_median_flight_ns() {  # <S3_FLIGHT value> -> median cpu time (ns)
  # Release build: the 2% always-on budget is a claim about optimized
  # builds; debug timings include unoptimized atomics and would gate on
  # a cost no deployment pays.
  S3_FLIGHT="$1" S3_TRACE=0 ./build-release/bench/micro_benchmarks \
    --benchmark_filter='^BM_MapRunnerEndToEnd/4$' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_format=csv 2> /dev/null \
    | awk -F, '/_median/ { print $4; exit }'
}

run_ledger() {
  local base="$LEDGER_BASE"
  if [[ -z "$base" ]]; then
    if ! base="$(git merge-base HEAD main 2> /dev/null)"; then
      echo "check.sh: no merge-base with main; pass --base REF" >&2
      exit 2
    fi
  fi
  base="$(git rev-parse --verify "${base}^{commit}")"
  if [[ ${#LEDGER_WORKLOADS[@]} -eq 0 ]]; then
    mapfile -t LEDGER_WORKLOADS < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
  fi
  local workdir
  workdir="$(mktemp -d)"
  local tree="${workdir}/base"
  # The trap runs at exit, after this function's locals are gone.
  LEDGER_TREE="$tree"
  LEDGER_WORKDIR="$workdir"
  trap 'git worktree remove --force "$LEDGER_TREE" > /dev/null 2>&1 || true
        git worktree prune
        rm -rf "$LEDGER_WORKDIR"' EXIT
  git worktree add --detach "$tree" "$base" > /dev/null
  local out="build-ledger"
  rm -rf "$out"
  mkdir -p "$out"
  echo "=== ledger: base $(git rev-parse --short=12 "$base") vs this" \
    "checkout, ${LEDGER_PAIRS} pairs x ${LEDGER_WORKLOADS[*]}" \
    "at ${LEDGER_SECONDS}s, seed ${LEDGER_SEED} ==="
  local -a parents=() changes=()
  local workload i side first second file
  for workload in "${LEDGER_WORKLOADS[@]}"; do
    for ((i = 1; i <= LEDGER_PAIRS; ++i)); do
      # Alternate which side runs first: base, change, change, base, ...
      if (( i % 2 == 1 )); then first=base; second=change; else
        first=change; second=base; fi
      for side in "$first" "$second"; do
        file="${out}/${workload}-${i}-${side}.out"
        local root="."
        [[ "$side" == base ]] && root="$tree"
        bash "${root}/bench/e2e_ledger/run.sh" --workload "$workload" \
          --seed "$LEDGER_SEED" --seconds "$LEDGER_SECONDS" --trace 0 \
          > "$file" 2> "${file%.out}.log"
        if [[ "$side" == base ]]; then parents+=("$file"); else
          changes+=("$file"); fi
      done
      echo "ledger: ${workload} pair ${i}/${LEDGER_PAIRS} done"
    done
  done
  # compare.py exits 1 on a REGRESSION or an incorrect run; pipefail and
  # set -e carry that out as this script's status.
  python3 bench/e2e_ledger/compare.py --parent "${parents[@]}" \
    --change "${changes[@]}" | tee "${out}/compare.txt"
}

run_sanitized() {  # <name> <S3_SANITIZE value>
  local name="$1" value="$2"
  echo "=== ${name}: build + ctest (S3_SANITIZE=${value}) ==="
  cmake -B "build-${name}" -S . \
    -DS3_SANITIZE="${value}" \
    -DS3_WARNINGS_AS_ERRORS=ON \
    -DS3_BUILD_BENCHMARKS=OFF -DS3_BUILD_EXAMPLES=OFF
  cmake --build "build-${name}" -j
  (cd "build-${name}" && ctest --output-on-failure -j)
}

for mode in "${MODES[@]}"; do
  case "$mode" in
    tier1)
      echo "=== tier-1: configure + build (warnings as errors) + ctest ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j
      (cd build && ctest --output-on-failure -j)
      ;;
    asan) run_sanitized asan address ;;
    ubsan) run_sanitized ubsan undefined ;;
    tsan) run_sanitized tsan thread ;;
    tidy)
      echo "=== clang-tidy over all TUs ==="
      if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "check.sh: clang-tidy not found; skipping (install LLVM)"
        continue
      fi
      cmake -B build-tidy -S . -DS3_ENABLE_CLANG_TIDY=ON \
        -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build-tidy -j
      echo "check.sh: clang-tidy reported zero errors"
      ;;
    lint)
      echo "=== s3lint: project-specific static analysis ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target s3lint
      ./build/tools/s3lint --root=.
      ;;
    lockcheck)
      echo "=== s3lockcheck: whole-project lock-order analysis ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target s3lockcheck
      ./build/tools/s3lockcheck --root=.
      ;;
    viewcheck)
      echo "=== s3viewcheck: whole-project arena/view lifetime analysis ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target s3viewcheck
      ./build/tools/s3viewcheck --root=.
      ;;
    format)
      scripts/format.sh --check
      ;;
    trace)
      echo "=== trace: capture + validate a Chrome trace from the example ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j \
        --target shared_scan_wordcount s3trace micro_benchmarks
      trace_out="build/trace-smoke.json"
      ./build/examples/shared_scan_wordcount --trace-out="${trace_out}"
      ./build/tools/s3trace --validate "${trace_out}"
      ./build/tools/s3trace "${trace_out}"
      echo "=== trace: BM_MapRunnerEndToEnd overhead, traced vs untraced ==="
      untraced="$(bench_median_ns 0)"
      traced="$(bench_median_ns 1)"
      awk -v off="$untraced" -v on="$traced" 'BEGIN {
        pct = (on - off) / off * 100.0
        printf "untraced median %.0f ns, traced median %.0f ns, ", off, on
        printf "overhead %+.2f%% (budget 5%%)\n", pct
        if (pct > 5.0) {
          print "check.sh: tracing overhead exceeds the 5% budget" \
            > "/dev/stderr"
          exit 1
        }
      }'
      ;;
    chaos)
      echo "=== chaos: failure-domain suite, plain + ASan ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target s3_chaos_tests chaos_recovery s3trace
      ./build/tests/s3_chaos_tests
      cmake -B build-asan -S . \
        -DS3_SANITIZE=address \
        -DS3_WARNINGS_AS_ERRORS=ON \
        -DS3_BUILD_BENCHMARKS=OFF -DS3_BUILD_EXAMPLES=OFF
      cmake --build build-asan -j --target s3_chaos_tests
      ./build-asan/tests/s3_chaos_tests
      echo "=== chaos: seeded recovery example + trace validation ==="
      for seed in 1 2 5 11 23; do
        trace_out="build/chaos-smoke-${seed}.json"
        # S3_CRASH_DIR: if a seeded run dies, its flight-recorder dump
        # lands in build/ where CI uploads it next to the traces.
        S3_CRASH_DIR=build ./build/examples/chaos_recovery \
          --seed="${seed}" --trace-out="${trace_out}"
        ./build/tools/s3trace --validate "${trace_out}"
      done
      ;;
    bench-smoke)
      echo "=== bench-smoke: locality-engine micro-benchmarks run once ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target micro_benchmarks
      # One pass over every new engine benchmark; CSV columns are
      # name,iterations,real_time,cpu_time,unit,bytes/s,items/s,label,err,...
      # Every row must report a positive throughput and no error. The CSV
      # reporter aborts on a run that mixes benchmarks with and without
      # user counters, so BM_MapRunnerPrefix (s_per_member) runs apart.
      for filter in \
        'BM_(PinnedPoolSubmit|Tokenize|MapRunnerEndToEndThreads|ShuffleSortAndGroup)' \
        'BM_MapRunnerPrefix'; do
        ./build/bench/micro_benchmarks --benchmark_filter="${filter}" \
          --benchmark_min_time=0.01 --benchmark_format=csv 2> /dev/null \
          || exit 1
      done \
        | awk -F, '
          /^"?BM_/ {
            rows++
            throughput = ($6 != "" ? $6 : $7) + 0
            if (throughput <= 0 || $9 != "") {
              printf "bench-smoke: %s reported no throughput\n", $1 \
                > "/dev/stderr"
              bad = 1
            }
          }
          END {
            if (rows == 0) {
              print "bench-smoke: benchmark filter matched nothing" \
                > "/dev/stderr"
              exit 1
            }
            printf "bench-smoke: %d benchmark rows, all positive\n", rows
            exit bad
          }'
      echo "=== bench-smoke: trace-overhead budget re-check ==="
      untraced="$(bench_median_ns 0)"
      traced="$(bench_median_ns 1)"
      awk -v off="$untraced" -v on="$traced" 'BEGIN {
        pct = (on - off) / off * 100.0
        printf "untraced median %.0f ns, traced median %.0f ns, ", off, on
        printf "overhead %+.2f%% (budget 5%%)\n", pct
        if (pct > 5.0) {
          print "check.sh: tracing overhead exceeds the 5% budget" \
            > "/dev/stderr"
          exit 1
        }
      }'
      ;;
    flight)
      echo "=== flight: induced crashes must produce parseable dumps ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j --target s3crashtest s3trace s3top
      cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build build-release -j --target micro_benchmarks
      rm -f build/s3-crash-*.txt
      for crash_mode in check lockrank view; do
        set +e
        S3_CRASH_DIR=build ./build/tools/s3crashtest "${crash_mode}" \
          2> /dev/null
        crash_status=$?
        set -e
        if [[ "${crash_status}" -eq 0 ]]; then
          echo "flight: ${crash_mode} skipped (validator compiled out)"
          continue
        fi
        dump="$(ls -t build/s3-crash-*.txt | head -1)"
        postmortem="build/postmortem-${crash_mode}.txt"
        ./build/tools/s3trace postmortem "${dump}" > "${postmortem}"
        # The witness: the dump must name the batch that was in flight.
        grep -q 'batch=42' "${postmortem}"
        echo "flight: ${crash_mode} crash -> ${dump} (parseable, batch=42)"
      done
      echo "=== flight: BM_MapRunnerEndToEnd overhead, recorder on vs off ==="
      # Interleaved min-of-medians: single medians swing +/-10% on noisy
      # hosts, which would make a 2% budget flaky. The min over alternating
      # runs estimates the quiet-machine cost of each configuration.
      flight_off=""
      flight_on=""
      for _ in 1 2 3; do
        off_run="$(bench_median_flight_ns 0)"
        on_run="$(bench_median_flight_ns 1)"
        flight_off="$(awk -v a="$flight_off" -v b="$off_run" \
          'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')"
        flight_on="$(awk -v a="$flight_on" -v b="$on_run" \
          'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')"
      done
      awk -v off="$flight_off" -v on="$flight_on" 'BEGIN {
        pct = (on - off) / off * 100.0
        printf "flight-off median %.0f ns, flight-on median %.0f ns, ", \
          off, on
        printf "overhead %+.2f%% (budget 2%%)\n", pct
        if (pct > 2.0) {
          print "check.sh: flight-recorder overhead exceeds the 2% budget" \
            > "/dev/stderr"
          exit 1
        }
      }'
      ;;
    storm)
      echo "=== storm: 24-seed arrival-storm matrix, plain ==="
      cmake -B build -S . -DS3_WARNINGS_AS_ERRORS=ON
      cmake --build build -j \
        --target s3_service_tests s3_storm_tests s3d_service s3top
      ./build/tests/s3_service_tests
      ./build/tests/s3_storm_tests
      echo "=== storm: s3d_service at 4x overload + admission snapshot ==="
      # The snapshot is the CI artifact: admission-latency quantiles plus
      # the per-tenant gauges, rendered by s3top for a human-readable log.
      ./build/examples/s3d_service --tenants=3 --arrival-rate=8 \
        --duration=6 --overload=4 \
        --snapshot-out=build/storm-admission.prom
      ./build/tools/s3top --once build/storm-admission.prom
      grep -q 's3_service_admission_latency_ns' build/storm-admission.prom
      echo "=== storm: service + storm suites under TSan ==="
      cmake -B build-tsan -S . \
        -DS3_SANITIZE=thread \
        -DS3_WARNINGS_AS_ERRORS=ON \
        -DS3_BUILD_BENCHMARKS=OFF -DS3_BUILD_EXAMPLES=OFF
      cmake --build build-tsan -j \
        --target s3_service_tests s3_storm_tests s3_tsan_stress_tests
      ./build-tsan/tests/s3_service_tests
      ./build-tsan/tests/s3_storm_tests
      ./build-tsan/tests/s3_tsan_stress_tests \
        --gtest_filter='TsanStressTest.Service*'
      ;;
    ledger) run_ledger ;;
    release)
      echo "=== Release build ==="
      cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build build-release -j
      echo "=== micro-benchmark smoke (hot-path benches must still run) ==="
      ./build-release/bench/micro_benchmarks \
        --benchmark_min_time=0.01 \
        --benchmark_filter='BM_(MapRunnerEndToEnd|HashCombine|SortedRunMerge|ShuffleSortAndGroup|SharedScanReader)'
      ;;
  esac
done

echo "=== check.sh: all green (${MODES[*]}) ==="
