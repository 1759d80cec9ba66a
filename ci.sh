#!/usr/bin/env bash
# CI pipeline, runnable whole or as one suite (the GitHub workflow fans the
# suites out as matrix jobs with per-job ccache keys):
#
#   ./ci.sh [suite] [jobs]      suite defaults to `all`; a numeric first
#   ./ci.sh [jobs]              argument still means jobs (back-compat)
#
# Suites:
#   tier1  — Release build + full ctest
#   bench  — bench smokes, the Table 2 DS row's column-equals-rows check,
#            and the regression gate (vs BENCH_baseline.json)
#   rank   — -DHTAP_LOCK_RANK=ON: full ctest under the runtime lock-order
#            checker, including the lock_rank death tests
#   asan   — ASan+UBSan over the memory-heavy executor/join/spill tests,
#            the EBR/OLC concurrency tests, Value's ownership tests, the
#            delta merge (rows move out of the drained entries), the delta
#            append (rows move out of the commit's events), the disk heap
#            (records are written into pooled pages in place), (c)'s
#            version cache (evicted versions are freed by the GC step and
#            restored by writers), the CH-benCHmark load and scans on
#            every preset (packed MVCC versions own their strings;
#            mvcc_test checks each free path) and the query runner's one
#            batch pipeline (query_runner_test, optimizer_test)
#   tsan   — TSan over the concurrency tests (zero suppressions), including
#            the disk heap (TP reads race commits' writes), (c)'s version
#            cache (readers re-check a chain after reading its image
#            outside the latch) and the CH queries on
#            every preset (the row side's batch source runs key-range
#            morsels on the AP pool)
#   static — clang thread-safety build (-DHTAP_THREAD_SAFETY=ON, -Werror)
#            — skipped with a notice when clang++ is not installed
#   tidy   — clang-tidy over every first-party TU — skipped with a notice
#            when clang-tidy is not installed
#   lint   — scripts/htap_lint.py project-invariant pass (concurrency
#            discipline, EBR pin safety, rank-table drift) plus its fixture
#            selftest — skipped with a notice when python3 is not installed
#   all    — everything above plus the temp-file leak check (also run after
#            `bench`)
#
# Sanitizer test output is additionally scraped for report markers
# (ThreadSanitizer:, ERROR: AddressSanitizer, runtime error:) so a report
# that does not change the exit code — e.g. under halt_on_error=0 or an
# exitcode-swallowing wrapper — still fails the suite.
# Failures are accumulated per suite (not fail-fast) and the failing tree
# is named in the summary; any failure exits nonzero.
set -euo pipefail
cd "$(dirname "$0")"

SUITE="all"
JOBS="$(nproc)"
if [[ $# -ge 1 ]]; then
  if [[ "$1" =~ ^[0-9]+$ ]]; then
    JOBS="$1"
  else
    SUITE="$1"
    [[ $# -ge 2 ]] && JOBS="$2"
  fi
fi

FAILED_SUITES=()

# run_sanitized <tree> <binary> [args...] — runs one test binary, recording
# (instead of aborting on) failure so every suite reports, tees the output
# to build-<tree>/logs/, and fails on sanitizer report markers even when
# the process exits 0.
run_sanitized() {
  local tree="$1" bin="$2"; shift 2
  local name; name="$(basename "$bin")"
  local log="build-$tree/logs/$name.log"
  mkdir -p "build-$tree/logs"
  echo "-- $name ($tree)"
  local ok=0
  "$@" 2>&1 | tee "$log" || ok=$?
  if ((ok != 0)); then
    echo "FAIL: $name in $tree tree (exit $ok)" >&2
    FAILED_SUITES+=("$tree/$name")
  elif grep -qE 'ThreadSanitizer:|ERROR: AddressSanitizer|ERROR: LeakSanitizer|runtime error:' "$log"; then
    echo "FAIL: $name in $tree tree (sanitizer report at exit 0, see $log)" >&2
    FAILED_SUITES+=("$tree/$name-report")
  fi
}

# Grace-join spill runs and the bench harnesses' scratch databases
# (bench/bench_util.h MakeDb) land in the system temp dir (unless
# overridden); start from a clean slate so the leak check below is
# meaningful.
SPILL_DIR="${TMPDIR:-/tmp}"
rm -f "$SPILL_DIR"/htap-spill-*
rm -rf "$SPILL_DIR"/htap_bench_*

suite_tier1() {
  echo "== tier-1: build + ctest =="
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

suite_bench() {
  echo "== bench smoke: parallel join + grace spill (pair identity checks) =="
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target bench_parallel_join
  if ! ./build/bench/bench_parallel_join smoke | tee build/bench_smoke.log
  then
    echo "FAIL: parallel join smoke (join pairs differ from expected)" >&2
    FAILED_SUITES+=("bench/parallel-join")
  fi

  echo "== bench smoke: vectorized scan (compressed-domain vs decode, 3x bar) =="
  cmake --build build -j "$JOBS" --target bench_vectorized_scan
  if ! ./build/bench/bench_vectorized_scan smoke | tee -a build/bench_smoke.log
  then
    echo "FAIL: vectorized scan smoke (3x acceptance bar)" >&2
    FAILED_SUITES+=("bench/vectorized-scan")
  fi

  echo "== bench smoke: TP scaling (OLC vs coarse latch, host-aware bar) =="
  cmake --build build -j "$JOBS" --target bench_tp_scaling
  # The OLC-vs-coarse bar is enforced inside the bench (3x with >= 4 cores,
  # 2x on smaller hosts); the content-hash identity check always hard-fails.
  if ! ./build/bench/bench_tp_scaling smoke | tee -a build/bench_smoke.log
  then
    echo "FAIL: tp scaling smoke (OLC-vs-coarse bar or identity check)" >&2
    FAILED_SUITES+=("bench/tp-scaling")
  fi

  echo "== bench smoke: scale-out cluster (determinism + Table 1 curves) =="
  cmake --build build -j "$JOBS" --target bench_scaleout
  # Run twice and byte-compare: the sim is virtual-time-deterministic, so any
  # diff means nondeterminism crept into the cluster model. The run itself
  # fails if a config loses committed work or fails to converge.
  if ./build/bench/bench_scaleout smoke > build/bench_scaleout_1.log &&
     ./build/bench/bench_scaleout smoke > build/bench_scaleout_2.log &&
     cmp -s build/bench_scaleout_1.log build/bench_scaleout_2.log; then
    cat build/bench_scaleout_1.log | tee -a build/bench_smoke.log
  else
    echo "FAIL: scaleout smoke (nondeterministic output or lost work)" >&2
    diff build/bench_scaleout_1.log build/bench_scaleout_2.log >&2 || true
    FAILED_SUITES+=("bench/scaleout")
  fi

  echo "== bench smoke: Figure 1 dataflow on all four presets =="
  # Opens one MakeDb scratch database per architecture; the leak check
  # after this suite fails if any of their data dirs is left behind.
  cmake --build build -j "$JOBS" --target bench_fig1_dataflow
  if ! ./build/bench/bench_fig1_dataflow > build/bench_fig1.log; then
    echo "FAIL: fig1 dataflow bench" >&2
    FAILED_SUITES+=("bench/fig1-dataflow")
  fi

  echo "== bench: Table 2 DS row (column table equals the row store) =="
  # Each technique's column table is compared with the row store after its
  # sync; the bench exits non-zero on a mismatch.
  cmake --build build -j "$JOBS" --target bench_table2_ds
  if ! ./build/bench/bench_table2_ds > build/bench_table2_ds.log; then
    cat build/bench_table2_ds.log >&2
    echo "FAIL: table2 DS bench (column table differs from the row store)" >&2
    FAILED_SUITES+=("bench/table2-ds")
  fi

  echo "== bench regression gate (vs BENCH_baseline.json) =="
  # Accumulated, not fail-fast: a throughput blip on a noisy runner must not
  # mask correctness-suite results below.
  if ! python3 scripts/check_bench_regression.py build/bench_smoke.log \
      BENCH_baseline.json; then
    echo "FAIL: bench regression gate" >&2
    FAILED_SUITES+=("bench/regression-gate")
  fi
}

suite_rank() {
  echo "== lock-rank: full ctest under the runtime lock-order checker =="
  cmake -B build-rank -S . -DHTAP_LOCK_RANK=ON > /dev/null
  cmake --build build-rank -j "$JOBS"
  if ! ctest --test-dir build-rank --output-on-failure -j "$JOBS"; then
    echo "FAIL: ctest in lock-rank tree" >&2
    FAILED_SUITES+=("rank/ctest")
  fi
}

suite_asan() {
  echo "== asan+ubsan: executor/join/spill + EBR/OLC + Value ownership + merge + delta + heap + version cache + CH load + query runner tests =="
  local ASAN_TESTS=(executor_test parallel_scan_test parallel_join_test
                    grace_join_test columnar_test vectorized_exec_test
                    vectorized_join_test encoding_property_test
                    thread_safety_regression_test database_test
                    ebr_test tp_scaling_test mvcc_test wal_test
                    sim_test raft_test dist_db_test types_test sync_test
                    delta_test disk_row_store_test chbench_test
                    version_cache_test query_runner_test optimizer_test)
  cmake -B build-asan -S . -DHTAP_ASAN=ON > /dev/null
  cmake --build build-asan -j "$JOBS" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    run_sanitized asan "$t" "./build-asan/tests/$t" --gtest_brief=1
  done
}

suite_tsan() {
  echo "== tsan: concurrency tests =="
  local TSAN_TESTS=(parallel_scan_test parallel_join_test grace_join_test
                    columnar_test executor_test common_test sync_test
                    scheduler_test vectorized_exec_test vectorized_join_test
                    thread_safety_regression_test database_test
                    ebr_test tp_scaling_test mvcc_test wal_test
                    sim_test raft_test dist_db_test types_test
                    disk_row_store_test version_cache_test chbench_test)
  cmake -B build-tsan -S . -DHTAP_TSAN=ON > /dev/null
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    run_sanitized tsan "$t" "./build-tsan/tests/$t" --gtest_brief=1
  done
}

suite_static() {
  echo "== clang thread-safety analysis (-Werror=thread-safety) =="
  if command -v clang++ > /dev/null 2>&1; then
    CC=clang CXX=clang++ cmake -B build-ts -S . -DHTAP_THREAD_SAFETY=ON \
      > /dev/null
    if ! cmake --build build-ts -j "$JOBS"; then
      echo "FAIL: thread-safety analysis in build-ts tree" >&2
      FAILED_SUITES+=("ts/build")
    fi
  else
    echo "SKIPPED: clang++ not installed (the GitHub workflow runs this gate)"
  fi
}

suite_tidy() {
  echo "== clang-tidy (bugprone-*, concurrency-*, performance-*) =="
  if command -v clang-tidy > /dev/null 2>&1; then
    # Use the thread-safety tree's compile_commands.json when clang built it
    # above, else the Release tree's.
    local TIDY_BUILD=build
    [[ -f build-ts/compile_commands.json ]] && TIDY_BUILD=build-ts
    if [[ ! -f "$TIDY_BUILD/compile_commands.json" ]]; then
      cmake -B build -S . > /dev/null
    fi
    # First-party TUs minus suppressed paths (.clang-tidy-suppressions:
    # substring-per-line, comments/blank lines ignored; third-party only).
    local TIDY_FILES
    mapfile -t TIDY_FILES < <(
      find src tests bench examples -name '*.cc' |
        grep -v -F -f <(grep -v '^\s*#' .clang-tidy-suppressions |
                        grep -v '^\s*$' || true) || true
    )
    if ! printf '%s\n' "${TIDY_FILES[@]}" |
         xargs -P "$JOBS" -n 8 clang-tidy -p "$TIDY_BUILD" --quiet; then
      echo "FAIL: clang-tidy findings (tidy tree: $TIDY_BUILD)" >&2
      FAILED_SUITES+=("tidy/clang-tidy")
    fi
  else
    echo "SKIPPED: clang-tidy not installed (the GitHub workflow runs this gate)"
  fi
}

suite_lint() {
  echo "== htap-lint: project invariants (DESIGN.md section 16) =="
  if command -v python3 > /dev/null 2>&1; then
    if ! python3 scripts/lint_selftest.py; then
      echo "FAIL: lint selftest (a check no longer fires on its fixture)" >&2
      FAILED_SUITES+=("lint/selftest")
    fi
    if ! python3 scripts/htap_lint.py --ci; then
      echo "FAIL: htap-lint findings (run scripts/htap_lint.py locally)" >&2
      FAILED_SUITES+=("lint/htap-lint")
    fi
  else
    echo "SKIPPED: python3 not installed (the GitHub workflow runs this gate)"
  fi
}

suite_spill_check() {
  echo "== temp-file leak check (spill runs, bench scratch databases) =="
  local leaks
  leaks=$(find "$SPILL_DIR" -maxdepth 1 \( -name 'htap-spill-*' -o \
          -name 'htap_bench_*' \) 2>/dev/null || true)
  if [[ -n "$leaks" ]]; then
    echo "FAIL: leaked temp files:" >&2
    echo "$leaks" >&2
    FAILED_SUITES+=("spill/leak-check")
  else
    echo "no leaked htap-spill-* files or htap_bench_* dirs"
  fi
}

case "$SUITE" in
  tier1)  suite_tier1 ;;
  bench)  suite_bench; suite_spill_check ;;
  rank)   suite_rank ;;
  asan)   suite_asan ;;
  tsan)   suite_tsan ;;
  static) suite_static ;;
  tidy)   suite_tidy ;;
  lint)   suite_lint ;;
  all)
    suite_tier1
    suite_bench
    suite_rank
    suite_asan
    suite_tsan
    suite_static
    suite_tidy
    suite_lint
    suite_spill_check
    ;;
  *)
    echo "unknown suite: $SUITE (want all|tier1|bench|rank|asan|tsan|static|tidy|lint)" >&2
    exit 2
    ;;
esac

if ((${#FAILED_SUITES[@]} > 0)); then
  echo "CI FAILED in: ${FAILED_SUITES[*]}" >&2
  exit 1
fi
echo "CI OK"
