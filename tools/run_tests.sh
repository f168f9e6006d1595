#!/usr/bin/env bash
# Build the simulator and run the full test suite, optionally under
# AddressSanitizer + UndefinedBehaviorSanitizer.
#
#   tools/run_tests.sh               # regular RelWithDebInfo build
#   tools/run_tests.sh --sanitize    # ASan+UBSan build in build-asan/
#   tools/run_tests.sh --tsan        # TSan build in build-tsan/ (the
#                                    # threaded code: Coordinator)
#   tools/run_tests.sh --bench-smoke # + every bench diffed against
#                                    # the committed bench/baseline/
#   tools/run_tests.sh --chaos-smoke # + bounded-seed chaos-soak run
#   tools/run_tests.sh -R Staging    # extra args forwarded to ctest
#
# --sanitize (or --tsan) and --bench-smoke / --chaos-smoke compose
# (in that order): the bench baseline and chaos-soak runs then execute
# under the sanitizers too, and must still match the baseline.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
cmake_args=()
bench_smoke=0
chaos_smoke=0

if [[ "${1:-}" == "--sanitize" ]]; then
    shift
    build="$repo/build-asan"
    cmake_args+=(-DAQUA_SANITIZE=ON)
    # Death tests fork; keep ASan quiet about intentional aborts.
    export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0}"
elif [[ "${1:-}" == "--tsan" ]]; then
    shift
    build="$repo/build-tsan"
    cmake_args+=(-DAQUA_TSAN=ON)
fi
if [[ "${1:-}" == "--bench-smoke" ]]; then
    shift
    bench_smoke=1
fi
if [[ "${1:-}" == "--chaos-smoke" ]]; then
    shift
    chaos_smoke=1
fi

cmake -B "$build" -S "$repo" "${cmake_args[@]}"
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" "$@"

if [[ "$bench_smoke" == 1 ]]; then
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    "$repo/tools/bench_baseline.sh" "$build" "$out/bench"
    diff -r "$repo/bench/baseline" "$out/bench"
fi

if [[ "$chaos_smoke" == 1 ]]; then
    (cd "$build" && ./bench/abl_chaos_soak --smoke)
fi
