#!/usr/bin/env bash
# Run every bench binary (micro-benchmarks excluded) in a scratch
# directory and collect each bench's stdout and BENCH_*.json into one
# output directory. The committed copy lives in bench/baseline/; a
# change that moves a modeled number must refresh it in the same commit.
#
#   tools/bench_baseline.sh <build-dir> <out-dir>
#
#   # check a build against the committed baseline
#   tools/bench_baseline.sh build "$tmp/out" && diff -r bench/baseline "$tmp/out"
#   # refresh the baseline
#   rm -rf bench/baseline && tools/bench_baseline.sh build bench/baseline
#
# Every bench gets --smoke; benches without a smoke mode ignore it.
# Host-dependent numbers (wall times, events/s) go to stderr, which is
# passed through, not captured. <out-dir> must be empty or absent.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <build-dir> <out-dir>" >&2
    exit 2
fi
build="$(cd "$1" && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
if [[ -n "$(ls -A "$out")" ]]; then
    echo "$0: $out is not empty" >&2
    exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

ran=0
for bin in "$build"/bench/*; do
    name="$(basename "$bin")"
    [[ -f "$bin" && -x "$bin" && "$name" != micro_* ]] || continue
    mkdir "$work/$name"
    if ! (cd "$work/$name" && "$bin" --smoke > "$out/$name.txt"); then
        echo "$0: $name failed" >&2
        exit 1
    fi
    for json in "$work/$name"/BENCH_*.json; do
        [[ -e "$json" ]] || continue
        if [[ -e "$out/$(basename "$json")" ]]; then
            echo "$0: $(basename "$json") written twice" >&2
            exit 1
        fi
        cp "$json" "$out/"
    done
    ran=$((ran + 1))
done

if [[ "$ran" == 0 ]]; then
    echo "$0: no bench binaries under $build/bench" >&2
    exit 1
fi

# The prefix-cache ablation's smoke cells never swap; its full run
# (well under a second) swaps with the prefix cache on, so it is kept
# too, under names of its own. It writes a shared-group copy on nearly
# every swap-out but never joins one (see docs/prefix_caching.md,
# "Deduplicated offload"); group joins and group reads are pinned by
# tests/test_swap_golden.cc instead.
mkdir "$work/full"
if ! (cd "$work/full" &&
      "$build/bench/abl_prefix_cache" > "$out/abl_prefix_cache.full.txt"); then
    echo "$0: abl_prefix_cache (full) failed" >&2
    exit 1
fi
cp "$work/full/BENCH_prefix_cache.json" "$out/BENCH_prefix_cache.full.json"
echo "$0: $ran benches -> $out" >&2
