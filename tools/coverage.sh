#!/usr/bin/env bash
# Line coverage of src/**/*.cc from a --coverage build, using only the
# gcov that ships with GCC.
#
#   cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
#         -DCMAKE_CXX_FLAGS=--coverage
#   cmake --build build-cov -j
#   (cd build-cov && ctest -j4)
#   tools/bench_baseline.sh build-cov "$(mktemp -d)/out"
#   tools/coverage.sh build-cov
#
# Prints, per source file, the executable lines reached and not
# reached, then every unreached line range that is not part of a
# panic() or warn() statement. Lines only an exception could reach
# (gcov's "=====") are not counted: nothing in src/ throws. Counts
# accumulate in the build's .gcda files, so everything run in the
# build since it was compiled counts. Executable-line counts differ
# between GCC versions; compare runs from the same compiler only.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
build="$(cd "$1" && pwd)"
# The source tree the build was configured from.
repo="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$build/CMakeCache.txt")"
if [[ -z "$repo" ]]; then
    echo "$0: $build is not a CMake build directory" >&2
    exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# One gcov pass per object directory; -t writes the annotated sources
# to stdout, -r keeps only sources under the repository (-s).
find "$build/src" -name '*.gcno' -printf '%h\n' | sort -u |
    while read -r dir; do
        (cd "$work" && gcov -t -r -s "$repo" -o "$dir" "$dir"/*.gcno \
            2> /dev/null) || true
    done > "$work/annotated"

# Annotated lines are "count:line:text"; count is '-' (not code),
# '=====' (exception path), '#####' (never run) or a run count. A
# "Source:" line opens each file. A panic/warn statement runs from its
# call to the line where its parentheses balance.
awk -F: '
function flush() {
    if (file != "" && lo > 0)
        ranges[file] = ranges[file] (lo == hi ? " " lo : " " lo "-" hi)
    lo = 0
}
function depth(s,   t, opens, closes) {
    t = s
    opens = gsub(/\(/, "", t)
    t = s
    closes = gsub(/\)/, "", t)
    return opens - closes
}
$2 + 0 == 0 && $3 == "Source" {
    flush()
    file = ""
    if ($4 ~ /^src\/.*\.cc$/ && !($4 in seen)) {
        file = $4
        seen[file] = 1
        order[++n] = file
    }
    open = 0
    lastCodeLine = 0
    next
}
file == "" || $2 + 0 == 0 { next }
{
    count = $1
    gsub(/ /, "", count)
    line = $2 + 0
    text = $0
    sub(/^[^:]*:[^:]*:/, "", text)
    if (open > 0) {
        quiet = 1
        open += depth(text)
    } else if (text ~ /(^|[^A-Za-z0-9_.>])(panic|warn) *\(/) {
        quiet = 1
        open = depth(text)
    } else {
        quiet = 0
    }
    if (count == "-" || count == "=====")
        next
    if (count == "#####") {
        ++unreached[file]
        if (!quiet) {
            ++silent[file]
            if (lo > 0 && lastCodeLine == hi) {
                hi = line
            } else {
                flush()
                lo = hi = line
            }
        }
    } else {
        ++reached[file]
    }
    lastCodeLine = line
}
END {
    flush()
    for (i = 1; i <= n; ++i) {
        f = order[i]
        printf "%s %d %d %d%s\n", f, reached[f], unreached[f], silent[f],
               ranges[f]
    }
}
' "$work/annotated" | sort | awk '
{
    printf "%-40s %8d %10d %10d\n", $1, $2, $3, $4
    tr += $2; tu += $3; ts += $4
    if (NF > 4) {
        r = $1 ":"
        for (i = 5; i <= NF; ++i)
            r = r " " $i
        ranges[++n] = r
    }
}
BEGIN {
    printf "%-40s %8s %10s %10s\n", "file", "reached", "unreached",
           "non-panic"
}
END {
    printf "%-40s %8d %10d %10d\n", "total", tr, tu, ts
    print ""
    print "Unreached non-panic line ranges:"
    for (i = 1; i <= n; ++i)
        print ranges[i]
}'
