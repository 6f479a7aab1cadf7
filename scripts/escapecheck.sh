#!/usr/bin/env bash
# escapecheck.sh — escape-analysis guardrail for the pooled request path.
#
# An uncached request's zero-alloc claim rests on the compiler keeping
# per-request state on the stack or in pooled scratch: the utility kernels
# fill a pooled utility.Support, the mechanisms draw with pooled weight
# and peel scratch, and those pools are internal/stream instrumented pools.
# The exponential mechanism's level table (levels.go) is a stack array; if
# it ever escaped, "moved to heap: lw" would fail this check. This
# script compiles those three packages with -gcflags=-m and fails if any
# heap escape appears in the request-path files beyond the known-benign
# allowlist:
#
#   - pool New constructors (&T{} / func literal): run once per pool miss,
#     not per request;
#   - length-n growth: an accumulator growing on a pool miss, and Vector's
#     dense scatter (the exhaustive-evaluation oracle, not the request
#     path);
#   - error-path and name boxing (fmt arguments): requests that fail
#     validation may allocate;
#   - intentional result slices of the copying Sparse API, the top-k entry
#     points, the cache-fill CDF, and the cold Stats() path.
#
# Anything else — an accidental closure over a loop variable, scratch
# that stopped fitting its pool, an interface conversion on the per-entry
# path — shows up as a new line and fails CI.
#
# Usage: escapecheck.sh [-v]
#   -v  print every hot-path escape line along with the name of the
#       allowlist rule that waived it (or NEW for unmatched lines).
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
while getopts 'v' opt; do
    case "$opt" in
    v) verbose=1 ;;
    *)
        echo "usage: $0 [-v]" >&2
        exit 2
        ;;
    esac
done

HOT_FILES='internal/(stream/pool|utility/(sparse|common|jaccard|degree|weightedpaths|pagerank)|mechanism/(sparse|heap|pool|exponential|levels))\.go'

# The allowlist is a list of "name<TAB>regexp" rules so that -v can report
# which rule matched a given escape line. Order matters only for -v
# attribution (first match wins); any match waives the line.
ALLOW_RULES=(
    $'pool-constructor\t&(sparseScratch|peelScratch)\\{\\} escapes|&stream\\.Pool\\[.* escapes|func literal escapes|moved to heap: s$'
    $'length-n-growth\tmake\\(\\[\\]float64, n\\) escapes'
    $'cold-result-slice\tmake\\(\\[\\](PoolStat|topEntry|Pick|int32|int|float64)|moved to heap: c$'
    $'errorpath-boxing\t: (e\\.Epsilon|out|nnz|n|k|r|alpha|w\\.Gamma|s\\.N|len\\(s\\.Val\\)|s\\.Base\\.Name\\(\\)|~r0) escapes'
    $'mutable-graph-row\tsparse\\.go:[0-9]+:[0-9]+: moved to heap: row$'
)

# Guard against the checked files being renamed out from under the regexp:
# a HOT_FILES pattern that matches nothing silently turns the whole script
# into a no-op "pass". Demand at least one tracked file still matches.
hot_matches=$(git ls-files 'internal/*.go' | grep -cE "$HOT_FILES" || true)
if [ "$hot_matches" -eq 0 ]; then
    echo "escapecheck: FATAL — HOT_FILES pattern matches zero tracked files;" >&2
    echo "  the request-path files were renamed or removed. Update" >&2
    echo "  HOT_FILES in scripts/escapecheck.sh instead of letting the" >&2
    echo "  guardrail rot into a no-op." >&2
    exit 1
fi

# match_rule LINE — echoes the name of the first allowlist rule matching
# LINE, or nothing if no rule matches.
match_rule() {
    local line=$1 name re
    for rule in "${ALLOW_RULES[@]}"; do
        name=${rule%%$'\t'*}
        re=${rule#*$'\t'}
        if printf '%s\n' "$line" | grep -qE "$re"; then
            printf '%s' "$name"
            return 0
        fi
    done
    return 1
}

fail=0
for pkg in ./internal/stream ./internal/utility ./internal/mechanism; do
    # -m output goes to stderr; forcing a rebuild keeps cached builds from
    # suppressing it.
    escapes=$(go build -a -gcflags='-m' "$pkg" 2>&1 |
        grep -E 'escapes to heap|moved to heap' |
        grep -E "$HOT_FILES" || true)
    new=''
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        if rule=$(match_rule "$line"); then
            if [ "$verbose" -eq 1 ]; then
                printf 'escapecheck: allow[%s] %s\n' "$rule" "$line"
            fi
        else
            if [ "$verbose" -eq 1 ]; then
                printf 'escapecheck: NEW %s\n' "$line"
            fi
            new+="$line"$'\n'
        fi
    done <<<"$escapes"
    if [ -n "$new" ]; then
        echo "escapecheck: new heap escapes in $pkg request path:" >&2
        printf '%s' "$new" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "escapecheck: FAIL — either restore stack allocation or, if the escape is genuinely benign, extend the allowlist in scripts/escapecheck.sh" >&2
    exit 1
fi
echo "escapecheck: request-path files clean"
