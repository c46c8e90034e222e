#!/bin/sh
# Bounded runs of the four fuzzers, each past its baseline pass so that
# it fuzzes new inputs. A fuzzer first re-runs its whole corpus
# ("gathering baseline coverage") and only then mutates; a run shorter
# than that pass checks nothing new. Each smoke gets a fresh, empty fuzz
# cache (-test.fuzzcachedir under a temporary directory, removed after
# the run; go test passes it after its own -test.fuzzcachedir, and the
# later flag wins), so the corpus is bounded: the baseline pass replays
# only the seeds and testdata/fuzz, and does not grow with every run
# that found inputs, as $(go env GOCACHE)/fuzz would. Each default below
# is longer than the baseline pass measured that way on a 2-CPU host:
# under 1 s each (FuzzDiff 43 inputs, FuzzExprEquiv 8, FuzzJSONLoads 63,
# FuzzDecodeChunk 3). FuzzExprEquiv's default was 120 s while its pass
# replayed the growing cache (722 inputs in 49 s); it is 60 s now. A
# smoke that at its default never leaves the baseline pass fails the
# script, so that the default is raised rather than the smoke silently
# fuzzing nothing. FUZZTIME overrides all four defaults, and a run at an
# override may end inside the pass. An input worth keeping goes into
# the package's testdata/fuzz by hand.
# Minimizing a new input is capped at 5 s: at Go's default of 60 s, one
# minimization took 28 s of FuzzJSONLoads' 31 s run. After each run the
# script prints the baseline pass and how many new inputs the fuzzer
# found.
#
#   FuzzDiff         native vs fused-cold vs fused-warm (plan-cache hit)
#                    vs fused-VM vs VM-with-forced-bailouts on the monetdb,
#                    sqlite and postgresql profiles: bit-identical rows,
#                    no fused arm falling back to native.
#   FuzzExprEquiv    a compiled expression program equals the row
#                    evaluator at every morsel size and parallelism, and
#                    as a GROUP BY key and a SUM, MIN, MAX and COUNT
#                    argument aggregates as the serial single-batch run.
#   FuzzJSONLoads    the single-pass JSON decoder equals the
#                    encoding/json path it replaced (trailing data aside).
#   FuzzDecodeChunk  any bytes decode to a chunk or fail with
#                    ErrCorruptChunk, and every decoded chunk round-trips.
set -eu
cd "$(dirname "$0")/.."

fuzz_smoke() { # NAME PACKAGE DEFAULT_FUZZTIME
    log=$(mktemp)
    cache=$(mktemp -d)
    if ! go test -run '^$' -fuzz "$1" -fuzztime "${FUZZTIME:-$3}" -fuzzminimizetime 5s "$2" \
        -test.fuzzcachedir="$cache" >"$log" 2>&1; then
        cat "$log"
        rm -rf "$log" "$cache"
        exit 1
    fi
    rm -rf "$cache"
    cat "$log"
    base=$(grep 'now fuzzing' "$log" | sed 's/fuzz: elapsed: \([^,]*\), gathering baseline coverage: \([0-9]*\).*/\2 inputs in \1/' || true)
    last=$(grep 'new interesting' "$log" | tail -n 1 || true)
    rm -f "$log"
    if [ -z "$last" ]; then
        echo "fuzz-smoke: $1 never left its baseline pass: it fuzzed no new input"
        if [ -z "${FUZZTIME:-}" ]; then
            echo "fuzz-smoke: $1's default of $3 is now shorter than its baseline pass; raise it above the pass (or clear the grown cache with go clean -fuzzcache)"
            exit 1
        fi
    else
        echo "fuzz-smoke: $1 baseline $base; found $(echo "$last" | sed 's/.*new interesting: \([0-9]*\).*/\1/') new inputs in $(echo "$last" | sed 's/.*execs: \([0-9]*\).*/\1/') execs"
    fi
}

fuzz_smoke FuzzDiff ./internal/core 60s
fuzz_smoke FuzzExprEquiv ./internal/sqlengine 60s
fuzz_smoke FuzzJSONLoads ./internal/data 30s
fuzz_smoke FuzzDecodeChunk ./internal/data 30s
