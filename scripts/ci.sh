#!/usr/bin/env sh
# Tier-1 verify: configure, build, run the full ctest suite, then the
# persistent-cache / multi-process sweep smoke checks.
# Usage: scripts/ci.sh [quick|test|smoke|asan]
#   quick  -- build + the fast unit-label subset (pre-commit loop)
#   test   -- build + the full ctest suite
#   smoke  -- cache/--jobs/queue end-to-end checks against an existing
#             build
#   asan   -- ASan+UBSan (+ libstdc++ assertions) instrumented build
#             (build-asan/) + the quick-label suites under them
#   (none) -- test + smoke
set -eu

cd "$(dirname "$0")/.."

build() {
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
}

run_tests() {
    ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
}

# ASan+UBSan instrumented build and quick-label test run, in its own
# build directory so it never dirties the regular one. UBSan halts on
# the first finding (otherwise violations scroll by as warnings and
# the suite still passes). _GLIBCXX_ASSERTIONS bounds-checks
# operator[] on the standard containers (the SM's I-buffer and LSU
# rings, the flat MSHR tables) against size(); ASan misses an index
# that stays inside the vector's allocated capacity.
asan() {
    cmake -B build-asan -S . -DBWSIM_SANITIZE=address,undefined \
        -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
        -DBWSIM_BUILD_BENCHES=OFF -DBWSIM_BUILD_EXAMPLES=OFF
    cmake --build build-asan -j "$(nproc)"
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan --output-on-failure \
        -j "$(nproc)" -L quick
}

# End-to-end checks of the execution backends:
#  1. a warm --cache-dir invocation must simulate nothing (the run
#     counter printed by --exec-stats must say sims=0);
#  2. a --jobs sweep (forked local queue workers) must print tables
#     byte-identical to the single-process run and leave no scratch
#     spool behind in $TMPDIR;
#  3. a --backend=queue sweep drained by two bwsim --worker processes
#     must also print byte-identical tables;
#  4. --cache-stats must report the warm entries and --cache-max-mb=0
#     must evict them all.
smoke() {
    smoke_tmp=$(mktemp -d)
    trap 'rm -rf "$smoke_tmp"' EXIT
    bwsim_args="fig4 --benches=bfs,lbm --shrink=16 --threads=2"

    echo "smoke: cold/warm --cache-dir round trip"
    ./build/bwsim $bwsim_args --cache-dir="$smoke_tmp/cache" \
        --exec-stats > "$smoke_tmp/cold.out" 2> "$smoke_tmp/cold.err"
    ./build/bwsim $bwsim_args --cache-dir="$smoke_tmp/cache" \
        --exec-stats > "$smoke_tmp/warm.out" 2> "$smoke_tmp/warm.err"
    if ! grep -q 'sims=0 ' "$smoke_tmp/warm.err"; then
        echo "smoke FAIL: warm --cache-dir run re-simulated:" >&2
        cat "$smoke_tmp/warm.err" >&2
        exit 1
    fi
    cmp "$smoke_tmp/cold.out" "$smoke_tmp/warm.out" || {
        echo "smoke FAIL: warm run printed different tables" >&2
        exit 1
    }

    echo "smoke: --jobs multi-process sweep parity"
    ./build/bwsim $bwsim_args > "$smoke_tmp/single.out"
    mkdir "$smoke_tmp/tmp"
    TMPDIR="$smoke_tmp/tmp" \
    ./build/bwsim $bwsim_args --jobs=2 --cache-dir="$smoke_tmp/jobs" \
        > "$smoke_tmp/jobs.out"
    cmp "$smoke_tmp/single.out" "$smoke_tmp/jobs.out" || {
        echo "smoke FAIL: --jobs=2 tables differ from the" \
             "single-process run" >&2
        exit 1
    }
    if [ -n "$(ls -A "$smoke_tmp/tmp")" ]; then
        echo "smoke FAIL: --jobs=2 leaked its scratch spool:" >&2
        ls -A "$smoke_tmp/tmp" >&2
        exit 1
    fi

    echo "smoke: --backend=queue parity with 2 workers"
    spool="$smoke_tmp/spool"
    ./build/bwsim --worker --spool-dir="$spool" \
        2> "$smoke_tmp/worker1.err" &
    worker1=$!
    ./build/bwsim --worker --spool-dir="$spool" \
        2> "$smoke_tmp/worker2.err" &
    worker2=$!
    # Bounded: if both workers die, the parent would poll forever --
    # better a fast diagnosable failure than a hung CI job.
    queue_rc=0
    timeout 300 \
        ./build/bwsim $bwsim_args --backend=queue --spool-dir="$spool" \
        > "$smoke_tmp/queue.out" 2> "$smoke_tmp/queue.err" \
        || queue_rc=$?
    # Stop sentinel: workers drain the queue, then exit. Wait one pid
    # at a time: `wait p1 p2` reports only the last operand's status,
    # which would mask a crash of the first worker.
    : > "$spool/stop"
    worker_fail=0
    wait "$worker1" || worker_fail=1
    wait "$worker2" || worker_fail=1
    [ "$worker_fail" -eq 0 ] || {
        echo "smoke FAIL: a queue worker exited non-zero" >&2
        exit 1
    }
    [ "$queue_rc" -eq 0 ] || {
        echo "smoke FAIL: the --backend=queue parent failed:" >&2
        cat "$smoke_tmp/queue.err" >&2
        exit 1
    }
    cmp "$smoke_tmp/single.out" "$smoke_tmp/queue.out" || {
        echo "smoke FAIL: --backend=queue tables differ from the" \
             "single-process run" >&2
        exit 1
    }

    echo "smoke: trace workloads (pack, replay parity, queue backend)"
    # Pack the checked-in golden trace; text and binary must agree on
    # the content hash (their shared cache identity).
    trace_src=tests/golden/replay.trace
    ./build/bwsim trace pack "$trace_src" "$smoke_tmp/replay.bwtr" \
        > "$smoke_tmp/pack.out"
    ./build/bwsim trace info "$trace_src" \
        | grep 'content-hash' > "$smoke_tmp/hash-text.out"
    ./build/bwsim trace info "$smoke_tmp/replay.bwtr" \
        | grep 'content-hash' > "$smoke_tmp/hash-bin.out"
    cmp "$smoke_tmp/hash-text.out" "$smoke_tmp/hash-bin.out" || {
        echo "smoke FAIL: trace pack changed the content hash" >&2
        exit 1
    }
    # Replay is bit-identical across scheduler modes and the --jobs
    # local-worker path, exactly like synthetic workloads.
    trace_args="fig4 --trace=$smoke_tmp/replay.bwtr --threads=2"
    ./build/bwsim $trace_args --scheduler=lockstep \
        > "$smoke_tmp/trace-lock.out"
    ./build/bwsim $trace_args --scheduler=skip \
        > "$smoke_tmp/trace-skip.out"
    cmp "$smoke_tmp/trace-lock.out" "$smoke_tmp/trace-skip.out" || {
        echo "smoke FAIL: trace replay differs across schedulers" >&2
        exit 1
    }
    ./build/bwsim $trace_args --jobs=2 \
        --cache-dir="$smoke_tmp/trace-jobs" \
        > "$smoke_tmp/trace-jobs.out"
    cmp "$smoke_tmp/trace-lock.out" "$smoke_tmp/trace-jobs.out" || {
        echo "smoke FAIL: --jobs=2 trace replay differs from the" \
             "single-process run" >&2
        exit 1
    }
    # A queue job embeds the trace records, so one worker with no
    # access to the original file replays it bit-identically.
    tspool="$smoke_tmp/trace-spool"
    ./build/bwsim --worker --spool-dir="$tspool" \
        2> "$smoke_tmp/trace-worker.err" &
    trace_worker=$!
    trace_queue_rc=0
    timeout 300 ./build/bwsim $trace_args --backend=queue \
        --spool-dir="$tspool" --cache-dir="$smoke_tmp/trace-cache" \
        > "$smoke_tmp/trace-queue.out" 2> "$smoke_tmp/trace-queue.err" \
        || trace_queue_rc=$?
    : > "$tspool/stop"
    wait "$trace_worker" || {
        echo "smoke FAIL: the trace queue worker exited non-zero" >&2
        exit 1
    }
    [ "$trace_queue_rc" -eq 0 ] || {
        echo "smoke FAIL: the --backend=queue trace replay failed:" >&2
        cat "$smoke_tmp/trace-queue.err" >&2
        exit 1
    }
    cmp "$smoke_tmp/trace-lock.out" "$smoke_tmp/trace-queue.out" || {
        echo "smoke FAIL: --backend=queue trace replay differs from" \
             "the single-process run" >&2
        exit 1
    }
    # Warm replay of the *text* trace against the cache the *packed*
    # run just filled: content addressing must make it free.
    ./build/bwsim fig4 --trace="$trace_src" --threads=2 \
        --cache-dir="$smoke_tmp/trace-cache" --exec-stats \
        > "$smoke_tmp/trace-warm.out" 2> "$smoke_tmp/trace-warm.err"
    if ! grep -q 'sims=0 ' "$smoke_tmp/trace-warm.err"; then
        echo "smoke FAIL: warm trace replay re-simulated:" >&2
        cat "$smoke_tmp/trace-warm.err" >&2
        exit 1
    fi

    echo "smoke: --format=json parses and --dump-stats names the tree"
    ./build/bwsim fig4 --benches=bfs,lbm --shrink=16 --threads=2 \
        --format=json > "$smoke_tmp/json.out"
    python3 -m json.tool "$smoke_tmp/json.out" > /dev/null || {
        echo "smoke FAIL: --format=json output is not valid JSON:" >&2
        cat "$smoke_tmp/json.out" >&2
        exit 1
    }
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        > "$smoke_tmp/stats-tree.out"
    grep -q 'gpu\.core0\.issued_insts' "$smoke_tmp/stats-tree.out" || {
        echo "smoke FAIL: --dump-stats did not print the stats tree" >&2
        exit 1
    }

    echo "smoke: --profile-ticks tick-cost telemetry"
    # The profiler must report per-domain tick costs on stderr and
    # register the tick_profile stats group -- and the congested bfs
    # run must actually put SMs, L2 banks and DRAM channels to sleep.
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        --profile-ticks --exec-stats \
        > "$smoke_tmp/prof.out" 2> "$smoke_tmp/prof.err"
    grep -q 'tick profile: domain=core' "$smoke_tmp/prof.err" || {
        echo "smoke FAIL: --profile-ticks printed no per-domain" \
             "tick profile:" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    }
    # Per-SM sleep is byte-identical by construction, so no table can
    # notice if it silently stops engaging: the same run must report
    # SM ticks replaced by bulk charges.
    grep -q 'sm-slept=' "$smoke_tmp/prof.err" || {
        echo "smoke FAIL: --exec-stats printed no sm-slept field:" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    }
    if grep -Eq 'sm-slept=0( |$)' "$smoke_tmp/prof.err"; then
        echo "smoke FAIL: congested bfs run slept zero SM ticks" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    fi
    # Per-bank and per-channel sleep on the memory side are
    # byte-identical by construction too: the same run must report
    # L2-bank and DRAM-channel ticks replaced by bulk charges.
    for field in l2-slept dram-slept; do
        grep -q "$field=" "$smoke_tmp/prof.err" || {
            echo "smoke FAIL: --exec-stats printed no $field field:" >&2
            cat "$smoke_tmp/prof.err" >&2
            exit 1
        }
        if grep -Eq "$field=0( |\$)" "$smoke_tmp/prof.err"; then
            echo "smoke FAIL: congested bfs run reported $field=0" >&2
            cat "$smoke_tmp/prof.err" >&2
            exit 1
        fi
    done
    grep -q 'gpu\.tick_profile\.core' "$smoke_tmp/prof.out" || {
        echo "smoke FAIL: --profile-ticks did not register the" \
             "tick_profile stats group" >&2
        exit 1
    }

    echo "smoke: ideal hierarchies clock only the core domain"
    # P-inf and fixed-<N> have nothing on the icnt and DRAM clocks, so
    # the Gpu never registers those domains. That is byte-identical by
    # construction, so no table would notice them coming back: the
    # profiled run must tick neither, and its ticked edges must be
    # exactly its core cycles.
    ./build/bwsim --dump-stats --config=fixed-200 --benches=nn \
        --shrink=16 --profile-ticks --exec-stats \
        > /dev/null 2> "$smoke_tmp/ideal.err"
    for domain in icnt dram; do
        grep -q "tick profile: domain=$domain ticks=0 " \
            "$smoke_tmp/ideal.err" || {
            echo "smoke FAIL: fixed-200 run ticked the $domain domain:" >&2
            cat "$smoke_tmp/ideal.err" >&2
            exit 1
        }
    done
    awk '/sim speed:/ {
             for (i = 1; i <= NF; ++i) {
                 split($i, kv, "=")
                 v[kv[1]] = kv[2]
             }
         }
         END {
             exit !(v["core-cycles"] > 0 &&
                    v["ticked-edges"] == v["core-cycles"])
         }' "$smoke_tmp/ideal.err" || {
        echo "smoke FAIL: fixed-200 run's ticked edges are not its" \
             "core cycles:" >&2
        cat "$smoke_tmp/ideal.err" >&2
        exit 1
    }

    echo "smoke: hierarchy-variant config end-to-end"
    # One mitigation preset through the whole engine: the run must
    # complete and publish the per-level bandwidth formulas, and the
    # sec6 sweep must produce the mitigation columns.
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        --config=L1-bypass > "$smoke_tmp/variant.out"
    grep -q 'gpu\.bw\.l1_icnt_bpc' "$smoke_tmp/variant.out" || {
        echo "smoke FAIL: variant --dump-stats lacks the gpu.bw" \
             "bandwidth formulas" >&2
        exit 1
    }
    grep -q 'gpu\.core0\.l1d\.bypassed_reads' "$smoke_tmp/variant.out" || {
        echo "smoke FAIL: L1-bypass run did not report bypassed reads" >&2
        exit 1
    }
    ./build/bwsim sec6 --benches=bfs --shrink=16 --threads=2 \
        > "$smoke_tmp/sec6.out"
    grep -q 'L2-sectored' "$smoke_tmp/sec6.out" || {
        echo "smoke FAIL: sec6 table lacks the mitigation columns:" >&2
        cat "$smoke_tmp/sec6.out" >&2
        exit 1
    }

    echo "smoke: --cache-stats and --cache-max-mb eviction"
    ./build/bwsim --cache-stats --cache-dir="$smoke_tmp/cache" \
        > "$smoke_tmp/stats.out"
    grep -q 'baseline' "$smoke_tmp/stats.out" || {
        echo "smoke FAIL: --cache-stats did not report the warm" \
             "baseline entries:" >&2
        cat "$smoke_tmp/stats.out" >&2
        exit 1
    }
    ./build/bwsim --cache-max-mb=0 --cache-dir="$smoke_tmp/cache" \
        2> "$smoke_tmp/evict.err"
    ./build/bwsim --cache-stats --cache-dir="$smoke_tmp/cache" \
        > "$smoke_tmp/stats2.out"
    grep -q ': 0 entries' "$smoke_tmp/stats2.out" || {
        echo "smoke FAIL: --cache-max-mb=0 left entries behind:" >&2
        cat "$smoke_tmp/stats2.out" >&2
        exit 1
    }
    echo "smoke: OK"
}

case "${1:-}" in
    quick)
        build
        run_tests -L quick
        ;;
    test)
        build
        run_tests
        ;;
    smoke)
        [ -x build/bwsim ] || build
        smoke
        ;;
    asan)
        asan
        ;;
    *)
        build
        run_tests
        smoke
        ;;
esac
