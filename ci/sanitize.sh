#!/usr/bin/env bash
# Builds the tier-1 test suite under a sanitizer (or Release) configuration
# and runs it.
#
# Usage:
#   ci/sanitize.sh              # address + undefined (default)
#   ci/sanitize.sh address      # ASan only
#   ci/sanitize.sh undefined    # UBSan only
#   ci/sanitize.sh thread       # TSan: concurrency tests under KGC_THREADS=4
#   ci/sanitize.sh release      # no sanitizer: -DCMAKE_BUILD_TYPE=Release
#                               # (-O3, NDEBUG) must build warning-clean
#                               # and pass tier-1, on the default kernel
#                               # path and again with KGC_KERNEL=generic;
#                               # then perfbench/selftest.py
#
# Uses a dedicated build directory per configuration (build-sanitize,
# build-sanitize-thread, build-release) so it never pollutes the regular
# `build/` tree.
# Exits non-zero on any build or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address;undefined}"
BUILD_TYPE="RelWithDebInfo"
BUILD_DIR="build-sanitize"
if [[ "${SANITIZERS}" == release ]]; then
  SANITIZERS=""
  BUILD_TYPE="Release"
  BUILD_DIR="build-release"
elif [[ "${SANITIZERS}" == *thread* ]]; then
  # TSan cannot share a build tree (or a process) with ASan.
  BUILD_DIR="build-sanitize-thread"
fi

echo "== configuring ${BUILD_TYPE} with KGC_SANITIZE=${SANITIZERS} =="
cmake -B "${BUILD_DIR}" -S . -DKGC_SANITIZE="${SANITIZERS}" \
      -DCMAKE_BUILD_TYPE="${BUILD_TYPE}"

echo "== building =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

if [[ "${SANITIZERS}" == *thread* ]]; then
  echo "== running concurrency tests under TSan =="
  # Force multiple worker threads even on single-core CI machines so the
  # parallel code paths (and not their serial fallbacks) are exercised;
  # run the suites that drive ParallelFor across eval, redundancy, rules
  # and the core context, plus the metrics registry / trace span suite and
  # the scoring-kernel suite (its scratch buffers are thread_local and the
  # dispatch table resolve races on first use). harness_test adds the
  # supervisor's watchdog thread + waitpid polling loop, and ingest_test
  # covers the rejected-files counter shared with parallel loaders.
  # kg_test and flat_set_test pin the storage substrate: TripleStore's flat
  # membership sets are probed concurrently (const-only) from every ranking
  # shard, so the batched probe path must be race-free. topk_test shards
  # query groups across workers and asserts bit-identical results at 1/2/4
  # threads.
  export KGC_THREADS=4
  # report_signal_unsafe=0: the BenchTelemetry crash handler deliberately
  # flushes the run report from inside a fatal-signal handler (a
  # best-effort last gasp on a process that is already dying); TSan would
  # otherwise convert that report into exit(66) and break harness_test's
  # exit-status attribution checks. Data-race detection is unaffected.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:report_signal_unsafe=0"
  # serve_test joins the TSan list: the server fans one accept thread, one
  # reader thread per connection and a batch thread across a shared bounded
  # queue, refcounted snapshot pins and per-connection write locks — the
  # densest cross-thread surface in the tree.
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        -R '^(parallel_test|eval_test|redundancy_test|rules_test|core_test|obs_test|vecmath_test|harness_test|ingest_test|kg_test|flat_set_test|topk_test|serve_test)$'
else
  echo "== running tier-1 tests =="
  # halt_on_error keeps CI failures crisp; detect_leaks stays on by default
  # under ASan. UBSan is built with -fno-sanitize-recover so any finding
  # aborts the offending test.
  export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

  if [[ "${BUILD_TYPE}" == Release ]]; then
    # Native kernels are the default wherever the CPU supports them, so the
    # pass above may never run the baseline ISA end to end; force it once.
    echo "== tier-1 tests with KGC_KERNEL=generic =="
    KGC_KERNEL=generic ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -j "$(nproc)"

    # The benchmark (perfbench/) compiles against src/ with -Werror and
    # runs every workload's output checks in smoke mode, so an API break or
    # a changed bit fails here instead of in a benchmark run.
    echo "== benchmark selftest =="
    python3 perfbench/selftest.py
  fi

  if [[ "${SANITIZERS}" == *address* ]]; then
    # Promote the chaos suite into the ASan leg: the SIGKILL/recovery
    # sweeps exercise the rotation and supervisor paths where lifetime
    # bugs (use-after-free of swapped generations, double-closes in the
    # crash handlers) would hide from the unit tests.
    echo "== chaos suite under ASan =="
    ci/chaos.sh "${BUILD_DIR}"

    # Storage-substrate budget gate: the 100k-entity store must stay under
    # the 64 bytes/triple ceiling and batched probes must not regress
    # behind the replaced unordered_set substrate (bench_scale exits 1 on
    # either breach). Under ASan the *memory* assertion still holds
    # (IndexBytes counts container capacities, not malloc overhead).
    echo "== bench_scale smoke budget under ASan =="
    "${BUILD_DIR}/bench/bench_scale" --smoke

    # Rule mining at preset size under ASan: the miner's packed path keys
    # and flat buffers only reach this size here (the unit tests use small
    # stores), and leak detection stays on. Each run also ranks its preset
    # with RulePredictor, so both directions of every rule shape are
    # scored on all three presets.
    echo "== rule mining on the fb, wn and yago presets under ASan =="
    "${BUILD_DIR}/examples/rule_mining" fb 10
    "${BUILD_DIR}/examples/rule_mining" wn 10
    "${BUILD_DIR}/examples/rule_mining" yago 10

    # Serving overload smoke under ASan: a short kgc_serve + kgc_load
    # session with a deliberately tiny admission queue and a stall
    # failpoint in batch scoring. Asserts the robustness path actually
    # fired (>= 1 request shed with a typed OVERLOADED reply, zero
    # fingerprint mismatches on the replies that did land) and that
    # SIGTERM drains cleanly (exit 0) — all with leak detection on, so
    # shed/drained requests that leak their buffers fail the leg.
    echo "== serving overload smoke under ASan =="
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "${SMOKE_DIR}"' EXIT
    # 8 closed-loop connections against a 2-deep queue: while a stalled
    # batch holds the worker, at most 2 requests sit admitted and the
    # other 6 must shed (a queue >= the connection count could never
    # overflow under closed-loop load).
    KGC_FAULTS="stall@serve:batch:times=100000:ms=25" \
      KGC_SERVE_QUEUE=2 KGC_SERVE_MAX_BATCH=4 \
      "${BUILD_DIR}/tools/kgc_serve" --socket="${SMOKE_DIR}/s.sock" \
      --snapshot-dir="${SMOKE_DIR}/snap" --bootstrap=tiny \
      --bootstrap-epochs=3 --threads=1 \
      > "${SMOKE_DIR}/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 600); do
      grep -q '^READY' "${SMOKE_DIR}/serve.log" 2>/dev/null && break
      kill -0 "${SERVE_PID}" 2>/dev/null || {
        echo "FAIL: kgc_serve died before READY"; cat "${SMOKE_DIR}/serve.log"
        exit 1
      }
      sleep 0.05
    done
    "${BUILD_DIR}/tools/kgc_load" --socket="${SMOKE_DIR}/s.sock" \
      --snapshot-dir="${SMOKE_DIR}/snap" --connections=8 --duration-s=3 \
      --queries=32 --k=5 --json="${SMOKE_DIR}/overload.json"
    kill -TERM "${SERVE_PID}"
    if ! wait "${SERVE_PID}"; then
      echo "FAIL: kgc_serve did not drain cleanly on SIGTERM"
      tail -5 "${SMOKE_DIR}/serve.log"
      exit 1
    fi
    grep '^drain' "${SMOKE_DIR}/serve.log"
    python3 - "${SMOKE_DIR}/overload.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["shed"] >= 1, "overload never shed a request: %r" % r
assert r["fingerprint_mismatches"] == 0, r
assert r["replies_ok"] > 0, r
print(f"overload smoke OK: {r['shed']} shed, {r['replies_ok']} ok, "
      f"0 mismatches, clean drain")
EOF
  fi
fi

echo "== sanitize run passed =="
