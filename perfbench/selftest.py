#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in smoke mode, both traces.

    python3 perfbench/selftest.py

Runs run.py --smoke (TinySpec inputs, a 2 s window) for each workload with
--trace 0 and --trace 1, and asserts that
  - the last line is the result object with exactly its four keys;
  - every metric BENCHMARK.json lists for that trace mode is printed with
    its unit, and no other;
  - the run is correct, with attempted >= 1;
  - every output check of the workload ran (read from the run record).
Finishes in well under a minute once kgc_perfbench is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {
    "reeval": ["reeval.reference_match", "reeval.repeat_identical",
               "reeval.one_thread_identical"],
    "serve_closed": ["serve_closed.fingerprints_match",
                     "serve.some_ok_replies", "serve.clean_drain"],
    "serve_rotate": ["serve_rotate.replies_match_generation",
                     "serve.some_ok_replies", "serve.clean_drain",
                     "serve_rotate.sender_on_schedule",
                     "serve_rotate.rotated"],
}
TRACED_CHECKS = {"serve_closed": ["serve.telemetry_report"],
                 "serve_rotate": ["serve.telemetry_report"]}
SEED = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in CHECKS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(SEED), "--seconds", "2",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"]
                    for m in bench["per_layer" if trace else "end_to_end"]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got)} != "
                                f"{sorted(want)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            stem = f"{workload}-seed{SEED}" + ("-trace" if trace else "")
            with open(os.path.join(ROOT, ".bench_out", stem + ".json")) as f:
                record = json.load(f)
            ran = set(record["checks"])
            need = CHECKS[workload] + (TRACED_CHECKS.get(workload, [])
                                       if trace else [])
            missing = [c for c in need if c not in ran]
            if missing:
                failures.append(f"{label}: checks did not run: {missing}")
            print(f"{label}: ok" if not missing and result["correct"]
                  else f"{label}: FAILED")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
