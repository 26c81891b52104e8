#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the reeval output check's values.

    python3 perfbench/make_reference.py [--seeds 0-127]

For every seed it runs the reeval pipeline once (ScaleSpec(10000)) and once
on TinySpec (the --smoke inputs), and stores each rank table's CRC-32 with
its fMRR and fHits@10 per (predictor, split), the number of mined rules and
the cleaned train size. Ranking and training are bit-deterministic, so a
timed run on a stored seed must reproduce these exactly; regenerate only
when a change to the program is meant to move them.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-127"))
    args = parser.parse_args()
    binary, _ = run.build()
    references = {}
    for seed in args.seeds:
        for smoke in (False, True):
            cmd = [binary, "--workload=reeval", f"--seed={seed}",
                   "--emit-reference"] + (["--smoke"] if smoke else [])
            out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                 text=True, check=True).stdout
            references.update(json.loads("{" + out.strip().splitlines()[-1]
                                         + "}"))
        print(f"seed {seed} done", file=sys.stderr)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as f:
        json.dump({"schema": "kgc.perfbench_reference.v1",
                   "references": references}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
