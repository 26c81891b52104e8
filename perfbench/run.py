#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload reeval|serve_closed|serve_rotate \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run configures and
builds kgc_perfbench (perfbench/CMakeLists.txt, which builds the repository's
libraries and kgc_serve with the repository's own flags) into
$CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what
changed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list, and
the run fails if kgc_perfbench printed any other set. The full record (run
envelope, checks, details) and the span trace land in .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)
WORKLOADS = ("reeval", "serve_closed", "serve_rotate")
# A run must end within 180 s; the benchmark's own work is sized well below.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds kgc_perfbench and kgc_serve."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"{ROOT} holds no kgc source tree to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_logged(configure, log, log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", out, "-j", jobs, "--target",
                    "kgc_perfbench", "kgc_serve_tool"], log, log_path)
    return (os.path.join(out, "kgc_perfbench"),
            os.path.join(out, "tools", "kgc_serve"))


def run_logged(cmd, log, log_path):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                       check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed (log: " + log_path + ")")


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode == 0 and \
                os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def source_digest():
    """sha256 over the program's sources and build files."""
    digest = hashlib.sha256()
    names = ["CMakeLists.txt"]
    for top in ("src", "tools", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                names.append(os.path.relpath(os.path.join(dirpath, name),
                                             ROOT))
    for name in names:
        digest.update(name.encode())
        with open(os.path.join(ROOT, name), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(binary, args):
    """Runs kgc_perfbench in its own process group and, however it ends, kills
    whatever is left of the group and waits until the group is gone."""
    # The shipped kernel default (kgc_perfbench strips the server's
    # KGC_SERVE_* overrides itself).
    env = {k: v for k, v in os.environ.items() if k != "KGC_KERNEL"}
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, env=env)

    def reap_group():
        for _ in range(1000):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def interrupted(*_):
        reap_group()
        proc.wait()
        fail("interrupted")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group()
        proc.wait()
        fail(f"kgc_perfbench did not finish within {RUN_TIMEOUT_S} s")
    reap_group()
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="TinySpec inputs (the self-test mode)")
    args = parser.parse_args()

    binary, serve_bin = build()
    bench_args = [
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--serve-bin={os.path.relpath(serve_bin, ROOT)}",
        f"--git-sha={git_sha()}", f"--source-digest={source_digest()}",
    ]
    if args.smoke:
        bench_args.append("--smoke")
    code, stdout = run_bench(binary, bench_args)
    lines = stdout.strip().splitlines()
    # On any failure the output goes to stderr: stdout must then carry no
    # result line.
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"kgc_perfbench exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("kgc_perfbench printed no result line")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(stdout)
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(got)}, "
             f"expected {sorted(want)}")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
