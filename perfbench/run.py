#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json and NOTES.md).

    python3 perfbench/run.py --workload embed-rmat --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The harness and the gee library are built
from the checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the run's trace files and socket live there too.
OMP_*, GOMP_* and GEE_* variables are removed from the harness's
environment so every run sees the same library configuration. The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("embed-rmat", "ingest-churn", "serve-socket")
# Hard cap on one harness run; the benchmark contract allows 180 s including
# the build check that precedes it.
RUN_TIMEOUT_S = 170
CLEARED_PREFIXES = ("OMP_", "GOMP_", "GEE_")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build(out_dir):
    """Configure once, then bring the build up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join("src", "gee", "gee.hpp")) or not os.path.isfile(
        "CMakeLists.txt"
    ):
        fail("no gee sources here: run from the root of a checkout of the repository")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith(CLEARED_PREFIXES)}


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, when it is present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(args, out_dir):
    binary = os.path.join(out_dir, "perfbench")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", out_dir,
    ]
    removed = sorted(k for k in os.environ if k.startswith(CLEARED_PREFIXES))
    print(f"# run.py: cleared {', '.join(removed) if removed else 'no'} OMP_/GOMP_/GEE_ variables",
          flush=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=clean_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stdout.write(out)
        print(f"# run.py: harness exceeded {RUN_TIMEOUT_S} s and was killed", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    for sock in os.listdir(out_dir):
        if sock.startswith("perfbench-") and sock.endswith(".sock"):
            os.unlink(os.path.join(out_dir, sock))
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    if last is None:
        print("perfbench: harness printed no result line", file=sys.stderr)
        return proc.returncode or 1
    names = declared_metrics(args.trace == 1)
    if proc.returncode == 0 and names is not None and sorted(names) != sorted(last["metrics"]):
        print("perfbench: result metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own statistics tests")
    args = parser.parse_args()
    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        sys.exit(subprocess.call([os.path.join(out_dir, "perfbench_selftest")]))
    if args.workload is None:
        fail("--workload is required")
    sys.exit(run_harness(args, out_dir))


if __name__ == "__main__":
    main()
