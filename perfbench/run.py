#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 35 --trace 0

builds the perfbench binary (a Release build of src/ plus the benchmark,
under $CARGO_TARGET_DIR or .bench_build/), runs one workload, and prints
its output; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Two maintenance modes:

    python3 perfbench/run.py --test
        build and run the benchmark's own tests (needs GoogleTest)
    python3 perfbench/run.py --make-reference --seeds 0-20 [--jobs 3]
        recompute perfbench/reference/digests.json

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import concurrent.futures
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join("perfbench", "reference", "digests.json")
WORKLOADS = ("pairs", "napp", "sweep_sharded_obs")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure (once) and build @target; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from a full checkout of the repository")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DCAPART_OBS=ON"])
    steps.append(["cmake", "--build", bdir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e), 1)
        if rc != 0:
            fail("build step failed: " + " ".join(cmd), 1)
    return os.path.join(bdir, target)


def run_bench(argv, timeout):
    """Run the benchmark binary in its own process group; kill the group on timeout.

    Returns (exit code, stdout text)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark timed out after %d s" % timeout, 1)
    return proc.returncode, out


def measure(args):
    binary = build("perfbench")
    rc, out = run_bench(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reference", REFERENCE, "--run-root", ".bench_runs"],
        RUN_TIMEOUT_S)
    if rc != 0:
        fail("benchmark exited with code %d" % rc, rc)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result", 1)
    if set(result) != RESULT_KEYS:
        fail("benchmark result has keys %s" % sorted(result), 1)
    sys.stdout.write(out)


def make_reference(args):
    binary = build("perfbench")
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))

    def digests(workload, seed):
        rc, out = run_bench(
            [binary, "--workload", workload, "--seed", str(seed),
             "--print-digests", "--reference", REFERENCE], 600)
        if rc != 0:
            fail("digest run %s/%d failed" % (workload, seed), 1)
        return workload, seed, json.loads(out.strip().splitlines()[-1])

    table = {w: {} for w in WORKLOADS}
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        runs = [pool.submit(digests, w, s) for w in WORKLOADS for s in seeds]
        for f in runs:
            workload, seed, doc = f.result()
            table[workload][str(seed)] = doc["digests"]
    path = os.path.join(ROOT, REFERENCE)
    with open(path, "w") as f:
        json.dump({"version": 1, "workloads": table}, f, indent=1)
        f.write("\n")
    print("wrote " + path)


def test(_args):
    binary = build("perfbench_tests")
    sys.exit(subprocess.run([binary], cwd=ROOT).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true")
    p.add_argument("--make-reference", action="store_true")
    p.add_argument("--seeds", default="0-20")
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args()
    if args.test:
        test(args)
    elif args.make_reference:
        make_reference(args)
    elif args.workload:
        measure(args)
    else:
        fail("--workload is required")


if __name__ == "__main__":
    main()
