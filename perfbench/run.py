#!/usr/bin/env python3
"""Build and run the bowsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The benchmark
program (perfbench/) and the bowsim library are built from source with
CMake into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then the program runs one workload. Its standard output is passed
through; the last line is the JSON result. The exit code is the
program's, or nonzero when the build fails or the result's metric names
do not match BENCHMARK.json.

`--workload all` runs every workload, each in its own process, for a
quick look at every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig09_sweep", "litmus_matrix", "functional_suite"]
# One run must finish within this many seconds of wall time.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, **kwargs):
    """Runs cmd with its stdout sent to stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, **kwargs)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no bowsim sources (src/CMakeLists.txt) next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked(["cmake", "--build", bdir, "-j", jobs])
    return os.path.join(bdir, "perfbench")


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_sha256():
    """Digest of the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_one(exe, workload, seed, seconds, trace, extra):
    out_dir = os.path.join(os.path.dirname(build_dir()), "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                       (workload, seed, trace))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out, "--commit", git_commit(),
           "--source-sha256", source_sha256()] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        names = sorted(result["metrics"])
    except (ValueError, KeyError, TypeError):
        fail("%s printed no JSON result" % workload)
    if names != sorted(expected_metrics(trace)):
        fail("%s metrics do not match BENCHMARK.json" % workload)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jobs", type=int,
                    help="override the workload's sweep workers")
    ap.add_argument("--dump-artifact",
                    help="write the first pass's artifact to this file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    extra = []
    if args.jobs:
        extra += ["--jobs", str(args.jobs)]
    if args.dump_artifact:
        extra += ["--dump-artifact", os.path.abspath(args.dump_artifact)]

    exe = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for w in workloads:
        code = max(code, run_one(exe, w, args.seed, args.seconds,
                                 args.trace, extra))
    sys.exit(code)


if __name__ == "__main__":
    main()
