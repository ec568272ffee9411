#!/usr/bin/env python3
"""Build the benchmark executable and run one workload, or the self-test.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The last line of standard output is the run's JSON result. The exit code
is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = [
    "multihop-rgg400",
    "smr-shard-failover",
    "explore-3clique",
    "fuzz-faults",
]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
# Run time beyond --seconds: set-up, the pass that straddles the deadline,
# and process start-up.
RUN_SLACK_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        p = subprocess.run(
            [dune, "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe"],
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def bench(workload, seed, seconds, trace, small=False):
    """Run the executable once.

    Returns (exit code, result dict, result line, standard error).
    """
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        args.append("--small")
    try:
        p = subprocess.run(args, capture_output=True, text=True,
                           timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed))
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(p.stdout + p.stderr)
        fail("%s seed %d printed no result" % (workload, seed))
    return p.returncode, result, lines[-1], p.stderr


def pin_of(stderr):
    m = re.search(r"^pin \S+ -?\d+ ([0-9a-f]{32})", stderr, re.M)
    return m.group(1) if m else None


def self_test():
    """Reduced-size checks that the benchmark itself is deterministic.

    Per workload: two fresh untraced processes must agree exactly on every
    deterministic metric and on the output pin; a traced process must
    produce the same outputs (tracing never changes behaviour); and a
    second seed must run clean.
    """
    exact = ["alloc_mwords", "done_frac", "sim_p50_ticks", "sim_p99_ticks"]
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        runs = [bench(w, 1, 1, 0, small=True) for _ in range(2)]
        traced = bench(w, 1, 1, 1, small=True)
        other = bench(w, 7919, 1, 0, small=True)
        for code, result, _, _ in runs + [traced, other]:
            if code != 0 or not result["correct"]:
                problems.append("%s: a run failed its output checks" % w)
        a, b = runs[0][1]["metrics"], runs[1][1]["metrics"]
        for m in exact:
            if a[m]["value"] != b[m]["value"]:
                problems.append("%s: %s differs across processes (%r vs %r)"
                                % (w, m, a[m]["value"], b[m]["value"]))
        pins = {pin_of(r[3]) for r in runs + [traced]}
        if len(pins) != 1 or None in pins:
            problems.append("%s: outputs differ between runs or trace modes"
                            % w)
        print("%-20s two untraced, one traced, seed 7919: %s" % (
            w, "ok" if len(problems) == before else "FAIL"), flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    build()
    if args.self_test:
        sys.exit(self_test())
    code, _, line, err = bench(args.workload, args.seed, args.seconds,
                               args.trace)
    sys.stderr.write(err)
    print(line, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
