#!/usr/bin/env python3
"""Serve-path benchmark of mtperf_serve.

Builds mtperf_serve and the load generator from this checkout's sources,
then runs one workload and relays the generator's report; the last stdout
line is the JSON result object.

    python3 perfbench/run.py --workload warm_interactive --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); span files and per-run reports go to its
out/ directory.  `--workload all` runs the three workloads in turn;
`--self-test` builds and runs the benchmark's own tests.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_interactive", "cold_sweep", "series_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def cmake(args, timeout):
    # Build chatter goes to stderr: stdout ends with the result line.
    subprocess.run(["cmake", *args], check=True, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=timeout)


def build(out, targets):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmake(["-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    cmake(["--build", out, "--target", *targets, "-j", jobs], 840)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def self_test(out):
    build(out, ["perfbench_tests"])
    return subprocess.run(["ctest", "--test-dir", out, "--output-on-failure"],
                          timeout=600).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    out = build_dir()
    try:
        if a.self_test:
            return self_test(out)
        if a.workload is None:
            p.error("--workload is required")
        build(out, ["mtperf_serve", "perfbench_loadgen"])
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    for name in WORKLOADS if a.workload == "all" else (a.workload,):
        status = run_workload(out, results, name, a)
        if status != 0:
            return status
    return 0


def run_workload(out, results, name, a):
    cmd = [os.path.join(out, "perfbench_loadgen"),
           "--server-bin", os.path.join(out, "mtperf", "tools", "mtperf_serve"),
           "--workload", name, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", results, "--commit", git_commit()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The generator's servers die with it (parent-death signal).
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    print(f"perfbench: {name} took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
