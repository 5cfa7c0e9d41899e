#!/usr/bin/env python3
"""Builds and runs the schedule-server benchmark (see README.md).

    python3 perfbench/run.py --workload hit|cold --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of the repository. The benchmark package is configured
and built into $CARGO_TARGET_DIR (default .bench_build) on first use; it
builds the repository's ssched server from source and the generator
binary. The generator's last stdout line is the JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run(binary, build_dir, workload, seed, seconds, trace, capture=False):
    out = os.path.join(build_dir, "trace-%s-%s" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", out]
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def smoke(binary, build_dir):
    """Seconds-long pass over every workload and the traced run, then a
    second seed: the workload properties must match within a tenth."""
    ok = True
    for workload in ("hit", "cold", "churn"):
        code, result = run(binary, build_dir, workload, 1, 3, False, True)
        if code != 0 or not result or not result["correct"]:
            print("smoke: %s timed run failed" % workload, file=sys.stderr)
            ok = False
    traced = []
    for seed in (1, 2):
        code, result = run(binary, build_dir, "hit", seed, 2, True, True)
        if code != 0 or not result:
            print("smoke: traced run (seed %d) failed" % seed, file=sys.stderr)
            return 1
        traced.append(result["metrics"])
    for name, first in sorted(traced[0].items()):
        prop = name.split(".", 1)[-1]
        if prop not in ("graph.distinct_share", "service.hit_ratio",
                        "sched.nodes"):
            continue
        a, b = first["value"], traced[1][name]["value"]
        same = a == b or abs(a - b) <= 0.1 * max(abs(a), abs(b))
        print("smoke: %-28s seed 1 %-12.6g seed 2 %-12.6g %s"
              % (name, a, b, "ok" if same else "DIFFERS"), file=sys.stderr)
        ok = ok and same
    print("smoke: %s" % ("pass" if ok else "FAIL"), file=sys.stderr)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("hit", "cold", "churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary, build_dir)
    code, _ = run(binary, build_dir, args.workload, args.seed, args.seconds,
                  args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
