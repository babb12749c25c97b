#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        Runs one workload; the last stdout line is the result object.
    python3 perfbench/run.py [--seed N] [--seconds S]
        Runs all three workloads untraced, prints each workload's
        end-to-end metrics by name and unit, and exits 1 if any output
        check failed.

The program is built in Release mode under .bench_build/perfbench at the
root of the checkout. Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["daric-update", "dispute-mix", "pcn-durable"]


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", "%g" % seconds, "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.workload:
        code, lines = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return code

    failed = False
    for w in WORKLOADS:
        code, lines = run_one(binary, w, args.seed, args.seconds, 0)
        print("== %s (seed %d, %g s)" % (w, args.seed, args.seconds))
        rows = [line[len("# e2e "):].split(" ") for line in lines if line.startswith("# e2e ")]
        try:
            result = json.loads(lines[-1])
            rows += [[k, v["value"], v["unit"]] for k, v in result["metrics"].items()]
            print("  correct=%s attempted=%d failed=%d" %
                  (result["correct"], result["attempted"], result["failed"]))
        except (IndexError, ValueError, KeyError):
            print("  no result line")
        for name, value, unit in rows:
            print("  %-26s %14.4f %s" % (name, float(value), unit))
        if code != 0:
            failed = True
            print("  FAILED (exit %d)" % code)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
