#!/usr/bin/env python3
"""The benchmark's own test.

For every workload, two runs with the same seed must report identical
exact counts (on-chain weight, storage, punish gap, messages, persists),
and every run must pass its output checks. daric-update's party storage
must not grow with the update count (storage_growth_B == 0). A traced run
must report exactly the per-layer metrics BENCHMARK.json lists, and an
untraced run exactly its end-to-end metrics, each with the listed unit.

    python3 perfbench/test_counts.py
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def result(binary, workload, seed, trace):
    code, lines = run.run_one(binary, workload, seed, 1, trace)
    counts = next(json.loads(l[len("# counts "):]) for l in lines if l.startswith("# counts "))
    return code, counts, json.loads(lines[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in run.WORKLOADS:
        code1, counts1, res1 = result(binary, w, 5, 0)
        code2, counts2, _ = result(binary, w, 5, 0)
        check(code1 == 0 and code2 == 0 and res1["correct"] and res1["failed"] == 0,
              "%s: output checks pass" % w)
        check(counts1 == counts2, "%s: same seed, same counts %s" % (w, counts1))
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        got = {k: v["unit"] for k, v in res1["metrics"].items()}
        check(got == want and all(v["value"] > 0 for v in res1["metrics"].values()),
              "%s: every end-to-end metric present, with its unit, nonzero" % w)
        if w == "daric-update":
            check(counts1.get("storage_growth_B") == 0,
                  "daric-update: party storage flat across updates")
        if w == "dispute-mix":
            check(0 < counts1["punish_gap_rounds"] <= 4, "dispute-mix: punish gap within T - delta")
        code, _, traced = result(binary, w, 6, 1)
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(code == 0 and traced["correct"] and got == want,
              "%s: traced run reports every per-layer metric with its unit" % w)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
