#!/usr/bin/env python3
"""Run-agreement check for the end-to-end benchmark.

    python3 perfbench/agree.py [--workload NAME ...] [--runs 10] [--sets 1]
                               [--seconds S] [--first-seed 1]

Runs BENCHMARK.json's command once per seed (seeds first-seed ..
first-seed + runs - 1) on each workload, untraced, and reports for every
end-to-end metric the median, the quartiles and the spread (Q3 - Q1 over
the median) against the metric's bound. With --sets 2 it repeats the
whole set and applies the acceptance rule (stats.agreement): every spread,
setup_s included, within its bound, and no second median worse than the
first by more than the bound. Exits 1 when a run fails or the rule does
not hold. Run from the root of a checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        print("  seed %d: FAILED (exit %d)" % (seed, proc.returncode))
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_set(spec, workload, seeds, seconds):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in seeds:
        got = run_once(spec, workload, seed, seconds)
        if got is None:
            ok = False
            continue
        for name in values:
            values[name].append(got[name])
        print("  seed %d: %s" % (seed, "  ".join(
            "%s=%.4g" % (k, got[k]) for k in values)), flush=True)
    return values, ok


def report(spec, values):
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        if not vals:
            continue
        q1, q2, q3 = stats.quartiles(vals)
        s = stats.spread(vals)
        print("  %-16s median %-12.5g Q1 %-12.5g Q3 %-12.5g spread %.3f "
              "(bound %.2f, %.2f of it)" % (m["name"], q2, q1, q3, s,
                                            m["bound"], s / m["bound"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    failed = False
    for workload in workloads:
        sets = []
        for i in range(args.sets):
            print("%s, set %d" % (workload, i + 1), flush=True)
            values, ok = run_set(spec, workload, seeds, seconds)
            failed |= not ok
            report(spec, values)
            sets.append(values)
        if len(sets) == 2:
            problems = stats.agreement(sets[0], sets[1], spec["end_to_end"])
            for p in problems:
                print("  DISAGREE %s" % p)
            failed |= bool(problems)
            print("  %s: sets %s" % (workload,
                                     "disagree" if problems else "agree"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
