#!/usr/bin/env python3
"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--gap-s 120]
    python3 perfbench/steadiness.py --raw perfbench/_out/steadiness-<time>.json

Runs every workload of BENCHMARK.json --runs times per set, workloads
interleaved, each run on its own seed, in two sets separated by --gap-s
seconds. For each end-to-end metric it prints the median and the quartile
spread (Q3 - Q1) / median of each set (Python's statistics.quantiles, n=4),
and whether the sets agree: the spread of each set within the metric's
bound and the two medians apart by at most the bound, in either direction,
as a share of the first. The failed share of operations must match exactly.
Raw results are written to perfbench/_out/steadiness-<time>.json; --raw
re-judges such a file against the current bounds without running.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--gap-s", type=float, default=120.0)
    parser.add_argument("--raw", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    if args.raw:
        with open(args.raw) as f:
            sets = json.load(f)
        missing = [w for w in workloads if any(w not in runs for runs in sets)]
        if missing:
            sys.exit(f"{args.raw} has no runs of {', '.join(missing)}")
    for set_index in range(0 if args.raw else 2):
        if set_index > 0:
            time.sleep(args.gap_s)
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = 1000 * (set_index + 1) + i + 1
                result = run_once(w, seed, spec["run_seconds"])
                runs[w].append(result)
                print(f"set {set_index + 1} run {i + 1} {w}: correct="
                      f"{result['correct']} " + " ".join(
                          f"{k}={v['value']:.6g}"
                          for k, v in sorted(result["metrics"].items())),
                      flush=True)
        sets.append(runs)

    raw_path = args.raw
    if not raw_path:
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        raw_path = os.path.join(HERE, "_out",
                                f"steadiness-{int(time.time())}.json")
        with open(raw_path, "w") as f:
            json.dump(sets, f)

    agree = True
    print(f"\n{'workload':18} {'metric':17} {'set1 median':>12} {'IQR':>7} "
          f"{'set2 median':>12} {'IQR':>7} {'apart':>8} {'bound':>6}  verdict")
    for w in workloads:
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs[w])
            failed = sum(r["failed"] for r in runs[w])
            shares.append((failed, attempted))
            if not all(r["correct"] for r in runs[w]):
                agree = False
                print(f"{w}: a run reported correct=false")
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        agree = agree and same_share
        for m in metrics:
            name, bound = m["name"], m["bound"]
            (m1, s1), (m2, s2) = (
                spread([r["metrics"][name]["value"] for r in runs[w]])
                for runs in sets)
            apart = abs(m2 - m1) / m1
            faults = [what for what, bad in (
                ("spread", s1 > bound or s2 > bound),
                ("medians", apart > bound)) if bad]
            agree = agree and not faults
            print(f"{w:18} {name:17} {m1:12.6g} {s1:7.3f} {m2:12.6g} "
                  f"{s2:7.3f} {apart:8.3f} {bound:6.2f}  "
                  + (f"DISAGREE ({', '.join(faults)})" if faults else "agree"))
        print(f"{w:18} failed share: set1 {shares[0][0]}/{shares[0][1]}, "
              f"set2 {shares[1][0]}/{shares[1][1]}  "
              f"{'agree' if same_share else 'DISAGREE'}")
    print(f"\nraw results: {os.path.relpath(os.path.abspath(raw_path), ROOT)}")
    print("sets agree within the bounds" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
