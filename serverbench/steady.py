#!/usr/bin/env python3
"""Steadiness self-check for the server benchmark.

Runs the benchmark command from BENCHMARK.json k times on one workload
(or on every workload), each time with another seed, and prints for
each end-to-end metric its median, its quartile spread as a share of
the median, and the metric's bound from BENCHMARK.json. A spread at
most a third of the bound is marked `steady`; one within the bound
`ok`; the rest `NOISY` (`setup_s`'s spread is shown but not judged).
The spread is computed as statistics.quantiles(values, n=4) gives the
quartiles.

With --sets N the same seeds are run N times, set after set, and each
later set's median of every metric is compared with the first set's:
`ok` when it is not worse by more than the bound, `WORSE` otherwise.
The exit code is 1 when any spread or comparison fails.

Run from the repository root:

    python3 serverbench/steady.py --workload point_eval --runs 5
    python3 serverbench/steady.py --all --runs 10 --sets 2 --json out.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def one_set(bench, workload, seeds):
    """Run every seed once; return {metric: [values]} and print spreads."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples = {}
    for seed in seeds:
        for k, v in run_once(bench, workload, seed).items():
            samples.setdefault(k, []).append(v)
        print(f"  {workload} seed {seed} done", file=sys.stderr)
    failed = False
    print(f"{workload} ({len(seeds)} runs)")
    for name, values in samples.items():
        med, sp = spread(values)
        bound = bounds[name]
        if name == "setup_s":
            verdict = "(not judged)"
        elif sp <= bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "ok"
        else:
            verdict, failed = "NOISY", True
        print(f"  {name:16s} median {med:14.4f}  spread {sp:7.4f}  bound {bound:5.3f}  {verdict}")
    return samples, failed


def compare(bench, workload, first, later, set_no):
    """Print how much worse each median of `later` is than `first`."""
    failed = False
    print(f"{workload}: set {set_no} against set 1 (worsening as a share of set 1's median)")
    for m in bench["end_to_end"]:
        a = statistics.median(first[m["name"]])
        b = statistics.median(later[m["name"]])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        failed |= verdict != "ok"
        print(f"  {m['name']:16s} {a:14.4f} -> {b:14.4f}  worse by {worse:+7.4f}  bound {m['bound']:5.3f}  {verdict}")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write every sample to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]] if args.all else [args.workload]
    if names == [None]:
        ap.error("give --workload NAME or --all")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets, failed = [], False
    for s in range(args.sets):
        print(f"== set {s + 1}")
        samples = {}
        for w in names:
            samples[w], bad = one_set(bench, w, seeds)
            failed |= bad
        sets.append(samples)
    for s, later in enumerate(sets[1:], start=2):
        print(f"== set {s} against set 1")
        for w in names:
            failed |= compare(bench, w, sets[0][w], later[w], s)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sets, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
