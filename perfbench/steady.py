#!/usr/bin/env python3
"""Steadiness check: runs each workload several times on one commit, each
run with another seed, and prints for every end-to-end metric its median,
quartiles, quartile spread (IQR / median, the figure the bounds in
BENCHMARK.json are held to) and largest relative deviation from the
median. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 25 --workloads cold,hot,churn

With --save FILE it also writes every value to FILE as JSON; --compare A B
prints, for two saved sets, each metric's two medians and their relative
difference against its bound, without running anything.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", default="cold,hot,churn")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run; run i uses seed0+i")
    ap.add_argument("--save", help="write the values of every run to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved sets and exit")
    args = ap.parse_args()

    bounds, better = {}, {}
    try:
        with open("BENCHMARK.json") as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]], better[m["name"]] = m["bound"], m["better"]
    except (OSError, ValueError, KeyError):
        pass

    if args.compare:
        compare(args.compare, bounds, better)
        return

    saved = {}

    for workload in args.workloads.split(","):
        values, shares, correct = {}, set(), True
        for i in range(args.runs):
            seed = args.seed0 + i
            out = run_once(workload, seed, args.seconds, 0)
            correct = correct and out["correct"]
            shares.add(out["failed"] / out["attempted"])
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(out["metrics"].items())), flush=True)
        saved[workload] = {"values": values, "failed_shares": sorted(shares), "correct": correct}
        if args.save:
            with open(args.save, "w") as f:
                json.dump(saved, f, indent=1)
        print(f"== {workload}: {args.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        for name, xs in sorted(values.items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            maxdev = max(abs(x - med) for x in xs) / med
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f} ({'ok' if spread < bound / 3 else 'WIDE'} vs bound/3)"
            print(f"   {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"iqr/median {spread:.4f}  max dev {maxdev:.4f}  {verdict}")


def compare(paths, bounds, better):
    """Prints, per workload and metric, the medians of two saved sets and
    how much worse the second is than the first, as a share of the first."""
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f))
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        a, b = sets[0][workload], sets[1][workload]
        print(f"== {workload}: failed shares {a['failed_shares']} and {b['failed_shares']}")
        for name in sorted(a["values"]):
            ma, mb = statistics.median(a["values"][name]), statistics.median(b["values"][name])
            worse = (mb - ma) / ma if better.get(name, "lower") == "lower" else (ma - mb) / ma
            bound = bounds.get(name)
            verdict = "" if bound is None else f"bound {bound:.2f} ({'ok' if worse <= bound else 'WORSE'})"
            print(f"   {name:16s} median {ma:.5g} then {mb:.5g}  worse by {worse:+.4f}  {verdict}")


if __name__ == "__main__":
    main()
