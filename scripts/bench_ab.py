#!/usr/bin/env python3
"""A/B-compares two checkouts on perfbench workloads.

Usage:

    python3 scripts/bench_ab.py <parent-dir> <change-dir> --workload W \\
        [--workload W2 ...] --pairs N --seconds S [--seed SEED]

`--workload all` runs every workload `BENCHMARK.json` (of the parent)
declares. For each workload in turn, runs `python3 perfbench/run.py`
untraced in each checkout, N pairs of runs of S seconds each,
alternating which side runs first. For every end-to-end metric, prints
each side's median and quartiles, the change's win fraction (ties count
for neither side), whether the change clears the gain rule (it wins at
least nine tenths of the pairs, and the medians differ by more than the
parent's interquartile distance), and the regression verdict: "worse
than bound" when the change's median is worse than the parent's by more
than the metric's `bound` (a fraction of the parent's median);
otherwise "unresolved" when the parent's interquartile distance is
wider than that bound, so the runs cannot show the metric unchanged,
unless every change run beats every parent run; otherwise "within
bound". A last summary lists every workload's verdicts and failed runs.

Both checkouts must build their own benchmark (perfbench writes into
`.bench_build` under each). Their absolute paths must have equal length:
the path is part of the command line, and argv length alone moves
`setup_s` by up to ~17%, so unequal paths are refused.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    """One untraced perfbench run; returns its result dict, or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        return None
    return result


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(roots, metrics, workload, args):
    """Runs one workload's pairs and prints its comparison; returns the
    list of (metric, verdict) and the failed-run counts."""
    rows = []
    failed = {side: 0 for side in roots}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            result = run_once(roots[side], workload, args.seed, args.seconds)
            if result is None:
                failed[side] += 1
                continue
            row[side] = {name: m["value"] for name, m in result["metrics"].items()}
        rows.append(row)
        shown = "  ".join(
            f"{side} {row[side][metrics[0]['name']]:.4g}" if side in row else f"{side} failed"
            for side in order)
        print(f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first): {shown}", flush=True)

    print(f"\n{workload}, {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}; "
          f"failed runs: parent {failed['parent']}, change {failed['change']}")
    verdicts = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [row["parent"][name] for row in rows if "parent" in row]
        c = [row["change"][name] for row in rows if "change" in row]
        if not p or not c:
            print(f"{name}: no successful runs to compare")
            verdicts.append((name, "no runs"))
            continue
        pq, cq = quartiles(p), quartiles(c)
        # Only pairs where both sides ran count.
        both = [(row["parent"][name], row["change"][name]) for row in rows if len(row) == 2]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        losses = sum((b > a) if lower else (b < a) for a, b in both)
        # A failed run loses its pair: the rule counts every pair run.
        gain = (cq[1] < pq[1]) if lower else (cq[1] > pq[1])
        clears = wins >= 0.9 * args.pairs and gain and abs(cq[1] - pq[1]) > pq[2] - pq[0]
        limit = pq[1] * (1 + m["bound"]) if lower else pq[1] * (1 - m["bound"])
        worse = cq[1] > limit if lower else cq[1] < limit
        all_beat = max(c) < min(p) if lower else min(c) > max(p)
        if worse:
            verdict = "worse than bound"
        elif pq[2] - pq[0] > m["bound"] * abs(pq[1]) and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        verdicts.append((name, verdict))
        print(f"{name} ({m['unit']}, {m['better']} is better):"
              f" parent median {pq[1]:.4g} [q1 {pq[0]:.4g}, q3 {pq[2]:.4g}],"
              f" change median {cq[1]:.4g} [q1 {cq[0]:.4g}, q3 {cq[2]:.4g}],"
              f" change/parent {cq[1] / pq[1]:.3f},"
              f" change wins {wins}/{args.pairs} (losses {losses}, both ran {len(both)}),"
              f" gain rule {'met' if clears else 'not met'},"
              f" {verdict} ({m['bound']:.0%} of the parent median, limit {limit:.4g};"
              f" parent spread {(pq[2] - pq[0]) / abs(pq[1]):.0%})")
    return verdicts, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload name, repeatable, or `all`")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(roots["parent"]) != len(roots["change"]):
        sys.exit(f"bench_ab: paths differ in length ({roots['parent']!r} vs {roots['change']!r}); "
                 "argv length moves setup_s, so use equal-length directories")
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if "all" in args.workload else args.workload
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"bench_ab: unknown workload(s) {unknown}; BENCHMARK.json declares {known}")

    summary = []
    for workload in workloads:
        summary.append((workload, *compare(roots, metrics, workload, args)))
        print(flush=True)
    print("summary:")
    for workload, verdicts, failed in summary:
        shown = ", ".join(f"{name} {verdict}" for name, verdict in verdicts)
        print(f"  {workload}: {shown}; failed runs parent {failed['parent']}, "
              f"change {failed['change']}")


if __name__ == "__main__":
    main()
