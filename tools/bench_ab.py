#!/usr/bin/env python3
"""A/B-compare the repository benchmark between two source trees.

Runs each tree's own perfbench/run.py (which builds that tree's benchmark
into its own .bench_build/) in interleaved pairs: for every seed, one run of
tree A and one of tree B, alternating which goes first. Then prints, per
metric of each workload:

    median of A, median of B, median over pairs of B/A, the interquartile
    range of each side, and in how many pairs B was better (by the metric's
    "better" direction in A's BENCHMARK.json).

A metric is marked "gain" when B is better in at least 90% of the pairs and
its median beats A's by more than A's interquartile range; "loss" is the
mirror image. Nothing in either tree is modified.

Usage (from anywhere):

    python3 tools/bench_ab.py --a PARENT_TREE --b CANDIDATE_TREE \\
        --workload serve_open --seeds 1 2 3 --seconds 5 --trace 0

Several --workload values run one after the other. --json FILE also writes
every run's metrics. Exits 1 if any run fails its correctness checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr, end="", file=sys.stderr)
        sys.exit(f"bench_ab: {tree} {workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench_ab: {tree} {workload} seed {seed}: correctness checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def directions(tree: Path) -> dict:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def fmt(x: float) -> str:
    return f"{x:.6g}"


def report(workload: str, runs_a: list, runs_b: list, better: dict) -> None:
    k = len(runs_a)
    print(f"\n## {workload} ({k} interleaved pairs)\n")
    print("| metric | median A | median B | B/A (median) | IQR A | IQR B | B better | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for name in runs_a[0]:
        a = [r[name] for r in runs_a]
        b = [r[name] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratios = [y / x for x, y in zip(a, b) if x != 0]
        ratio = fmt(statistics.median(ratios)) if ratios else "-"
        qa, qb = quartiles(a), quartiles(b)
        iqr_a, iqr_b = qa[1] - qa[0], qb[1] - qb[0]
        sign = {"lower": -1, "higher": 1}.get(better.get(name, ""), 0)
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        verdict = ""
        if sign and wins >= 0.9 * k and sign * (med_b - med_a) > iqr_a:
            verdict = "gain"
        elif sign and losses >= 0.9 * k and sign * (med_a - med_b) > iqr_a:
            verdict = "loss"
        elif a == b:
            verdict = "equal"
        print(f"| {name} | {fmt(med_a)} | {fmt(med_b)} | {ratio} | {fmt(iqr_a)} | {fmt(iqr_b)} "
              f"| {wins}/{k if sign else '-'} | {verdict} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, type=Path, help="baseline source tree")
    ap.add_argument("--b", required=True, type=Path, help="candidate source tree")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = ap.parse_args()
    trees = (args.a.resolve(), args.b.resolve())
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"bench_ab: {tree} has no perfbench/run.py", file=sys.stderr)
            return 2

    better = directions(trees[0])
    print(f"A = {trees[0]}\nB = {trees[1]}\n"
          f"seeds {args.seeds}, {args.seconds} s per run, --trace {args.trace}")
    raw = {}
    for workload in args.workload:
        runs = ([], [])
        for i, seed in enumerate(args.seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds, args.trace))
            print(f"bench_ab: {workload} seed {seed} done", file=sys.stderr, flush=True)
        report(workload, runs[0], runs[1], better)
        raw[workload] = {"seeds": args.seeds, "a": runs[0], "b": runs[1]}
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
