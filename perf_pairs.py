#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Builds each checkout's benchmark package (`perfbench/`), then runs N pairs
of one workload and seed, alternating which checkout runs first, and prints
one row per end-to-end metric: the parent's median and quartiles, the
change's median, its change in percent, and in how many pairs the change
read lower. The `sim_*` metrics are simulated outputs, so the last column
says whether they were bit-identical in every run instead.

    python3 perf_pairs.py PARENT CHANGE [--workload W] [--seed S]
                          [--pairs N] [--seconds S]

or `make perf-pairs [PARENT=<dir>] [CHANGE=<dir>] [WORKLOAD=…] [SEED=…]`.
Without PARENT, make extracts HEAD (the parent of uncommitted work) with
`git archive` into target/perf-parent/<sha> and pairs against it,
reusing an earlier extraction of the same commit.
Runs of one binary vary by 5-10% at 10 s on a 2-vCPU host, hence the
30-s default. Keep the host otherwise idle while it runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def build(checkout: Path) -> Path:
    manifest = checkout / "perfbench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        check=True,
    )
    return checkout / "perfbench" / "target" / "release" / "perfbench"


def run(binary: Path, args: argparse.Namespace) -> dict:
    out = subprocess.run(
        [
            str(binary),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    return {name: (m["value"], m["unit"]) for name, m in report["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", default="paper_basrpt")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    binaries = {"parent": build(args.parent), "change": build(args.change)}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run(binaries[side], args))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s runs")
    print(f"{'metric':<22} {'parent median [Q1, Q3]':>32} {'change median':>14} {'Δ':>8} {'lower':>6}")
    for name, (_, unit) in runs["parent"][0].items():
        parent = [r[name][0] for r in runs["parent"]]
        change = [r[name][0] for r in runs["change"]]
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        else:
            q1 = q3 = parent[0]
        p, c = statistics.median(parent), statistics.median(change)
        delta = f"{100 * (c - p) / p:+.1f}%" if p else "n/a"
        if name.startswith("sim_"):
            lower = "same" if set(parent) | set(change) == {parent[0]} else "DIFFER"
        else:
            lower = f"{sum(b < a for a, b in zip(parent, change))}/{args.pairs}"
        spread = f"{p:.4g} [{q1:.4g}, {q3:.4g}] {unit}"
        print(f"{name:<22} {spread:>32} {c:>14.4g} {delta:>8} {lower:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
