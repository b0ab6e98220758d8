#!/usr/bin/env python3
"""Steadiness tool: two builds, or one build twice, run alternately.

    python3 perfbench/steady.py [--a DIR] [--b DIR] [--rounds N] [--json PATH]

DIR is the root of a checkout holding perfbench/ (default: this one).
With --b omitted, B is the same build as A, run a second time: the two
sets then show how far unchanged code moves between sets of runs.

Each round runs every workload of A's BENCHMARK.json once on each
side, for its run_seconds, with the seed of the round (1, 2, ..., N)
on both sides; which side goes first alternates by round. For every
workload and end-to-end metric the tool prints each side's median,
quartiles (statistics.quantiles(n=4)) and spread (the interquartile
range as a share of the median), the change of B's median against A's
in the metric's worse direction, the bound from A's BENCHMARK.json,
and which side won each round ('=' for a tie). A metric is out of
bound when either side's spread, or B's change, exceeds its bound.
It also compares the share of failed operations between the sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} in {root} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", default=os.path.dirname(HERE))
    ap.add_argument("--b")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    a = os.path.abspath(args.a)
    b = os.path.abspath(args.b or args.a)
    with open(os.path.join(a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for r in range(args.rounds):
        seed = r + 1
        order = [("A", a), ("B", b)] if r % 2 == 0 else [("B", b), ("A", a)]
        for w in workloads:
            for side, root in order:
                res = run_once(root, w, seed, seconds)
                results[w][side].append(res)
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in e2e)
                print(f"round {r + 1} {w} {side} seed {seed}: correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    print()
    for w in workloads:
        print(f"== {w} ({args.rounds} rounds, {seconds} s runs)")
        for m in e2e:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            va = [x["metrics"][name]["value"] for x in results[w]["A"]]
            vb = [x["metrics"][name]["value"] for x in results[w]["B"]]
            qa, qb = quartiles(va), quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            worse = (qa[1] - qb[1]) / qa[1] if higher else (qb[1] - qa[1]) / qa[1]
            wins = "".join(
                "=" if x == y else ("B" if (y > x) == higher else "A") for x, y in zip(va, vb)
            )
            verdict = "ok" if max(spread_a, spread_b, worse) <= bound else "OUT OF BOUND"
            ok &= verdict == "ok"
            print(f"  {name:13} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] spread {spread_a:.2%} | "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] spread {spread_b:.2%} | "
                  f"B worse by {worse:+.2%} (bound {bound:.0%}) wins {wins} {verdict}")
        shares = {
            side: {x["failed"] / x["attempted"] for x in results[w][side]} for side in ("A", "B")
        }
        same = len(shares["A"] | shares["B"]) == 1
        ok &= same
        print(f"  failed share: A {sorted(shares['A'])} B {sorted(shares['B'])} "
              f"{'identical' if same else 'DIFFERS'}")
        correct = all(x["correct"] for side in ("A", "B") for x in results[w][side])
        ok &= correct
        print(f"  every run correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
