#!/usr/bin/env python3
"""Run perfbench repeatedly and summarise the figures.

Two modes, both run from any directory:

  spread   one checkout, one run per seed; prints each metric's median,
           quartiles and spread (quartile distance over median) next to the
           bound BENCHMARK.json fixes for it.

      python3 perfbench/compare.py spread --dir . --workload fleet-churn-m4096 --seeds 1-10

  pair     a parent and a change checkout, run in alternating order on the
           same seeds; prints each side's median and quartiles, how many
           pairs the change won, and a verdict per end-to-end metric.

      python3 perfbench/compare.py pair --parent ../parent --change . --workload fig3-cifar-m4 --seeds 1-10

A checkout is a directory holding BENCHMARK.json and perfbench/ next to the
source tree; each run is `python3 perfbench/run.py` started in it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns the parsed result line."""
    b = bench(checkout)
    cmd = b["command"] + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds or b["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed in {checkout}: seed {seed}, exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"  seed {seed}: {res['failed']} of {res['attempted']} cells failed their check", file=sys.stderr)
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread_mode(a):
    b = bench(a.dir)
    metrics = b["per_layer"] if a.trace else b["end_to_end"]
    rows = {m["name"]: [] for m in metrics}
    for s in seeds(a.seeds):
        res = run(a.dir, a.workload, s, a.seconds, a.trace)
        for name in rows:
            rows[name].append(res["metrics"][name]["value"])
        print(f"  seed {s}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in rows.items()), file=sys.stderr)
    print(f"{'metric':32} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        q1, med, q3 = summary(rows[m["name"]])
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:32} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6} {flag}")


def pair_mode(a):
    metrics = bench(a.change)["end_to_end"]
    parent = {m["name"]: [] for m in metrics}
    change = {m["name"]: [] for m in metrics}
    for i, s in enumerate(seeds(a.seeds)):
        order = [(a.parent, parent), (a.change, change)]
        if i % 2:
            order.reverse()
        for checkout, rows in order:
            res = run(checkout, a.workload, s, a.seconds, 0)
            for name in rows:
                rows[name].append(res["metrics"][name]["value"])
    print(f"{'metric':16} {'parent q1/med/q3':>36} {'change q1/med/q3':>36} {'wins':>7}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p, c = parent[name], change[name]
        pq1, pmed, pq3 = summary(p)
        cq1, cmed, cq3 = summary(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
        if wins >= 0.9 * len(p) and abs(cmed - pmed) > pq3 - pq1:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
        elif (pq3 - pq1) / pmed > m["bound"] and not all(
                (y < min(p)) if lower else (y > max(p)) for y in c):
            verdict = "unresolved: parent spread exceeds the bound"
        else:
            verdict = "no regression"
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)
        print(f"{name:16} {fmt((pq1, pmed, pq3)):>36} {fmt((cq1, cmed, cq3)):>36} {wins:>3}/{len(p):<3}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--dir", default=".")
    sp.add_argument("--trace", type=int, default=0)
    pp = sub.add_parser("pair")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    for p in (sp, pp):
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
        p.add_argument("--seconds", type=int, default=0, help="0 means BENCHMARK.json's run_seconds")
    a = ap.parse_args()
    spread_mode(a) if a.mode == "spread" else pair_mode(a)


if __name__ == "__main__":
    main()
