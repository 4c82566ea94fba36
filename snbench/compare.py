#!/usr/bin/env python3
"""Collect, summarise and compare snbench result sets.

A result set is a JSONL file written by `snbench/run.py --record FILE`:
one line per run with the workload, seed, trace flag, host and result.

    compare.py collect --parent DIR --change DIR --out-dir OUT [--workload W ...]
        Run each workload in two checkouts as 10 alternating pairs (the
        side that runs first alternates), pair i with seed 1 + i,
        recording OUT/parent.jsonl and OUT/change.jsonl. A run whose
        result is not correct is recorded and collection goes on; a run
        that prints no result stops it.

    compare.py spread FILE
        For each workload and end-to-end metric: runs, median, quartiles
        and the quartile spread as a share of the median, against the
        metric's bound in BENCHMARK.json.

    compare.py compare PARENT CHANGE
        For each workload and end-to-end metric: both sides' medians and
        quartiles, the change's wins, and a verdict. Pairs are matched
        in file order per workload; at least 10 are required. Result
        sets from hosts with different core counts are refused.

Verdicts:
    improved      the change wins at least 9/10 of the pairs (ties count
                  for neither) and the medians differ, in its favour, by
                  more than the parent's quartile spread
    regressed     the change's median is worse than the parent's by more
                  than the metric's bound
    unresolved    the parent's own quartile spread is wider than the
                  bound, and not every change run beats every parent run
    within-bound  none of the above
A higher failed_ratio (failed / attempted) on the change is flagged
separately.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs):
    out = {}
    for r in runs:
        if r["trace"] == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def failed_ratio(run):
    res = run["result"]
    return res["failed"] / res["attempted"]


def spread(args):
    bench = load_benchmark(args.benchmark)
    runs = load(args.file)
    print(f"{'workload':<12} {'metric':<16} {'runs':>4} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for wl, rs in sorted(by_workload(runs).items()):
        for m in bench["end_to_end"]:
            v = values(rs, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            s = (q3 - q1) / med if med else 0.0
            flag = "" if s < m["bound"] / 3 else "  > bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{wl:<12} {m['name']:<16} {len(v):>4} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {s:>8.4f} {m['bound']:>6}{flag}")
        bad = [r for r in rs if not r["result"]["correct"]]
        if bad:
            print(f"{wl:<12} {len(bad)} run(s) not correct")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def compare(args):
    bench = load_benchmark(args.benchmark)
    parent, change = load(args.parent), load(args.change)
    cores = {r["host"]["nproc"] for r in parent + change}
    if len(cores) != 1:
        print(f"refusing to compare: result sets come from hosts with core counts "
              f"{sorted(cores)}", file=sys.stderr)
        return 2
    for side, runs in (("parent", parent), ("change", change)):
        hosts = {(r["host"]["nproc"], r["host"]["ocaml"], r["host"]["commit"],
                  r["host"]["dirty"]) for r in runs}
        for nproc, ocaml, commit, dirty in sorted(hosts, key=str):
            print(f"{side}: commit {commit} dirty={dirty} ocaml {ocaml} nproc {nproc}")
    pw, cw = by_workload(parent), by_workload(change)
    status = 0
    print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40} {'wins':>7}  verdict")
    for wl in sorted(set(pw) | set(cw)):
        p, c = pw.get(wl, []), cw.get(wl, [])
        pairs = min(len(p), len(c))
        if pairs < PAIRS:
            print(f"{wl:<12} only {pairs} pairs; at least {PAIRS} are needed")
            status = 2
            continue
        p, c = p[:pairs], c[:pairs]
        for m in bench["end_to_end"]:
            pv, cv = values(p, m["name"]), values(c, m["name"])
            if len(pv) != pairs or len(cv) != pairs:
                continue
            lower = m["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(1 for a, b in zip(pv, cv) if better(b, a))
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            worse_by = (cmed - pmed) if lower else (pmed - cmed)
            if wins >= 0.9 * pairs and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
                verdict = "improved"
            elif worse_by > m["bound"] * abs(pmed):
                verdict = "regressed"
                status = 1
            elif pmed and (pq3 - pq1) / abs(pmed) > m["bound"] and not all(
                    better(b, a) for a in pv for b in cv):
                verdict = "unresolved"
            else:
                verdict = "within-bound"
            print(f"{wl:<12} {m['name']:<16} {pmed:>14.6g} [{pq1:>10.6g}, {pq3:>10.6g}] "
                  f"{cmed:>14.6g} [{cq1:>10.6g}, {cq3:>10.6g}] {wins:>3}/{pairs:<3}  {verdict}")
        pf, cf = max(map(failed_ratio, p)), max(map(failed_ratio, c))
        if cf > pf:
            print(f"{wl:<12} FLAG: failed_ratio rose from {pf:.6g} to {cf:.6g}")
            status = 1
    return status


def recorded(path):
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for line in f if line.strip())


def collect(args):
    out = os.path.abspath(args.out_dir)
    os.makedirs(out, exist_ok=True)
    sides = [("parent", os.path.abspath(args.parent)), ("change", os.path.abspath(args.change))]
    seconds = str(load_benchmark(args.benchmark)["run_seconds"])
    status = 0
    for wl in args.workload:
        for i in range(PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for name, checkout in order:
                record = os.path.join(out, name + ".jsonl")
                before = recorded(record)
                cmd = [sys.executable, "snbench/run.py", "--workload", wl,
                       "--seed", str(1 + i), "--seconds", seconds, "--trace", "0",
                       "--record", record]
                print(f"[{wl} pair {i + 1}/{PAIRS}] {name}", file=sys.stderr)
                proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    if recorded(record) == before:
                        print(f"run printed no result in {checkout}", file=sys.stderr)
                        return 1
                    print(f"run not correct in {checkout}; recorded", file=sys.stderr)
                    status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default=BENCHMARK, help="BENCHMARK.json to read bounds from")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--workload", action="append",
                   default=None, help="repeatable; default: every workload")
    s = sub.add_parser("spread")
    s.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "collect":
        if not args.workload:
            args.workload = [w["name"] for w in load_benchmark(args.benchmark)["workloads"]]
        return collect(args)
    return spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
