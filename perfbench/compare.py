#!/usr/bin/env python3
"""Compare two sets of benchmark records (parent vs change).

    python3 perfbench/run.py ... --record parent/   # on the parent commit
    python3 perfbench/run.py ... --record change/   # on the change
    python3 perfbench/compare.py parent/ change/

Exact part: for every (workload, seed) both sides ran, the output digest
must match, and with --trace 1 so must every deterministic count. Timing
part: for every workload x end-to-end metric, each side's median and
quartiles, the change's pair win fraction (the k-th run of a seed on one
side paired with the k-th run of that seed on the other; ties count for
neither), and a verdict by the rule in METRICS.md:

  gain        wins >= 9/10 of pairs and the medians differ by more than the
              parent's interquartile distance
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread is wider than the bound
  within      otherwise (no regression beyond the bound)

Exits 1 on any exact mismatch or regression, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that repeat exactly for a seed (unit "count" and these).
EXACT_EXTRA = {"node.demux_probe_mean", "flow.hot_bytes",
               "pdes.shard_events_max_over_mean", "sim.events_per_sim_s",
               "mem.allocs_per_kevent"}


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        rec = doc["record"]
        runs.append({"workload": rec["workload"], "seed": int(rec["seed"]),
                     "trace": int(rec["trace"]), "time": doc["time"],
                     "digest": rec["digest"], "stamp": rec["stamp"],
                     "metrics": rec["metrics"], "path": path})
    runs.sort(key=lambda r: r["time"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def exact_checks(parent, change, spec):
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" or m["name"] in EXACT_EXTRA}
    problems = []
    for side, runs in (("parent", parent), ("change", change)):
        seen = {}
        for r in runs:
            key = (r["workload"], r["seed"])
            if seen.setdefault(key, r["digest"]) != r["digest"]:
                problems.append(f"{side}: {key} digest not repeatable")
    first = {}
    for r in parent:
        first.setdefault((r["workload"], r["seed"], r["trace"]), r)
    for r in change:
        p = first.get((r["workload"], r["seed"], r["trace"]))
        if p is None:
            continue
        where = f"{r['workload']} seed {r['seed']}"
        if p["digest"] != r["digest"]:
            problems.append(f"{where}: digest {p['digest']} -> {r['digest']}")
        if r["trace"] == 1:
            for name in sorted(exact):
                a, b = p["metrics"].get(name), r["metrics"].get(name)
                if a != b:
                    problems.append(f"{where}: {name} {a} -> {b}")
    return sorted(set(problems))


def timing_rows(parent, change, spec):
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        ps = [r for r in parent if r["workload"] == wl and r["trace"] == 0]
        cs = [r for r in change if r["workload"] == wl and r["trace"] == 0]
        if not ps or not cs:
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            pv = [r["metrics"][name] for r in ps]
            cv = [r["metrics"][name] for r in cs]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = pairs = 0
            by_seed = {}
            for r in ps:
                by_seed.setdefault(r["seed"], []).append(r["metrics"][name])
            used = {}
            for r in cs:
                k = used.get(r["seed"], 0)
                mine = by_seed.get(r["seed"], [])
                if k < len(mine):
                    used[r["seed"]] = k + 1
                    pairs += 1
                    a, b = mine[k], r["metrics"][name]
                    if (b < a) if lower else (b > a):
                        wins += 1
            pmed, cmed = pq[1], cq[1]
            worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            spread = (pq[2] - pq[0]) / pmed if pmed else float("inf")
            win_frac = wins / pairs if pairs else 0.0
            if worse > bound:
                verdict = "regression"
            elif pairs and win_frac >= 0.9 and abs(cmed - pmed) > pq[2] - pq[0]:
                verdict = "gain"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "within"
            rows.append((wl, name, m["unit"], len(pv), pq, len(cv), cq,
                         win_frac, pairs, verdict))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    a = ap.parse_args()
    with open(a.spec) as f:
        spec = json.load(f)
    parent, change = load(a.parent), load(a.change)
    if not parent or not change:
        print("compare.py: no records found", file=sys.stderr)
        return 2

    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in parent + change}
    for s in sorted(stamps):
        print(f"stamp {s}")

    problems = exact_checks(parent, change, spec)
    print(f"\nexact: {'OK' if not problems else f'{len(problems)} mismatch(es)'}")
    for p in problems:
        print(f"  MISMATCH {p}")

    rows = timing_rows(parent, change, spec)
    print(f"\n{'workload':<13} {'metric':<12} {'unit':<4} "
          f"{'parent q1/med/q3 (n)':<32} {'change q1/med/q3 (n)':<32} "
          f"{'win':>9} verdict")
    for wl, name, unit, pn, pq, cn, cq, wf, pairs, verdict in rows:
        fmt = lambda q, n: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g} ({n})"
        print(f"{wl:<13} {name:<12} {unit:<4} {fmt(pq, pn):<32} "
              f"{fmt(cq, cn):<32} {wf:>5.2f}/{pairs:<3} {verdict}")
    regressions = [r for r in rows if r[-1] == "regression"]
    return 1 if problems or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
