#!/usr/bin/env python3
"""Compare sets of fth_bench reports against the bounds in BENCHMARK.json.

Inputs are the JSON files `fth_bench --report` (or `run.py --report`) writes;
untraced reports carry the end-to-end metrics. For each workload and each
end-to-end metric it prints the median and quartiles of every set.

  agree.py --a A1.json A2.json ...
      one set: its spread, (q3 - q1) / median, next to the metric's bound.
  agree.py --a A*.json --b B*.json
      two sets of the same commit: they agree when every median of B is
      within the bound of A's median. Exit status 1 when any metric does not.
  agree.py --pair --parent P*.json --change C*.json [--metric NAME ...]
      the pair rule for claiming a gain. Reports pair up in the order given
      (run them alternating which side goes first). A gain needs at least 10
      pairs, the change winning at least 9 of every 10 (ties count for
      neither side), and the medians differing, in the better direction, by
      more than the parent's interquartile range. Exit status 1 when a metric
      named with --metric shows no gain.
"""
import argparse
import json
import math
import os
import statistics
import sys
from collections import defaultdict

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "BENCHMARK.json")


def load_set(paths):
    """workload -> metric -> [values], in the order the files were given."""
    out = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as f:
            rep = json.load(f)
        if rep.get("traced"):
            continue
        for name, m in rep["metrics"].items():
            out[rep["workload"]][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    return f"{v:.6g}"


def summary(values):
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else math.inf
    return q1, q2, q3, spread


def one_set(a, metrics):
    print(f"{'workload':<18} {'metric':<14} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    for wl in sorted(a):
        for name, m in metrics.items():
            vals = a[wl].get(name)
            if not vals:
                continue
            q1, q2, q3, spread = summary(vals)
            print(f"{wl:<18} {name:<14} {len(vals):>3} {fmt(q2):>11} {fmt(q1):>11} "
                  f"{fmt(q3):>11} {spread:>8.4f} {m['bound']:>6}")
    return 0


def two_sets(a, b, metrics):
    ok = True
    print(f"{'workload':<18} {'metric':<14} {'median A':>11} {'median B':>11} {'diff':>8} "
          f"{'spread A':>8} {'spread B':>8} {'bound':>6}  verdict")
    for wl in sorted(set(a) | set(b)):
        for name, m in metrics.items():
            va, vb = a[wl].get(name), b[wl].get(name)
            if not va or not vb:
                print(f"{wl:<18} {name:<14} missing in {'A' if not va else 'B'}")
                ok = False
                continue
            _, ma, _, sa = summary(va)
            _, mb, _, sb = summary(vb)
            diff = (mb - ma) / ma if ma else math.inf
            agree = abs(diff) <= m["bound"]
            ok &= agree
            print(f"{wl:<18} {name:<14} {fmt(ma):>11} {fmt(mb):>11} {diff:>+8.4f} "
                  f"{sa:>8.4f} {sb:>8.4f} {m['bound']:>6}  {'agree' if agree else 'DIFFER'}")
    return 0 if ok else 1


def pair_rule(parent, change, metrics, claimed):
    ok = True
    print(f"{'workload':<18} {'metric':<14} {'pairs':>5} {'wins':>4} {'parent':>11} "
          f"{'change':>11} {'parent IQR':>11}  verdict")
    for wl in sorted(set(parent) & set(change)):
        for name, m in metrics.items():
            vp, vc = parent[wl].get(name, []), change[wl].get(name, [])
            pairs = min(len(vp), len(vc))
            if pairs == 0:
                continue
            vp, vc = vp[:pairs], vc[:pairs]
            lower = m["better"] == "lower"
            wins = sum(1 for p, c in zip(vp, vc) if (c < p if lower else c > p))
            q1, mp, q3 = quartiles(vp)
            mc = statistics.median(vc)
            gap = (mp - mc) if lower else (mc - mp)
            gain = pairs >= 10 and 10 * wins >= 9 * pairs and gap > q3 - q1
            if name in claimed and not gain:
                ok = False
            print(f"{wl:<18} {name:<14} {pairs:>5} {wins:>4} {fmt(mp):>11} {fmt(mc):>11} "
                  f"{fmt(q3 - q1):>11}  {'GAIN' if gain else 'no gain'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    p.add_argument("--a", nargs="+", default=[])
    p.add_argument("--b", nargs="+", default=[])
    p.add_argument("--pair", action="store_true")
    p.add_argument("--parent", nargs="+", default=[])
    p.add_argument("--change", nargs="+", default=[])
    p.add_argument("--metric", action="append", default=[],
                   help="restrict to this end-to-end metric (with --pair: the claimed one)")
    args = p.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]
               if not args.metric or m["name"] in args.metric}
    if args.pair:
        if not args.parent or not args.change:
            p.error("--pair needs --parent and --change")
        return pair_rule(load_set(args.parent), load_set(args.change), metrics, set(args.metric))
    if not args.a:
        p.error("give --a (and optionally --b), or --pair")
    if args.b:
        return two_sets(load_set(args.a), load_set(args.b), metrics)
    return one_set(load_set(args.a), metrics)


if __name__ == "__main__":
    sys.exit(main())
