"""Compare the result files of two commits, one table row per workload.

Each side is a result file written by run.py or a directory holding them.
Timed runs (trace 0) are paired by workload and seed, so run parent and
change on the same seeds, alternating which side runs first.  Where a side
holds several runs of one seed, they pair in the order of their file names,
and the runs left without a partner are counted and reported.  For every
end-to-end metric and workload the table shows each side's median and
quartiles and a verdict, the first of these that applies:

  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  unresolved  a side's interquartile distance, as a share of its median,
              exceeds the bound, unless every change run beats every parent
              run;
  same        otherwise.
"""

from __future__ import annotations

import json
import os
import statistics


def load(path):
    """Timed-run records under a path, as lists keyed by (workload, seed)."""
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
    records = []
    for p in paths:
        with open(p) as fh:
            records.append(json.load(fh))
    out = {}
    for r in records:
        if r["env"]["trace"] == 0:
            out.setdefault((r["workload"], r["env"]["seed"]), []).append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(verdict, wins) for paired values, by the rule in the module
    docstring."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if sign * (cm - pm) < 0 and abs(cm - pm) > bound * abs(pm):
        return "worse", wins
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "better", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def main(spec, parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    pairs = {}
    for key in sorted(set(parent) | set(change)):
        pairs.setdefault(key[0], []).extend(zip(parent.get(key, ()), change.get(key, ())))
    unpaired = sum(len(v) for v in parent.values()) + sum(len(v) for v in change.values()) \
        - 2 * sum(len(v) for v in pairs.values())
    if unpaired:
        print(f"warning: {unpaired} timed runs have no partner of the same workload "
              "and seed and are left out")
    workloads = [w for w in sorted(pairs) if pairs[w]]
    if not workloads:
        print("no timed runs with a common workload and seed")
        return 1
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        print(f"  {'workload':10s} {'pairs':>5s}  {'parent q1 / median / q3':>32s}"
              f"  {'change q1 / median / q3':>32s}  {'wins':>5s}  verdict")
        for w in workloads:
            pv = [p["metrics"][name]["value"] for p, _ in pairs[w]]
            cv = [c["metrics"][name]["value"] for _, c in pairs[w]]
            label, wins = verdict(pv, cv, metric["better"], metric["bound"])
            pq = " / ".join(f"{v:.4g}" for v in quartiles(pv))
            cq = " / ".join(f"{v:.4g}" for v in quartiles(cv))
            print(f"  {w:10s} {len(pv):5d}  {pq:>32s}  {cq:>32s}  {wins:5d}  {label}")
    return 0
