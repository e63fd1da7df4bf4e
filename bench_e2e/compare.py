"""``run.py --compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric): both medians, B's change as a
ratio with its base, and a verdict from the metric's own bound and direction
in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  it is not, but the run-to-run spread of either side (the
                distance between the quartiles as a share of the median) is
                wider than the bound, and not every run of B reads better
                than every run of A;
``ok``          otherwise.

Spread needs at least two runs a side (``run.py --runs N``); with one run a
side it is unknown and a metric within its bound reads ``ok``.  Exit 2 on
any ``worse``, 1 on unusable input, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (new - base) > bound * abs(base):
        return "worse"
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        if not all_better:
            return "unresolved"
    return "ok"


def main(path_a: Path, path_b: Path, spec: Dict[str, object]) -> int:
    results = [json.loads(path.read_text()) for path in (path_a, path_b)]
    for path, result in zip((path_a, path_b), results):
        if result.get("smoke"):
            print(f"{path}: a --smoke result is not a measurement; refusing",
                  file=sys.stderr)
            return 1
    a, b = (result["workloads"] for result in results)
    worse = 0
    print(f"{'workload':<15} {'metric':<18} {'A':>12} {'B':>12}"
          f" {'B/A':>7} {'bound':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            continue
        for metric in spec["end_to_end"]:
            values_a = a[name]["end_to_end"].get(metric["name"])
            values_b = b[name]["end_to_end"].get(metric["name"])
            if not values_a or not values_b:
                print(f"{name:<15} {metric['name']:<18} missing on one side")
                return 1
            outcome = verdict(values_a, values_b, metric["better"],
                              metric["bound"])
            worse += outcome == "worse"
            base, new = statistics.median(values_a), statistics.median(values_b)
            print(f"{name:<15} {metric['name']:<18} {base:>12.6g} {new:>12.6g}"
                  f" {new / base:>7.3f} {metric['bound']:>6.2f}  {outcome}"
                  f"  ({metric['better']} is better, {metric['unit']})")
        for side, label in ((a, "A"), (b, "B")):
            if side[name]["failed"]:
                print(f"{name:<15} {label}: {side[name]['failed']} of"
                      f" {side[name]['attempted']} operations failed")
                worse += 1
    # Per-layer readings have no bound: shown so a change can be located.
    layers_a, layers_b = (result.get("layers", {}) for result in results)
    for which in sorted(set(layers_a) & set(layers_b)):
        for metric in spec["per_layer"]:
            base = layers_a[which]["metrics"].get(metric["name"])
            new = layers_b[which]["metrics"].get(metric["name"])
            if base is not None and new is not None:
                ratio = f"{new / base:>7.3f}" if base else f"{'-':>7}"
                print(f"{'layers:' + which:<15} {metric['name']:<34}"
                      f" {base:>12.6g} {new:>12.6g} {ratio}  {metric['unit']}")
    return 2 if worse else 0
