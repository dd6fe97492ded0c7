"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Reads two JSON-lines files written by ``run.py --save``. For every
end-to-end metric of BENCHMARK.json it prints both medians, the ratio
new/old, each side's spread (interquartile range over median) and a verdict.
A metric is "unresolved" when either spread is wider than the metric's bound,
unless every new run is better than every old run.
"""
from __future__ import annotations

import json
import math
import statistics
from pathlib import Path


def _runs(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record["metrics"])
    return by_workload


def spread(values: list[float]) -> float:
    """Interquartile range over median; infinite with fewer than two runs."""
    if len(values) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old_median, new_median = statistics.median(old), statistics.median(new)
    all_better = max(sign * v for v in new) < min(sign * v for v in old)
    if max(spread(old), spread(new)) > bound and not all_better:
        return "unresolved"
    change = sign * (new_median - old_median) / old_median if old_median else math.inf
    if change > bound:
        return "WORSE"
    return "better" if change < -bound or all_better else "within bound"


def compare(old_path: Path, new_path: Path, benchmark_json: Path) -> int:
    metrics = json.loads(benchmark_json.read_text(encoding="utf-8"))["end_to_end"]
    old, new = _runs(old_path), _runs(new_path)
    for workload in [w for w in old if w in new]:
        print(f"{workload}: {len(old[workload])} old runs, {len(new[workload])} new runs")
        print(f"  {'metric':<14} {'unit':<6} {'old':>12} {'new':>12} {'new/old':>8} "
              f"{'spread old':>10} {'spread new':>10}  verdict (bound)")
        for m in metrics:
            a = [r[m["name"]] for r in old[workload]]
            b = [r[m["name"]] for r in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else math.inf
            print(
                f"  {m['name']:<14} {m['unit']:<6} {ma:>12.6g} {mb:>12.6g} {ratio:>8.4f} "
                f"{spread(a):>10.4f} {spread(b):>10.4f}  "
                f"{verdict(a, b, m['better'], m['bound'])} ({m['bound']})"
            )
    return 0
