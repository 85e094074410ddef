"""``python -m bench compare BASE... -- CHANGE...``: verdict per metric.

For every workload and every gated metric it prints each side's
median and quartiles, the share of (base, change) pairs the change wins
(runs are paired in seed order, so equal seed lists pair equal inputs;
ties count for neither side) and a verdict:

* ``better``: every change run beats every base run, or the change wins
  at least 9 of 10 pairs and the medians differ by more than the base
  runs' own quartile spread;
* ``unresolved``: the base runs spread wider than the metric's bound;
* ``worse``: the change median is worse than the base median by more
  than the bound;
* ``unchanged``: otherwise.

The exit code is 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from bench.spec import gated_metrics

#: Share of pairs the change must win for a gain to count.
WIN_SHARE = 0.9


def load_results(paths: "list[str]") -> "dict[str, list[dict[str, Any]]]":
    """Untraced results by workload, from files or directories of them."""
    by_workload: "dict[str, list[dict[str, Any]]]" = {}
    for raw in paths:
        path = Path(raw)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            with open(file, encoding="utf-8") as source:
                result = json.load(source)
            if result.get("trace") == 0:
                by_workload.setdefault(result["workload"], []).append(result)
    for results in by_workload.values():
        results.sort(key=lambda r: r["seed"])
    return by_workload


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: "list[float]", change: "list[float]", better: str,
            bound: float) -> "dict[str, Any]":
    """Compare one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0     # > 0 means worse
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_share = wins / len(pairs)
    shift = sign * (c_med - b_med)
    scale = abs(b_med)
    if all(sign * (c - b) < 0 for c in change for b in base) or (
            win_share >= WIN_SHARE and shift < 0
            and abs(c_med - b_med) > b_q3 - b_q1):
        word = "better"
    elif b_q3 - b_q1 > bound * scale:
        word = "unresolved"
    elif shift > bound * scale:
        word = "worse"
    else:
        word = "unchanged"
    return {"base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
            "change_pct": 100.0 * (c_med - b_med) / scale if scale else 0.0,
            "win_share": win_share, "verdict": word}


def compare(base_paths: "list[str]", change_paths: "list[str]") -> int:
    """Print one row per workload and metric; the exit code."""
    gated = gated_metrics()
    base = load_results(base_paths)
    change = load_results(change_paths)
    if not base or not change:
        print("compare needs untraced results on both sides")
        return 2
    any_worse = False
    print(f"{'workload':15} {'metric':24} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>5}  verdict")
    for workload in sorted(set(base) & set(change)):
        for metric, (better, bound) in gated.items():
            b = [r["metrics"][metric]["value"] for r in base[workload]
                 if metric in r["metrics"]]
            c = [r["metrics"][metric]["value"] for r in change[workload]
                 if metric in r["metrics"]]
            if not b or not c:
                continue
            row = verdict(b, c, better, bound)
            any_worse = any_worse or row["verdict"] == "worse"
            print(f"{workload:15} {metric:24} "
                  f"{_fmt(row['base']):>34} {_fmt(row['change']):>34} "
                  f"{row['change_pct']:+7.2f}% {row['win_share']:5.2f}  "
                  f"{row['verdict']} (bound {bound:.0%}, "
                  f"{len(b)}x{len(c)} runs)")
    return 1 if any_worse else 0


def _fmt(q: "tuple[float, float, float]") -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
