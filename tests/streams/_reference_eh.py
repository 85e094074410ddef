"""Frozen reference: the EH variance sketch as per-lane Python lists.

A verbatim copy of the bucket lanes and the lockstep insert that
:class:`repro.streams.variance.MultiDimVarianceSketch` kept before its
buckets became padded arrays.  The store's two greedy kernels and its
windowed aggregate are tested against it bucket for bucket; do not edit
it to follow the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

COMPRESS_INTERVAL = 8


@dataclass(slots=True)
class EHLane:
    """The buckets of one scalar EH sketch, as parallel lists."""

    ts: "list[int]" = field(default_factory=list)
    counts: "list[int]" = field(default_factory=list)
    means: "list[float]" = field(default_factory=list)
    m2s: "list[float]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ts)

    def append(self, ts0: int, values: "list[float]") -> None:
        k = len(values)
        self.ts.extend(range(ts0, ts0 + k))
        self.counts.extend([1] * k)
        self.means.extend(values)
        self.m2s.extend([0.0] * k)

    def expire(self, horizon: int) -> None:
        ts = self.ts
        drop = 0
        while drop < len(ts) and ts[drop] <= horizon:
            drop += 1
        if drop:
            del ts[:drop], self.counts[:drop], self.means[:drop], \
                self.m2s[:drop]

    def compress(self, max_count: float, budget: float) -> None:
        n = len(self.ts)
        if n < 2:
            return
        counts, means, m2s, newest = self.counts, self.means, self.m2s, \
            self.ts
        suffix_m2 = [0.0] * n
        s_count, s_mean, s_m2 = counts[n - 1], means[n - 1], m2s[n - 1]
        suffix_m2[n - 1] = s_m2
        for i in range(n - 2, -1, -1):
            c = counts[i]
            total = c + s_count
            delta = s_mean - means[i]
            s_m2 = m2s[i] + s_m2 + delta * delta * (c * s_count / total)
            s_mean = means[i] + delta * (s_count / total)
            s_count = total
            suffix_m2[i] = s_m2
        out_ts: "list[int]" = []
        out_counts: "list[int]" = []
        out_means: "list[float]" = []
        out_m2s: "list[float]" = []
        c_ts = newest[0]
        c_count, c_mean, c_m2 = counts[0], means[0], m2s[0]
        head = 0
        for i in range(1, n):
            b_count = counts[i]
            total = c_count + b_count
            delta = means[i] - c_mean
            cand_m2 = c_m2 + m2s[i] + delta * delta * (c_count * b_count / total)
            if total <= max_count and cand_m2 <= budget * suffix_m2[head]:
                c_mean += delta * (b_count / total)
                c_m2 = cand_m2
                c_count = total
                c_ts = newest[i]
            else:
                out_ts.append(c_ts)
                out_counts.append(c_count)
                out_means.append(c_mean)
                out_m2s.append(c_m2)
                c_ts = newest[i]
                c_count, c_mean, c_m2 = b_count, means[i], m2s[i]
                head = i
        out_ts.append(c_ts)
        out_counts.append(c_count)
        out_means.append(c_mean)
        out_m2s.append(c_m2)
        self.ts, self.counts, self.means, self.m2s = \
            out_ts, out_counts, out_means, out_m2s

    def aggregate(self) -> "tuple[int, float, float] | None":
        n = len(self.ts)
        if not n:
            return None
        count, mean, m2 = self.counts[0], self.means[0], self.m2s[0]
        if n == 1:
            return count, mean, m2
        count, m2 = max(1, count // 2), m2 / 2.0
        counts, means, m2s = self.counts, self.means, self.m2s
        for i in range(1, n):
            b_count = counts[i]
            total = count + b_count
            delta = means[i] - mean
            mean = mean + delta * (b_count / total)
            m2 = m2 + m2s[i] + delta * delta * (count * b_count / total)
            count = total
        return count, mean, m2


def insert_lanes(lanes: "Sequence[EHLane]", columns: "list[list[float]]",
                 ts0: int, since_compress: int, window: int,
                 count_fraction: float, budget: float,
                 peaks: "list[int]") -> int:
    m = len(columns[0]) if columns else 0
    i = 0
    while i < m:
        k = min(m - i, COMPRESS_INTERVAL - since_compress)
        last_ts = ts0 + i + k - 1
        horizon = last_ts - window
        for lane, column in zip(lanes, columns):
            lane.append(ts0 + i, column[i:i + k])
            if lane.ts[0] <= horizon:
                lane.expire(horizon)
        since_compress += k
        i += k
        if since_compress >= COMPRESS_INTERVAL:
            population = min(last_ts + 1, window)
            max_count = max(1.0, count_fraction * population)
            for index, lane in enumerate(lanes):
                lane.compress(max_count, budget)
                peaks[index] = max(peaks[index], len(lane.ts))
            since_compress = 0
    return since_compress


def snapshot_state(lanes: "Sequence[EHLane]", window_size: int,
                   epsilon: float, timestamp: int, since_compress: int,
                   peaks: "list[int]") -> "dict[str, Any]":
    """The ``MultiDimVarianceSketch.snapshot_state`` of these lanes."""
    state: "dict[str, Any]" = {
        "window_size": window_size,
        "epsilon": epsilon,
        "n_dims": len(lanes),
        "timestamp": timestamp,
        "since_compress": since_compress,
        "max_bucket_counts": np.array(peaks, dtype=np.int64),
        "lane_len": np.array([len(lane) for lane in lanes], dtype=np.int64),
    }
    for name, dtype in (("ts", np.int64), ("counts", np.int64),
                        ("means", float), ("m2s", float)):
        state[f"lane_{name}"] = np.array(
            [x for lane in lanes for x in getattr(lane, name)], dtype=dtype)
    return state
