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

One store holds every lane: :class:`MultiDimVarianceSketch` keeps the
four bucket fields as padded ``(lanes, cap)`` arrays, each lane
right-aligned to one shared end column, so appending a block is one
slice write, expiry only shortens lanes, and compaction writes every
lane back in one masked copy.  Compress visits each lane's buckets
after its *count-frozen prefix* only: two neighbours whose counts
already sum past the count cap can never merge (counts only grow), so
the greedy re-emits every bucket before the first open boundary
unchanged and the suffix fold never needs them.  The greedy itself, and
the windowed aggregate, are sequential folds; they run as a numpy loop
over bucket columns across all lanes from :data:`_COLUMN_KERNEL_LANES`
lanes on, and as a Python loop over each lane's ``tolist()``'d row
below it, with the same arithmetic in the same order, so both give the
same bits.  A scalar stream's sketch is a one-lane store.

:class:`ExactWindowedVariance` keeps the full window and serves as the
reference the sketch is tested against.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro import _sanitize
from repro._exceptions import ParameterError
from repro._validation import require_fraction, require_positive_int
from repro.streams.window import SlidingWindow

__all__ = [
    "ExactWindowedVariance",
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
    """The merge budget's ``eps^2`` multiple (see
    :meth:`MultiDimVarianceSketch._compress`)."""
    return _BUDGET_FACTOR * epsilon * epsilon


#: Bucket fields of :class:`MultiDimVarianceSketch`: snapshot name,
#: dtype, and the value padding columns hold.  Padding has a timestamp
#: below every horizon, so expiry counts it as expired, and the count
#: and m2 of a singleton bucket, so an append writes only timestamps and
#: values and the column loops below never divide by zero.
_FIELDS = (("ts", np.int64, np.iinfo(np.int64).min),
           ("counts", np.int64, 1),
           ("means", np.float64, 0.0),
           ("m2s", np.float64, 0.0))

#: Compress once per this many inserts; between compressions new values
#: sit in singleton buckets, which costs a little transient memory but
#: keeps the amortised insert cost O(B / interval).
_COMPRESS_INTERVAL = 8

#: From this many lanes on, compress and the windowed aggregate run a
#: numpy loop over bucket columns, across all lanes at once; below it,
#: a Python loop over each lane's ``tolist()``'d row.  The measured
#: crossover lies between 32 and 48 lanes at |W| = 1000 and near 48 at
#: |W| = 300 (docs/PERFORMANCE.md, "One EH store"): engine-d3's 256
#: lanes and the 64 of network-d3's leaves and supervised-d3 take the
#: column loop; engine-mgdd-2d's 32 and the one-lane sketches the rows.
_COLUMN_KERNEL_LANES = 64


def _padded(lanes: int, cap: int) -> "list[np.ndarray]":
    """Fresh ``(lanes, cap)`` bucket arrays holding padding only."""
    fields = [np.empty((lanes, cap), dtype=dtype) for _, dtype, _ in _FIELDS]
    for field, (_, _, pad) in zip(fields, _FIELDS):
        field.fill(pad)
    return fields


def _greedy_rows(counts: np.ndarray, means: np.ndarray, m2s: np.ndarray,
                 ends: np.ndarray, first: np.ndarray, end: int,
                 max_count: float, budget: float) -> None:
    """The greedy merge, one lane at a time over Python floats.

    See :meth:`MultiDimVarianceSketch._compress` for the contract.
    """
    for lane, f in enumerate(first.tolist()):
        row = counts[lane, f:end].tolist()
        s = next((i for i in range(len(row) - 1)
                  if row[i] + row[i + 1] <= max_count), len(row) - 1)
        n = len(row) - s
        if n < 2:
            continue
        c = row[s:]
        s += f
        mu = means[lane, s:end].tolist()
        q = m2s[lane, s:end].tolist()
        # suffix[i] is the m2 of the union of buckets[i:], built newest
        # to oldest.  Merging buckets[i:j] leaves that union unchanged,
        # so one pass is enough.
        suffix = [0.0] * n
        s_count, s_mean, s_m2 = c[n - 1], mu[n - 1], q[n - 1]
        suffix[n - 1] = s_m2
        for i in range(n - 2, -1, -1):
            total = c[i] + s_count
            delta = s_mean - mu[i]
            s_m2 = q[i] + s_m2 + delta * delta * (c[i] * s_count / total)
            s_mean = mu[i] + delta * (s_count / total)
            s_count = total
            suffix[i] = s_m2
        keep = [False] * n
        c_count, c_mean, c_m2 = c[0], mu[0], q[0]
        head = 0          # index whose suffix aggregate the run heads
        for i in range(1, n):
            b_count = c[i]
            total = c_count + b_count
            delta = mu[i] - c_mean
            cand_m2 = c_m2 + q[i] + delta * delta * (c_count * b_count / total)
            if total <= max_count and cand_m2 <= budget * suffix[head]:
                c_mean += delta * (b_count / total)
                c_m2 = cand_m2
                c_count = total
            else:
                c[i - 1], mu[i - 1], q[i - 1] = c_count, c_mean, c_m2
                keep[i - 1] = True
                c_count, c_mean, c_m2 = b_count, mu[i], q[i]
                head = i
        c[n - 1], mu[n - 1], q[n - 1] = c_count, c_mean, c_m2
        keep[n - 1] = True
        counts[lane, s:end] = c
        means[lane, s:end] = mu
        m2s[lane, s:end] = q
        ends[lane, s:end] = keep


def _greedy_columns(counts: np.ndarray, means: np.ndarray, m2s: np.ndarray,
                    ends: np.ndarray, first: np.ndarray, end: int,
                    max_count: float, budget: float) -> None:
    """The greedy merge, one bucket column at a time across all lanes.

    The same arithmetic as :func:`_greedy_rows`, in the same order, on
    float64/int64 arrays.  A lane is held out of merging up to its
    ``start`` column, so it re-emits its frozen prefix (and any padding
    to its left) unchanged.
    """
    open_ = (counts[:, :end - 1] + counts[:, 1:end] <= max_count) \
        & ends[:, :-1]
    start = np.where(open_.any(axis=1), open_.argmax(axis=1), end - 1)
    lo = int(start.min())
    if lo == end - 1:
        return
    suffix = np.empty((end - lo, counts.shape[0]))
    s_count, s_mean, s_m2 = counts[:, end - 1], means[:, end - 1], \
        m2s[:, end - 1]
    suffix[-1] = s_m2
    for j in range(end - 2, lo - 1, -1):
        c, mu = counts[:, j], means[:, j]
        total = c + s_count
        delta = s_mean - mu
        s_m2 = m2s[:, j] + s_m2 + delta * delta * (c * s_count / total)
        s_mean = mu + delta * (s_count / total)
        s_count = total
        suffix[j - lo] = s_m2
    c_count, c_mean, c_m2 = counts[:, lo], means[:, lo], m2s[:, lo]
    head = suffix[0]
    for j in range(lo + 1, end):
        b_count, b_mean, b_m2 = counts[:, j], means[:, j], m2s[:, j]
        total = c_count + b_count
        delta = b_mean - c_mean
        cand_m2 = c_m2 + b_m2 + delta * delta * (c_count * b_count / total)
        merge = (total <= max_count) & (cand_m2 <= budget * head) \
            & (start < j)
        # Column j - 1 closes a run unless it merges on: store the run's
        # moments there either way (a merged column is dropped).
        counts[:, j - 1], means[:, j - 1], m2s[:, j - 1] = \
            c_count, c_mean, c_m2
        ends[:, j - 1] &= ~merge
        c_mean = np.where(merge, c_mean + delta * (b_count / total), b_mean)
        c_m2 = np.where(merge, cand_m2, b_m2)
        c_count = np.where(merge, total, b_count)
        head = np.where(merge, head, suffix[j - lo])
    counts[:, end - 1], means[:, end - 1], m2s[:, end - 1] = \
        c_count, c_mean, c_m2


# repro-lint: shard-state
class MultiDimVarianceSketch:
    """Variance sketches for ``n_dims`` lockstep scalar lanes.

    One EH bucket lane per dimension, giving the ``d * (1/eps^2)
    log|W|`` term of Theorem 1's memory bound.  The lanes need not be
    the dimensions of one stream: the cross-stream
    :class:`~repro.engine.core.DetectorEngine` keeps one sketch of
    ``n_streams * d`` lanes, and a scalar stream's sketch is one lane.

    All lanes live in one padded structure of arrays, ``(lanes, cap)``
    each: a lane's buckets fill columns ``first[lane] .. end``, oldest
    first, so every lane ends at the shared column ``end``, appending
    leaves ``first`` alone, and columns ``end .. cap`` hold the inserts
    until the next compress.  The lanes share one timestamp and one compress
    phase, so appending a block, expiry, compress, the windowed
    aggregate and snapshots each run once over all lanes.
    """

    def __init__(self, window_size: int, n_dims: int,
                 epsilon: float = 0.2) -> None:
        require_positive_int("window_size", window_size)
        require_positive_int("n_dims", n_dims)
        require_fraction("epsilon", epsilon)
        self._window_size = window_size
        self._epsilon = epsilon
        self._n_dims = n_dims
        # Variance budget: a merged bucket's internal variance must stay
        # within a small multiple of eps^2 of the variance of the stream
        # suffix it heads (the PODS'03 invariant family).
        self._budget = variance_budget(epsilon)
        # Edge-correction budget: no bucket may hold more than eps/2 of
        # the window population, bounding the halved-oldest count error.
        self._count_fraction = epsilon / 2.0
        self._ts, self._counts, self._means, self._m2s = \
            _padded(n_dims, _COMPRESS_INTERVAL)
        #: Lane ``i``'s buckets are columns ``first[i] .. end``.
        self._first = np.zeros(n_dims, dtype=np.int64)
        self._end = 0
        #: :meth:`_oldest_ts`, kept so an insert that expires nothing
        #: skips the expiry pass.
        self._oldest = self._oldest_ts()
        self._peaks = np.zeros(n_dims, dtype=np.int64)
        self._timestamp = -1
        self._since_compress = 0

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
        self._insert(point[:, None], timestamp)

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
        self._insert(points.T, start_timestamp)

    def _insert(self, columns: np.ndarray,
                start_timestamp: "int | None") -> None:
        """Insert validated ``(lanes, m)`` values at consecutive timestamps.

        Values go in as singleton buckets in chunks aligned to
        :data:`_COMPRESS_INTERVAL`, expiry is charged once at each
        chunk's final timestamp (no merge decision is taken before the
        next compression point), and every lane compresses when the
        cadence comes due: exactly the bucket state of one-at-a-time
        inserts.  The timestamps are checked first, so a refused call
        changes nothing.
        """
        m = columns.shape[1]
        if m == 0:
            return
        ts0 = self._timestamp + 1 if start_timestamp is None \
            else int(start_timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        i = 0
        while i < m:
            k = min(m - i, _COMPRESS_INTERVAL - self._since_compress)
            end = self._end + k
            # Columns from end on hold padding: a singleton's count and m2.
            self._ts[:, self._end:end] = np.arange(ts0 + i, ts0 + i + k)
            self._means[:, self._end:end] = columns[:, i:i + k]
            self._end = end
            self._oldest = min(self._oldest, ts0 + i)
            i += k
            last_ts = ts0 + i - 1
            horizon = last_ts - self._window_size
            if self._oldest <= horizon:
                # Columns left of a lane's oldest bucket hold padding or
                # buckets expired earlier, both at or below the horizon.
                self._first = (self._ts[:, :end] <= horizon).sum(axis=1)
                self._oldest = self._oldest_ts()
            self._since_compress += k
            if self._since_compress == _COMPRESS_INTERVAL:
                population = min(last_ts + 1, self._window_size)
                self._compress(max(1.0, self._count_fraction * population))
                self._since_compress = 0
        self._timestamp = ts0 + m - 1
        if _sanitize.ACTIVE:
            _sanitize.check_variance_sketch(self)

    def _compress(self, max_count: float) -> None:
        """Greedily merge adjacent buckets, oldest first, within budget.

        Each merge must respect both budgets:
          (a) 9 * m2(merged) <= eps^2 * m2(suffix headed by merged);
          (b) count(merged)  <= eps/2 * window population
        (``self._budget`` and ``max_count`` carry the two right-hand
        sides).  Counts only grow, so where two neighbours' counts
        already sum past ``max_count`` the boundary cannot merge: each
        lane's greedy starts at its first open boundary (``start``) and
        re-emits the count-frozen prefix before it.  A kernel writes
        each run's moments into the run's newest column (whose timestamp
        is the run's) and clears ``ends`` on merged-away columns; one
        compaction then keeps the run ends, right-aligned.
        """
        end = self._end
        first = self._first
        ends = np.arange(end) >= first[:, None]
        kernel = _greedy_columns if self._n_dims >= _COLUMN_KERNEL_LANES \
            else _greedy_rows
        kernel(self._counts, self._means, self._m2s, ends, first, end,
               max_count, self._budget)
        lens = ends.sum(axis=1)
        new_end = int(lens.max())
        self._first = new_end - lens
        dest = np.arange(new_end) >= self._first[:, None]
        fields = _padded(self._n_dims, new_end + _COMPRESS_INTERVAL)
        for new, old in zip(fields, self._fields()):
            new[:, :new_end][dest] = old[:, :end][ends]
        self._ts, self._counts, self._means, self._m2s = fields
        self._end = new_end
        self._oldest = self._oldest_ts()
        self._peaks = np.maximum(self._peaks, lens)

    def _oldest_ts(self) -> int:
        """The smallest timestamp of any lane's oldest bucket (padding's
        when a lane is empty)."""
        return int(self._ts[np.arange(self._n_dims), self._first].min())

    def _fields(self) -> "tuple[np.ndarray, ...]":
        return self._ts, self._counts, self._means, self._m2s

    def _aggregate(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per-lane ``(count, mean, m2)`` of the window.

        The oldest bucket straddles the window edge, so it is charged at
        half weight; the rest merge in by the parallel-axis (Chan et
        al.) rule, oldest to newest.
        """
        if self._timestamp < 0:
            raise ParameterError("no values inserted yet")
        end = self._end
        first = self._first
        if self._n_dims < _COLUMN_KERNEL_LANES:
            rows = []
            for lane, f in enumerate(first.tolist()):
                counts = self._counts[lane, f:end].tolist()
                means = self._means[lane, f:end].tolist()
                m2s = self._m2s[lane, f:end].tolist()
                count, mean, m2 = counts[0], means[0], m2s[0]
                if len(counts) > 1:
                    count, m2 = max(1, count // 2), m2 / 2.0
                for b_count, b_mean, b_m2 in zip(counts[1:], means[1:],
                                                  m2s[1:]):
                    total = count + b_count
                    delta = b_mean - mean
                    mean = mean + delta * (b_count / total)
                    m2 = m2 + b_m2 + delta * delta * (count * b_count / total)
                    count = total
                rows.append((count, mean, m2))
            count, mean, m2 = (np.array(column) for column in zip(*rows))
            return count, mean, m2
        lanes = np.arange(self._n_dims)
        count, mean, m2 = self._counts[lanes, first], \
            self._means[lanes, first], self._m2s[lanes, first]
        split = first < end - 1
        count = np.where(split, np.maximum(1, count // 2), count)
        m2 = np.where(split, m2 / 2.0, m2)
        for j in range(int(first.min()) + 1, end):
            live = first < j
            b_count = self._counts[:, j]
            total = count + b_count
            delta = self._means[:, j] - mean
            mean = np.where(live, mean + delta * (b_count / total), mean)
            m2 = np.where(live, m2 + self._m2s[:, j]
                          + delta * delta * (count * b_count / total), m2)
            count = np.where(live, total, count)
        return count, mean, m2

    def std(self) -> np.ndarray:
        """Estimated per-dimension standard deviations."""
        count, _, m2 = self._aggregate()
        return np.sqrt(np.maximum(m2 / count, 0.0))

    def mean(self) -> np.ndarray:
        """Estimated per-dimension means."""
        return self._aggregate()[1]

    def memory_words(self) -> int:
        """Current logical footprint in machine words."""
        return (self._n_dims * self._end - int(self._first.sum())) \
            * WORDS_PER_BUCKET

    def max_memory_words(self) -> int:
        """Peak logical footprint in machine words (per-lane peaks summed)."""
        return int(self._peaks.sum()) * WORDS_PER_BUCKET

    def snapshot_state(self, lanes: "slice | None" = None) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Lanes travel as concatenated bucket arrays with per-lane
        lengths; the compress phase is included so the restored sketch
        merges at exactly the same insert boundaries.  With ``lanes``,
        the snapshot holds those lanes alone: the one a sketch of just
        them in the same state would give.
        """
        rows = slice(None) if lanes is None else lanes
        end = self._end
        first = self._first[rows]
        lens = end - first
        valid = np.arange(end) >= first[:, None]
        state: "dict[str, Any]" = {
            "window_size": self._window_size,
            "epsilon": self._epsilon,
            "n_dims": len(lens),
            "timestamp": self._timestamp,
            "since_compress": self._since_compress,
            "max_bucket_counts": self._peaks[rows].copy(),
            "lane_len": lens,
        }
        for (name, _, _), field in zip(_FIELDS, self._fields()):
            state[f"lane_{name}"] = field[rows, :end][valid]
        return state

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "MultiDimVarianceSketch":
        """Rebuild a sketch from a :meth:`snapshot_state` dict."""
        sketch = cls(int(state["window_size"]), int(state["n_dims"]),
                     float(state["epsilon"]))
        # astype, unlike np.array(..., dtype=), always yields numpy's own
        # dtype instance, which snapshots pickle byte for byte the same.
        lens = np.asarray(state["lane_len"]).astype(np.int64)
        end = int(lens.max())
        fields = _padded(sketch._n_dims, end + _COMPRESS_INTERVAL)
        sketch._first = end - lens
        dest = np.arange(end) >= sketch._first[:, None]
        for (name, dtype, _), field in zip(_FIELDS, fields):
            field[:, :end][dest] = np.asarray(state[f"lane_{name}"],
                                              dtype=dtype)
        sketch._ts, sketch._counts, sketch._means, sketch._m2s = fields
        sketch._end = end
        sketch._oldest = sketch._oldest_ts()
        sketch._peaks = np.asarray(state["max_bucket_counts"]).astype(np.int64)
        sketch._timestamp = int(state["timestamp"])
        sketch._since_compress = int(state["since_compress"])
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
