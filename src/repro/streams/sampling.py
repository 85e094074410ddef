"""Uniform sampling over streams and sliding windows (paper Section 5).

The kernel estimator needs a uniform random sample ``R`` of the *current
sliding window*, maintained in one pass with small memory.  The paper's
prototype uses **chain sampling** (Babcock, Datar & Motwani, SODA 2002):
each of the ``|R|`` sample slots runs an independent chain sampler whose
active element is uniform over the window at all times.

A chain sampler over window size ``W`` works as follows.  When the item
with timestamp ``ts`` arrives it becomes the slot's active element with
probability ``1 / min(ts + 1, W)`` (this reduces to reservoir sampling
until the window first fills).  Whenever an item is stored, a *successor*
timestamp is drawn uniformly from ``(ts, ts + W]``; when that item later
arrives it is appended to the chain so that, the moment the active
element expires, a replacement chosen uniformly from the then-current
window is already on hand.  The expected chain length is O(1), giving
O(d|R|) expected memory for the whole sample (Theorem 1's first term).

A plain :class:`ReservoirSample` (uniform over the *entire* stream, never
expiring) is included as a baseline; the property tests demonstrate why
it is the wrong tool once the distribution drifts.

Batched ingestion
-----------------
:meth:`ChainSample.offer_many` processes a whole block of arrivals with
one vectorised acceptance draw (``rng.random((m, |R|))``) and a short
walk over the rare slot events.  Its results are *bit-identical* to the
equivalent sequence of :meth:`ChainSample.offer_detailed` calls: numpy
generators fill a ``(m, |R|)`` block with exactly the same doubles, in
the same order, as ``m`` sequential ``random(|R|)`` calls, and successor
timestamps are drawn from per-slot generator substreams, so their
consumption order is independent of how arrivals are grouped.

The per-slot event walk is the module-level :func:`walk_slot`, with
:func:`expire_chain` for window expiry; the cross-stream
:class:`~repro.engine.core.DetectorEngine` runs the same two functions
over its structure-of-arrays chain state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng, rng_from_state, rng_state
from repro._validation import require_positive_int

__all__ = [
    "ChainSample",
    "ReservoirSample",
    "expire_chain",
    "report_chain_changes",
    "slot_generators",
    "walk_slot",
]

#: One slot's chain: (timestamp, value) pairs, oldest first; ``[0]`` is
#: the active sample element, the rest are queued successors.
ChainItems = List[Tuple[int, np.ndarray]]


@dataclass
class _Chain:
    """One chain-sampling slot: the active element plus queued successors."""

    items: ChainItems = field(default_factory=list)
    #: Timestamp at which the next successor is due to be captured.
    successor_ts: int = -1


def slot_generators(rng: np.random.Generator,
                    sample_size: int) -> "list[np.random.Generator]":
    """The per-slot successor substreams of a sample drawing from ``rng``.

    Successor timestamps come from per-slot substreams so that the
    batched and one-at-a-time ingestion paths consume each slot's stream
    in the same order (see the module docstring).  Spawning derives the
    substreams from the generator's SeedSequence without advancing its
    bitstream, so construction leaves the caller's generator untouched.
    The first spawned child is reserved for the sample itself (slot
    substreams keep their identity if a per-sample stream is ever
    claimed).
    """
    try:
        return list(rng.spawn(sample_size + 1)[1:])
    except (AttributeError, TypeError):
        seeds = rng.integers(0, 2**63, size=sample_size + 1)[1:]
        return [np.random.default_rng(int(seed)) for seed in seeds]


def draw_successor(rng: np.random.Generator, ts: int, window: int) -> int:
    """A successor timestamp uniform over ``(ts, ts + window]``."""
    # rng.integers' high bound is exclusive.
    return ts + int(rng.integers(1, window + 1))


def expire_chain(items: ChainItems, horizon: int) -> int:
    """Drop the chain's leading items with timestamp ``<= horizon``.

    Returns how many were dropped; each one is an active-element change
    (an expiry), so callers add the count to their mutation and
    eviction counters.
    """
    n = 0
    for ts, _ in items:
        if ts > horizon:
            break
        n += 1
    if n:
        del items[:n]
    return n


def report_chain_changes(mutations: int, evictions: int,
                         timestamp: int) -> None:
    """Report one ingest call's chain-sample changes to ``repro.obs``."""
    if mutations:
        obs.metrics().counter("sample.mutations").inc(mutations)
    if evictions:
        obs.metrics().counter("sample.evictions").inc(evictions)
        obs.emit("sample.evict", count=evictions, timestamp=timestamp)


def walk_slot(items: ChainItems, successor_ts: int,
              rng: np.random.Generator, rows: np.ndarray, vals: np.ndarray,
              ts0: int, window: int,
              accepted: "list[int] | None" = None) -> "tuple[int, int, int]":
    """Replay one slot's events over a block of arrivals.

    The block holds ``vals.shape[0]`` arrivals at timestamps ``ts0, ts0
    + 1, ...``; ``rows`` are the (ascending) block rows whose acceptance
    draw hit this slot.  Captures the pending successor when it falls
    due, replaces the chain at each acceptance and charges the expiries
    in between exactly as one-at-a-time offers would, drawing successors
    from ``rng`` in the same order.  ``items`` is updated in place and
    each acceptance row is appended to ``accepted`` when given.

    Returns ``(successor_ts, mutations, evictions)``: the new pending
    successor and the active-element changes and expiries charged.
    Expiries after the last event are left to the caller's
    :func:`expire_chain` at the block's final timestamp.
    """
    ts_end = ts0 + vals.shape[0] - 1
    mutations = evictions = 0
    pos, n_rows = 0, rows.shape[0]
    cursor = ts0 - 1      # latest timestamp already handled
    while True:
        acc_ts = ts0 + int(rows[pos]) if pos < n_rows else None
        # A pending successor is captured at its exact timestamp, unless
        # an acceptance at the same arrival pre-empts it.
        if (cursor < successor_ts <= ts_end
                and (acc_ts is None or successor_ts < acc_ts)):
            # The chain must still be live when the successor arrives:
            # expire through the *previous* arrival, the state the
            # scalar path checks the capture against.
            expired = expire_chain(items, successor_ts - 1 - window)
            mutations += expired
            evictions += expired
            cursor = successor_ts
            if items:
                items.append((successor_ts, vals[successor_ts - ts0].copy()))
                successor_ts = draw_successor(rng, successor_ts, window)
        elif acc_ts is not None:
            # Items that expired at arrivals *before* the acceptance are
            # charged exactly as the scalar path charges them; only the
            # still-live remainder is discarded uncounted by the
            # replacement below.
            expired = expire_chain(items, acc_ts - 1 - window)
            mutations += expired + 1
            evictions += expired
            items[:] = [(acc_ts, vals[acc_ts - ts0].copy())]
            successor_ts = draw_successor(rng, acc_ts, window)
            if accepted is not None:
                accepted.append(acc_ts - ts0)
            pos += 1
            cursor = acc_ts
        else:
            return successor_ts, mutations, evictions


# repro-lint: shard-state
class ChainSample:
    """A uniform sample of a sliding window, maintained by chain sampling.

    Parameters
    ----------
    window_size:
        The window length ``|W|`` in arrivals.
    sample_size:
        Number of slots ``|R|``.  Slots are independent, so the sample is
        "with replacement": duplicates are possible and expected.
    n_dims:
        Dimensionality of the sampled values.
    rng:
        Source of randomness.  When omitted, a deterministic fallback
        stream from :func:`repro._rng.fresh_rng` is used, so
        default-constructed samplers replay bit for bit.
    """

    def __init__(self, window_size: int, sample_size: int, n_dims: int = 1,
                 rng: np.random.Generator | None = None) -> None:
        require_positive_int("window_size", window_size)
        require_positive_int("sample_size", sample_size)
        require_positive_int("n_dims", n_dims)
        self._window_size = window_size
        self._sample_size = sample_size
        self._n_dims = n_dims
        self._rng = resolve_rng(rng)
        self._successor_rngs = slot_generators(self._rng, sample_size)
        self._chains = [_Chain() for _ in range(sample_size)]
        self._timestamp = -1   # timestamp of the latest offered value
        self._mutations = 0    # active-element changes (see mutation_count)
        self._evictions = 0    # expiry-driven active-element removals

    # ------------------------------------------------------------------

    @property
    def window_size(self) -> int:
        """The window length ``|W|`` in arrivals."""
        return self._window_size

    @property
    def sample_size(self) -> int:
        """The number of slots ``|R|``."""
        return self._sample_size

    @property
    def n_dims(self) -> int:
        """Dimensionality of the sampled values."""
        return self._n_dims

    @property
    def timestamp(self) -> int:
        """Timestamp of the most recent arrival (-1 before any)."""
        return self._timestamp

    @property
    def mutation_count(self) -> int:
        """Monotone counter of *active-element* changes.

        Incremented whenever any slot's active element changes: an
        arrival replaces it, an expiry promotes a queued successor, or an
        expiry empties the slot.  Model caches compare this against the
        value recorded at build time to decide whether the sample they
        were built from still *is* the sample (queued-successor captures
        do not count -- they change future replacements, not the current
        sample).  The batched path may coalesce an expiry directly
        followed by a replacement into one increment, so only equality
        with a recorded value is meaningful, not differences.
        """
        return self._mutations

    @property
    def eviction_count(self) -> int:
        """Monotone counter of window-expiry removals of active elements.

        The subset of :attr:`mutation_count` caused by elements aging
        out of the window (as opposed to arrival replacements).
        """
        return self._evictions

    def __len__(self) -> int:
        """Number of slots currently holding an active element."""
        return sum(1 for chain in self._chains if chain.items)

    def newest_active_timestamp(self) -> int:
        """Timestamp of the most recent active sample element (-1 if none).

        ``timestamp - newest_active_timestamp()`` is the sample's
        *staleness*: how many arrivals ago the sample last accepted a
        value.  A pure read over the active slots, identical across the
        scalar and batched maintenance paths.
        """
        newest = -1
        for chain in self._chains:
            if chain.items and chain.items[0][0] > newest:
                newest = chain.items[0][0]
        return newest

    # ------------------------------------------------------------------

    def _note_obs(self, mutations_before: int,
                  evictions_before: int) -> None:
        """Report this call's mutation/eviction deltas to ``repro.obs``."""
        report_chain_changes(self._mutations - mutations_before,
                             self._evictions - evictions_before,
                             self._timestamp)

    def offer(self, value: "np.ndarray | Sequence[float] | float",
              timestamp: int | None = None) -> bool:
        """Process one arrival; return True when it became an active element.

        That return value is what drives line 14 of the D3 algorithm
        ("if S(i) included in R_w, send S(i) to parent with probability
        f"): sample-changing arrivals are the candidates for incremental
        propagation up the hierarchy.  An arrival that is merely queued
        on a chain (a future replacement) does not count as included.
        """
        return bool(self.offer_detailed(value, timestamp))

    def offer_detailed(self, value: "np.ndarray | Sequence[float] | float",
                       timestamp: int | None = None) -> "tuple[int, ...]":
        """Like :meth:`offer`, but return the indices of the slots whose
        active element the arrival replaced.

        MGDD's top-level leader uses this to broadcast *incremental*
        global-model updates: only the changed slots travel down the
        hierarchy (Section 8.1).
        """
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"value must have {self._n_dims} coordinate(s), got shape {point.shape}")
        if timestamp is None:
            timestamp = self._timestamp + 1
        if timestamp <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {timestamp} after {self._timestamp})")
        self._timestamp = timestamp
        mutations_before = self._mutations
        evictions_before = self._evictions

        inclusion_prob = 1.0 / min(timestamp + 1, self._window_size)
        horizon = timestamp - self._window_size
        # One random draw per slot; vectorised for the common large-|R| case.
        draws = self._rng.random(self._sample_size)
        changed: "list[int]" = []
        for slot, (chain, draw) in enumerate(zip(self._chains, draws)):
            if draw < inclusion_prob:
                # The arrival replaces this slot's entire chain.
                chain.items[:] = [(timestamp, point)]
                chain.successor_ts = draw_successor(
                    self._successor_rngs[slot], timestamp, self._window_size)
                changed.append(slot)
                self._mutations += 1
            elif chain.items and timestamp == chain.successor_ts:
                # Capture the successor chosen earlier; queue it.
                chain.items.append((timestamp, point))
                chain.successor_ts = draw_successor(
                    self._successor_rngs[slot], timestamp, self._window_size)
            # Expire the active element once it falls out of the window.
            if chain.items and chain.items[0][0] <= horizon:
                expired = expire_chain(chain.items, horizon)
                self._mutations += expired
                self._evictions += expired
        if _sanitize.ACTIVE:
            _sanitize.check_chain_sample(self)
        if obs.ACTIVE:
            self._note_obs(mutations_before, evictions_before)
        return tuple(changed)

    def offer_many(self, values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
                   start_timestamp: int | None = None) -> "list[tuple[int, ...]]":
        """Process a block of arrivals at consecutive timestamps.

        ``values`` has shape ``(m, n_dims)`` (or ``(m,)`` for 1-d data);
        the arrivals take timestamps ``start_timestamp .. start_timestamp
        + m - 1`` (continuing from the last offer when omitted).  Returns,
        for each arrival in order, the tuple of slot indices whose active
        element it replaced -- exactly what ``m`` successive
        :meth:`offer_detailed` calls would have returned, bit for bit,
        given the same generator state (see the module docstring).

        The acceptance test for all ``m x |R|`` (arrival, slot) pairs is
        one vectorised draw and comparison; Python-level work is limited
        to the O(m |R| / |W|) expected slot events.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            if self._n_dims != 1:
                raise ParameterError(
                    f"values must have shape (m, {self._n_dims}), "
                    f"got {vals.shape}")
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2 or vals.shape[1] != self._n_dims:
            raise ParameterError(
                f"values must have shape (m, {self._n_dims}), got {vals.shape}")
        m = vals.shape[0]
        if m == 0:
            return []
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        mutations_before = self._mutations
        evictions_before = self._evictions
        ts0 = self._timestamp + 1 if start_timestamp is None \
            else int(start_timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        ts_end = ts0 + m - 1
        window = self._window_size
        inclusion = 1.0 / np.minimum(np.arange(ts0, ts0 + m) + 1, window)
        # Same bitstream as m sequential rng.random(sample_size) calls.
        draws = self._rng.random((m, self._sample_size))
        hits = draws < inclusion[:, None]
        # Replacements recorded as flat (arrival row, slot) event lists;
        # per-arrival tuples are assembled at the end so the O(m) output
        # costs one shared-empty-tuple list, not m Python list objects.
        event_rows: "list[int]" = []
        event_slots: "list[int]" = []
        # Event rows per slot, in slot-major then arrival order.
        hit_slots, hit_rows = np.nonzero(hits.T)
        boundaries = np.searchsorted(hit_slots, np.arange(self._sample_size + 1))
        self._timestamp = ts_end
        # Only slots with an acceptance or a successor falling due inside
        # this block have events to walk; the rest just expire below.
        successor_ts = np.fromiter(
            (chain.successor_ts for chain in self._chains),
            dtype=np.int64, count=self._sample_size)
        active_slots = np.nonzero(
            (boundaries[1:] > boundaries[:-1])
            | ((successor_ts >= ts0) & (successor_ts <= ts_end)))[0]
        for slot in active_slots.tolist():
            chain = self._chains[slot]
            n_before = len(event_rows)
            chain.successor_ts, mutations, evictions = walk_slot(
                chain.items, chain.successor_ts, self._successor_rngs[slot],
                hit_rows[boundaries[slot]:boundaries[slot + 1]], vals, ts0,
                window, event_rows)
            event_slots.extend([slot] * (len(event_rows) - n_before))
            self._mutations += mutations
            self._evictions += evictions
        horizon = ts_end - window
        for chain in self._chains:
            if chain.items and chain.items[0][0] <= horizon:
                expired = expire_chain(chain.items, horizon)
                self._mutations += expired
                self._evictions += expired
        if _sanitize.ACTIVE:
            _sanitize.check_chain_sample(self, mutations_before=mutations_before)
        # The walk emits events slot-major; sorting the flat pairs by
        # (arrival, slot) restores the ascending-slot-per-arrival tuples
        # the scalar path produces.
        out: "list[tuple[int, ...]]" = [()] * m
        if event_rows:
            pairs = sorted(zip(event_rows, event_slots))
            n_events = len(pairs)
            i = 0
            while i < n_events:
                row = pairs[i][0]
                j = i + 1
                while j < n_events and pairs[j][0] == row:
                    j += 1
                out[row] = tuple(pair[1] for pair in pairs[i:j])
                i = j
        if obs.ACTIVE:
            obs.profiler().record("chain.offer_many",
                                  time.perf_counter() - t0)
            self._note_obs(mutations_before, evictions_before)
        return out

    def values(self) -> np.ndarray:
        """Active sample elements, shape ``(k, n_dims)`` with ``k <= |R|``.

        ``k`` equals ``|R|`` from the first arrival onward; it can only be
        smaller before any value has been offered.
        """
        active = [chain.items[0][1] for chain in self._chains if chain.items]
        if not active:
            return np.empty((0, self._n_dims), dtype=float)
        return np.array(active, dtype=float)

    def has_active(self) -> bool:
        """Whether any slot currently holds an active element (O(1) exit)."""
        return any(chain.items for chain in self._chains)

    # ------------------------------------------------------------------
    # Resource accounting (Section 10.3)
    # ------------------------------------------------------------------

    def chain_lengths(self) -> np.ndarray:
        """Current length of each slot's chain (active element included)."""
        return np.array([len(chain.items) for chain in self._chains], dtype=np.int64)

    def memory_words(self, *, words_per_value: int | None = None) -> int:
        """Logical memory footprint in machine words.

        Each stored chain entry costs ``d`` words for the value plus one
        word for its timestamp; each slot also keeps one successor
        timestamp.  This is the quantity the Section 10.3 experiment
        accounts (16-bit words on the motes), independent of Python
        object overhead.
        """
        if words_per_value is None:
            words_per_value = self._n_dims
        stored = int(self.chain_lengths().sum())
        return stored * (words_per_value + 1) + self._sample_size

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Captures every chain (including queued successors and pending
        successor timestamps) plus the exact bitstream positions of the
        acceptance generator and the per-slot successor substreams, so a
        :meth:`restore_state` round trip replays future arrivals bit for
        bit.
        """
        return {
            "window_size": self._window_size,
            "sample_size": self._sample_size,
            "n_dims": self._n_dims,
            "rng": rng_state(self._rng),
            "successor_rngs": [rng_state(g) for g in self._successor_rngs],
            "chains": [
                {"items": [(int(ts), value.copy())
                           for ts, value in chain.items],
                 "successor_ts": int(chain.successor_ts)}
                for chain in self._chains],
            "timestamp": self._timestamp,
            "mutations": self._mutations,
            "evictions": self._evictions,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ChainSample":
        """Rebuild a sampler from a :meth:`snapshot_state` dict.

        Bypasses ``__init__`` (which would spawn fresh substreams) and
        reinstates every field directly, so the restored sampler is
        indistinguishable from the original under any future offers.
        """
        sample = cls.__new__(cls)
        sample._window_size = int(state["window_size"])
        sample._sample_size = int(state["sample_size"])
        sample._n_dims = int(state["n_dims"])
        sample._rng = rng_from_state(state["rng"])
        sample._successor_rngs = [
            rng_from_state(s) for s in state["successor_rngs"]]
        sample._chains = [
            _Chain(items=[(int(ts), np.asarray(value, dtype=float))
                          for ts, value in chain["items"]],
                   successor_ts=int(chain["successor_ts"]))
            for chain in state["chains"]]
        sample._timestamp = int(state["timestamp"])
        sample._mutations = int(state["mutations"])
        sample._evictions = int(state["evictions"])
        return sample


# repro-lint: shard-state
class ReservoirSample:
    """Classic reservoir sampling over the whole stream (no expiry).

    Provided as a contrast to :class:`ChainSample`: its sample stays
    uniform over *everything ever seen*, so after a distribution change
    it keeps resurrecting stale values -- exactly what the sliding-window
    semantics of the paper is designed to avoid.
    """

    def __init__(self, sample_size: int, n_dims: int = 1,
                 rng: np.random.Generator | None = None) -> None:
        require_positive_int("sample_size", sample_size)
        require_positive_int("n_dims", n_dims)
        self._sample_size = sample_size
        self._n_dims = n_dims
        self._rng = resolve_rng(rng)
        self._reservoir = np.empty((sample_size, n_dims), dtype=float)
        self._seen = 0

    @property
    def sample_size(self) -> int:
        """Reservoir capacity."""
        return self._sample_size

    @property
    def seen(self) -> int:
        """Total number of values offered so far."""
        return self._seen

    def __len__(self) -> int:
        return min(self._seen, self._sample_size)

    def offer(self, value: "np.ndarray | Sequence[float] | float") -> bool:
        """Process one arrival; return True when it entered the reservoir."""
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"value must have {self._n_dims} coordinate(s), got shape {point.shape}")
        self._seen += 1
        if self._seen <= self._sample_size:
            self._reservoir[self._seen - 1] = point
            return True
        slot = int(self._rng.integers(0, self._seen))
        if slot < self._sample_size:
            self._reservoir[slot] = point
            return True
        return False

    def values(self) -> np.ndarray:
        """Current reservoir contents, shape ``(k, n_dims)``."""
        return self._reservoir[:len(self)].copy()

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return {
            "sample_size": self._sample_size,
            "n_dims": self._n_dims,
            "rng": rng_state(self._rng),
            "reservoir": self._reservoir.copy(),
            "seen": self._seen,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ReservoirSample":
        """Rebuild a reservoir from a :meth:`snapshot_state` dict."""
        sample = cls.__new__(cls)
        sample._sample_size = int(state["sample_size"])
        sample._n_dims = int(state["n_dims"])
        sample._rng = rng_from_state(state["rng"])
        sample._reservoir = np.asarray(state["reservoir"], dtype=float).copy()
        sample._seen = int(state["seen"])
        return sample
