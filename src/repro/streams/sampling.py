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

Layout and batched ingestion
----------------------------
One :class:`ChainSample` holds any number of lockstep streams (one per
generator passed as ``rng``) as structure-of-arrays state: every slot's
head (active element) timestamp and value and its pending successor
timestamp as ``(streams, |R|)`` arrays, with the rare queued successors
in a sparse map.  A node passes one generator and gets one stream; the
cross-stream :class:`~repro.engine.core.DetectorEngine` passes one per
sensor stream.

:meth:`ChainSample.offer_many` processes a block of arrivals with one
vectorised acceptance draw per stream (``rng.random((m, |R|))``) and a
short walk (:func:`walk_slot`) over the rare slot events.  Its results
are *bit-identical* to the equivalent sequence of
:meth:`ChainSample.offer_detailed` calls: numpy generators fill a
``(m, |R|)`` block with exactly the same doubles, in the same order, as
``m`` sequential ``random(|R|)`` calls, and successor timestamps are
drawn from per-slot generator substreams, so their consumption order is
independent of how arrivals are grouped.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng, rng_from_state, rng_state
from repro._validation import require_positive_int
from repro.core._kernels_numpy import BLOCK_CELLS

__all__ = ["ChainSample", "ReservoirSample"]

#: One slot's chain: (timestamp, value) pairs, oldest first; ``[0]`` is
#: the active sample element, the rest are queued successors.  Values
#: are ``d``-float lists.
ChainItems = List[Tuple[int, List[float]]]


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


def walk_slot(items: ChainItems, successor_ts: int,
              rng: np.random.Generator, rows: "list[int]", block: np.ndarray,
              stream: int, ts0: int, window: int) -> "tuple[int, int, int]":
    """Replay one slot's events over a block of arrivals.

    ``block[:, stream]`` holds the slot's stream's arrivals at
    timestamps ``ts0, ts0 + 1, ...``; ``rows`` are the (ascending) block
    rows whose acceptance draw hit this slot.  Captures the pending
    successor when it falls due, replaces the chain at each acceptance
    and charges the expiries in between exactly as one-at-a-time offers
    would, drawing successors from ``rng`` in the same order.  ``items``
    is updated in place.

    Returns ``(successor_ts, mutations, evictions)``: the new pending
    successor and the active-element changes and expiries charged.
    Expiries after the last event are left to the caller's
    :func:`expire_chain` at the block's final timestamp.
    """
    ts_end = ts0 + block.shape[0] - 1
    mutations = evictions = 0
    pos, n_rows = 0, len(rows)
    cursor = ts0 - 1      # latest timestamp already handled
    while True:
        acc_ts = ts0 + rows[pos] if pos < n_rows else None
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
                items.append((successor_ts,
                              block[successor_ts - ts0, stream].tolist()))
                successor_ts = draw_successor(rng, successor_ts, window)
        elif acc_ts is not None:
            # Items that expired at arrivals *before* the acceptance are
            # charged exactly as the scalar path charges them; only the
            # still-live remainder is discarded uncounted by the
            # replacement below.
            expired = expire_chain(items, acc_ts - 1 - window)
            mutations += expired + 1
            evictions += expired
            items[:] = [(acc_ts, block[acc_ts - ts0, stream].tolist())]
            successor_ts = draw_successor(rng, acc_ts, window)
            pos += 1
            cursor = acc_ts
        else:
            return successor_ts, mutations, evictions


# repro-lint: shard-state
class ChainSample:
    """Uniform samples of sliding windows, maintained by chain sampling.

    Parameters
    ----------
    window_size:
        The window length ``|W|`` in arrivals.
    sample_size:
        Number of slots ``|R|`` per stream.  Slots are independent, so
        the sample is "with replacement": duplicates are possible and
        expected.
    n_dims:
        Dimensionality of the sampled values.
    rng:
        Source of randomness: one generator for a one-stream sample, or
        a sequence of per-stream generators for that many lockstep
        streams.  When omitted, a deterministic fallback stream from
        :func:`repro._rng.fresh_rng` is used, so default-constructed
        samplers replay bit for bit.
    """

    def __init__(self, window_size: int, sample_size: int, n_dims: int = 1,
                 rng: "np.random.Generator | Sequence[np.random.Generator] | None" = None,
                 ) -> None:
        require_positive_int("window_size", window_size)
        require_positive_int("sample_size", sample_size)
        require_positive_int("n_dims", n_dims)
        if rng is None or isinstance(rng, np.random.Generator):
            rngs = [resolve_rng(rng)]
        else:
            rngs = list(rng)
            if not rngs:
                raise ParameterError("rng must hold one generator per stream")
        self._window_size = window_size
        self._sample_size = sample_size
        self._n_dims = n_dims
        self._rngs = rngs
        #: Flat (stream-major) per-slot successor substreams.
        self._successor_rngs = [g for stream_rng in rngs
                                for g in slot_generators(stream_rng,
                                                         sample_size)]
        shape = (len(rngs), sample_size)
        self._head_ts = np.full(shape, -1, dtype=np.int64)   # -1: empty
        self._head_val = np.zeros(shape + (n_dims,))
        self._succ_ts = np.full(shape, -1, dtype=np.int64)
        #: flat slot -> queued successors behind its head (rarely any).
        self._queued: "dict[int, ChainItems]" = {}
        self._timestamp = -1   # timestamp of the latest offered value
        #: Per-stream active-element changes and expiry removals.
        self._mutations = [0] * len(rngs)
        self._evictions = [0] * len(rngs)

    # ------------------------------------------------------------------

    @property
    def window_size(self) -> int:
        """The window length ``|W|`` in arrivals."""
        return self._window_size

    @property
    def sample_size(self) -> int:
        """The number of slots ``|R|`` per stream."""
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
        """Monotone counter of *active-element* changes (all streams).

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
        return sum(self._mutations)

    @property
    def mutation_counts(self) -> np.ndarray:
        """Per-stream :attr:`mutation_count`, shape ``(n_streams,)``."""
        return np.array(self._mutations, dtype=np.int64)

    @property
    def eviction_count(self) -> int:
        """Monotone counter of window-expiry removals of active elements.

        The subset of :attr:`mutation_count` caused by elements aging
        out of the window (as opposed to arrival replacements).
        """
        return sum(self._evictions)

    def __len__(self) -> int:
        """Number of slots currently holding an active element."""
        return int(np.count_nonzero(self._head_ts >= 0))

    def newest_active_timestamp(self) -> int:
        """Timestamp of the most recent active sample element (-1 if none).

        ``timestamp - newest_active_timestamp()`` is the sample's
        *staleness*: how many arrivals ago the sample last accepted a
        value.  A pure read over the active slots, identical across the
        scalar and batched maintenance paths.
        """
        return int(self._head_ts.max())

    # ------------------------------------------------------------------

    def _chain(self, flat: int) -> ChainItems:
        """Slot ``flat``'s chain (stream-major index) as a fresh list."""
        stream, slot = divmod(flat, self._sample_size)
        ts = int(self._head_ts[stream, slot])
        items: ChainItems = [] if ts < 0 \
            else [(ts, self._head_val[stream, slot].tolist())]
        items.extend(self._queued.get(flat, ()))
        return items

    def _store_chain(self, flat: int, items: ChainItems) -> None:
        """Write a chain from :meth:`_chain` back into the arrays."""
        stream, slot = divmod(flat, self._sample_size)
        if items:
            self._head_ts[stream, slot] = items[0][0]
            self._head_val[stream, slot] = items[0][1]
        else:
            self._head_ts[stream, slot] = -1
        if len(items) > 1:
            self._queued[flat] = items[1:]
        else:
            self._queued.pop(flat, None)

    def _start(self, timestamp: "int | None", m: int) -> int:
        """The first timestamp of ``m`` arrivals, checked to increase."""
        ts0 = self._timestamp + 1 if timestamp is None else int(timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        return ts0

    def _note_obs(self, mutations_before: "list[int]",
                  evictions_before: "list[int]") -> None:
        """Report each stream's mutation/eviction deltas to ``repro.obs``."""
        for now_m, was_m, now_e, was_e in zip(
                self._mutations, mutations_before, self._evictions,
                evictions_before):
            mutations, evictions = now_m - was_m, now_e - was_e
            if mutations:
                obs.metrics().counter("sample.mutations").inc(mutations)
            if evictions:
                obs.metrics().counter("sample.evictions").inc(evictions)
                obs.emit("sample.evict", count=evictions,
                         timestamp=self._timestamp)

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

        The one-at-a-time reference path of a one-stream sample.  MGDD's
        top-level leader uses it to broadcast *incremental*
        global-model updates: only the changed slots travel down the
        hierarchy (Section 8.1).
        """
        if len(self._rngs) != 1:
            raise ParameterError(
                "offer_detailed takes one stream's arrival; feed "
                f"{len(self._rngs)} streams through offer_many")
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"value must have {self._n_dims} coordinate(s), got shape {point.shape}")
        # A list copy: the slots keep the value, and a caller may reuse
        # its buffer for the next reading.
        coords = point.tolist()
        if not all(map(math.isfinite, coords)):
            raise ParameterError(f"value must be finite, got {coords}")
        timestamp = self._start(timestamp, 1)
        self._timestamp = timestamp
        watched = obs.ACTIVE or _sanitize.ACTIVE
        if watched:
            mutations_before = list(self._mutations)
            evictions_before = list(self._evictions)
        window = self._window_size
        inclusion_prob = 1.0 / min(timestamp + 1, window)
        horizon = timestamp - window
        succ = self._succ_ts[0]
        changed: "list[int]" = []
        # One random draw per slot; the slot scan runs on plain lists.
        for slot, (draw, head_ts, succ_ts) in enumerate(zip(
                self._rngs[0].random(self._sample_size).tolist(),
                self._head_ts[0].tolist(), succ.tolist())):
            if draw < inclusion_prob:
                # The arrival replaces this slot's entire chain.
                self._store_chain(slot, [(timestamp, coords)])
                succ[slot] = draw_successor(self._successor_rngs[slot],
                                            timestamp, window)
                self._mutations[0] += 1
                changed.append(slot)
            elif head_ts >= 0 and (succ_ts == timestamp or head_ts <= horizon):
                items = self._chain(slot)
                if succ_ts == timestamp:
                    # Capture the successor chosen earlier; queue it.
                    items.append((timestamp, coords))
                    succ[slot] = draw_successor(self._successor_rngs[slot],
                                                timestamp, window)
                # Expire the active element once it falls out of the window.
                expired = expire_chain(items, horizon)
                self._mutations[0] += expired
                self._evictions[0] += expired
                self._store_chain(slot, items)
        if watched:
            if _sanitize.ACTIVE:
                _sanitize.check_chain_sample(
                    self, mutations_before=sum(mutations_before))
            if obs.ACTIVE:
                self._note_obs(mutations_before, evictions_before)
        return tuple(changed)

    def _as_block(self, values: Any) -> np.ndarray:
        """``values`` as a finite ``(m, n_streams, n_dims)`` block.

        A one-stream sample also takes ``(m, n_dims)``, and ``(m,)`` for
        1-d data.
        """
        vals = np.asarray(values, dtype=float)
        n, d = len(self._rngs), self._n_dims
        if n == 1 and vals.ndim == 1 and d == 1:
            vals = vals[:, None]
        if n == 1 and vals.ndim == 2:
            vals = vals[:, None]
        if vals.ndim != 3 or vals.shape[1:] != (n, d):
            want = f"(m, {d})" if n == 1 else f"(m, {n}, {d})"
            raise ParameterError(f"values must have shape {want}, got "
                                 f"{np.shape(values)}")
        if not np.isfinite(vals).all():
            raise ParameterError("values must all be finite")
        return vals

    def offer_many(self, values: "np.ndarray | Sequence[Any]",
                   start_timestamp: int | None = None) -> np.ndarray:
        """Process a block of arrivals at consecutive timestamps.

        ``values`` has shape ``(m, n_streams, n_dims)`` (see
        :meth:`_as_block` for the shorter forms); the arrivals take
        timestamps ``start_timestamp .. start_timestamp + m - 1``
        (continuing from the last offer when omitted).  The whole block
        is validated before any state changes.

        Returns the boolean acceptance mask, shape ``(n_streams, m,
        |R|)``: row ``t`` of stream ``s`` marks the slots whose active
        element arrival ``t`` replaced -- exactly the slots ``m``
        successive :meth:`offer_detailed` calls would have returned, bit
        for bit, given the same generator states (see the module
        docstring).

        The acceptance test for all ``m x |R|`` (arrival, slot) pairs of
        every stream is one vectorised draw and comparison; Python-level
        work is limited to the O(m |R| / |W|) expected slot events.
        """
        vals = self._as_block(values)
        m = vals.shape[0]
        n_streams, n_slots = self._head_ts.shape
        hits = np.empty((n_streams, m, n_slots), dtype=bool)
        if m == 0:
            return hits
        ts0 = self._start(start_timestamp, m)
        watched = obs.ACTIVE or _sanitize.ACTIVE
        if watched:
            mutations_before = list(self._mutations)
            evictions_before = list(self._evictions)
        # Acceptance draws are materialised for (streams, ticks, |R|);
        # bound that scratch like the kernels' (splitting a block is
        # exact: consecutive spans equal one call).
        span = max(1, BLOCK_CELLS // (n_streams * n_slots))
        for start in range(0, m, span):
            self._offer_span(vals[start:start + span], ts0 + start,
                             hits[:, start:start + span])
        self._timestamp = ts0 + m - 1
        if watched:
            if _sanitize.ACTIVE:
                _sanitize.check_chain_sample(
                    self, mutations_before=sum(mutations_before))
            if obs.ACTIVE:
                self._note_obs(mutations_before, evictions_before)
        return hits

    def _offer_span(self, block: np.ndarray, ts0: int,
                    hits: np.ndarray) -> None:
        """Chain-sample ``block`` (``k`` ticks from ``ts0``) into every
        stream's slots, writing the acceptance mask into ``hits``."""
        _, k, n_slots = hits.shape
        window = self._window_size
        ts_end = ts0 + k - 1
        horizon = ts_end - window
        # Once the window has filled, every arrival is accepted with
        # the same probability (the same double as the array form).
        inclusion: "float | np.ndarray" = 1.0 / window
        if ts0 + 1 < window:
            inclusion = 1.0 / np.minimum(np.arange(ts0, ts0 + k) + 1,
                                         window)[:, None]
        # Each stream's generator fills its (k, |R|) plane exactly as
        # its own rng.random((k, |R|)) would.
        draws = np.empty(hits.shape)
        for plane, rng in zip(draws, self._rngs):
            rng.random(out=plane)
        np.less(draws, inclusion, out=hits)
        # Hit rows per slot, slot-major then arrival order.
        keys, rows = np.nonzero(hits.transpose(0, 2, 1).reshape(-1, k))
        head = self._head_ts.reshape(-1)
        succ = self._succ_ts.reshape(-1)
        # Event slots: an acceptance, a successor falling due, or a head
        # leaving the window inside this span.  Empty slots (-1) may be
        # swept in too; walking them changes nothing.
        due = (succ <= ts_end) | (head <= horizon)
        due[keys] = True
        events = np.flatnonzero(due)
        if not events.size:
            return
        # Every hit slot is an event, so event e's hit rows end where
        # event e + 1's begin.
        bounds = np.searchsorted(keys, events).tolist()
        bounds.append(keys.size)
        hit_rows = rows.tolist()
        head_ts = head[events].tolist()
        succ_ts = succ[events].tolist()
        mutated, evicted = self._mutations, self._evictions
        moved: "list[int]" = []           # events whose head changed
        moved_values: "list[list[float]]" = []
        queued = self._queued
        for e, flat in enumerate(events.tolist()):
            # The walk never reads the head's value: it is replaced,
            # expired or kept, so None stands for "still in the array".
            items: "list[tuple[int, Any]]" = [] if head_ts[e] < 0 \
                else [(head_ts[e], None)]
            if flat in queued:
                items.extend(queued.pop(flat))
            stream = flat // n_slots
            lo, hi = bounds[e], bounds[e + 1]
            if lo < hi or ts0 <= succ_ts[e] <= ts_end:
                succ_ts[e], mutations, evictions = walk_slot(
                    items, succ_ts[e], self._successor_rngs[flat],
                    hit_rows[lo:hi], block, stream, ts0, window)
                mutated[stream] += mutations
                evicted[stream] += evictions
            if items and items[0][0] <= horizon:
                expired = expire_chain(items, horizon)
                mutated[stream] += expired
                evicted[stream] += expired
            if not items:
                head_ts[e] = -1
                continue
            head_ts[e], value = items[0]
            if value is not None:
                moved.append(flat)
                moved_values.append(value)
            if len(items) > 1:
                queued[flat] = items[1:]
        head[events] = head_ts
        succ[events] = succ_ts
        if moved:
            self._head_val.reshape(-1, self._n_dims)[moved] = moved_values

    def values(self) -> np.ndarray:
        """Active sample elements, shape ``(k, n_dims)``.

        Stream-major, then slot order.  ``k`` equals ``n_streams * |R|``
        from the first arrival onward; it can only be smaller before any
        value has been offered.
        """
        return self._head_val[self._head_ts >= 0]

    def has_active(self) -> bool:
        """Whether any slot currently holds an active element."""
        return bool((self._head_ts >= 0).any())

    # ------------------------------------------------------------------
    # Resource accounting (Section 10.3)
    # ------------------------------------------------------------------

    def chain_lengths(self) -> np.ndarray:
        """Current length of each slot's chain (active element included).

        Shape ``(n_streams * |R|,)``, stream-major.
        """
        lengths = (self._head_ts >= 0).astype(np.int64).reshape(-1)
        for flat, items in self._queued.items():
            lengths[flat] += len(items)
        return lengths

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
        return stored * (words_per_value + 1) + self._head_ts.size

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self, stream: "int | None" = None) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Chains travel as flat ``(slot, ts, value)`` arrays -- heads and
        queued successors, slot-major, oldest first -- beside the
        pending successor timestamps and the exact bitstream positions
        of the acceptance generators and the per-slot successor
        substreams, so a :meth:`restore_state` round trip replays
        future arrivals bit for bit.  With ``stream``, the snapshot
        holds that stream alone: the one a one-stream sample in the
        same state would give.
        """
        d, n_slots = self._n_dims, self._sample_size
        rows = slice(0, len(self._rngs)) if stream is None \
            else slice(stream, stream + 1)
        lo, hi = rows.start * n_slots, rows.stop * n_slots
        chains = [(flat - lo, ts, value) for flat in range(lo, hi)
                  for ts, value in self._chain(flat)]
        return {
            "window_size": self._window_size,
            "sample_size": n_slots,
            "n_dims": d,
            "rngs": [rng_state(g) for g in self._rngs[rows]],
            "successor_rngs": [rng_state(g)
                               for g in self._successor_rngs[lo:hi]],
            "chain_slot": np.array([c[0] for c in chains], dtype=np.int64),
            "chain_ts": np.array([c[1] for c in chains], dtype=np.int64),
            "chain_value": np.array([c[2] for c in chains],
                                    dtype=float).reshape(-1, d),
            "succ_ts": self._succ_ts[rows].copy(),
            "timestamp": self._timestamp,
            "mutations": np.array(self._mutations[rows], dtype=np.int64),
            "evictions": np.array(self._evictions[rows], dtype=np.int64),
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
        sample._sample_size = n_slots = int(state["sample_size"])
        sample._n_dims = d = int(state["n_dims"])
        sample._rngs = [rng_from_state(s) for s in state["rngs"]]
        sample._successor_rngs = [
            rng_from_state(s) for s in state["successor_rngs"]]
        shape = (len(sample._rngs), n_slots)
        # astype() copies into the canonical dtype object, so a restored
        # sample snapshots to the same bytes as the original.
        sample._succ_ts = np.asarray(state["succ_ts"]).astype(np.int64)
        sample._mutations = np.asarray(state["mutations"]).tolist()
        sample._evictions = np.asarray(state["evictions"]).tolist()
        sample._timestamp = int(state["timestamp"])
        slots = np.asarray(state["chain_slot"], dtype=np.int64)
        ts = np.asarray(state["chain_ts"], dtype=np.int64)
        chain_values = np.asarray(state["chain_value"],
                                  dtype=float).reshape(-1, d)
        # A slot's first item is its head; the rest queue behind it.
        is_head = np.ones(slots.shape, dtype=bool)
        is_head[1:] = slots[1:] != slots[:-1]
        sample._head_ts = np.full(shape, -1, dtype=np.int64)
        sample._head_val = np.zeros(shape + (d,))
        sample._head_ts.reshape(-1)[slots[is_head]] = ts[is_head]
        sample._head_val.reshape(-1, d)[slots[is_head]] = \
            chain_values[is_head]
        sample._queued = {}
        for flat, t, value in zip(slots[~is_head].tolist(),
                                  ts[~is_head].tolist(),
                                  chain_values[~is_head].tolist()):
            sample._queued.setdefault(flat, []).append((t, value))
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
