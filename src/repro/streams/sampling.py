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
generator passed as ``rng``) as structure-of-arrays state.  Every
slot's chain -- its active element, then the queued successors, oldest
first -- is one row of padded arrays: timestamps ``(streams * |R|, C)``
(int64, -1 past the chain's end, so an empty slot reads -1 in column
0), values ``(streams * |R|, C, d)`` and lengths ``(streams * |R|,)``.
``C`` grows to the longest chain seen (a handful: the expected length
is O(1)).  Beside them sit each slot's pending successor timestamp and
one successor key per stream.  A node passes one generator and gets one
stream; the cross-stream :class:`~repro.engine.core.DetectorEngine`
passes one per sensor stream.

:meth:`ChainSample.offer_many` processes a block of arrivals with one
vectorised acceptance draw per stream (``rng.random((m, |R|))``) and
walks the rare slot events -- acceptances, successor captures and the
expiries before them -- in array rounds, one event per slot per round,
followed by one expiry at the block's last arrival.  Its results are
*bit-identical* to the equivalent sequence of
:meth:`ChainSample.offer_detailed` calls: numpy generators fill a
``(m, |R|)`` block with exactly the same doubles, in the same order, as
``m`` sequential ``random(|R|)`` calls, and a successor timestamp is a
pure function of the stream's key, the slot and the arrival timestamp
(:func:`draw_successor`, or :func:`draw_successors` over arrays),
whatever the grouping or stream count.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Sequence

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng, rng_from_state, rng_state, spawn_rngs
from repro._validation import require_positive_int
from repro.core._kernels_numpy import BLOCK_CELLS

__all__ = ["ChainSample", "ReservoirSample"]

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment (the golden ratio in 64-bit fixed point).
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64's finaliser: a bijective avalanche of a 64-bit int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def draw_successor(key: int, slot: int, ts: int, window: int) -> int:
    """A successor timestamp uniform over ``(ts, ts + window]``.

    Counter-based (Salmon et al., SC'11): slot ``s`` of the stream with
    64-bit ``key`` reads the SplitMix64 sequence seeded with the ``s``-th
    SplitMix64 output of ``key`` at position ``ts``; a multiply-shift
    maps that word onto ``1..window`` (bias below ``window / 2**64``).
    """
    slot_key = _mix64((key + (slot + 1) * _GAMMA) & _MASK64)
    h = _mix64((slot_key + (ts + 1) * _GAMMA) & _MASK64)
    return ts + 1 + ((h * window) >> 64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array, in place (wrapping)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _slot_keys(keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The per-slot keys of :func:`draw_successor`, as ``uint64``."""
    return _mix64_array(np.asarray(keys, dtype=np.uint64)
                        + (np.asarray(slots, dtype=np.uint64) + 1) * _GAMMA)


def _draw(slot_key: np.ndarray, ts: np.ndarray, window: int) -> np.ndarray:
    """:func:`draw_successor` from per-slot keys, over ``int64`` ``ts``.

    The multiply-high ``(h * window) >> 64`` is split into 32-bit
    halves, each product below ``2**64``; exact for ``window < 2**32``.
    """
    h = ts.astype(np.uint64)
    h += 1
    h *= _GAMMA
    h += slot_key
    _mix64_array(h)
    low = h & 0xFFFFFFFF
    low *= window
    low >>= 32
    h >>= 32
    h *= window
    h += low
    h >>= 32
    offset = h.view(np.int64)
    offset += ts
    offset += 1
    return offset


def draw_successors(keys: np.ndarray, slots: np.ndarray, ts: np.ndarray,
                    window: int) -> np.ndarray:
    """:func:`draw_successor` elementwise over equal-shape arrays, bit
    for bit.

    ``keys`` are 64-bit stream keys, ``slots`` and ``ts`` non-negative
    integers; ``window`` must be below ``2**32``.
    """
    return _draw(_slot_keys(keys, slots), np.asarray(ts, dtype=np.int64),
                 window)


# repro-lint: shard-state
class ChainSample:
    """Uniform samples of sliding windows, maintained by chain sampling.

    Parameters
    ----------
    window_size:
        The window length ``|W|`` in arrivals, below ``2**32``.
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
        if window_size >= 2**32:
            raise ParameterError(
                f"window_size must be below 2**32, got {window_size}")
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
        #: Per-stream successor keys (:func:`draw_successor`).
        self._keys = np.array([int(child.integers(2**64, dtype=np.uint64))
                               for g in rngs for child in spawn_rngs(g, 1)],
                              dtype=np.uint64)
        n_flat = len(rngs) * sample_size
        #: Slot ``s*|R| + j``'s chain, oldest first, in row ``s*|R| + j``;
        #: column 0 is the active element, -1 pads (and marks empty).
        self._chain_ts = np.full((n_flat, 1), -1, dtype=np.int64)
        self._chain_val = np.zeros((n_flat, 1, n_dims))
        self._chain_len = np.zeros(n_flat, dtype=np.int64)
        self._succ_ts = np.full((len(rngs), sample_size), -1, dtype=np.int64)
        self._timestamp = -1   # timestamp of the latest offered value
        #: Per-stream active-element changes and expiry removals.
        self._mutations = np.zeros(len(rngs), dtype=np.int64)
        self._evictions = np.zeros(len(rngs), dtype=np.int64)
        self._derive()

    def _derive(self) -> None:
        """Set the fields that follow from the chains and keys."""
        n_slots = self._sample_size
        flat = np.arange(self._chain_len.size)
        self._slot_key = _slot_keys(self._keys[flat // n_slots],
                                    flat % n_slots)
        self._oldest = self._oldest_head()

    def _oldest_head(self) -> int:
        """The oldest active element's timestamp (``2**64 - 1`` if none).

        A lower bound on it is kept in ``_oldest``: heads are only ever
        replaced by newer items, so a span whose horizon is below it has
        nothing to expire.
        """
        return int(self._chain_ts[:, 0].view(np.uint64).min())

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
        return int(self._mutations.sum())

    @property
    def mutation_counts(self) -> np.ndarray:
        """Per-stream :attr:`mutation_count`, shape ``(n_streams,)``."""
        return self._mutations.copy()

    @property
    def eviction_count(self) -> int:
        """Monotone counter of window-expiry removals of active elements.

        The subset of :attr:`mutation_count` caused by elements aging
        out of the window (as opposed to arrival replacements).
        """
        return int(self._evictions.sum())

    def __len__(self) -> int:
        """Number of slots currently holding an active element."""
        return int(np.count_nonzero(self._chain_len))

    def newest_active_timestamp(self) -> int:
        """Timestamp of the most recent active sample element (-1 if none).

        ``timestamp - newest_active_timestamp()`` is the sample's
        *staleness*: how many arrivals ago the sample last accepted a
        value.  A pure read over the active slots, identical across the
        scalar and batched maintenance paths.
        """
        return int(self._chain_ts[:, 0].max())

    # ------------------------------------------------------------------

    def _start(self, timestamp: "int | None", m: int) -> int:
        """The first timestamp of ``m`` arrivals, checked to increase."""
        ts0 = self._timestamp + 1 if timestamp is None else int(timestamp)
        if ts0 <= self._timestamp:
            raise ParameterError(
                f"timestamps must be strictly increasing "
                f"(got {ts0} after {self._timestamp})")
        return ts0

    def _watch(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The counters before a call, when a check or ``obs`` watches."""
        if obs.ACTIVE or _sanitize.ACTIVE:
            return self._mutations.copy(), self._evictions.copy()
        return None

    def _report(self, before: "tuple[np.ndarray, np.ndarray]") -> None:
        """Check the sample after a call watched by :meth:`_watch`, and
        report each stream's mutation/eviction deltas to ``repro.obs``."""
        mutations_before, evictions_before = before
        if _sanitize.ACTIVE:
            _sanitize.check_chain_sample(
                self, mutations_before=int(mutations_before.sum()))
        if not obs.ACTIVE:
            return
        for mutations, evictions in zip(
                (self._mutations - mutations_before).tolist(),
                (self._evictions - evictions_before).tolist()):
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
        coords = point.tolist()
        if not all(map(math.isfinite, coords)):
            raise ParameterError(f"value must be finite, got {coords}")
        timestamp = self._start(timestamp, 1)
        self._timestamp = timestamp
        before = self._watch()
        window = self._window_size
        inclusion_prob = 1.0 / min(timestamp + 1, window)
        horizon = timestamp - window
        succ = self._succ_ts[0]
        key = int(self._keys[0])
        chain_ts, chain_val, chain_len = \
            self._chain_ts, self._chain_val, self._chain_len
        changed: "list[int]" = []
        expired = 0
        # One random draw per slot; the slot scan runs on plain lists.
        for slot, (draw, head_ts, succ_ts) in enumerate(zip(
                self._rngs[0].random(self._sample_size).tolist(),
                chain_ts[:, 0].tolist(), succ.tolist())):
            if draw < inclusion_prob:
                # The arrival replaces this slot's entire chain (the
                # copy into the array keeps it from the caller's buffer).
                if chain_len[slot] > 1:
                    chain_ts[slot, 1:] = -1
                chain_ts[slot, 0] = timestamp
                chain_val[slot, 0] = point
                chain_len[slot] = 1
                succ[slot] = draw_successor(key, slot, timestamp, window)
                changed.append(slot)
            elif head_ts >= 0 and (succ_ts == timestamp or head_ts <= horizon):
                if succ_ts == timestamp:
                    # Capture the successor chosen earlier; queue it.
                    n = int(chain_len[slot])
                    if n == self._chain_ts.shape[1]:
                        self._grow(n + 1)
                        chain_ts, chain_val = self._chain_ts, self._chain_val
                    chain_ts[slot, n] = timestamp
                    chain_val[slot, n] = point
                    chain_len[slot] = n + 1
                    succ[slot] = draw_successor(key, slot, timestamp, window)
                # Expire the active element once it falls out of the window.
                if head_ts <= horizon:
                    expired += self._expire_slot(slot, horizon)
        self._mutations[0] += len(changed) + expired
        self._evictions[0] += expired
        if changed:
            self._oldest = min(self._oldest, timestamp)
        if before is not None:
            self._report(before)
        return tuple(changed)

    def _expire_slot(self, flat: int, horizon: int) -> int:
        """Drop slot ``flat``'s leading items at or below ``horizon``;
        return how many were dropped."""
        n = int(self._chain_len[flat])
        drop = bisect.bisect_right(self._chain_ts[flat, :n].tolist(), horizon)
        if drop:
            self._chain_ts[flat, :n - drop] = self._chain_ts[flat, drop:n]
            self._chain_ts[flat, n - drop:n] = -1
            self._chain_val[flat, :n - drop] = self._chain_val[flat, drop:n]
            self._chain_len[flat] = n - drop
        return drop

    def _grow(self, width: int) -> None:
        """Widen the chain arrays to ``width`` columns."""
        n_flat, extra = self._chain_len.size, width - self._chain_ts.shape[1]
        self._chain_ts = np.concatenate(
            [self._chain_ts, np.full((n_flat, extra), -1, dtype=np.int64)],
            axis=1)
        self._chain_val = np.concatenate(
            [self._chain_val, np.zeros((n_flat, extra, self._n_dims))],
            axis=1)

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
        every stream is one vectorised draw and comparison, and the
        O(m |R| / |W|) expected slot events are walked in array rounds.
        """
        vals = self._as_block(values)
        m = vals.shape[0]
        n_streams, n_slots = self._succ_ts.shape
        hits = np.empty((n_streams, m, n_slots), dtype=bool)
        if m == 0:
            return hits
        ts0 = self._start(start_timestamp, m)
        before = self._watch()
        # Acceptance draws are materialised for (streams, ticks, |R|);
        # bound that scratch like the kernels' (splitting a block is
        # exact: consecutive spans equal one call).
        span = max(1, BLOCK_CELLS // (n_streams * n_slots))
        for start in range(0, m, span):
            self._offer_span(vals[start:start + span], ts0 + start,
                             hits[:, start:start + span])
        if before is not None:
            self._report(before)
        return hits

    def _offer_span(self, block: np.ndarray, ts0: int,
                    hits: np.ndarray) -> None:
        """Chain-sample ``block`` (``k`` ticks from ``ts0``) into every
        stream's slots, writing the acceptance mask into ``hits``.

        The slot events are walked in rounds, each advancing every slot
        that still has one by one event, in time order: the capture of
        its pending successor when that precedes its next acceptance,
        else the acceptance (which pre-empts a successor due at the same
        arrival).  One expiry at the span's last arrival follows.
        """
        n_streams, k, n_slots = hits.shape
        window = self._window_size
        ts_end = ts0 + k - 1
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
        # Hits in (stream, tick, slot) order; every one is an acceptance.
        found = np.flatnonzero(hits)
        if found.size:
            self._mutations += np.bincount(found // (k * n_slots),
                                           minlength=n_streams)
            self._oldest = min(self._oldest, ts0)
        succ = self._succ_ts.reshape(-1)
        dropped: "list[np.ndarray]" = []     # the slot of each expiry
        if k == 1:
            # At one tick a hit's index is its slot, every slot has at
            # most one event, and right after the previous tick nothing
            # older than its horizon is left to expire first.
            due = succ == ts0
            due[found] = True
            slots = np.flatnonzero(due)
            accept = hits.reshape(-1)[slots]
            self._events(block, ts0, slots, np.full(slots.size, ts0), accept,
                         None if ts0 == self._timestamp + 1 else dropped)
        else:
            cell = found // n_slots                  # stream * k + tick
            stream = cell // k
            hit_slot = found - (cell - stream) * n_slots
            order = np.argsort(hit_slot, kind="stable")
            hit_slot = hit_slot[order]
            due = (succ >= ts0) & (succ <= ts_end)
            due[hit_slot] = True
            slots = np.flatnonzero(due)
            # Each event slot's acceptance times in order, then ts_end + 1:
            # hit j of the slot-sorted list sits past the end marks of
            # the event slots before its own.
            queue = np.full(found.size + slots.size, ts_end + 1)
            queue[np.arange(found.size) + np.searchsorted(slots, hit_slot)] \
                = ts0 + (cell - stream * k)[order]
            pos = np.searchsorted(hit_slot, slots) + np.arange(slots.size)
            cursor = ts0 - 1                         # latest event handled
            while slots.size:
                acc_ts = queue[pos]
                succ_ts = succ[slots]
                capture = (succ_ts > cursor) & (succ_ts < acc_ts)
                cursor = np.where(capture, succ_ts, acc_ts)
                live = cursor <= ts_end
                if not live.all():
                    slots, pos, capture, cursor = \
                        slots[live], pos[live], capture[live], cursor[live]
                accept = ~capture
                self._events(block, ts0, slots, cursor, accept, dropped)
                pos = pos + accept
        self._timestamp = ts_end
        horizon = ts_end - window
        if horizon >= self._oldest:
            # horizon >= 0 here, and empty heads (-1) read as 2**64 - 1.
            self._expire(np.flatnonzero(
                self._chain_ts[:, 0].view(np.uint64) <= horizon), horizon,
                dropped)
            self._oldest = self._oldest_head()
        if dropped:
            expired = np.bincount(np.concatenate(dropped) // n_slots,
                                  minlength=n_streams)
            self._mutations += expired
            self._evictions += expired

    def _events(self, block: np.ndarray, ts0: int, slots: np.ndarray,
                ts: np.ndarray, accept: np.ndarray,
                dropped: "list[np.ndarray] | None") -> None:
        """One round of the walk: slot ``slots[i]``'s event at ``ts[i]``
        is an acceptance where ``accept`` is set, else a capture.

        Each chain first drops the items that aged out at the arrivals
        before its event, recorded in ``dropped`` to be charged as
        one-at-a-time offers charge them (``None``: none can have).  An
        acceptance then replaces the chain, a capture appends to it,
        and both redraw the slot's successor.
        """
        if not slots.size:
            return
        if dropped is not None:
            horizon = ts - 1 - self._window_size
            if horizon.max() >= self._oldest:
                self._expire(slots, horizon, dropped)
        # An acceptance empties the chain, and then every event appends
        # its arrival (a successor falls due at most |W| arrivals after
        # the newest item, so a capture's chain is still live).
        if accept.any():
            self._chain_ts[slots[accept]] = -1
            self._chain_len[slots[accept]] = 0
        n = self._chain_len[slots]
        if n.max() >= self._chain_ts.shape[1]:
            self._grow(int(n.max()) + 1)
        self._chain_ts[slots, n] = ts
        self._chain_val[slots, n] = block[ts - ts0, slots // self._sample_size]
        self._chain_len[slots] = n + 1
        self._succ_ts.reshape(-1)[slots] = _draw(self._slot_key[slots], ts,
                                                 self._window_size)

    def _expire(self, slots: np.ndarray, horizon: "int | np.ndarray",
                dropped: "list[np.ndarray]") -> None:
        """Drop the chains' leading items at or below ``horizon`` (one
        for all slots, or one per slot), appending to ``dropped`` the
        slots that lost an item, once per item."""
        chain_ts, chain_val = self._chain_ts, self._chain_val
        while True:
            head = chain_ts[slots, 0]
            aged = (head >= 0) & (head <= horizon)
            if not aged.any():
                return
            slots = slots[aged]
            if isinstance(horizon, np.ndarray):
                horizon = horizon[aged]
            dropped.append(slots)
            # Shift the chains one column left, -1 filling in.
            chain_ts[slots, :-1] = chain_ts[slots, 1:]
            chain_ts[slots, -1] = -1
            chain_val[slots, :-1] = chain_val[slots, 1:]
            self._chain_len[slots] -= 1

    def values(self) -> np.ndarray:
        """Active sample elements, shape ``(k, n_dims)``.

        Stream-major, then slot order.  ``k`` equals ``n_streams * |R|``
        from the first arrival onward; it can only be smaller before any
        value has been offered.
        """
        return self._chain_val[:, 0][self._chain_len > 0]

    def has_active(self) -> bool:
        """Whether any slot currently holds an active element."""
        return bool(self._chain_len.any())

    # ------------------------------------------------------------------
    # Resource accounting (Section 10.3)
    # ------------------------------------------------------------------

    def chain_lengths(self) -> np.ndarray:
        """Current length of each slot's chain (active element included).

        Shape ``(n_streams * |R|,)``, stream-major.
        """
        return self._chain_len.copy()

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
        stored = int(self._chain_len.sum())
        return stored * (words_per_value + 1) + self._succ_ts.size

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self, stream: "int | None" = None) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Chains travel as flat ``(slot, ts, value)`` arrays -- heads and
        queued successors, slot-major, oldest first -- beside the
        pending successor timestamps, the exact bitstream positions of
        the acceptance generators and the per-stream successor keys, so
        a :meth:`restore_state` round trip replays future arrivals bit
        for bit.  With ``stream``, the snapshot holds that stream alone:
        the one a one-stream sample in the same state would give.
        """
        n_slots = self._sample_size
        rows = slice(0, len(self._rngs)) if stream is None \
            else slice(stream, stream + 1)
        flat = slice(rows.start * n_slots, rows.stop * n_slots)
        ts = self._chain_ts[flat]
        stored = ts >= 0
        return {
            "window_size": self._window_size,
            "sample_size": n_slots,
            "n_dims": self._n_dims,
            "rngs": [rng_state(g) for g in self._rngs[rows]],
            "keys": self._keys[rows].copy(),
            "chain_slot": np.repeat(np.arange(flat.stop - flat.start),
                                    self._chain_len[flat]),
            "chain_ts": ts[stored],
            "chain_value": self._chain_val[flat][stored],
            "succ_ts": self._succ_ts[rows].copy(),
            "timestamp": self._timestamp,
            "mutations": self._mutations[rows].copy(),
            "evictions": self._evictions[rows].copy(),
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ChainSample":
        """Rebuild a sampler from a :meth:`snapshot_state` dict.

        Bypasses ``__init__`` (which would derive fresh keys) and
        reinstates every field directly, so the restored sampler is
        indistinguishable from the original under any future offers.
        """
        sample = cls.__new__(cls)
        sample._window_size = int(state["window_size"])
        sample._sample_size = n_slots = int(state["sample_size"])
        sample._n_dims = d = int(state["n_dims"])
        sample._rngs = [rng_from_state(s) for s in state["rngs"]]
        # astype() copies into the canonical dtype object, so a restored
        # sample snapshots to the same bytes as the original.
        sample._keys = np.asarray(state["keys"]).astype(np.uint64)
        sample._succ_ts = np.asarray(state["succ_ts"]).astype(np.int64)
        sample._mutations = np.asarray(state["mutations"]).astype(np.int64)
        sample._evictions = np.asarray(state["evictions"]).astype(np.int64)
        sample._timestamp = int(state["timestamp"])
        slots = np.asarray(state["chain_slot"], dtype=np.int64)
        # A slot's items are consecutive, oldest first.
        lengths = np.bincount(slots, minlength=len(sample._rngs) * n_slots)
        starts = np.cumsum(lengths) - lengths
        cols = np.arange(slots.size) - starts[slots]
        width = max(1, int(lengths.max()))
        sample._chain_ts = np.full((lengths.size, width), -1, dtype=np.int64)
        sample._chain_val = np.zeros((lengths.size, width, d))
        sample._chain_ts[slots, cols] = np.asarray(state["chain_ts"])
        sample._chain_val[slots, cols] = np.asarray(
            state["chain_value"], dtype=float).reshape(-1, d)
        sample._chain_len = lengths.astype(np.int64)
        sample._derive()
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
