"""Frozen reference: the chain sample's slots as Python lists and a dict.

A verbatim copy of the slot walk, the chain expiry, the per-span
ingestion and the snapshot layout that
:class:`repro.streams.sampling.ChainSample` kept before its chains
became padded arrays (heads in ``(streams, |R|)`` arrays, queued
successors in a sparse dict, one Python walk per event slot).  The
array walk is tested against it after every call; do not edit it to
follow the library.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

import numpy as np

from repro._rng import rng_from_state, rng_state
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.streams.sampling import draw_successor

ChainItems = List[Tuple[int, List[float]]]


def expire_chain(items: ChainItems, horizon: int) -> int:
    n = 0
    for ts, _ in items:
        if ts > horizon:
            break
        n += 1
    if n:
        del items[:n]
    return n


def walk_slot(items: ChainItems, successor_ts: int, key: int, slot: int,
              rows: "list[int]", block: np.ndarray, stream: int, ts0: int,
              window: int) -> "tuple[int, int, int]":
    ts_end = ts0 + block.shape[0] - 1
    mutations = evictions = 0
    pos, n_rows = 0, len(rows)
    cursor = ts0 - 1
    while True:
        acc_ts = ts0 + rows[pos] if pos < n_rows else None
        if (cursor < successor_ts <= ts_end
                and (acc_ts is None or successor_ts < acc_ts)):
            expired = expire_chain(items, successor_ts - 1 - window)
            mutations += expired
            evictions += expired
            cursor = successor_ts
            if items:
                items.append((successor_ts,
                              block[successor_ts - ts0, stream].tolist()))
                successor_ts = draw_successor(key, slot, successor_ts,
                                              window)
        elif acc_ts is not None:
            expired = expire_chain(items, acc_ts - 1 - window)
            mutations += expired + 1
            evictions += expired
            items[:] = [(acc_ts, block[acc_ts - ts0, stream].tolist())]
            successor_ts = draw_successor(key, slot, acc_ts, window)
            pos += 1
            cursor = acc_ts
        else:
            return successor_ts, mutations, evictions


class ReferenceChainSample:
    """The list/dict chain sample, built from a library snapshot."""

    # ------------------------------------------------------------------
    # State access for the comparison
    # ------------------------------------------------------------------

    @property
    def n_streams(self) -> int:
        return len(self._rngs)

    def chains(self) -> "list[list[tuple[int, list[float]]]]":
        """Every slot's chain, stream-major, oldest first."""
        return [self._chain(flat)
                for flat in range(self.n_streams * self._sample_size)]

    # ------------------------------------------------------------------

    def _chain(self, flat: int) -> ChainItems:
        stream, slot = divmod(flat, self._sample_size)
        ts = int(self._head_ts[stream, slot])
        items: ChainItems = [] if ts < 0 \
            else [(ts, self._head_val[stream, slot].tolist())]
        items.extend(self._queued.get(flat, ()))
        return items

    def _store_chain(self, flat: int, items: ChainItems) -> None:
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

    def offer_detailed(self, value: Any,
                       timestamp: "int | None" = None) -> "tuple[int, ...]":
        coords = np.asarray(value, dtype=float).reshape(-1).tolist()
        assert all(map(math.isfinite, coords))
        timestamp = self._timestamp + 1 if timestamp is None \
            else int(timestamp)
        assert timestamp > self._timestamp
        self._timestamp = timestamp
        window = self._window_size
        inclusion_prob = 1.0 / min(timestamp + 1, window)
        horizon = timestamp - window
        succ = self._succ_ts[0]
        key = self._keys[0]
        changed: "list[int]" = []
        for slot, (draw, head_ts, succ_ts) in enumerate(zip(
                self._rngs[0].random(self._sample_size).tolist(),
                self._head_ts[0].tolist(), succ.tolist())):
            if draw < inclusion_prob:
                self._store_chain(slot, [(timestamp, coords)])
                succ[slot] = draw_successor(key, slot, timestamp, window)
                self._mutations[0] += 1
                changed.append(slot)
            elif head_ts >= 0 and (succ_ts == timestamp or head_ts <= horizon):
                items = self._chain(slot)
                if succ_ts == timestamp:
                    items.append((timestamp, coords))
                    succ[slot] = draw_successor(key, slot, timestamp, window)
                expired = expire_chain(items, horizon)
                self._mutations[0] += expired
                self._evictions[0] += expired
                self._store_chain(slot, items)
        return tuple(changed)

    def offer_many(self, vals: np.ndarray,
                   start_timestamp: "int | None" = None) -> np.ndarray:
        """``vals`` is the full ``(m, n_streams, n_dims)`` block."""
        m = vals.shape[0]
        n_streams, n_slots = self._head_ts.shape
        hits = np.empty((n_streams, m, n_slots), dtype=bool)
        if m == 0:
            return hits
        ts0 = self._timestamp + 1 if start_timestamp is None \
            else int(start_timestamp)
        assert ts0 > self._timestamp
        span = max(1, BLOCK_CELLS // (n_streams * n_slots))
        for start in range(0, m, span):
            self._offer_span(vals[start:start + span], ts0 + start,
                             hits[:, start:start + span])
        self._timestamp = ts0 + m - 1
        return hits

    def _offer_span(self, block: np.ndarray, ts0: int,
                    hits: np.ndarray) -> None:
        _, k, n_slots = hits.shape
        window = self._window_size
        ts_end = ts0 + k - 1
        horizon = ts_end - window
        inclusion: "float | np.ndarray" = 1.0 / window
        if ts0 + 1 < window:
            inclusion = 1.0 / np.minimum(np.arange(ts0, ts0 + k) + 1,
                                         window)[:, None]
        draws = np.empty(hits.shape)
        for plane, rng in zip(draws, self._rngs):
            rng.random(out=plane)
        np.less(draws, inclusion, out=hits)
        keys, rows = np.nonzero(hits.transpose(0, 2, 1).reshape(-1, k))
        head = self._head_ts.reshape(-1)
        succ = self._succ_ts.reshape(-1)
        due = (succ <= ts_end) | (head <= horizon)
        due[keys] = True
        events = np.flatnonzero(due)
        if not events.size:
            return
        bounds = np.searchsorted(keys, events).tolist()
        bounds.append(keys.size)
        hit_rows = rows.tolist()
        head_ts = head[events].tolist()
        succ_ts = succ[events].tolist()
        mutated, evicted = self._mutations, self._evictions
        moved: "list[int]" = []
        moved_values: "list[list[float]]" = []
        queued, keys = self._queued, self._keys
        for e, flat in enumerate(events.tolist()):
            items: "list[tuple[int, Any]]" = [] if head_ts[e] < 0 \
                else [(head_ts[e], None)]
            if flat in queued:
                items.extend(queued.pop(flat))
            stream, slot = divmod(flat, n_slots)
            lo, hi = bounds[e], bounds[e + 1]
            if lo < hi or ts0 <= succ_ts[e] <= ts_end:
                succ_ts[e], mutations, evictions = walk_slot(
                    items, succ_ts[e], keys[stream], slot, hit_rows[lo:hi],
                    block, stream, ts0, window)
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

    # ------------------------------------------------------------------
    # Snapshot layout
    # ------------------------------------------------------------------

    def snapshot_state(self, stream: "int | None" = None) -> "dict[str, Any]":
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
            "keys": np.array(self._keys[rows], dtype=np.uint64),
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
    def restore_state(cls, state: "dict[str, Any]") -> "ReferenceChainSample":
        sample = cls.__new__(cls)
        sample._window_size = int(state["window_size"])
        sample._sample_size = n_slots = int(state["sample_size"])
        sample._n_dims = d = int(state["n_dims"])
        sample._rngs = [rng_from_state(s) for s in state["rngs"]]
        sample._keys = np.asarray(state["keys"], dtype=np.uint64).tolist()
        shape = (len(sample._rngs), n_slots)
        sample._succ_ts = np.asarray(state["succ_ts"]).astype(np.int64)
        sample._mutations = np.asarray(state["mutations"]).tolist()
        sample._evictions = np.asarray(state["evictions"]).tolist()
        sample._timestamp = int(state["timestamp"])
        slots = np.asarray(state["chain_slot"], dtype=np.int64)
        ts = np.asarray(state["chain_ts"], dtype=np.int64)
        chain_values = np.asarray(state["chain_value"],
                                  dtype=float).reshape(-1, d)
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
