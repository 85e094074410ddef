"""Sliding windows over sensor streams.

The problem setting (Section 3) fixes attention on the last ``|W|``
d-dimensional values of each stream.  This module provides the ring
buffer the rest of the package builds on: exact window contents for the
ground-truth detectors and reference statistics, with O(1) appends.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro._exceptions import ParameterError
from repro._validation import require_positive_int

__all__ = ["SlidingWindow"]


# repro-lint: shard-state
class SlidingWindow:
    """A fixed-capacity window of d-dimensional values with O(1) append.

    Values are stored in a preallocated ring buffer; :meth:`values`
    materialises them oldest-first.
    """

    def __init__(self, capacity: int, n_dims: int = 1) -> None:
        require_positive_int("capacity", capacity)
        require_positive_int("n_dims", n_dims)
        self._capacity = capacity
        self._n_dims = n_dims
        self._buffer = np.empty((capacity, n_dims), dtype=float)
        self._count = 0          # number of valid entries (<= capacity)
        self._next = 0           # next write position

    @property
    def capacity(self) -> int:
        """Maximum number of values retained, ``|W|``."""
        return self._capacity

    @property
    def n_dims(self) -> int:
        """Dimensionality of each value."""
        return self._n_dims

    @property
    def is_full(self) -> bool:
        """Whether the window has reached capacity."""
        return self._count == self._capacity

    def __len__(self) -> int:
        return self._count

    def append(self, value: "np.ndarray | Sequence[float] | float") -> "np.ndarray | None":
        """Add a value; return the evicted value once the window is full."""
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"value must have {self._n_dims} coordinate(s), got shape {point.shape}")
        evicted = None
        if self._count == self._capacity:
            evicted = self._buffer[self._next].copy()
        self._buffer[self._next] = point
        self._next = (self._next + 1) % self._capacity
        self._count = min(self._count + 1, self._capacity)
        return evicted

    def extend(self, values: np.ndarray) -> None:
        """Append a block ``(k, n_dims)`` of values, oldest first.

        The block may not exceed the capacity; once the window is full,
        each new value replaces the oldest.
        """
        block = np.asarray(values, dtype=float)
        if block.ndim != 2 or block.shape[1] != self._n_dims:
            raise ParameterError(
                f"values must have shape (k, {self._n_dims}), "
                f"got {block.shape}")
        k = block.shape[0]
        if k > self._capacity:
            raise ParameterError(
                f"block of {k} values exceeds the capacity {self._capacity}")
        end = self._next + k
        if end <= self._capacity:
            self._buffer[self._next:end] = block
        else:
            split = self._capacity - self._next
            self._buffer[self._next:] = block[:split]
            self._buffer[:end - self._capacity] = block[split:]
        self._next = end % self._capacity
        self._count = min(self._count + k, self._capacity)

    def values(self) -> np.ndarray:
        """Current contents, oldest first, shape ``(len(self), n_dims)``."""
        if self._count < self._capacity:
            return self._buffer[:self._count].copy()
        return np.concatenate(
            (self._buffer[self._next:], self._buffer[:self._next]), axis=0)

    def newest(self) -> np.ndarray:
        """The most recently appended value."""
        if self._count == 0:
            raise ParameterError("window is empty")
        return self._buffer[(self._next - 1) % self._capacity].copy()

    def clear(self) -> None:
        """Drop all contents."""
        self._count = 0
        self._next = 0

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return {
            "capacity": self._capacity,
            "n_dims": self._n_dims,
            "buffer": self._buffer.copy(),
            "count": self._count,
            "next": self._next,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "SlidingWindow":
        """Rebuild a window from a :meth:`snapshot_state` dict."""
        window = cls.__new__(cls)
        window._capacity = int(state["capacity"])
        window._n_dims = int(state["n_dims"])
        window._buffer = np.asarray(state["buffer"], dtype=float).copy()
        window._count = int(state["count"])
        window._next = int(state["next"])
        return window
