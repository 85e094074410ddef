"""Stream plumbing shared by the simulator and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._exceptions import ParameterError

__all__ = ["StreamSet"]


@dataclass(frozen=True)
class StreamSet:
    """A bundle of per-sensor streams of equal length and dimensionality.

    ``streams[i]`` has shape ``(length, n_dims)`` and is the reading
    sequence of leaf sensor ``i``.  Construction checks the bundle --
    shapes, and every reading finite -- however it is built, so the
    simulator never reads a malformed stream.
    """

    streams: "tuple[np.ndarray, ...]"

    def __post_init__(self) -> None:
        if not self.streams:
            raise ParameterError("a StreamSet needs at least one stream")
        for i, stream in enumerate(self.streams):
            if stream.ndim != 2:
                raise ParameterError(
                    f"streams[{i}] must be a (length, n_dims) array, "
                    f"got shape {stream.shape}")
            if not np.isfinite(stream).all():
                raise ParameterError(
                    f"streams[{i}] must contain only finite values")
        lengths = {a.shape[0] for a in self.streams}
        dims = {a.shape[1] for a in self.streams}
        if len(lengths) != 1:
            raise ParameterError(f"streams disagree on length: {sorted(lengths)}")
        if len(dims) != 1:
            raise ParameterError(f"streams disagree on dimensionality: {sorted(dims)}")

    @classmethod
    def from_arrays(cls, arrays: "Iterable[np.ndarray | Sequence[Sequence[float]] | Sequence[float]]") -> "StreamSet":
        """Normalise a list of per-sensor arrays to float ``(length,
        n_dims)`` arrays (1-d input is one scalar reading per tick)."""
        normalised = (np.asarray(a, dtype=float) for a in arrays)
        return cls(tuple(a if a.ndim >= 2 else a.reshape(-1, 1)
                         for a in normalised))

    @property
    def n_sensors(self) -> int:
        """Number of per-sensor streams."""
        return len(self.streams)

    @property
    def length(self) -> int:
        """Readings per sensor."""
        return self.streams[0].shape[0]

    @property
    def n_dims(self) -> int:
        """Dimensionality of each reading."""
        return self.streams[0].shape[1]

    def reading(self, sensor: int, t: int) -> np.ndarray:
        """The reading of ``sensor`` at tick ``t``."""
        return self.streams[sensor][t]

    def block(self, sensor: int, start: int, stop: int) -> np.ndarray:
        """The readings of ``sensor`` over ticks ``[start, stop)``."""
        return self.streams[sensor][start:stop]
