"""Exact neighbour counts over point sets and sliding windows.

The incremental indexes these classes are named after are gone: the
ground truth recounts a :class:`SlidingWindow` with
:func:`chunked_neighbor_counts`, and :class:`SortedSampleIndex` answers
box queries over a fixed sample.  The cases check both against direct
counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import chunked_neighbor_counts
from repro.core.indexes import SortedSampleIndex
from repro.streams.window import SlidingWindow


def _box_count(points: np.ndarray, query, radius: float) -> int:
    """Points of ``points`` in the inclusive box of half-width ``radius``."""
    q = np.asarray(query, dtype=float)
    return int(SortedSampleIndex(points).candidates(q - radius,
                                                    q + radius).size)


class TestSortedWindowIndex:
    """1-d counts over a sliding window."""

    def test_counts_match_reference(self, rng):
        window = SlidingWindow(50, 1)
        reference: "list[float]" = []
        for value in rng.uniform(size=200):
            window.append(float(value))
            reference.append(float(value))
            reference = reference[-50:]
            assert len(window) == len(reference)
            lo, hi = 0.25, 0.4
            expected = sum(1 for v in reference if lo <= v <= hi)
            got = SortedSampleIndex(window.values()).candidates([lo], [hi])
            assert got.size == expected

    def test_neighbor_count_inclusive(self):
        window = SlidingWindow(5, 1)
        for value in (0.1, 0.2, 0.3):
            window.append(value)
        assert chunked_neighbor_counts(window.values(), np.array([[0.2]]),
                                       0.1)[0] == 3
        assert _box_count(window.values(), [0.2], 0.1) == 3

    def test_duplicates_supported(self):
        window = SlidingWindow(4, 1)
        for value in (0.5, 0.5, 0.5):
            window.append(value)
        assert _box_count(window.values(), [0.5], 0.0) == 3
        window.append(0.5)
        window.append(0.5)   # expires one duplicate
        assert _box_count(window.values(), [0.5], 0.0) == 4
        assert chunked_neighbor_counts(window.values(), np.array([[0.5]]),
                                       1e-12)[0] == 4


class TestGridCountIndex:
    """Box counts over a fixed point set, 1 to 3 dimensions."""

    def test_counts_match_brute_force_1d(self, rng):
        points = rng.uniform(size=300)
        for query in (0.1, 0.5, 0.93):
            expected = int(np.sum(np.abs(points - query) <= 0.03))
            assert _box_count(points[:, None], [query], 0.03) == expected
            assert chunked_neighbor_counts(
                points[:, None], np.array([[query]]), 0.03)[0] == expected

    def test_counts_match_brute_force_2d(self, rng):
        points = rng.uniform(size=(400, 2))
        query = np.array([0.4, 0.6])
        expected = int(np.sum(
            (np.abs(points - query) <= 0.07).all(axis=1)))
        assert _box_count(points, query, 0.07) == expected
        assert chunked_neighbor_counts(points, query[None, :],
                                       0.07)[0] == expected

    def test_negative_coordinates_supported(self):
        points = np.array([[-0.25]])
        assert _box_count(points, [-0.3], 0.1) == 1
        assert chunked_neighbor_counts(points, np.array([[-0.3]]),
                                       0.1)[0] == 1

    def test_3d_path(self, rng):
        points = rng.uniform(size=(100, 3))
        query = np.full(3, 0.5)
        expected = int(np.sum(
            (np.abs(points - 0.5) <= 0.15).all(axis=1)))
        assert _box_count(points, query, 0.15) == expected
        assert chunked_neighbor_counts(points, query[None, :],
                                       0.15)[0] == expected


class TestWindowedNeighborIndex:
    """Neighbour counts over a sliding window, the ground truth's count."""

    def test_tracks_window_exactly(self, rng):
        window = SlidingWindow(40, 1)
        stream = rng.uniform(size=150)
        for i, value in enumerate(stream):
            window.append(value)
            expected_window = stream[max(0, i - 39):i + 1]
            expected = int(np.sum(np.abs(expected_window - 0.5) <= 0.04))
            assert chunked_neighbor_counts(
                window.values(), np.array([[0.5]]), 0.04)[0] == expected

    def test_2d_window(self, rng):
        window = SlidingWindow(30, 2)
        stream = rng.uniform(size=(80, 2))
        for start in range(0, 80, 25):   # blocks that wrap the ring
            window.extend(stream[start:start + 25])
        expected_window = stream[-30:]
        expected = int(np.sum(
            (np.abs(expected_window - 0.5) <= 0.1).all(axis=1)))
        assert chunked_neighbor_counts(
            window.values(), np.array([[0.5, 0.5]]), 0.1)[0] == expected
