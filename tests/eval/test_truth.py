"""The ground truth labels arrivals exactly as the offline brute-force
detectors label the same window."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro._exceptions import ParameterError
from repro.core.baselines import (
    brute_force_distance_outliers,
    brute_force_mdef_outliers,
    chunked_neighbor_counts,
    mdef_outliers_against,
)
from repro.core.mdef import MDEFSpec, mdef_statistics, sampling_cell_ranges
from repro.core.outliers import DistanceOutlierSpec
from repro.data.synthetic import make_plateau_streams
from repro.eval.truth import DistanceTruth, GlobalMDEFTruth, WindowBank
from repro.network.topology import build_hierarchy
from repro.streams.window import SlidingWindow


class TestNodeWindow:
    """A bank node's window: :meth:`SlidingWindow.extend` blocks."""

    def test_batch_insert_and_evict(self):
        window = SlidingWindow(4, 1)
        assert window.extend(np.array([[1.0], [2.0], [3.0], [4.0]])) is None
        window.extend(np.array([[5.0], [6.0]]))
        assert window.values()[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_wrap_around_split_insert(self):
        window = SlidingWindow(3, 1)
        window.extend(np.array([[1.0], [2.0]]))
        window.extend(np.array([[3.0], [4.0]]))
        assert window.values()[:, 0].tolist() == [2.0, 3.0, 4.0]

    def test_partial_wrap_overwrites_oldest(self):
        window = SlidingWindow(5, 1)
        window.extend(np.array([[0.0], [1.0], [2.0]]))
        window.extend(np.array([[3.0], [4.0], [5.0]]))
        assert len(window) == 5
        assert window.values()[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_extend_matches_append(self, rng):
        blocked, single = SlidingWindow(7, 2), SlidingWindow(7, 2)
        for k in (3, 0, 7, 5, 1, 6):
            block = rng.uniform(size=(k, 2))
            blocked.extend(block)
            for row in block:
                single.append(row)
            np.testing.assert_array_equal(blocked.values(), single.values())

    def test_batch_larger_than_capacity_rejected(self):
        with pytest.raises(ParameterError):
            SlidingWindow(2, 1).extend(np.zeros((3, 1)))

    def test_block_shape_checked(self):
        with pytest.raises(ParameterError):
            SlidingWindow(4, 2).extend(np.zeros((3, 1)))


class TestWindowBank:
    def test_union_mode_capacities(self):
        hierarchy = build_hierarchy(4, 2)
        bank = WindowBank(hierarchy, window_size=10, n_dims=1, mode="union")
        rng = np.random.default_rng(0)
        for _ in range(12):
            bank.insert_tick(rng.uniform(size=(4, 1)))
        assert bank.window_values(0).shape[0] == 10
        assert bank.window_values(hierarchy.root_id).shape[0] == 40

    def test_fixed_mode_capacities(self):
        hierarchy = build_hierarchy(4, 2)
        bank = WindowBank(hierarchy, window_size=10, n_dims=1, mode="fixed")
        rng = np.random.default_rng(0)
        for _ in range(12):
            bank.insert_tick(rng.uniform(size=(4, 1)))
        assert bank.window_values(hierarchy.root_id).shape[0] == 10

    def test_fixed_root_holds_most_recent_union_values(self):
        hierarchy = build_hierarchy(2, 2)
        bank = WindowBank(hierarchy, window_size=4, n_dims=1, mode="fixed")
        for t in range(5):
            bank.insert_tick(np.array([[float(t)], [float(t) + 0.5]]))
        assert sorted(bank.window_values(hierarchy.root_id)[:, 0]) \
            == [3.0, 3.5, 4.0, 4.5]

    def test_invalid_mode(self):
        with pytest.raises(ParameterError):
            WindowBank(build_hierarchy(2, 2), 4, 1, mode="elastic")

    def test_arrival_shape_checked(self):
        bank = WindowBank(build_hierarchy(2, 2), 4, 1)
        with pytest.raises(ParameterError):
            bank.insert_tick(np.zeros((3, 1)))

    def test_histogram_built_from_window(self, rng):
        hierarchy = build_hierarchy(2, 2)
        bank = WindowBank(hierarchy, 50, 1)
        for _ in range(60):
            bank.insert_tick(rng.uniform(size=(2, 1)))
        hist = bank.histogram(hierarchy.root_id, 8)
        assert hist.range_probability(-1, 2) == pytest.approx(1.0)


def _readings(seed: int, n_ticks: int, n_leaves: int,
              n_dims: int) -> np.ndarray:
    """Clustered readings with one spike in ten, ``(ticks, leaves, d)``."""
    rng = np.random.default_rng(seed)
    centres = rng.choice([0.2, 0.35, 0.5], size=(n_ticks, n_leaves, n_dims))
    values = centres + rng.normal(0.0, 0.01, size=centres.shape)
    spikes = rng.random((n_ticks, n_leaves)) < 0.1
    values[spikes] = rng.uniform(size=(int(spikes.sum()), n_dims))
    return np.clip(values, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n_leaves=st.integers(1, 8), window_size=st.integers(3, 40),
       mode=st.sampled_from(["fixed", "union"]), n_dims=st.sampled_from([1, 2]),
       n_ticks=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
# |W| = 22 is not a multiple of 3 leaves, so a tick's block wraps a
# partly filled slot range; a cell grid kept by counting reported
# evictions drifts here and flags an arrival BruteForce-M does not.
@example(n_leaves=3, window_size=22, mode="fixed", n_dims=1, n_ticks=41,
         seed=323392793)
def test_truth_is_bruteforce_every_tick(n_leaves, window_size, mode, n_dims,
                                        n_ticks, seed):
    """Every tick, each node's labels are BruteForce-D over its window
    and the global labels BruteForce-M over the root's window."""
    hierarchy = build_hierarchy(n_leaves, 2)
    bank = WindowBank(hierarchy, window_size, n_dims, mode=mode)
    distance_spec = DistanceOutlierSpec(radius=0.02, count_threshold=3)
    mdef_spec = MDEFSpec(0.08, 0.01, min_mdef=0.8)
    distance = DistanceTruth(bank, hierarchy, distance_spec)
    mdef = GlobalMDEFTruth(bank, hierarchy, mdef_spec)
    root = hierarchy.root_id
    for arrivals in _readings(seed, n_ticks, n_leaves, n_dims):
        bank.insert_tick(arrivals)
        # A node's window ends with this tick's arrivals of its leaves,
        # in leaf order (leaf ids are the arrival rows).
        labels = distance.labels_for_tick(arrivals)
        for level_idx, tier in enumerate(hierarchy.levels):
            for node in tier:
                rows = list(hierarchy.leaves_under(node))
                offline = brute_force_distance_outliers(
                    bank.window_values(node), distance_spec)
                np.testing.assert_array_equal(
                    labels[level_idx + 1][rows], offline[-len(rows):])
        offline = brute_force_mdef_outliers(bank.window_values(root),
                                            mdef_spec)
        rows = list(hierarchy.leaves_under(root))
        np.testing.assert_array_equal(
            mdef.labels_for_tick(arrivals)[rows], offline[-len(rows):])


class TestDistanceTruth:
    def test_matches_brute_force_per_level(self, rng):
        hierarchy = build_hierarchy(4, 2)
        spec = DistanceOutlierSpec(radius=0.02, count_threshold=4)
        bank = WindowBank(hierarchy, window_size=60, n_dims=1, mode="fixed")
        truth = DistanceTruth(bank, hierarchy, spec)
        streams = [np.clip(rng.normal(0.4, 0.03, (100, 1)), 0, 1)
                   for _ in range(4)]
        streams[0][80] = 0.9   # one isolated arrival
        labels_at_80 = None
        for t in range(100):
            arrivals = np.stack([s[t] for s in streams])
            bank.insert_tick(arrivals)
            if t == 80:
                labels_at_80 = truth.labels_for_tick(arrivals)
        # The isolated arrival must be flagged at every level.
        for level_idx in range(len(hierarchy.levels)):
            assert labels_at_80[level_idx + 1][0]
        # Ordinary arrivals are not flagged at level 1.
        assert not labels_at_80[1][1:].any()

    def test_offline_equivalence_single_node(self, rng):
        """With one leaf the incremental labels equal BruteForce-D."""
        hierarchy = build_hierarchy(1, 2)
        spec = DistanceOutlierSpec(radius=0.02, count_threshold=5)
        bank = WindowBank(hierarchy, window_size=50, n_dims=1)
        truth = DistanceTruth(bank, hierarchy, spec)
        stream = np.concatenate([rng.normal(0.4, 0.02, 70),
                                 [0.9, 0.41, 0.95]]).reshape(-1, 1)
        flags = []
        for t in range(stream.shape[0]):
            arrivals = stream[t].reshape(1, 1)
            bank.insert_tick(arrivals)
            flags.append(bool(truth.labels_for_tick(arrivals)[1][0]))
        # Re-derive each label with the offline detector on the window.
        for t in (70, 71, 72):
            window = stream[max(0, t - 49):t + 1]
            offline = brute_force_distance_outliers(window, spec)
            assert flags[t] == offline[-1]


class TestGlobalMDEFTruth:
    def test_matches_brute_force_on_final_window(self):
        hierarchy = build_hierarchy(4, 2)
        spec = MDEFSpec(0.08, 0.01, min_mdef=0.8)
        window_size = 400
        bank = WindowBank(hierarchy, window_size, 1, mode="fixed")
        truth = GlobalMDEFTruth(bank, hierarchy, spec)
        streams = make_plateau_streams(4, 200, seed=1)
        streams[2][150] = [0.46]   # plant a gap arrival
        flagged = {}
        for t in range(200):
            arrivals = np.stack([s[t] for s in streams])
            bank.insert_tick(arrivals)
            if t == 150:
                flagged = truth.labels_for_tick(arrivals)
        assert flagged[2]
        # Validate against the offline detector over the same window.
        union = np.concatenate(
            [np.stack([s[t] for s in streams]) for t in range(151)])[-window_size:]
        offline = brute_force_mdef_outliers(union, spec)
        assert offline[-2]   # the planted value sits near the window end

    def test_grid_consistent_with_recount(self, rng):
        """Every tick the truth's cell populations are a recount of the
        root window, also when |W| (31) is not a multiple of the leaves
        per tick (2), where a grid kept from reported evictions drifted."""
        hierarchy = build_hierarchy(2, 2)
        spec = MDEFSpec(0.08, 0.01)
        bank = WindowBank(hierarchy, 31, 1, mode="fixed")
        truth = GlobalMDEFTruth(bank, hierarchy, spec)
        for _ in range(50):
            arrivals = rng.uniform(size=(2, 1))
            bank.insert_tick(arrivals)
            window = bank.window_values(hierarchy.root_id)
            recount = np.zeros(int(np.ceil(1.0 / spec.cell_width)),
                               dtype=np.int64)
            idx = np.clip((window[:, 0] / spec.cell_width).astype(int),
                          0, recount.shape[0] - 1)
            np.add.at(recount, idx, 1)
            counts = chunked_neighbor_counts(window, arrivals,
                                             spec.counting_radius)
            lo, hi = sampling_cell_ranges(arrivals, spec)
            expected = mdef_statistics(
                counts, np.concatenate([recount[a:b] for a, b in
                                        zip(lo[:, 0], hi[:, 0])]),
                (hi - lo)[:, 0], spec.k_sigma, min_mdef=spec.min_mdef)
            decisions: "list" = []
            mask = mdef_outliers_against(window, arrivals, counts, spec,
                                         decisions=decisions)
            assert decisions == expected.tolist()
            np.testing.assert_array_equal(mask, expected.is_outlier)
            np.testing.assert_array_equal(truth.labels_for_tick(arrivals),
                                          expected.is_outlier)
