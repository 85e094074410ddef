"""MDEF / aLOCI statistics and detector (paper Sections 3, 8, Figure 3)."""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import ParameterError
from repro.core.estimator import KernelDensityEstimator
from repro.core.mdef import (
    MDEFOutlierDetector,
    MDEFSpec,
    _EVIDENCE_FLOOR,
    cell_grid_centers,
    mdef_statistic,
    mdef_statistics,
    sampling_cell_centers,
    sampling_cell_ranges,
)
from tests.core._reference_mdef import reference_mdef_statistic

SPEC = MDEFSpec(sampling_radius=0.08, counting_radius=0.01)


class TestSpec:
    def test_paper_parameters(self):
        assert SPEC.alpha == pytest.approx(1 / 8)
        assert SPEC.cell_width == pytest.approx(0.02)
        assert SPEC.k_sigma == 3.0
        assert SPEC.min_mdef == 0.0

    def test_counting_must_be_smaller_than_sampling(self):
        with pytest.raises(ParameterError):
            MDEFSpec(sampling_radius=0.01, counting_radius=0.05)

    @pytest.mark.parametrize("kwargs", [
        {"sampling_radius": -1.0, "counting_radius": 0.01},
        {"sampling_radius": 0.08, "counting_radius": 0.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "k_sigma": 0.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "min_mdef": 1.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "min_mdef": -0.1},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MDEFSpec(**kwargs)


class TestCellGrid:
    def test_centers_cover_unit_interval(self):
        centers = cell_grid_centers(SPEC)
        assert centers.shape == (50,)
        assert centers[0] == pytest.approx(0.01)
        assert centers[-1] == pytest.approx(0.99)

    def test_centers_are_odd_multiples_of_counting_radius(self):
        # Figure 3's grid: centres at alpha*r*(2i - 1) for i = 1..k.
        centers = cell_grid_centers(SPEC)
        i = np.arange(1, centers.shape[0] + 1)
        np.testing.assert_allclose(centers, SPEC.counting_radius * (2 * i - 1))

    def test_sampling_cells_within_radius(self):
        cells = sampling_cell_centers(np.array([0.46]), SPEC)
        assert (np.abs(cells[:, 0] - 0.46) <= SPEC.sampling_radius).all()
        assert cells.shape[0] == 8   # 2 * 0.08 / 0.02

    def test_sampling_cells_at_domain_edge(self):
        cells = sampling_cell_centers(np.array([0.0]), SPEC)
        assert cells.shape[0] >= 1
        assert (cells >= 0).all()

    def test_sampling_cells_beyond_grid_falls_back_to_nearest(self):
        cells = sampling_cell_centers(np.array([2.0]), SPEC)
        assert cells.shape[0] == 1
        assert cells[0, 0] == pytest.approx(0.99)

    def test_2d_cells_are_cartesian_product(self):
        cells = sampling_cell_centers(np.array([0.46, 0.46]), SPEC)
        assert cells.shape == (64, 2)


class TestStatistic:
    def test_weighted_moments(self):
        # Two cells of 10 objects each seeing 10; one singleton seeing 1.
        counts = np.array([10.0, 10.0, 1.0])
        decision = mdef_statistic(1.0, counts, k_sigma=3.0)
        expected_nhat = (100 + 100 + 1) / 21
        assert decision.cell_mean == pytest.approx(expected_nhat)
        assert decision.mdef == pytest.approx(1 - 1 / expected_nhat)

    def test_void_point_next_to_uniform_mass_is_outlier(self):
        counts = np.array([100.0, 100.0, 100.0, 0.0, 0.0])
        decision = mdef_statistic(1.0, counts, k_sigma=3.0)
        assert decision.is_outlier
        assert decision.sigma_mdef == pytest.approx(0.0)

    def test_typical_point_is_not_outlier(self):
        counts = np.array([100.0, 95.0, 105.0, 98.0])
        decision = mdef_statistic(99.0, counts, k_sigma=3.0)
        assert not decision.is_outlier
        assert abs(decision.mdef) < 0.1

    def test_empty_neighbourhood_gives_no_evidence(self):
        decision = mdef_statistic(0.0, np.zeros(8), k_sigma=3.0)
        assert not decision.is_outlier
        assert decision.mdef == 0.0

    def test_min_mdef_guard_suppresses_edges(self):
        # A uniform-block edge: half the typical count, zero spread.
        counts = np.array([100.0, 100.0, 100.0])
        edge = mdef_statistic(50.0, counts, k_sigma=3.0)
        assert edge.is_outlier   # plain LOCI flags it...
        guarded = mdef_statistic(50.0, counts, k_sigma=3.0, min_mdef=0.8)
        assert not guarded.is_outlier   # ...the floor suppresses it.

    def test_variance_correction_unmasks_deviation(self):
        # Noisy estimated cells around a true mean of ~100.
        counts = np.array([200.0, 20.0, 150.0, 40.0])
        raw = mdef_statistic(2.0, counts, k_sigma=3.0)
        assert not raw.is_outlier   # estimation noise masks the void
        corrected = mdef_statistic(2.0, counts, k_sigma=3.0,
                                   estimation_variance_per_unit=18.0)
        assert corrected.is_outlier

    def test_correction_keeps_poisson_floor(self):
        counts = np.array([100.0, 100.0])
        decision = mdef_statistic(99.0, counts, k_sigma=3.0,
                                  estimation_variance_per_unit=50.0)
        assert decision.sigma_mdef > 0.0   # floored, not zeroed

    def test_negative_estimated_cells_clipped(self):
        decision = mdef_statistic(1.0, np.array([-0.5, 10.0]), k_sigma=3.0)
        assert decision.cell_mean == pytest.approx(10.0)

    def test_empty_cells_rejected(self):
        with pytest.raises(ParameterError):
            mdef_statistic(1.0, np.array([]), k_sigma=3.0)


def _bits(decision: Any) -> tuple:
    """A decision's fields, floats as their bit patterns (so signed
    zeros and NaNs compare exactly)."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in (decision.is_outlier, decision.mdef,
                           decision.sigma_mdef, decision.neighbor_count,
                           decision.cell_mean, decision.cell_std))


@st.composite
def _statistic_batches(draw: Any) -> "dict[str, Any]":
    """Points with cell counts of mixed sizes: small ones, numpy's
    pairwise-summation block edges (8, 128) and sizes past 200."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = st.one_of(st.integers(1, 8), st.integers(127, 129),
                     st.integers(200, 400))
    sizes, counts, evpu = [], [], []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(size)
        kind = draw(st.sampled_from(
            ["spread", "negative", "floor", "zero", "integer"]))
        if kind == "spread":
            cells = rng.uniform(0.0, 300.0, n) * (rng.random(n) < 0.8)
        elif kind == "negative":      # estimated counts a hair below 0
            cells = rng.uniform(-1.0, 50.0, n)
        elif kind == "floor":         # a total at or below the floor
            cells = np.full(n, _EVIDENCE_FLOOR / n)
            cells[rng.random(n) < 0.3] *= -1.0
        elif kind == "zero":
            cells = np.zeros(n)
        else:
            cells = rng.integers(0, 40, n).astype(float)
        sizes.append(n)
        counts.append(cells)
        evpu.append(draw(st.sampled_from([0.0, 0.0, 0.5, 3.0, 37.5])))
    return {
        "sizes": sizes, "counts": counts, "evpu": evpu,
        "neighbors": rng.uniform(0.0, 200.0, len(sizes))
        * (rng.random(len(sizes)) < 0.8),
        "k_sigma": draw(st.sampled_from([3.0, 1.0, 0.25])),
        "min_mdef": draw(st.sampled_from([0.0, 0.5])),
    }


class TestArrayStatistic:
    """The array Equation 9 equals the frozen scalar one, field for
    field and bit for bit, whatever the other points of the call."""

    @given(batch=_statistic_batches())
    @settings(max_examples=300, deadline=None)
    def test_equals_frozen_scalar_statistic(self, batch):
        k_sigma, min_mdef = batch["k_sigma"], batch["min_mdef"]
        expected = [_bits(reference_mdef_statistic(
            n, cells, k_sigma, min_mdef=min_mdef,
            estimation_variance_per_unit=e))
            for n, cells, e in zip(batch["neighbors"], batch["counts"],
                                   batch["evpu"])]
        got = mdef_statistics(batch["neighbors"],
                              np.concatenate(batch["counts"]),
                              batch["sizes"], k_sigma, min_mdef=min_mdef,
                              estimation_variance_per_unit=batch["evpu"])
        assert [_bits(d) for d in got.tolist()] == expected
        # One shared correction, and the one-point wrapper.
        for evpu in (0.0, 3.0):
            got = mdef_statistics(batch["neighbors"],
                                  np.concatenate(batch["counts"]),
                                  batch["sizes"], k_sigma, min_mdef=min_mdef,
                                  estimation_variance_per_unit=evpu)
            for decision, n, cells in zip(got.tolist(), batch["neighbors"],
                                          batch["counts"]):
                want = _bits(reference_mdef_statistic(
                    n, cells, k_sigma, min_mdef=min_mdef,
                    estimation_variance_per_unit=evpu))
                assert _bits(decision) == want
                assert _bits(mdef_statistic(
                    n, cells, k_sigma, min_mdef=min_mdef,
                    estimation_variance_per_unit=evpu)) == want

    def test_every_size_up_to_400(self):
        """Rows of every cell count, three points each, in one call."""
        rng = np.random.default_rng(11)
        sizes = np.repeat(np.arange(1, 401), 3)
        counts = [rng.uniform(0.0, 500.0, n) for n in sizes]
        neighbors = rng.uniform(0.0, 500.0, sizes.size)
        got = mdef_statistics(neighbors, np.concatenate(counts), sizes, 3.0,
                              estimation_variance_per_unit=2.0)
        assert [_bits(d) for d in got.tolist()] == [
            _bits(reference_mdef_statistic(
                n, c, 3.0, estimation_variance_per_unit=2.0))
            for n, c in zip(neighbors, counts)]

    def test_shapes_checked(self):
        with pytest.raises(ParameterError, match="one neighbour count"):
            mdef_statistics([1.0, 2.0], np.ones(3), [3], 3.0)
        with pytest.raises(ParameterError, match="non-empty"):
            mdef_statistics([1.0, 2.0], np.ones(3), [3, 0], 3.0)


class TestDetector:
    def test_gap_value_flagged_on_plateau_window(self, plateau_window):
        model = KernelDensityEstimator.from_window(
            plateau_window, 400, rng=np.random.default_rng(0))
        # Cap the bandwidth as the MGDD detector does.
        model = KernelDensityEstimator(
            model.sample, bandwidths=np.array([0.02]),
            window_size=plateau_window.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        assert detector.check([0.46]).is_outlier

    def test_plateau_interior_not_flagged(self, plateau_window):
        model = KernelDensityEstimator(
            plateau_window.reshape(-1, 1)[::10], bandwidths=np.array([0.02]),
            window_size=plateau_window.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        assert not detector.check([0.35]).is_outlier
        assert not detector.check([0.54]).is_outlier

    def test_exposes_model_and_spec(self, plateau_window):
        model = KernelDensityEstimator.from_window(plateau_window, 50)
        detector = MDEFOutlierDetector(model, SPEC)
        assert detector.model is model
        assert detector.spec is SPEC

    def test_variance_correction_can_be_disabled(self, plateau_window):
        model = KernelDensityEstimator.from_window(plateau_window, 50)
        detector = MDEFOutlierDetector(model, SPEC, variance_correction=False)
        assert detector._evpu == 0.0

    def test_2d_check_runs(self, rng):
        values = np.concatenate([
            rng.uniform(0.3, 0.42, size=(2000, 2)),
            rng.uniform(0.5, 0.58, size=(2000, 2)),
        ])
        model = KernelDensityEstimator(
            values[::10], bandwidths=np.array([0.02, 0.02]),
            window_size=values.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        decision = detector.check([0.46, 0.46])
        assert decision.mdef > 0.8


# ----------------------------------------------------------------------
# The cell-population table: frozen copies of the uncached detector.
# ----------------------------------------------------------------------

def _reference_cell_centers(p: np.ndarray, spec: MDEFSpec) -> np.ndarray:
    centers_1d = cell_grid_centers(spec)
    per_dim = []
    for coord in p:
        mask = np.abs(centers_1d - coord) <= spec.sampling_radius
        selected = centers_1d[mask]
        if selected.size == 0:
            selected = centers_1d[[int(np.argmin(np.abs(centers_1d - coord)))]]
        per_dim.append(selected)
    if len(per_dim) == 1:
        return per_dim[0].reshape(-1, 1)
    return np.array(list(itertools.product(*per_dim)), dtype=float)


def _reference_check(model: KernelDensityEstimator, spec: MDEFSpec,
                     evpu: float, point: np.ndarray) -> Any:
    r_count = spec.counting_radius
    neighbor = float(np.asarray(
        model.neighborhood_count(point, r_count)).reshape(()))
    centers = _reference_cell_centers(point, spec)
    cell_counts = np.asarray(
        model.neighborhood_count(centers, r_count)).reshape(-1)
    return reference_mdef_statistic(neighbor, cell_counts, spec.k_sigma,
                                    min_mdef=spec.min_mdef,
                                    estimation_variance_per_unit=evpu)


def _reference_check_many(model: KernelDensityEstimator, spec: MDEFSpec,
                          evpu: float, pts: np.ndarray) -> list:
    m = pts.shape[0]
    r_count = spec.counting_radius
    centers = [_reference_cell_centers(p, spec) for p in pts]
    queries = np.concatenate([pts] + centers, axis=0)
    counts = np.asarray(
        model.neighborhood_count(queries, r_count)).reshape(-1)
    decisions = []
    offset = m
    for i in range(m):
        n_cells = centers[i].shape[0]
        decisions.append(reference_mdef_statistic(
            float(counts[i]), counts[offset:offset + n_cells],
            spec.k_sigma, min_mdef=spec.min_mdef,
            estimation_variance_per_unit=evpu))
        offset += n_cells
    return decisions


@st.composite
def _table_scenarios(draw: Any) -> "dict[str, Any]":
    d = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(4, 40))
    centre = rng.uniform(0.2, 0.8, d)
    sample = np.clip(centre + rng.normal(0.0, 0.1, (n, d)), -0.1, 1.1)
    # Chain samples repeat values, which the variance correction counts.
    sample[:n // 4] = sample[n // 4:2 * (n // 4)]
    model = KernelDensityEstimator(
        sample, bandwidths=rng.uniform(0.01, 0.2, d),
        window_size=draw(st.integers(n, 800)))
    counting = draw(st.sampled_from([0.02, 0.03, 0.05, 0.1]))
    ratio = draw(st.sampled_from([1.5, 2.0, 3.0, 4.0] if d == 3
                                 else [1.5, 2.0, 4.0, 8.0]))
    spec = MDEFSpec(sampling_radius=counting * ratio,
                    counting_radius=counting,
                    min_mdef=draw(st.sampled_from([0.0, 0.5])))
    centers_1d = cell_grid_centers(spec)

    def point() -> np.ndarray:
        kind = draw(st.sampled_from(["inside", "outside", "boundary"]))
        if kind == "inside":
            return centre + rng.normal(0.0, 0.15, d)
        if kind == "outside":        # the nearest-cell fallback
            return rng.uniform(-0.5, 1.5, d)
        # Exactly r from a cell centre in some coordinates.
        p = centre + rng.normal(0.0, 0.15, d)
        for j in np.flatnonzero(rng.random(d) < 0.7):
            sign = rng.choice([-1.0, 1.0])
            p[j] = centers_1d[rng.integers(centers_1d.size)] \
                + sign * spec.sampling_radius
        return p

    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            ops.append(("check", point()))
        else:
            k = draw(st.integers(1, 5))
            kind = draw(st.sampled_from(["many", "many+counts"]))
            ops.append((kind, np.array([point() for _ in range(k)])))
    return {"model": model, "spec": spec, "ops": ops,
            "correction": draw(st.booleans())}


class TestCellTable:
    """The detector's cell-population table changes no decision."""

    @given(sc=_table_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_cold_and_warm_table_equal_uncached_detector(self, sc):
        model, spec = sc["model"], sc["spec"]
        detector = MDEFOutlierDetector(model, spec,
                                       variance_correction=sc["correction"])
        evpu = detector._evpu
        # Every op twice: first against a cold or partly filled table,
        # then against a warm one.
        for kind, pts in sc["ops"] + sc["ops"]:
            if kind == "check":
                assert detector.check(pts) == _reference_check(
                    model, spec, evpu, pts)
                # One Eq. 5 expression: the single-box own count and
                # the batched one agree, so every field does.
                assert detector.check(pts) == \
                    detector.check_many(pts[None, :])[0]
            elif kind == "many":
                assert detector.check_many(pts) == _reference_check_many(
                    model, spec, evpu, pts)
            else:
                # Own counts from the caller, through the batched path.
                own = model.neighborhood_count(pts, spec.counting_radius)
                assert detector.check_many(pts, own) == \
                    _reference_check_many(model, spec, evpu, pts)

    def test_neighbor_counts_need_one_per_point(self, plateau_window):
        model = KernelDensityEstimator.from_window(plateau_window, 50)
        detector = MDEFOutlierDetector(model, SPEC)
        with pytest.raises(ParameterError, match="one count per point"):
            detector.check_many([[0.4], [0.5]], np.ones(3))

    def test_sampling_cell_ranges_match_per_point_centres(self):
        spec = MDEFSpec(sampling_radius=0.05, counting_radius=0.02)
        pts = np.random.default_rng(4).uniform(-0.3, 1.3, (200, 2))
        lo, hi = sampling_cell_ranges(pts, spec)
        centers_1d = cell_grid_centers(spec)
        for p, a, b in zip(pts, lo, hi):
            expected = _reference_cell_centers(p, spec)
            got = np.array(list(itertools.product(
                centers_1d[a[0]:b[0]], centers_1d[a[1]:b[1]])))
            assert np.array_equal(got, expected)
            assert np.array_equal(sampling_cell_centers(p, spec), expected)

    def test_3d_table_holds_only_touched_cells(self):
        # 500 cells per dimension: the full grid would be 1.25e8 cells.
        spec = MDEFSpec(sampling_radius=0.004, counting_radius=0.001)
        rng = np.random.default_rng(9)
        model = KernelDensityEstimator(
            rng.uniform(0.4, 0.6, (30, 3)), bandwidths=np.full(3, 0.01),
            window_size=300)
        detector = MDEFOutlierDetector(model, spec)
        pts = rng.uniform(0.45, 0.55, (20, 3))
        detector.check_many(pts[:15])
        detector.check(pts[15])
        detector.check_many(pts[16:])
        touched = {tuple(c) for p in pts
                   for c in _reference_cell_centers(p, spec).tolist()}
        # One sentinel entry past the real cells.
        assert detector._keys.size - 1 == len(touched)
        assert detector._counts.size == detector._keys.size

    def test_grid_beyond_int64_keys_matches_without_table(self):
        # 500 cells per dimension in 8 dimensions: 3.9e21 cells, more
        # than int64 flat indices can address.
        spec = MDEFSpec(sampling_radius=0.0015, counting_radius=0.001)
        rng = np.random.default_rng(2)
        model = KernelDensityEstimator(
            rng.uniform(0.49, 0.51, (20, 8)), bandwidths=np.full(8, 0.005),
            window_size=200)
        detector = MDEFOutlierDetector(model, spec)
        pts = rng.uniform(0.495, 0.505, (4, 8))
        evpu = detector._evpu
        for _ in range(2):
            assert detector.check_many(pts) == _reference_check_many(
                model, spec, evpu, pts)
            assert detector.check(pts[0]) == _reference_check(
                model, spec, evpu, pts[0])
        assert detector._keys.size == 1
