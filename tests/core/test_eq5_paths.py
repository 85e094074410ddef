"""One Eq. 5 expression: every range-query path answers one count.

A single box takes Theorem 2's pruned path (only the centres within the
kernel's reach are evaluated), a batch row and a stacked row take the
dense kernel.  All three evaluate the same per-centre terms and reduce
the same row of ``|R|`` terms, so they must agree exactly -- not to a
tolerance -- for either kernel, any dimensionality, duplicate centres,
degenerate boxes, and boxes whose reach holds few or all of the centres.
A D3 parent
(which scores with ``neighborhood_count``) and the cross-stream engine
(which scores a whole stack of leaves at once) therefore score the same
point against the same model identically.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import _kernels_numpy
from repro.core.estimator import KernelDensityEstimator, range_probabilities
from repro.core.kernels import EPANECHNIKOV, GAUSSIAN
from repro.core.outliers import DistanceOutlierSpec
from repro.engine.core import DetectorEngine


@st.composite
def _cases(draw: Any) -> "dict[str, Any]":
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 120))
    sample = rng.uniform(0.0, 1.0, (n, d))
    if draw(st.booleans()):
        # Chain samples repeat centres (with-replacement semantics).
        sample = sample[rng.integers(0, max(1, n // 3), n)]
    bandwidths = 10.0 ** rng.uniform(-4.0, np.log10(0.5), d)
    where = draw(st.sampled_from(["inside", "straddling", "outside"]))
    if where == "inside":
        low = rng.uniform(0.0, 1.0, d)
    elif where == "straddling":
        low = rng.uniform(-0.2, 0.0, d)
    else:
        low = rng.uniform(1.0, 1.5, d)
    # Narrow boxes prune; wide ones hold every centre in reach.
    width = draw(st.sampled_from(["point", "narrow", "wide"]))
    if width == "point":
        high = low.copy()
    elif width == "narrow":
        high = low + rng.uniform(0.0, 0.05, d)
    else:
        low = low - 1.0
        high = low + rng.uniform(1.5, 2.5, d)
    return {"sample": sample, "bandwidths": bandwidths, "low": low,
            "high": high,
            "kernel": draw(st.sampled_from([EPANECHNIKOV, GAUSSIAN])),
            "window": draw(st.integers(n, 4 * n)),
            "others": draw(st.integers(0, 3)), "rng": rng}


class TestOneCountPerBox:
    @given(case=_cases())
    @settings(max_examples=300, deadline=None)
    def test_single_box_equals_batch_row_and_stacked_row(self, case):
        sample, bw, kernel = case["sample"], case["bandwidths"], case["kernel"]
        low, high = case["low"], case["high"]
        model = KernelDensityEstimator(sample, bandwidths=bw, kernel=kernel,
                                       window_size=case["window"])
        single = model.range_probability(low, high)
        batch = model.range_probability(low[None, :], high[None, :])[0]
        # The model's row in a stacked call beside other models of the
        # same size (other centres, bandwidths and boxes).
        rng = case["rng"]
        n, d = sample.shape
        stack = case["others"] + 1
        centers = np.concatenate(
            [sample[None], rng.uniform(0.0, 1.0, (stack - 1, n, d))])
        bandwidths = np.concatenate(
            [bw[None], rng.uniform(0.01, 0.3, (stack - 1, d))])
        lows = np.concatenate(
            [low[None, None], rng.uniform(0.0, 1.0, (stack - 1, 1, d))])
        highs = np.concatenate([high[None, None], lows[1:] + 0.1])
        stacked = range_probabilities(kernel, lows, highs, centers,
                                      bandwidths)[0, 0]
        assert single == batch == stacked
        count = model.neighborhood_count(
            (low + high) / 2.0, float(np.max(high - low)) / 2.0 + 1e-3)
        rows = model.neighborhood_count(
            ((low + high) / 2.0)[None, :],
            float(np.max(high - low)) / 2.0 + 1e-3)
        assert count == rows[0]

    def test_pruned_from_few_centres_to_all(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = KernelDensityEstimator(rng.uniform(0.0, 1.0, (200, 2)),
                                       bandwidths=np.full(2, 0.05))
        seen = []
        pruned = _kernels_numpy.range_pruned

        def _spy(*args):
            seen.append(args[-1].size)
            pruned(*args)

        monkeypatch.setattr(_kernels_numpy, "range_pruned", _spy)
        narrow = np.array([0.4, 0.4]), np.array([0.42, 0.42])
        wide = np.array([-1.0, -1.0]), np.array([2.0, 2.0])
        for low, high in (narrow, wide):
            single = model.range_probability(low, high)
            batch = model.range_probability(low[None, :], high[None, :])
            assert single == batch[0]
        assert 0 < seen[0] < 20 and seen[1] == 200

    def test_finite_support_radius_means_exact_zeros(self):
        """Pruning leaves out centres beyond ``support_radius``; that is
        exact only if the fused CDF is exactly 0 and 1 there."""
        bounded = [k for k in (EPANECHNIKOV, GAUSSIAN)
                   if math.isfinite(k.support_radius)]
        assert bounded == [EPANECHNIKOV]
        for kernel in bounded:
            s = kernel.support_radius
            z = np.array([-2.0 * s, -s, s, 2.0 * s])
            _kernels_numpy._cdf_inplace(kernel, kernel.name, z, np.empty(4))
            assert z.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_unbounded_kernel_is_never_pruned(self, monkeypatch):
        def _broken(*args):
            raise AssertionError("an unbounded kernel was pruned")

        monkeypatch.setattr(_kernels_numpy, "range_pruned", _broken)
        rng = np.random.default_rng(6)
        model = KernelDensityEstimator(rng.uniform(0.0, 1.0, (200, 1)),
                                       bandwidths=np.full(1, 0.01),
                                       kernel=GAUSSIAN)
        single = model.range_probability(np.array([0.4]), np.array([0.41]))
        assert single == model.range_probability(
            np.array([[0.4]]), np.array([[0.41]]))[0]


@st.composite
def _streams(draw: Any) -> "dict[str, Any]":
    return {"d": draw(st.integers(1, 3)),
            "n_streams": draw(st.integers(1, 4)),
            "seed": draw(st.integers(0, 2**16)),
            "radius": draw(st.sampled_from([0.001, 0.02, 0.1, 0.5, 3.0])),
            "n_ticks": draw(st.integers(10, 60))}


class TestParentScoresAsLeaves:
    @given(sc=_streams())
    @settings(max_examples=40, deadline=None)
    def test_neighborhood_count_equals_engine_count(self, sc):
        """A model's single-box ``neighborhood_count`` (a D3 parent's
        or a per-reading leaf's score) equals the count the engine's
        stacked call gives the same reading against the same centres,
        bandwidths and |W|."""
        d, n_streams = sc["d"], sc["n_streams"]
        radius = sc["radius"]
        # A threshold no count reaches flags every scored reading, so
        # last_flags carries every engine count.
        engine = DetectorEngine(
            n_streams, DistanceOutlierSpec(radius=radius,
                                           count_threshold=1e9),
            window_size=20, sample_size=8, n_dims=d, warmup=4,
            model_refresh=3, rng=np.random.default_rng(sc["seed"]))
        data = np.random.default_rng(sc["seed"] + 1).normal(
            0.5, 0.2, (sc["n_ticks"], n_streams, d))
        checked = 0
        for tick in range(sc["n_ticks"]):
            engine.ingest(data[tick:tick + 1])
            for flag in engine.last_flags:
                stream = flag["stream"]
                model = engine.stream_state(stream).cached_model
                assert model is not None
                count = model.neighborhood_count(data[tick, stream], radius)
                assert count == flag["score"]
                checked += 1
        assert checked > 0
