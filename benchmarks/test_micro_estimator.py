"""Micro-benchmarks of the density model's query paths (Theorem 2).

Theorem 2: a range query costs O(d |R|); for 1-d data the sorted fast
path achieves O(log |R| + |R'|).  These benchmarks time the operations
and sanity-check the scaling relations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import KernelDensityEstimator


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(0)
    return {n: rng.normal(0.5, 0.1, n) for n in (256, 2_048)}


def test_scalar_range_query_1d_sorted_path(benchmark, samples):
    kde = KernelDensityEstimator(samples[2_048], window_size=40_000)
    result = benchmark(lambda: kde.range_probability(0.49, 0.51))
    assert 0.0 < result < 1.0


def test_batch_range_queries_1d(benchmark, samples):
    kde = KernelDensityEstimator(samples[2_048], window_size=40_000)
    lows = np.linspace(0.0, 0.9, 64).reshape(-1, 1)
    highs = lows + 0.02
    result = benchmark(lambda: kde.range_probability(lows, highs))
    assert result.shape == (64,)


def test_range_query_2d(benchmark):
    rng = np.random.default_rng(1)
    kde = KernelDensityEstimator(rng.uniform(size=(2_048, 2)),
                                 window_size=40_000)
    result = benchmark(
        lambda: kde.range_probability([0.4, 0.4], [0.6, 0.6]))
    assert 0.0 < result < 1.0


def test_pdf_evaluation(benchmark, samples):
    kde = KernelDensityEstimator(samples[2_048])
    xs = np.linspace(0, 1, 256)
    benchmark(lambda: kde.pdf(xs))


def test_sorted_path_beats_dense_path(samples):
    """The Theorem 2 pruned path prunes: narrow queries touch few kernels.

    The box [0.49, 0.51] plus the kernel's reach (one bandwidth, ~0.049
    here) holds 897 of the 2048 centres of this N(0.5, 0.1) sample, so
    the pruned call sums fewer than half the dense call's terms; that
    is asserted exactly.  The timing runs both calls in alternating
    rounds and compares per-round medians, so a slow phase of the host
    hits both sides alike.
    """
    import statistics
    import time

    from repro.core.indexes import SortedSampleIndex

    kde = KernelDensityEstimator(samples[2_048], window_size=40_000)
    low, high = np.array([0.49]), np.array([0.51])
    reached = SortedSampleIndex(kde._sample).candidates(
        low - kde._reach, high + kde._reach)
    assert 0 < reached.size < 2_048 // 2

    def pruned() -> None:
        kde.range_probability(0.49, 0.51)

    def dense() -> None:
        kde._range_probability_batch(low[None, :], high[None, :])

    rounds: "dict[str, list[float]]" = {"pruned": [], "dense": []}
    for round_index in range(21):
        order = [("pruned", pruned), ("dense", dense)]
        for name, call in order if round_index % 2 else order[::-1]:
            start = time.perf_counter()
            for _ in range(30):
                call()
            rounds[name].append(time.perf_counter() - start)
    fast = statistics.median(rounds["pruned"])
    dense_time = statistics.median(rounds["dense"])
    assert fast < dense_time


def test_model_build_cost(benchmark, samples):
    benchmark(lambda: KernelDensityEstimator(samples[2_048],
                                             window_size=40_000))
