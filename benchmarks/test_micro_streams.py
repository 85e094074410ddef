"""Micro-benchmarks of the streaming substrate (Theorem 1's components)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.sampling import ChainSample
from repro.streams import variance
from repro.streams.variance import MultiDimVarianceSketch


def test_chain_sample_offer(benchmark):
    rng = np.random.default_rng(0)
    sample = ChainSample(10_000, 500, rng=rng)
    values = rng.uniform(size=(20_000, 1))
    for value in values[:12_000]:
        sample.offer(value)
    iterator = iter(values[12_000:].tolist() * 50)
    benchmark(lambda: sample.offer(next(iterator)))


def test_chain_sample_values_snapshot(benchmark):
    rng = np.random.default_rng(0)
    sample = ChainSample(10_000, 500, rng=rng)
    for value in rng.uniform(size=(2_000, 1)):
        sample.offer(value)
    result = benchmark(sample.values)
    assert result.shape == (500, 1)


#: (streams, |R|, |W|, d) of the bench workloads whose engines or
#: leaves feed ``offer_many``, and of a one-stream node at |W| = |R|.
_CHAIN_SHAPES = {
    "256x50": (256, 50, 1_000, 1),      # engine-d3, supervised-d3 (x64)
    "16x100": (16, 100, 1_000, 2),      # engine-mgdd-2d
    "64x30": (64, 30, 300, 1),          # network-d3 leaves
    "1x30": (1, 30, 30, 1),             # one node's sample
}


@pytest.mark.parametrize("shape, ticks", [
    ("256x50", 1), ("256x50", 32), ("16x100", 1), ("16x100", 32),
    ("64x30", 1), ("64x30", 64), ("1x30", 1)])
def test_chain_offer_many(benchmark, shape, ticks):
    """One ``offer_many`` call of ``ticks`` arrivals per stream at steady
    state (after a 2|W| warm-up): the draws, the array walk over the
    slot events and the expiry at the call's last arrival."""
    n_streams, n_slots, window, n_dims = _CHAIN_SHAPES[shape]
    rng = np.random.default_rng(0)
    sample = ChainSample(window, n_slots, n_dims=n_dims,
                         rng=[np.random.default_rng([0, s])
                              for s in range(n_streams)])
    sample.offer_many(rng.normal(size=(2 * window, n_streams, n_dims)))
    blocks = iter(rng.normal(size=(60, ticks, n_streams, n_dims)))
    benchmark.pedantic(lambda: sample.offer_many(next(blocks)), rounds=60,
                       iterations=1)


def test_variance_sketch_insert(benchmark):
    """One value into a one-lane sketch: a scalar node's insert cost."""
    rng = np.random.default_rng(0)
    sketch = MultiDimVarianceSketch(10_000, 1, 0.2)
    for value in rng.uniform(size=12_000):
        sketch.insert(float(value))
    iterator = iter(rng.uniform(size=1_000_000).tolist())
    benchmark(lambda: sketch.insert(next(iterator)))


def test_variance_sketch_query(benchmark):
    rng = np.random.default_rng(0)
    sketch = MultiDimVarianceSketch(10_000, 1, 0.2)
    for value in rng.uniform(size=12_000):
        sketch.insert(float(value))
    result = benchmark(sketch.std)
    assert result[0] > 0


@pytest.mark.parametrize("kernel", ["rows", "columns"])
@pytest.mark.parametrize("n_lanes", [1, 32, 64, 256])
def test_variance_store_insert(benchmark, monkeypatch, n_lanes, kernel):
    """One 32-tick block into an n-lane sketch at steady state (|W| =
    1000): four compresses and one ``std()``, the engine's EH work per
    call, with each kernel forced.  The lane count where ``columns``
    overtakes ``rows`` is the crossover ``_COLUMN_KERNEL_LANES`` is set
    from."""
    monkeypatch.setattr(variance, "_COLUMN_KERNEL_LANES",
                        1 if kernel == "columns" else n_lanes + 1)
    rng = np.random.default_rng(0)
    data = rng.normal(0.5, 0.1, size=(2_000 + 32 * 40, n_lanes))
    sketch = MultiDimVarianceSketch(1_000, n_lanes)
    sketch.insert_many(data[:2_000])
    blocks = iter(np.split(data[2_000:], 40))

    def insert_block() -> None:
        sketch.insert_many(next(blocks))
        sketch.std()

    benchmark.pedantic(insert_block, rounds=40, iterations=1)


@pytest.mark.parametrize("algorithm", ["d3", "mgdd"])
def test_truth_labels_for_tick(benchmark, algorithm):
    """The accuracy harness's ground truth, one tick at Figure 7's shape
    (16 leaves, |W| = 1500): insert the arrivals, then label them."""
    from itertools import cycle

    from repro.eval.harness import ExperimentConfig, make_streams
    from repro.eval.truth import DistanceTruth, GlobalMDEFTruth, WindowBank
    from repro.network.topology import build_hierarchy

    config = ExperimentConfig(
        algorithm=algorithm, window_size=1_500, n_leaves=16,
        dataset="synthetic" if algorithm == "d3" else "plateau")
    hierarchy = build_hierarchy(config.n_leaves, config.branching)
    bank = WindowBank(hierarchy, config.window_size, config.n_dims,
                      mode=config.parent_window)
    truth = DistanceTruth(bank, hierarchy, config.distance_spec) \
        if algorithm == "d3" \
        else GlobalMDEFTruth(bank, hierarchy, config.mdef_spec)
    readings = np.stack(make_streams(config, seed=1).streams, axis=1)
    for arrivals in readings[:config.window_size]:
        bank.insert_tick(arrivals)
    ticks = cycle(readings[config.window_size:])

    def label_tick():
        arrivals = next(ticks)
        bank.insert_tick(arrivals)
        return truth.labels_for_tick(arrivals)

    benchmark(label_tick)


def test_gk_summary_insert(benchmark):
    from repro.streams.quantiles import GKQuantileSummary
    rng = np.random.default_rng(0)
    summary = GKQuantileSummary(0.01)
    for value in rng.uniform(size=20_000):
        summary.insert(float(value))
    iterator = iter(rng.uniform(size=1_000_000).tolist())
    benchmark(lambda: summary.insert(next(iterator)))

