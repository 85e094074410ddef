"""Ablation benches for the design choices DESIGN.md calls out.

* Kernel choice: the paper (after Scott) claims the kernel function is
  immaterial -- Epanechnikov vs Gaussian range queries agree closely.
* Bandwidth rule: Scott vs Silverman -- both give usable models; Scott
  (the paper's rule) is wider.
* Sigma source: sketched vs exact windowed sigma give nearly identical
  bandwidths (the sketch's error is well under its epsilon).
* MGDD dissemination: the lazy Section 8.1 policy saves most of the
  model-update traffic on stationary streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bandwidth import scott_bandwidths, silverman_bandwidths
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, GAUSSIAN
from repro.core.mdef import MDEFSpec
from repro.data import StreamSet, make_plateau_streams
from repro.detectors.mgdd import MGDDConfig, build_mgdd_network
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.streams.variance import MultiDimVarianceSketch


def test_kernel_choice_is_immaterial(benchmark, rng):
    """Epanechnikov vs Gaussian neighbourhood counts agree within ~15%."""
    window = rng.normal(0.4, 0.05, 20_000)
    sample = window[::40]

    def build_and_query():
        out = {}
        for kernel in (EPANECHNIKOV, GAUSSIAN):
            kde = KernelDensityEstimator(sample, stddev=window.std(),
                                         kernel=kernel, window_size=20_000)
            out[kernel.name] = float(kde.neighborhood_count(0.42, 0.01))
        return out

    counts = benchmark(build_and_query)
    assert counts["epanechnikov"] == pytest.approx(counts["gaussian"],
                                                   rel=0.15)


def test_bandwidth_rule_sensitivity(benchmark, rng):
    window = rng.normal(0.4, 0.05, 10_000)
    sample = window[::20]

    def compare():
        scott = scott_bandwidths(window.std(), sample.shape[0])
        silverman = silverman_bandwidths(window.std(), sample.shape[0])
        return scott[0], silverman[0]

    scott, silverman = benchmark(compare)
    assert scott > silverman          # sqrt(5) support vs rule-of-thumb
    assert scott / silverman < 5.0    # same order of magnitude


def test_sketched_sigma_matches_exact(benchmark, rng):
    data = rng.normal(0.4, 0.05, 8_000)
    window_size = 2_000

    def run():
        sketch = MultiDimVarianceSketch(window_size, 1, 0.2)
        for value in data:
            sketch.insert(float(value))
        return sketch.std()[0]

    sketched = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = data[-window_size:].std()
    assert sketched == pytest.approx(exact, rel=0.1)


@pytest.mark.parametrize("policy", ["incremental", "lazy"])
def test_mgdd_dissemination_cost(benchmark, policy):
    """The lazy policy trades update volume for model freshness."""
    spec = MDEFSpec(sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8)
    hierarchy = build_hierarchy(8, 4)
    streams = StreamSet.from_arrays(make_plateau_streams(8, 800, seed=9))
    config = MGDDConfig(spec=spec, window_size=400, sample_size=40,
                        sample_fraction=0.5, warmup=400,
                        update_policy=policy, lazy_threshold=0.2)

    def run():
        network = build_mgdd_network(hierarchy, config, 1,
                                     rng=np.random.default_rng(11))
        simulator = NetworkSimulator(hierarchy, network.nodes, streams)
        simulator.run()
        return simulator.counter.counts.get("ModelUpdate", 0)

    updates = benchmark.pedantic(run, rounds=1, iterations=1)
    if policy == "incremental":
        assert updates > 100
    else:
        # Stationary stream: the lazy policy re-broadcasts rarely.
        assert updates < 100


def test_model_quantiles_vs_gk_summary(benchmark, rng):
    """Order statistics: window kernel model vs a GK stream summary.

    On a stationary stream both agree with the exact quantiles; after a
    distribution shift the window model tracks the new regime while the
    unbounded GK summary still reflects the whole history -- the paper's
    core argument for sliding-window semantics.
    """
    from repro.apps.aggregates import estimate_median
    from repro.streams.quantiles import GKQuantileSummary

    window_size = 2_000
    old = rng.normal(0.25, 0.02, 6_000)
    new = rng.normal(0.75, 0.02, 4_000)
    stream = np.concatenate([old, new])

    def run():
        gk = GKQuantileSummary(0.01)
        for value in stream:
            gk.insert(float(value))
        window = stream[-window_size:]
        model = KernelDensityEstimator.from_window(
            window, 200, rng=np.random.default_rng(0))
        return estimate_median(model), gk.median()

    model_median, gk_median = benchmark.pedantic(run, rounds=1, iterations=1)
    true_window_median = float(np.median(stream[-window_size:]))
    assert model_median == pytest.approx(true_window_median, abs=0.02)
    # The GK summary never forgets: its median straddles both regimes.
    assert abs(gk_median - true_window_median) > 0.1


def test_energy_ordering_matches_message_ordering(benchmark):
    """Extension of Figure 11: the Joule ordering mirrors the message
    ordering (centralized >> MGDD > D3) under the first-order radio
    model."""
    from repro.eval.experiments import figure11

    result = benchmark.pedantic(
        lambda: figure11(leaf_counts=(16, 64), window_size=256,
                         measure_ticks=64, seed=1),
        rounds=1, iterations=1)
    for row in result.rows:
        assert row.centralized_uj > row.mgdd_uj > row.d3_uj > 0
        assert row.centralized_uj / row.d3_uj > 10


def test_bandwidth_basis_resolves_recall(benchmark, rng):
    """Scott's n: |R| (the formula as printed) vs |W| (what the sample
    represents).  The window basis recovers the paper's reported recall;
    the sample basis over-smooths the borderline band next to clusters.
    See EXPERIMENTS.md for the full analysis.

    One detector seed sees ~47 true outliers, so its ratios move by a
    few outliers' worth between seeds (window-basis precision spans
    0.82-1.0 and recall 0.77-0.89 over seeds 0-5): the bars hold on
    confusion counts pooled over six detector seeds.
    """
    from repro.core.outliers import DistanceOutlierSpec
    from repro.data import make_mixture_stream
    from repro.engine.core import DetectorEngine

    W, R = 4_000, 200
    spec = DistanceOutlierSpec(radius=0.01, count_threshold=18)
    stream = make_mixture_stream(9_000, 1, rng=rng)[:, 0]
    # Exact truth over the last |W| values, the reading's own included.
    truth = np.array([
        np.sum(np.abs(stream[max(0, t - W + 1):t + 1] - stream[t])
               <= spec.radius) < spec.count_threshold
        for t in range(stream.size)])

    def run():
        out = {}
        for basis in ("window", "sample"):
            tp = fp = fn = 0
            for seed in range(6):
                # A one-stream engine: the decisions of an
                # OnlineOutlierDetector with this generator, read in
                # one block; readings are scored after the first |W|.
                engine = DetectorEngine(
                    1, spec, window_size=W, sample_size=R,
                    bandwidth_basis=basis,
                    rng=[np.random.default_rng(seed)])
                flagged = engine.ingest(stream[:, None])[:, 0]
                live = np.arange(stream.size) >= W
                tp += int((flagged & truth).sum())
                fp += int((flagged & ~truth).sum())
                fn += int((live & ~flagged & truth).sum())
            out[basis] = (tp / max(tp + fp, 1), tp / max(tp + fn, 1))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    window_p, window_r = results["window"]
    sample_p, sample_r = results["sample"]
    print(f"\nwindow basis: P={window_p:.3f} R={window_r:.3f}; "
          f"sample basis: P={sample_p:.3f} R={sample_r:.3f}")
    # The window basis closes most of the recall gap toward the
    # paper's ~92% (the remainder is model-refresh staleness)...
    assert window_r > 0.75
    # ...while the printed-formula basis loses the borderline outliers.
    assert window_r > sample_r + 0.05
    # Both stay precise.
    assert window_p > 0.9 and sample_p > 0.9
