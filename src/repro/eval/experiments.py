"""Reproduction of every table and figure in the paper's Section 10.

One function per exhibit; each returns a structured result object with a
``format_table()`` renderer that prints the same rows/series the paper
reports.  Default parameters run at a laptop-friendly reduced scale that
preserves every ratio of the paper's setup (|R|/|W|, f, thresholds per
density); the keyword arguments accept the paper-scale values.

See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
paper-reported vs. measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.divergence import jensen_shannon_divergence
from repro.core.estimator import KernelDensityEstimator
from repro.data import (
    DEWPOINT_FIGURE5_ROW,
    ENGINE_FIGURE5_ROW,
    PRESSURE_FIGURE5_ROW,
    DriftingGaussianStream,
    StreamSet,
    make_engine_stream,
    make_environment_stream,
)
from repro.detectors import (
    D3Config,
    MGDDConfig,
    build_centralized_network,
    build_d3_network,
    build_mgdd_network,
)
from repro.core.outliers import DistanceOutlierSpec
from repro.core.mdef import MDEFSpec
from repro.eval.harness import (
    AccuracyResult,
    ExperimentConfig,
    run_accuracy_experiment,
)
from repro.eval.reporting import render_table
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.streams.sampling import ChainSample
from repro.streams.stats import summarize
from repro.streams.variance import MultiDimVarianceSketch, theoretical_bound_words

__all__ = [
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "memory_experiment",
    "selectivity_experiment",
]


# ----------------------------------------------------------------------
# Figure 5: dataset statistics table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure5Row:
    """One row of Figure 5: a dataset's published vs measured statistics."""

    dataset: str
    published: "tuple[float, ...]"
    measured: "tuple[float, ...]"


@dataclass
class Figure5Result:
    """Measured statistics of the synthetic stand-in datasets."""

    rows: "list[Figure5Row]"

    def format_table(self) -> str:
        """Figure 5 with published and measured values interleaved."""
        headers = ["Dataset", "", "Min", "Max", "Mean", "Median",
                   "StdDev", "Skew"]
        table = []
        for row in self.rows:
            table.append([row.dataset, "paper", *row.published])
            table.append(["", "ours", *row.measured])
        return render_table(headers, table, title="Figure 5: dataset statistics")


def figure5(*, n_engine: int = 50_000, n_environment: int = 35_000,
            seed: int = 0) -> Figure5Result:
    """Regenerate the Figure 5 statistics from the synthetic stand-ins."""
    rng = np.random.default_rng(seed)
    engine = make_engine_stream(n_engine, rng=rng)[:, 0]
    environment = make_environment_stream(n_environment, rng=rng)
    rows = [
        Figure5Row("Engine", ENGINE_FIGURE5_ROW, summarize(engine).as_row()),
        Figure5Row("Pressure", PRESSURE_FIGURE5_ROW,
                   summarize(environment[:, 0]).as_row()),
        Figure5Row("Dew-point", DEWPOINT_FIGURE5_ROW,
                   summarize(environment[:, 1]).as_row()),
    ]
    return Figure5Result(rows=rows)


# ----------------------------------------------------------------------
# Figure 6: estimation accuracy over time under distribution drift
# ----------------------------------------------------------------------

@dataclass
class Figure6Result:
    """JS distance between true and estimated pdf, over time."""

    ticks: "list[int]"
    leaf: "list[float]"
    #: f -> series of distances at the parent sensor.
    parent: "dict[float, list[float]]"
    shift_every: int

    def max_stable_distance(self, *, settle: int | None = None) -> float:
        """Largest leaf distance at ticks far from a distribution shift."""
        settle = settle if settle is not None else self.shift_every // 2
        stable = [d for t, d in zip(self.ticks, self.leaf)
                  if t % self.shift_every >= settle]
        return max(stable) if stable else float("nan")

    def adaptation_latency(self, threshold: float = 0.1) -> int:
        """Ticks after a shift until the leaf distance re-enters ``threshold``.

        Measured on the first shift that occurs after the window has
        filled (as in the paper's Figure 6 discussion: "within 0.1 with
        latency of 2500 measurements" at W=10240).
        """
        shift_tick = None
        for t in self.ticks:
            if t >= self.shift_every and t % self.shift_every < 64:
                shift_tick = t - t % self.shift_every
                break
        if shift_tick is None:
            return -1
        for t, d in zip(self.ticks, self.leaf):
            if t >= shift_tick + 8 and d <= threshold:
                return t - shift_tick
        return -1

    def format_table(self) -> str:
        headers = ["Tick", "Leaf"] + [f"Parent f={f}" for f in sorted(self.parent)]
        rows = []
        for i, t in enumerate(self.ticks):
            rows.append([t, self.leaf[i]] +
                        [self.parent[f][i] for f in sorted(self.parent)])
        return render_table(headers, rows,
                            title="Figure 6: JS distance, true vs estimated pdf")


def figure6(*, window_size: int = 1_024, sample_size: int = 102,
            shift_every: int = 2_048, n_shifts: int = 3, n_children: int = 4,
            fractions: "tuple[float, ...]" = (0.5, 0.75),
            eval_every: int = 64, grid_size: int = 64,
            seed: int = 0) -> Figure6Result:
    """The Figure 6 experiment (paper scale: W=10240, |R|=1024, shift 4096).

    A leaf maintains its chain sample and variance sketch over a
    Gaussian stream whose mean flips periodically; parent sensors
    maintain samples over values forwarded with probability ``f`` from
    ``n_children`` such leaves.  The JS distance between the true pdf
    and each estimate is evaluated every ``eval_every`` ticks.
    """
    rng = np.random.default_rng(seed)
    stream = DriftingGaussianStream(shift_every=shift_every,
                                    rng=np.random.default_rng(rng.integers(2**63)))
    n_ticks = shift_every * n_shifts

    leaf_samples = [ChainSample(window_size, sample_size, 1,
                                rng=np.random.default_rng(rng.integers(2**63)))
                    for _ in range(n_children)]
    leaf_sketch = MultiDimVarianceSketch(window_size, 1)
    parent_window = max(sample_size,
                        int(round(n_children * max(fractions) * sample_size)))
    parents = {f: ChainSample(parent_window, sample_size, 1,
                              rng=np.random.default_rng(rng.integers(2**63)))
               for f in fractions}
    parent_sketches = {f: MultiDimVarianceSketch(parent_window, 1)
                       for f in fractions}
    forward_rng = np.random.default_rng(rng.integers(2**63))

    data = [stream.generate(n_ticks, start=0) for _ in range(n_children)]
    edges = np.linspace(0.0, 1.0, grid_size + 1)

    ticks: "list[int]" = []
    leaf_series: "list[float]" = []
    parent_series: "dict[float, list[float]]" = {f: [] for f in fractions}

    def distance(sample: ChainSample, sketch, tick: int) -> float:
        values = sample.values()
        if values.shape[0] < 2:
            return 1.0
        model = KernelDensityEstimator(values, stddev=sketch.std(),
                                       window_size=window_size)
        estimated = model.interval_probabilities(edges)
        true = stream.true_interval_probabilities(tick, edges)
        return jensen_shannon_divergence(estimated, true, normalize=True)

    for t in range(n_ticks):
        for child, sample in enumerate(leaf_samples):
            value = data[child][t]
            included = sample.offer(value)
            if child == 0:
                leaf_sketch.insert(value)
            if included:
                for f in fractions:
                    if forward_rng.random() < f:
                        parents[f].offer(value)
                        parent_sketches[f].insert(value)
        if t >= eval_every and t % eval_every == 0:
            ticks.append(t)
            leaf_series.append(distance(leaf_samples[0], leaf_sketch, t))
            for f in fractions:
                parent_series[f].append(
                    distance(parents[f], parent_sketches[f], t))
    return Figure6Result(ticks=ticks, leaf=leaf_series, parent=parent_series,
                         shift_every=shift_every)


# ----------------------------------------------------------------------
# Figures 7-10: accuracy sweeps
# ----------------------------------------------------------------------

@dataclass
class AccuracySweepResult:
    """Accuracy results across a swept parameter, per algorithm."""

    title: str
    swept_parameter: str
    #: (algorithm, swept value) -> pooled accuracy result.
    entries: "dict[tuple[str, float], AccuracyResult]" = field(default_factory=dict)

    def format_table(self) -> str:
        headers = ["Algorithm", self.swept_parameter, "Level",
                   "Precision", "Recall", "Hist. precision", "Hist. recall",
                   "True outliers"]
        rows = []
        for (algorithm, value), result in sorted(self.entries.items()):
            for level, lr in sorted(result.levels.items()):
                hist_p = lr.histogram.precision if lr.histogram else ""
                hist_r = lr.histogram.recall if lr.histogram else ""
                rows.append([algorithm, value, level,
                             lr.kernel.precision, lr.kernel.recall,
                             hist_p, hist_r,
                             result.n_true_outliers[level]])
        return render_table(headers, rows, title=self.title)


def _sweep(title: str, parameter: str,
           configs: "dict[tuple[str, float], ExperimentConfig]",
           ) -> AccuracySweepResult:
    result = AccuracySweepResult(title=title, swept_parameter=parameter)
    for key, config in configs.items():
        result.entries[key] = run_accuracy_experiment(config)
    return result


def figure7(*, window_size: int = 1_500, n_leaves: int = 16,
            sample_ratios: "tuple[float, ...]" = (0.0125, 0.025, 0.05),
            n_runs: int = 2, seed: int = 0,
            compare_histogram: bool = True) -> AccuracySweepResult:
    """Figure 7: precision/recall vs |R| (or |B|), 1-d synthetic data.

    D3 runs on the paper's Gaussian-mixture workload; MGDD runs on the
    plateau workload (see :class:`repro.data.PlateauSpec` for why).
    Paper scale: ``window_size=10_000, n_leaves=32, n_runs=12``.
    """
    configs: "dict[tuple[str, float], ExperimentConfig]" = {}
    for ratio in sample_ratios:
        base = ExperimentConfig(
            window_size=window_size, n_leaves=n_leaves, sample_ratio=ratio,
            n_runs=n_runs, seed=seed, compare_histogram=compare_histogram)
        configs[("d3", ratio)] = replace(base, algorithm="d3",
                                         dataset="synthetic")
        configs[("mgdd", ratio)] = replace(base, algorithm="mgdd",
                                           dataset="plateau")
    return _sweep("Figure 7: accuracy vs sample size (1-d synthetic)",
                  "|R|/|W|", configs)


def figure8(*, window_size: int = 1_500, n_leaves: int = 16,
            fractions: "tuple[float, ...]" = (0.25, 0.5, 0.75, 1.0),
            n_runs: int = 2, seed: int = 0) -> AccuracySweepResult:
    """Figure 8: MGDD precision/recall vs the sample fraction ``f``."""
    configs = {
        ("mgdd", f): ExperimentConfig(
            algorithm="mgdd", dataset="plateau", window_size=window_size,
            n_leaves=n_leaves, forward_fraction=f, n_runs=n_runs, seed=seed)
        for f in fractions
    }
    return _sweep("Figure 8: MGDD accuracy vs sample fraction f",
                  "f", configs)


def figure9(*, window_size: int = 1_500, n_leaves: int = 16,
            sample_ratios: "tuple[float, ...]" = (0.0125, 0.025, 0.05),
            n_runs: int = 2, seed: int = 0) -> AccuracySweepResult:
    """Figure 9: precision/recall vs |R|, 2-d synthetic data."""
    configs: "dict[tuple[str, float], ExperimentConfig]" = {}
    for ratio in sample_ratios:
        base = ExperimentConfig(
            window_size=window_size, n_leaves=n_leaves, sample_ratio=ratio,
            n_dims=2, n_runs=n_runs, seed=seed)
        configs[("d3", ratio)] = replace(base, algorithm="d3",
                                         dataset="synthetic")
        configs[("mgdd", ratio)] = replace(base, algorithm="mgdd",
                                           dataset="plateau")
    return _sweep("Figure 9: accuracy vs sample size (2-d synthetic)",
                  "|R|/|W|", configs)


def figure10(*, window_size: int = 1_500, n_leaves: int = 15,
             sample_ratios: "tuple[float, ...]" = (0.0125, 0.025, 0.05),
             n_runs: int = 2, seed: int = 0) -> AccuracySweepResult:
    """Figure 10: the real-dataset sweeps (synthetic stand-ins).

    Engine (1-d): the paper looks for (100, 0.005)-outliers -- the
    threshold scales with the window like the synthetic one -- and uses
    ``r=0.05, alpha r=0.003`` for MGDD.  Environmental (2-d): the
    default specs.  15 leaf sensors as in the engine deployment.
    """
    configs: "dict[tuple[str, float], ExperimentConfig]" = {}
    for ratio in sample_ratios:
        engine_threshold = max(2.0, round(100.0 * window_size / 10_000.0))
        configs[("d3-engine", ratio)] = ExperimentConfig(
            algorithm="d3", dataset="engine", window_size=window_size,
            n_leaves=n_leaves, sample_ratio=ratio, n_runs=n_runs, seed=seed,
            distance_radius=0.005, distance_threshold=engine_threshold)
        configs[("mgdd-engine", ratio)] = ExperimentConfig(
            algorithm="mgdd", dataset="engine", window_size=window_size,
            n_leaves=n_leaves, sample_ratio=ratio, n_runs=n_runs, seed=seed,
            mdef_sampling_radius=0.05, mdef_counting_radius=0.003)
        configs[("d3-environment", ratio)] = ExperimentConfig(
            algorithm="d3", dataset="environment", n_dims=2,
            window_size=window_size, n_leaves=n_leaves, sample_ratio=ratio,
            n_runs=n_runs, seed=seed)
        configs[("mgdd-environment", ratio)] = ExperimentConfig(
            algorithm="mgdd", dataset="environment", n_dims=2,
            window_size=window_size, n_leaves=n_leaves, sample_ratio=ratio,
            n_runs=n_runs, seed=seed,
            mdef_sampling_radius=0.05, mdef_counting_radius=0.003)
    return _sweep("Figure 10: accuracy vs sample size (real datasets)",
                  "|R|/|W|", configs)


# ----------------------------------------------------------------------
# Figure 11: communication cost scaling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure11Row:
    """Message and energy rates for one network size and scheme."""

    n_leaves: int
    n_nodes: int
    centralized: float
    mgdd: float
    d3: float
    #: Network-wide radio energy per tick, in microjoules (extension:
    #: Figure 11 counted messages only).
    centralized_uj: float = 0.0
    mgdd_uj: float = 0.0
    d3_uj: float = 0.0

    def format_table(self) -> str:  # pragma: no cover - convenience alias
        return Figure11Result(rows=[self]).format_table()


@dataclass
class Figure11Result:
    """Messages per second vs network size (Figure 11), plus energy."""

    rows: "list[Figure11Row]"

    def format_table(self) -> str:
        headers = ["Leaves", "Nodes", "Centralized msg/s", "MGDD msg/s",
                   "D3 msg/s", "Centralized / D3",
                   "Centr. uJ/s", "MGDD uJ/s", "D3 uJ/s"]
        table = [[r.n_leaves, r.n_nodes, r.centralized, r.mgdd, r.d3,
                  r.centralized / max(r.d3, 1e-9),
                  r.centralized_uj, r.mgdd_uj, r.d3_uj]
                 for r in self.rows]
        return render_table(headers, table,
                            title="Figure 11: messages per second vs nodes")


def figure11(*, leaf_counts: "tuple[int, ...]" = (16, 64, 256, 1024),
             window_size: int = 512, sample_ratio: float = 0.1,
             sample_fraction: float = 0.25, branching: int = 4,
             measure_ticks: int = 128, seed: int = 0) -> Figure11Result:
    """Figure 11: message rates for Centralized, MGDD and D3.

    The paper's setup: W=10240, |R|=1024 (ratio 0.1), f=0.25, one
    reading per second per sensor, up to ~6000 nodes.  We simulate the
    actual protocols; rates are measured after a warm-up so the chain
    samples run at their steady-state inclusion rate.
    """
    rng = np.random.default_rng(seed)
    sample_size = max(4, int(round(sample_ratio * window_size)))
    rows = []
    for n_leaves in leaf_counts:
        hierarchy = build_hierarchy(n_leaves, branching)
        warmup = window_size
        n_ticks = warmup + measure_ticks
        # Message counting is distribution-independent; a plain Gaussian
        # stream keeps the generator cheap at large scales.
        streams = StreamSet.from_arrays(
            [np.clip(rng.normal(0.4, 0.05, size=(n_ticks, 1)), 0, 1)
             for _ in range(n_leaves)])

        def measure(build) -> "tuple[float, float]":
            from repro.network.energy import EnergyAccountant
            network = build()
            accountant = EnergyAccountant(hierarchy)
            simulator = NetworkSimulator(hierarchy, network.nodes, streams,
                                         energy=accountant)
            simulator.run(warmup)
            before = simulator.counter.total_messages
            joules_before = accountant.total_joules()
            simulator.run(measure_ticks)
            rate = (simulator.counter.total_messages - before) / measure_ticks
            uj_rate = (accountant.total_joules() - joules_before) \
                / measure_ticks * 1e6
            return rate, uj_rate

        d3_config = D3Config(
            spec=DistanceOutlierSpec(radius=0.01, count_threshold=1e9),
            window_size=window_size, sample_size=sample_size,
            sample_fraction=sample_fraction, warmup=n_ticks + 1)
        mgdd_config = MGDDConfig(
            spec=MDEFSpec(sampling_radius=0.08, counting_radius=0.01),
            window_size=window_size, sample_size=sample_size,
            sample_fraction=sample_fraction, warmup=n_ticks + 1)
        central_rate, central_uj = measure(
            lambda: build_centralized_network(hierarchy))
        mgdd_rate, mgdd_uj = measure(lambda: build_mgdd_network(
            hierarchy, mgdd_config, 1,
            rng=np.random.default_rng(rng.integers(2**63))))
        d3_rate, d3_uj = measure(lambda: build_d3_network(
            hierarchy, d3_config, 1,
            rng=np.random.default_rng(rng.integers(2**63))))
        rows.append(Figure11Row(
            n_leaves=n_leaves, n_nodes=hierarchy.n_nodes,
            centralized=central_rate, mgdd=mgdd_rate, d3=d3_rate,
            centralized_uj=central_uj, mgdd_uj=mgdd_uj, d3_uj=d3_uj,
        ))
    return Figure11Result(rows=rows)


# ----------------------------------------------------------------------
# Section 10.3: memory usage of the variance sketch
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryRow:
    """Measured vs theoretical variance-sketch memory for one setting."""

    window_size: int
    epsilon: float
    measured_words: int
    bound_words: int

    @property
    def fraction_below_bound(self) -> float:
        """How far below the Theorem 1 bound the actual usage sits."""
        return 1.0 - self.measured_words / self.bound_words


@dataclass
class MemoryResult:
    """The Section 10.3 memory experiment."""

    rows: "list[MemoryRow]"
    total_state_bytes: int
    #: The paper's envelope: < 10 KB per sensor at W=20000, R=2000.
    paper_budget_bytes: int = 10_240

    def format_table(self) -> str:
        headers = ["|W|", "eps", "Measured (words)", "Bound (words)",
                   "Below bound"]
        table = [[r.window_size, r.epsilon, r.measured_words, r.bound_words,
                  f"{100 * r.fraction_below_bound:.0f}%"] for r in self.rows]
        out = render_table(headers, table,
                           title="Section 10.3: variance-sketch memory")
        out += (f"\nTotal per-sensor state at W=20000, |R|=2000: "
                f"{self.total_state_bytes} bytes "
                f"(paper envelope: < {self.paper_budget_bytes} bytes)")
        return out


def memory_experiment(*, window_sizes: "tuple[int, ...]" = (10_000, 20_000),
                      epsilons: "tuple[float, ...]" = (0.2,),
                      n_values: int = 40_000, seed: int = 0) -> MemoryResult:
    """Section 10.3: replay the engine data through the variance sketch.

    Reports the peak sketch footprint against the Theorem 1 bound (the
    paper measures 55-65% below it) and the total per-sensor state at
    the paper's "large" setting (W=20000, |R|=2000, eps=0.2), which must
    stay under 10 KB.
    """
    rng = np.random.default_rng(seed)
    stream = make_engine_stream(n_values, rng=rng)[:, 0]
    rows = []
    for window_size in window_sizes:
        for epsilon in epsilons:
            sketch = MultiDimVarianceSketch(window_size, 1, epsilon)
            for value in stream:
                sketch.insert(float(value))
            rows.append(MemoryRow(
                window_size=window_size, epsilon=epsilon,
                measured_words=sketch.max_memory_words(),
                bound_words=theoretical_bound_words(epsilon, window_size) * 1))

    # Total per-sensor state at the paper's "large" parameters.  The
    # paper accounts the stored *numbers* (d |R| sample values plus the
    # sketch words); chain bookkeeping (timestamps, successor indices)
    # is reported separately by ChainSample.memory_words().
    big_w, big_r = 20_000, 2_000
    sketch = MultiDimVarianceSketch(big_w, 1, 0.2)
    for value in stream[:big_w + 4_000]:
        sketch.insert(float(value))
    total_words = big_r * 1 + sketch.memory_words()
    return MemoryResult(rows=rows, total_state_bytes=total_words * 2)


# ----------------------------------------------------------------------
# Section 9: online range-query (selectivity) estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SelectivityRow:
    """Mean absolute selectivity error for one estimator and query width."""

    estimator: str
    query_width: float
    mean_abs_error: float
    max_abs_error: float


@dataclass
class SelectivityResult:
    """Section 9's range-query application, quantified."""

    rows: "list[SelectivityRow]"

    def format_table(self) -> str:
        headers = ["Estimator", "Query width", "Mean |error|", "Max |error|"]
        table = [[r.estimator, r.query_width, r.mean_abs_error,
                  r.max_abs_error] for r in self.rows]
        return render_table(
            headers, table,
            title="Section 9: range-query selectivity estimation error")


def selectivity_experiment(*, window_size: int = 5_000,
                           sample_size: int = 250,
                           query_widths: "tuple[float, ...]" = (0.02, 0.05, 0.1),
                           n_queries: int = 200,
                           seed: int = 0) -> SelectivityResult:
    """Compare estimators on the Section 9 range-query application.

    A window of the synthetic mixture is summarised three ways -- the
    kernel model built from a chain sample + sketched sigma (the
    online pipeline), an offline equi-depth histogram (the paper's
    comparison upper bound), and an online GK-driven histogram -- and
    each answers random range queries; errors are against the exact
    window selectivity.
    """
    from repro.core.histogram import EquiDepthHistogram
    from repro.data.synthetic import make_mixture_stream
    from repro.streams.quantiles import GKQuantileSummary

    rng = np.random.default_rng(seed)
    stream = make_mixture_stream(2 * window_size, 1, rng=rng)[:, 0]
    window = stream[-window_size:]

    # Online pipeline state, fed the whole stream.
    chain = ChainSample(window_size, sample_size,
                        rng=np.random.default_rng(rng.integers(2**63)))
    sketch = MultiDimVarianceSketch(window_size, 1)
    summary = GKQuantileSummary(0.01)
    for value in stream:
        chain.offer([value])
        sketch.insert([value])
        summary.insert(float(value))

    kernel_model = KernelDensityEstimator(
        chain.values(), stddev=sketch.std(), window_size=window_size)
    offline_hist = EquiDepthHistogram.from_values(window, sample_size)
    online_hist = EquiDepthHistogram.from_quantile_summary(
        summary, sample_size, window_size=window_size)
    estimators = {"kernel (online)": kernel_model,
                  "histogram (offline)": offline_hist,
                  "histogram (online GK)": online_hist}

    rows = []
    for width in query_widths:
        lows = rng.uniform(0.0, 1.0 - width, size=n_queries)
        highs = lows + width
        exact = np.array([np.mean((window >= lo) & (window <= hi))
                          for lo, hi in zip(lows, highs)])
        for name, model in estimators.items():
            estimated = np.array([float(model.range_probability(lo, hi))
                                  for lo, hi in zip(lows, highs)])
            errors = np.abs(estimated - exact)
            rows.append(SelectivityRow(
                estimator=name, query_width=width,
                mean_abs_error=float(errors.mean()),
                max_abs_error=float(errors.max())))
    return SelectivityResult(rows=rows)
