"""The accuracy-experiment harness (paper Section 10.2).

One experiment = a hierarchy of sensors fed per-sensor streams, a
distributed detector (D3 or MGDD) running *online* on the network
simulator, exact ground truth maintained on the side, and
precision/recall per hierarchy level.  Optionally the paper's offline
equi-depth-histogram variant of each algorithm runs alongside on the
same arrivals for the Figure 7 comparison.

The paper's setup: 48 nodes in 3 tiers (32 leaf streams), 12 runs,
``|W| = 10,000``, ``|R| = 0.05 |W|``, ``f = 0.5``; (45, 0.01)-outliers
for D3; ``r = 0.08``, ``alpha r = 0.01``, ``k_sigma = 3`` for MGDD.  The
default :class:`ExperimentConfig` keeps every ratio but shrinks the
window so the suite runs on a laptop; pass ``window_size=10_000`` (etc.)
to reproduce at paper scale.  The distance threshold scales with the
window (45 neighbours in a 10k window = the same density at 9 in a 2k
window); the MDEF parameters are ratios and need no scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs as _obs
from repro._exceptions import ParameterError
from repro.core.mdef import MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data import (
    StreamSet,
    make_drift_streams,
    make_engine_streams,
    make_environment_streams,
    make_mixture_streams,
    make_plateau_streams,
)
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.mgdd import MGDDConfig, build_mgdd_network
from repro.eval.metrics import PrecisionRecall, precision_recall
from repro.eval.truth import DistanceTruth, GlobalMDEFTruth, WindowBank
from repro.network.election import (
    BearerRepair,
    RoundRobinElection,
    handoff_cost_words,
)
from repro.network.faults import FaultPlan, random_crash_plan
from repro.network.messages import MessageCounter
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Hierarchy, build_hierarchy
from repro.network.transport import TransportConfig

__all__ = [
    "ExperimentConfig",
    "LevelResult",
    "AccuracyResult",
    "run_accuracy_run",
    "run_accuracy_experiment",
    "make_streams",
]

#: Reference scale of the paper's distance threshold: 45 neighbours
#: within r = 0.01 of a 10,000-value window.
_PAPER_THRESHOLD = 45.0
_PAPER_WINDOW = 10_000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one accuracy experiment needs (see module docstring)."""

    algorithm: str = "d3"                    # 'd3' or 'mgdd'
    dataset: str = "synthetic"               # 'synthetic', 'engine', 'environment'
    n_dims: int = 1
    n_leaves: int = 32
    branching: int = 4
    window_size: int = 2_000
    sample_ratio: float = 0.05               # |R| / |W|
    forward_fraction: float = 0.5            # f
    distance_radius: float = 0.01
    distance_threshold: "float | None" = None   # scaled from the paper when None
    mdef_sampling_radius: float = 0.08
    mdef_counting_radius: float = 0.01
    k_sigma: float = 3.0
    mdef_min_mdef: float = 0.8               # edge-suppression floor (see MDEFSpec)
    epsilon: float = 0.2
    measure_ticks: "int | None" = None       # defaults to window_size
    truth_stride: int = 2                    # evaluate every k-th tick's arrivals
    n_runs: int = 3
    seed: int = 0
    compare_histogram: bool = False
    model_refresh: int = 16
    hist_refresh: int = 64
    update_policy: str = "incremental"       # MGDD model dissemination
    parent_window: str = "fixed"             # leader-window semantics
    # -- fault injection (docs/FAULT_MODEL.md); all off by default ------
    loss_rate: float = 0.0                   # uniform link loss probability
    crash_fraction: float = 0.0              # fraction of leaves that crash
    duplication_rate: float = 0.0            # spurious double-delivery rate
    reliable_transport: bool = False         # per-hop ack/retransmit shim
    transport_max_retries: int = 3
    repair_leaders: bool = False             # election + bearer repair
    staleness_horizon: "int | None" = None   # child/model staleness cutoff
    # -- model-health monitoring (repro.obs.health); off by default -----
    health_check_every: "int | None" = None  # ticks between health sweeps

    def __post_init__(self) -> None:
        if self.algorithm not in ("d3", "mgdd"):
            raise ParameterError(f"algorithm must be 'd3' or 'mgdd', "
                                 f"got {self.algorithm!r}")
        if self.dataset not in ("synthetic", "plateau", "drift", "engine",
                                "environment"):
            raise ParameterError(
                f"dataset must be 'synthetic', 'plateau', 'drift', "
                f"'engine' or 'environment', got {self.dataset!r}")
        if self.health_check_every is not None \
                and self.health_check_every < 1:
            raise ParameterError(
                f"health_check_every must be >= 1, "
                f"got {self.health_check_every!r}")
        if self.dataset == "environment" and self.n_dims != 2:
            raise ParameterError("the environment dataset is 2-dimensional")
        for name in ("loss_rate", "crash_fraction", "duplication_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(
                    f"{name} must lie in [0, 1], got {rate!r}")

    # -- derived quantities --------------------------------------------

    @property
    def sample_size(self) -> int:
        """Kernel sample slots ``|R| = sample_ratio x |W|``."""
        return max(4, int(round(self.sample_ratio * self.window_size)))

    @property
    def warmup(self) -> int:
        """Ticks before detection/evaluation starts (one full window)."""
        return self.window_size

    @property
    def n_ticks(self) -> int:
        """Total simulated ticks (warmup + measurement)."""
        measure = self.measure_ticks if self.measure_ticks is not None \
            else self.window_size
        return self.warmup + measure

    @property
    def distance_spec(self) -> DistanceOutlierSpec:
        """The (D, r) query, threshold scaled to the window size."""
        threshold = self.distance_threshold
        if threshold is None:
            threshold = max(2.0, round(
                _PAPER_THRESHOLD * self.window_size / _PAPER_WINDOW))
        return DistanceOutlierSpec(radius=self.distance_radius,
                                   count_threshold=threshold)

    @property
    def mdef_spec(self) -> MDEFSpec:
        """The MDEF query parameters."""
        return MDEFSpec(sampling_radius=self.mdef_sampling_radius,
                        counting_radius=self.mdef_counting_radius,
                        k_sigma=self.k_sigma, min_mdef=self.mdef_min_mdef)


def make_streams(config: ExperimentConfig, seed: int) -> StreamSet:
    """Generate the per-sensor streams this configuration asks for."""
    n = config.n_ticks
    if config.dataset == "synthetic":
        arrays = make_mixture_streams(config.n_leaves, n, config.n_dims,
                                      seed=seed)
    elif config.dataset == "plateau":
        arrays = make_plateau_streams(config.n_leaves, n, config.n_dims,
                                      seed=seed)
    elif config.dataset == "drift":
        arrays = make_drift_streams(config.n_leaves, n, config.n_dims,
                                    seed=seed)
    elif config.dataset == "engine":
        arrays = make_engine_streams(config.n_leaves, n, seed=seed)
    else:
        arrays = make_environment_streams(config.n_leaves, n, seed=seed)
    return StreamSet.from_arrays(arrays)


@dataclass(frozen=True)
class LevelResult:
    """Precision/recall of one method at one hierarchy level."""

    level: int
    kernel: PrecisionRecall
    histogram: "PrecisionRecall | None" = None


@dataclass
class AccuracyResult:
    """One accuracy run (or the pool of several, see
    :func:`run_accuracy_experiment`)."""

    config: ExperimentConfig
    levels: "dict[int, LevelResult]" = field(default_factory=dict)
    n_true_outliers: "dict[int, int]" = field(default_factory=dict)
    #: The individual runs behind a pooled result (empty for single runs);
    #: lets callers report run-to-run spread next to the pooled ratios.
    runs: "list[AccuracyResult]" = field(default_factory=list)
    #: Network-layer accounting of the run: message/word totals, per-kind
    #: drop accounting, transport statistics, handoffs, per-parent child
    #: staleness (see :func:`run_accuracy_run`).  Pooled results carry
    #: the summed numeric fields.
    network_stats: "dict[str, object]" = field(default_factory=dict)

    def precision(self, level: int, *, model: str = "kernel") -> float:
        """Precision at a level, for 'kernel' or 'histogram'."""
        result = self.levels[level]
        pr = result.kernel if model == "kernel" else result.histogram
        if pr is None:
            raise ParameterError(f"no {model} result at level {level}")
        return pr.precision

    def recall(self, level: int, *, model: str = "kernel") -> float:
        """Recall at a level, for 'kernel' or 'histogram'."""
        result = self.levels[level]
        pr = result.kernel if model == "kernel" else result.histogram
        if pr is None:
            raise ParameterError(f"no {model} result at level {level}")
        return pr.recall

    def run_spread(self, level: int, metric: str = "precision") -> "tuple[float, float]":
        """(min, max) of a metric across the pooled runs.

        Raises when this result is a single run (no spread to report).
        """
        if not self.runs:
            raise ParameterError("run_spread needs a pooled result")
        values = [getattr(run.levels[level].kernel, metric)
                  for run in self.runs]
        return min(values), max(values)


class _HistogramD3:
    """The offline-histogram variant of D3 (Figure 7's comparison).

    Rebuilds equi-depth histograms from the exact windows every
    ``hist_refresh`` ticks and mirrors D3's escalation: an arrival is
    checked at level ``l`` only if every level below flagged it.
    """

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 config: ExperimentConfig) -> None:
        self._bank = bank
        self._hierarchy = hierarchy
        self._config = config
        self._spec = config.distance_spec
        self._models: "dict[int, object]" = {}
        self._built_at = -1

    def _refresh(self, tick: int) -> None:
        if self._built_at >= 0 and tick - self._built_at < self._config.hist_refresh:
            return
        n_buckets = self._config.sample_size   # |B| = |R| as in the paper
        for node in self._hierarchy.parents:
            self._models[node] = self._bank.histogram(node, n_buckets)
        self._built_at = tick

    def decisions_for_tick(self, arrivals: np.ndarray,
                           tick: int) -> "dict[int, np.ndarray]":
        """Flag mask per level for this tick's arrivals."""
        self._refresh(tick)
        n_leaves = arrivals.shape[0]
        flagged = np.ones(n_leaves, dtype=bool)   # escalation chain
        out: "dict[int, np.ndarray]" = {}
        for level_idx, tier in enumerate(self._hierarchy.levels):
            level_mask = np.zeros(n_leaves, dtype=bool)
            for node in tier:
                rows = self._bank._member_rows[node]
                candidates = rows[flagged[rows]]
                if candidates.size == 0:
                    continue
                model = self._models[node]
                counts = np.asarray(model.neighborhood_count(
                    arrivals[candidates], self._spec.radius)).reshape(-1)
                level_mask[candidates] = counts < self._spec.count_threshold
            out[level_idx + 1] = level_mask
            flagged = flagged & level_mask
        return out


class _HistogramMGDD:
    """The offline-histogram variant of MGDD: MDEF against a global
    equi-depth histogram of the union window."""

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 config: ExperimentConfig) -> None:
        self._bank = bank
        self._root = hierarchy.root_id
        self._config = config
        self._spec = config.mdef_spec
        self._detector: "MDEFOutlierDetector | None" = None
        self._built_at = -1

    def _refresh(self, tick: int) -> None:
        if self._built_at >= 0 and tick - self._built_at < self._config.hist_refresh:
            return
        model = self._bank.histogram(self._root, self._config.sample_size)
        self._detector = MDEFOutlierDetector(model, self._spec)
        self._built_at = tick

    def decisions_for_tick(self, arrivals: np.ndarray, tick: int) -> np.ndarray:
        """Flag mask for this tick's arrivals (global MDEF)."""
        self._refresh(tick)
        return np.array([self._detector.check(arrivals[i]).is_outlier
                         for i in range(arrivals.shape[0])])


def _build_fault_plan(config: ExperimentConfig, hierarchy: Hierarchy,
                      seed: int) -> "FaultPlan | None":
    """The run's fault plan, or None for a fault-free configuration.

    Crash windows land inside the measurement phase (so degradation is
    measured, not warm-up), each lasting between a fifth and half of it;
    the plan's own rng stream is derived from the run seed, so the same
    seed always injects the same faults.
    """
    if config.crash_fraction <= 0.0 and config.duplication_rate <= 0.0:
        return None
    measure = config.n_ticks - config.warmup
    return random_crash_plan(
        hierarchy,
        crash_fraction=config.crash_fraction,
        first_tick=config.warmup,
        last_tick=config.n_ticks,
        min_down=max(1, measure // 5),
        max_down=max(1, measure // 2),
        duplication_rate=config.duplication_rate,
        rng=np.random.default_rng(seed + 7919))


def run_accuracy_run(config: ExperimentConfig, seed: int, *,
                     obs: "bool | str" = False) -> AccuracyResult:
    """One full simulation + ground truth + precision/recall, one seed.

    ``obs`` attaches the :mod:`repro.obs` instrumentation to this run:
    ``True`` collects in memory only, a string additionally streams the
    trace to that JSONL path.  The collected snapshot (events by kind,
    metrics) is embedded in ``result.network_stats`` under
    the ``"obs"`` key.  Prior singleton state is discarded so the
    snapshot describes exactly this run.
    """
    if obs:
        _obs.reset()
        trace_path = obs if isinstance(obs, str) else None
        with _obs.enabled(trace_path):
            result = _run_accuracy_run(config, seed)
        stats = _obs.snapshot()
        if trace_path is not None:
            stats["trace_path"] = trace_path
        result.network_stats["obs"] = stats
        return result
    return _run_accuracy_run(config, seed)


def _run_accuracy_run(config: ExperimentConfig, seed: int) -> AccuracyResult:
    hierarchy = build_hierarchy(config.n_leaves, config.branching)
    streams = make_streams(config, seed)
    rng = np.random.default_rng(seed + 1)

    if config.algorithm == "d3":
        det_config = D3Config(
            spec=config.distance_spec, window_size=config.window_size,
            sample_size=config.sample_size,
            sample_fraction=config.forward_fraction, epsilon=config.epsilon,
            warmup=config.warmup, model_refresh=config.model_refresh,
            parent_window=config.parent_window,
            staleness_horizon=config.staleness_horizon)
        network = build_d3_network(hierarchy, det_config, config.n_dims, rng=rng)
    else:
        det_config = MGDDConfig(
            spec=config.mdef_spec, window_size=config.window_size,
            sample_size=config.sample_size,
            sample_fraction=config.forward_fraction, epsilon=config.epsilon,
            warmup=config.warmup, model_refresh=config.model_refresh,
            update_policy=config.update_policy,  # type: ignore[arg-type]
            parent_window=config.parent_window,
            staleness_horizon=config.staleness_horizon)
        network = build_mgdd_network(hierarchy, det_config, config.n_dims, rng=rng)

    faults = _build_fault_plan(config, hierarchy, seed)
    transport = TransportConfig(max_retries=config.transport_max_retries) \
        if config.reliable_transport else None
    counter = MessageCounter()
    repair = None
    if config.repair_leaders and faults is not None:
        election = RoundRobinElection(hierarchy,
                                      epoch_length=config.window_size)
        repair = BearerRepair(
            election, faults,
            handoff_words=handoff_cost_words(
                config.sample_size, config.n_dims,
                sketch_words=8 * config.n_dims),
            counter=counter)

    bank = WindowBank(hierarchy, config.window_size, config.n_dims,
                      mode=config.parent_window)
    mdef_truth = GlobalMDEFTruth(bank, hierarchy, config.mdef_spec) \
        if config.algorithm == "mgdd" else None
    dist_truth = DistanceTruth(bank, hierarchy, config.distance_spec) \
        if config.algorithm == "d3" else None

    hist_d3 = hist_mgdd = None
    if config.compare_histogram:
        if config.algorithm == "d3":
            hist_d3 = _HistogramD3(bank, hierarchy, config)
        else:
            hist_mgdd = _HistogramMGDD(bank, hierarchy, config)

    monitor = None
    if config.health_check_every is not None:
        # Imported here: repro.obs.health pulls in the estimator/codec
        # stack, which nothing else in the harness needs at import time.
        from repro.obs.health import HealthMonitor
        monitor = HealthMonitor(network.nodes, hierarchy, probe_seed=seed,
                                detections=network.log)

    arrivals_matrix = np.stack(streams.streams, axis=1)   # (ticks, leaves, d)
    truth_keys: "dict[int, set]" = {}
    hist_keys: "dict[int, set]" = {}
    evaluated_ticks: "list[int]" = []

    def on_tick(tick: int) -> None:
        arrivals = arrivals_matrix[tick]
        if mdef_truth is not None:
            mdef_truth.record_insert(arrivals)
        bank.insert_tick(arrivals)
        health_every = config.health_check_every
        if monitor is not None and health_every is not None \
                and (tick + 1) % health_every == 0:
            monitor.check(tick)
        if tick < config.warmup or (tick - config.warmup) % config.truth_stride:
            return
        evaluated_ticks.append(tick)
        if dist_truth is not None:
            for level, mask in dist_truth.labels_for_tick(arrivals).items():
                truth_keys.setdefault(level, set()).update(
                    (tick, int(i)) for i in np.flatnonzero(mask))
        if mdef_truth is not None:
            mask = mdef_truth.labels_for_tick(arrivals)
            truth_keys.setdefault(1, set()).update(
                (tick, int(i)) for i in np.flatnonzero(mask))
        if hist_d3 is not None:
            for level, mask in hist_d3.decisions_for_tick(arrivals, tick).items():
                hist_keys.setdefault(level, set()).update(
                    (tick, int(i)) for i in np.flatnonzero(mask))
        if hist_mgdd is not None:
            mask = hist_mgdd.decisions_for_tick(arrivals, tick)
            hist_keys.setdefault(1, set()).update(
                (tick, int(i)) for i in np.flatnonzero(mask))

    simulator = NetworkSimulator(
        hierarchy, network.nodes, streams, counter=counter,
        loss_rate=config.loss_rate, faults=faults, transport=transport,
        repair=repair, rng=np.random.default_rng(seed + 2))
    simulator.run(config.n_ticks, on_tick=on_tick)

    evaluated = set(evaluated_ticks)
    leaf_index = {leaf: i for i, leaf in enumerate(hierarchy.leaf_ids)}
    reported: "dict[int, set]" = {}
    for detection in network.log.detections:
        if detection.tick in evaluated:
            key = (detection.tick, leaf_index[detection.origin])
            reported.setdefault(detection.level, set()).add(key)

    result = AccuracyResult(config=config)
    levels = range(1, hierarchy.n_levels + 1) if config.algorithm == "d3" else (1,)
    for level in levels:
        truth = truth_keys.get(level, set())
        kernel_pr = precision_recall(reported.get(level, set()), truth)
        hist_pr = None
        if config.compare_histogram:
            hist_pr = precision_recall(hist_keys.get(level, set()), truth)
        result.levels[level] = LevelResult(level=level, kernel=kernel_pr,
                                           histogram=hist_pr)
        result.n_true_outliers[level] = len(truth)

    last_tick = config.n_ticks - 1
    staleness = {}
    for node_id, node in network.nodes.items():
        report = getattr(node, "child_staleness", None)
        if report is not None:
            staleness[node_id] = report(last_tick)
    result.network_stats = {
        "messages_sent": counter.total_messages,
        "messages_delivered": counter.total_delivered,
        "messages_dropped": counter.total_dropped,
        "words": counter.total_words,
        "counts_by_kind": dict(counter.counts),
        "messages_lost": simulator.messages_lost,
        "messages_duplicated": simulator.messages_duplicated,
        "drops_by_reason": simulator.drops_by_reason,
        "conservation_failures": counter.conservation_failures(),
        "transport": simulator.transport.stats()
        if simulator.transport is not None else {},
        "handoffs": len(repair.handoffs) if repair is not None else 0,
        "crashed_nodes": list(faults.crashed_node_ids)
        if faults is not None else [],
        "child_staleness": staleness,
    }
    # End-to-end latency accounting: computed from the always-on
    # DetectionLog bookkeeping, so it is present (and identical) with
    # observability on or off.
    detections_summary = network.log.latency_summary()
    n_flags = len(network.log)
    detections_summary["words_per_detection"] = (
        counter.total_words / n_flags if n_flags else None)
    result.network_stats["detections"] = detections_summary
    if monitor is not None:
        result.network_stats["health"] = monitor.summary()
    if _obs.ACTIVE:
        registry = _obs.metrics()
        registry.absorb_message_counter(counter)
        if simulator.transport is not None:
            registry.absorb_mapping(simulator.transport.stats(), "transport")
        registry.gauge("detector.flags").set(float(n_flags))
        if n_flags:
            registry.gauge("detector.words_per_detection").set(
                counter.total_words / n_flags)
    return result


def _mean_pr(prs: "list[PrecisionRecall]") -> PrecisionRecall:
    """Aggregate runs by pooling their confusion counts."""
    return PrecisionRecall(
        true_positives=sum(p.true_positives for p in prs),
        false_positives=sum(p.false_positives for p in prs),
        false_negatives=sum(p.false_negatives for p in prs),
    )


def run_accuracy_experiment(config: ExperimentConfig, *,
                            on_run: "Callable[[int, AccuracyResult], None] | None" = None,
                            ) -> AccuracyResult:
    """Run ``config.n_runs`` seeds and pool the confusion counts.

    Pooling (rather than averaging the ratios) keeps runs with few true
    outliers from dominating -- the paper's 40-80 outliers per run leave
    individual ratios noisy.
    """
    runs: "list[AccuracyResult]" = []
    for r in range(config.n_runs):
        run = run_accuracy_run(config, seed=config.seed + 1_000 * r)
        runs.append(run)
        if on_run is not None:
            on_run(r, run)
    merged = AccuracyResult(config=config, runs=runs)
    for level in runs[0].levels:
        kernel = _mean_pr([run.levels[level].kernel for run in runs])
        histogram = None
        if config.compare_histogram:
            histogram = _mean_pr([run.levels[level].histogram for run in runs])
        merged.levels[level] = LevelResult(level=level, kernel=kernel,
                                           histogram=histogram)
        merged.n_true_outliers[level] = sum(
            run.n_true_outliers[level] for run in runs)
    merged.network_stats = {
        key: sum(run.network_stats[key] for run in runs)   # type: ignore[misc]
        for key, value in runs[0].network_stats.items()
        if isinstance(value, int)}
    return merged
