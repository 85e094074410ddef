"""Online model-health monitoring (docs/OBSERVABILITY.md, §health).

The mechanical observability of :mod:`repro.obs` (spans, counters,
phase timings) says what the system *did*; this module watches whether
each node's kernel estimator is still a faithful model of its window --
the statistical health the paper actually cares about (Eq. 4-6, Scott
bandwidths).  A :class:`HealthMonitor` computes a per-node
:class:`ModelHealth` report incrementally from state the nodes already
maintain, so a check is a pure read: no shared RNG is consumed, no
cached model is rebuilt (:attr:`StreamModelState.cached_model` is read
as-is), and attaching a monitor never changes detection results.

Signals, all derived from existing machinery:

* **bandwidth collapse / zero-sigma** -- the variance sketch's
  :meth:`~repro.streams.variance.MultiDimVarianceSketch.std`; a
  (near-)zero deviation in any dimension collapses the Scott bandwidths
  and degenerates the kernel model to spikes.
* **chain-sample staleness and eviction rate** -- from
  :attr:`~repro.streams.sampling.ChainSample.mutation_count`,
  :attr:`~repro.streams.sampling.ChainSample.eviction_count` and
  :meth:`~repro.streams.sampling.ChainSample.newest_active_timestamp`.
* **model drift** -- a seeded, fixed set of probe boxes evaluated
  through the existing range-query machinery
  (:meth:`~repro.core.estimator.KernelDensityEstimator.range_probability`);
  the L1/L-inf distance between successive models' probe vectors is the
  drift estimate.  A distribution shift mid-stream provably raises it.
* **codec quantization error** -- the round-trip error a shipped model
  would incur through :mod:`repro.network.codec`'s 16-bit fixed-point
  encoding.
* **parent-vs-aggregated-children divergence** -- JS divergence
  (:func:`~repro.core.divergence.model_js_divergence`) between a
  parent's model and the law-of-total-variance merge
  (:func:`~repro.core.estimator.merge_estimators`) of its children's
  cached models.

Each report rolls into a score in ``[0, 1]`` via per-violation
penalties; SLO thresholds are configurable through
:class:`HealthThresholds`.  When :data:`repro.obs.ACTIVE` is on, checks
emit schema-validated ``health.*`` trace events and publish
``health.node.<id>.*`` gauges; with it off the monitor stays a pure
in-memory computation (and nobody constructs one unless asked -- the
zero-overhead-when-disabled contract of the rest of the layer).

The ``on_violation`` callback is the bridge to the PR-3 degradation
hooks: callers may wire it to pause detection, shrink the staleness
horizon, or force a model broadcast when a node goes unhealthy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError
from repro.core.divergence import model_js_divergence
from repro.core.estimator import KernelDensityEstimator, merge_estimators
from repro.network.codec import decode_model_state, encode_model_state
from repro.network.topology import Hierarchy

if TYPE_CHECKING:    # pragma: no cover - import cycle guard only
    from repro.network.node import DetectionLog

__all__ = ["HealthThresholds", "ModelHealth", "HealthMonitor"]

#: Score deduction per violated SLO; the score is ``1 - sum(penalties)``
#: clamped to ``[0, 1]``.  Bandwidth collapse dominates because the
#: model is not merely stale but structurally degenerate.
PENALTIES: "Mapping[str, float]" = MappingProxyType({
    "bandwidth-collapse": 0.40,
    "drift": 0.30,
    "sample-stale": 0.20,
    "child-divergence": 0.20,
    "child-stale": 0.20,
    "sample-underfull": 0.10,
    "eviction-rate": 0.10,
    "codec-error": 0.10,
    "latency": 0.20,
})


# repro-lint: shard-state
@dataclass(frozen=True)
class HealthThresholds:
    """SLO knobs: when does a signal count as a violation.

    Every threshold gates one named violation (see :data:`PENALTIES`);
    ``None`` disables the corresponding check.
    """

    #: Any sketched per-dimension deviation below this is a bandwidth
    #: collapse (Scott bandwidths scale linearly with the deviation).
    min_sigma: float = 1e-6
    #: Minimum fraction of sample slots that must be active once the
    #: node has seen a full sample's worth of arrivals.
    min_sample_fill: float = 0.25
    #: Sample staleness (arrivals since the newest active element) above
    #: this fraction of the node's arrival window is a violation.
    max_staleness_ratio: float = 0.75
    #: Evictions per arrival between checks above this is churn.  A
    #: healthy steady state runs near 1 for parents (every forwarded
    #: arrival eventually expires one active element), so the default
    #: only fires on mass expiry -- e.g. a burst after a long silence.
    max_eviction_rate: float = 2.5
    #: L-inf probe drift between successive models at or above this
    #: emits ``health.drift`` and counts as a violation.
    drift_tol: float = 0.15
    #: Maximum tolerated codec round-trip error (absolute, the 16-bit
    #: grid step is ~1.5e-5; this leaves an order of magnitude slack).
    max_codec_error: "float | None" = 1e-4
    #: Parent-vs-merged-children JS divergence above this is a violation.
    divergence_tol: "float | None" = 0.25
    #: Children staler than this many ticks (per the node's own
    #: ``child_staleness`` report, the PR-3 hook) are violations.
    max_child_staleness: "int | None" = None
    #: Event-time -> flag latency (ticks) above this is an SLO
    #: violation; needs a :class:`~repro.network.node.DetectionLog`
    #: wired into the monitor (``detections=``).  ``None`` disables.
    max_flag_latency: "float | None" = 200.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_sample_fill <= 1.0:
            raise ParameterError(
                f"min_sample_fill must lie in [0, 1], "
                f"got {self.min_sample_fill!r}")
        if self.drift_tol <= 0.0:
            raise ParameterError(
                f"drift_tol must be positive, got {self.drift_tol!r}")
        if self.max_staleness_ratio <= 0.0:
            raise ParameterError(
                f"max_staleness_ratio must be positive, "
                f"got {self.max_staleness_ratio!r}")

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return asdict(self)

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "HealthThresholds":
        """Rebuild thresholds from a :meth:`snapshot_state` dict."""
        return cls(**state)


# repro-lint: shard-state
@dataclass(frozen=True)
class ModelHealth:
    """One node's health report at one check."""

    node: int
    tick: int
    arrivals: int
    #: Active sample slots / ``|R|``.
    sample_fill: float
    #: Arrivals since the chain sample last accepted a value.
    sample_staleness: int
    #: Evictions per arrival since the previous check.
    eviction_rate: float
    #: Smallest sketched per-dimension deviation (NaN before data).
    sigma_min: float
    bandwidth_collapsed: bool
    #: Mean / max absolute probe-mass change vs the previous model
    #: (None until two distinct models have been probed).
    drift_l1: "float | None"
    drift_linf: "float | None"
    #: Codec round-trip error of the current model (None when unchecked).
    codec_error: "float | None"
    #: JS divergence parent vs merged children (None for leaves or when
    #: no child model is available).
    child_divergence: "float | None"
    #: Worst event-time -> flag latency (ticks) among this node's
    #: detections since the previous check (None without a wired
    #: :class:`~repro.network.node.DetectionLog` or without new flags).
    flag_latency_max: "int | None" = None
    #: Children beyond the ``max_child_staleness`` horizon.
    stale_children: "tuple[int, ...]" = ()
    violations: "tuple[str, ...]" = ()
    score: float = 1.0

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return asdict(self)

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ModelHealth":
        """Rebuild a report from a :meth:`snapshot_state` dict."""
        restored = dict(state)
        restored["stale_children"] = tuple(restored["stale_children"])
        restored["violations"] = tuple(restored["violations"])
        return cls(**restored)


@dataclass
class _NodeProbeState:
    """Per-node incremental bookkeeping between checks."""

    arrivals: int = 0
    evictions: int = 0
    #: Version (``model_seq``) of the last model whose probe vector was
    #: taken, so an unchanged cache is never re-probed -- also when the
    #: node's state is a copy (a D3 group member's) holding a new
    #: object for the same model.
    model_seq: int = -1
    vector: "np.ndarray | None" = None
    drift_l1: "float | None" = None
    drift_linf: "float | None" = None
    #: Largest L-inf drift seen over the monitor's lifetime.
    peak_drift: "float | None" = None
    drift_fresh: bool = False
    violation_counts: "dict[str, int]" = field(default_factory=dict)


def _score(violations: "tuple[str, ...]") -> float:
    penalty = sum(PENALTIES.get(v, 0.1) for v in violations)
    return max(0.0, min(1.0, 1.0 - penalty))


class HealthMonitor:
    """Per-node model-health checks over a running detector network.

    Parameters
    ----------
    nodes:
        ``node id -> behaviour`` as built by ``build_d3_network`` /
        ``build_mgdd_network``; any node exposing a ``state``
        (:class:`~repro.detectors._state.StreamModelState`) is
        monitored, others are skipped.
    hierarchy:
        Enables the parent-vs-aggregated-children divergence signal;
        omit it (None) to skip that check.
    thresholds:
        The SLO knobs (defaults: :class:`HealthThresholds`).
    n_probes / probe_radius / probe_seed:
        The fixed probe boxes for drift estimation: ``n_probes`` box
        centres drawn once from ``default_rng(probe_seed)`` per
        dimensionality, each extended by ``probe_radius`` and clipped to
        ``[0, 1]``.  Seeded and private, so monitoring perturbs nothing.
    on_violation:
        Optional callback ``(node_id, report)`` fired for every report
        with violations -- the hook point for the PR-3
        staleness/degradation machinery.
    detections:
        The network's shared :class:`~repro.network.node.DetectionLog`.
        When wired, each check drains the flags recorded since the
        previous one and gates their event-time -> flag latency against
        :attr:`HealthThresholds.max_flag_latency` (violation
        ``"latency"``).  Reading the log consumes nothing -- detection
        results are unchanged.
    """

    def __init__(self, nodes: "Mapping[int, object]",
                 hierarchy: "Hierarchy | None" = None, *,
                 thresholds: "HealthThresholds | None" = None,
                 n_probes: int = 16,
                 probe_radius: float = 0.05,
                 probe_seed: int = 0,
                 check_codec: bool = True,
                 on_violation: "Callable[[int, ModelHealth], None] | None" = None,
                 detections: "DetectionLog | None" = None,
                 ) -> None:
        if n_probes < 1:
            raise ParameterError(f"n_probes must be >= 1, got {n_probes}")
        if not 0.0 < probe_radius <= 0.5:
            raise ParameterError(
                f"probe_radius must lie in (0, 0.5], got {probe_radius!r}")
        self._nodes = dict(nodes)
        self._hierarchy = hierarchy
        self._thresholds = thresholds if thresholds is not None \
            else HealthThresholds()
        self._n_probes = n_probes
        self._probe_radius = probe_radius
        self._probe_seed = probe_seed
        self._check_codec = check_codec
        self._on_violation = on_violation
        self._detections = detections
        self._drained = 0
        self._probes: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        self._state: "dict[int, _NodeProbeState]" = {}
        self._last: "dict[int, ModelHealth]" = {}
        self._n_checks = 0

    # ------------------------------------------------------------------

    @property
    def thresholds(self) -> HealthThresholds:
        """The SLO thresholds in force."""
        return self._thresholds

    @property
    def n_checks(self) -> int:
        """Completed :meth:`check` sweeps."""
        return self._n_checks

    def last_reports(self) -> "dict[int, ModelHealth]":
        """The most recent per-node reports (empty before any check)."""
        return dict(self._last)

    def _probe_boxes(self, n_dims: int) -> "tuple[np.ndarray, np.ndarray]":
        boxes = self._probes.get(n_dims)
        if boxes is None:
            rng = np.random.default_rng(self._probe_seed + n_dims)
            centers = rng.uniform(0.0, 1.0, size=(self._n_probes, n_dims))
            lows = np.clip(centers - self._probe_radius, 0.0, 1.0)
            highs = np.clip(centers + self._probe_radius, 0.0, 1.0)
            boxes = self._probes[n_dims] = (lows, highs)
        return boxes

    def probe_vector(self, model: KernelDensityEstimator) -> np.ndarray:
        """Probe-box masses of ``model`` (the drift fingerprint)."""
        lows, highs = self._probe_boxes(model.n_dims)
        return np.asarray(model.range_probability(lows, highs), dtype=float)

    # ------------------------------------------------------------------

    def check(self, tick: int) -> "dict[int, ModelHealth]":
        """One health sweep over every monitored node at ``tick``."""
        latency_max = self._drain_latencies()
        reports: "dict[int, ModelHealth]" = {}
        # Each node's state is read once per sweep: a D3 group member's
        # is a copy rebuilt from its group's engine on every read.
        states = {node_id: getattr(node, "state", None)
                  for node_id, node in self._nodes.items()}
        for node_id in sorted(self._nodes):
            state = states[node_id]
            if state is None:
                continue
            report = self._check_node(node_id, state, states, tick,
                                      flag_latency=latency_max.get(node_id))
            reports[node_id] = report
            if report.violations and self._on_violation is not None:
                self._on_violation(node_id, report)
        self._last = reports
        self._n_checks += 1
        if obs.ACTIVE:
            obs.emit("health.check", tick=tick, n_nodes=len(reports))
        return reports

    def _drain_latencies(self) -> "dict[int, int]":
        """Worst per-node flag latency among detections since last check."""
        log = self._detections
        if log is None:
            return {}
        worst: "dict[int, int]" = {}
        detections = log.detections[self._drained:]
        latencies = log.latencies[self._drained:]
        self._drained += len(detections)
        for detection, latency in zip(detections, latencies):
            node = detection.node_id
            if node not in worst or latency > worst[node]:
                worst[node] = latency
        return worst

    def _check_node(self, node_id: int, state: object,
                    states: "dict[int, object]", tick: int, *,
                    flag_latency: "int | None" = None) -> ModelHealth:
        thresholds = self._thresholds
        probe = self._state.setdefault(node_id, _NodeProbeState())
        sample = state.sample                       # type: ignore[attr-defined]
        arrivals = int(state.arrivals)              # type: ignore[attr-defined]
        fill = len(sample) / sample.sample_size
        newest = sample.newest_active_timestamp()
        staleness = max(0, sample.timestamp - newest) \
            if sample.timestamp >= 0 and newest >= 0 else 0

        d_arrivals = arrivals - probe.arrivals
        d_evictions = int(sample.eviction_count) - probe.evictions
        eviction_rate = d_evictions / d_arrivals if d_arrivals > 0 else 0.0
        probe.arrivals = arrivals
        probe.evictions = int(sample.eviction_count)

        if arrivals > 1:
            sigma_min = float(np.min(
                state.sketch.std()))                # type: ignore[attr-defined]
        else:
            sigma_min = float("nan")
        collapsed = arrivals > 1 and sigma_min < thresholds.min_sigma

        # Drift: probe the cached model (a pure read -- model() could
        # rebuild and would perturb the run's rebuild schedule).
        model = state.cached_model                  # type: ignore[attr-defined]
        codec_error: "float | None" = None
        if model is not None:
            model_seq = int(state.model_seq)        # type: ignore[attr-defined]
            if model_seq != probe.model_seq:
                vector = self.probe_vector(model)
                if probe.vector is not None:
                    delta = np.abs(vector - probe.vector)
                    probe.drift_l1 = float(delta.mean())
                    probe.drift_linf = float(delta.max())
                    if probe.peak_drift is None \
                            or probe.drift_linf > probe.peak_drift:
                        probe.peak_drift = probe.drift_linf
                    probe.drift_fresh = True
                probe.model_seq = model_seq
                probe.vector = vector
            else:
                probe.drift_fresh = False
            if self._check_codec:
                codec_error = self._codec_error(model)
        else:
            probe.drift_fresh = False

        child_divergence, stale_children = self._parent_signals(
            node_id, model, states, tick)

        violations: "list[str]" = []
        if collapsed:
            violations.append("bandwidth-collapse")
        if arrivals >= sample.sample_size and fill < thresholds.min_sample_fill:
            violations.append("sample-underfull")
        if staleness > thresholds.max_staleness_ratio * sample.window_size:
            violations.append("sample-stale")
        if eviction_rate > thresholds.max_eviction_rate:
            violations.append("eviction-rate")
        drifted = probe.drift_linf is not None \
            and probe.drift_linf >= thresholds.drift_tol
        if drifted:
            violations.append("drift")
        if (codec_error is not None
                and thresholds.max_codec_error is not None
                and codec_error > thresholds.max_codec_error):
            violations.append("codec-error")
        if (child_divergence is not None
                and thresholds.divergence_tol is not None
                and child_divergence > thresholds.divergence_tol):
            violations.append("child-divergence")
        if stale_children:
            violations.append("child-stale")
        if (flag_latency is not None
                and thresholds.max_flag_latency is not None
                and flag_latency > thresholds.max_flag_latency):
            violations.append("latency")

        report = ModelHealth(
            node=node_id, tick=tick, arrivals=arrivals,
            sample_fill=fill, sample_staleness=staleness,
            eviction_rate=eviction_rate, sigma_min=sigma_min,
            bandwidth_collapsed=collapsed,
            drift_l1=probe.drift_l1, drift_linf=probe.drift_linf,
            codec_error=codec_error, child_divergence=child_divergence,
            flag_latency_max=flag_latency,
            stale_children=tuple(stale_children),
            violations=tuple(violations),
            score=_score(tuple(violations)))
        for violation in violations:
            probe.violation_counts[violation] = \
                probe.violation_counts.get(violation, 0) + 1
        if obs.ACTIVE:
            self._publish(report, drift_fresh=probe.drift_fresh and drifted)
        return report

    def _codec_error(self, model: KernelDensityEstimator) -> "float | None":
        """Round-trip error the 16-bit codec would add to this model."""
        sample = np.clip(model.sample, 0.0, 1.0)
        stddev = model.stddev
        if stddev is None:
            return None     # bandwidth-only model; the codec ships sigma
        if np.any(stddev < 0.0) or np.any(stddev > 1.0):
            return None     # out of the codec's fixed-point range
        try:
            payload = encode_model_state(sample, stddev, model.window_size)
            decoded_sample, decoded_std, _ = decode_model_state(payload)
        except ParameterError:
            return None     # model shape the radio codec cannot carry
        return float(max(np.abs(decoded_sample - sample).max(initial=0.0),
                         np.abs(decoded_std - stddev).max(initial=0.0)))

    def _parent_signals(self, node_id: int,
                        model: "KernelDensityEstimator | None",
                        states: "dict[int, object]",
                        tick: int) -> "tuple[float | None, list[int]]":
        """Child-model divergence and stale children for a parent node."""
        stale_children: "list[int]" = []
        node = self._nodes[node_id]
        horizon = self._thresholds.max_child_staleness
        staleness_report = getattr(node, "child_staleness", None)
        if horizon is not None and callable(staleness_report):
            stale_children = [child for child, stale
                              in staleness_report(tick).items()
                              if stale > horizon]
        if self._hierarchy is None or model is None:
            return None, stale_children
        children = self._hierarchy.children_of(node_id)
        child_models = []
        for child in children:
            child_state = states.get(child)
            child_model = getattr(child_state, "cached_model", None)
            if child_model is not None:
                child_models.append(child_model)
        if not child_models:
            return None, stale_children
        merged = merge_estimators(child_models) if len(child_models) > 1 \
            else child_models[0]
        if merged.n_dims != model.n_dims:
            return None, stale_children
        return float(model_js_divergence(model, merged, grid_size=32)), \
            stale_children

    def _publish(self, report: ModelHealth, *, drift_fresh: bool) -> None:
        """Emit ``health.*`` events and gauges for one report."""
        obs.emit("health.node", node=report.node, tick=report.tick,
                 score=report.score, sample_fill=report.sample_fill,
                 drift_linf=report.drift_linf,
                 n_violations=len(report.violations))
        if drift_fresh and report.drift_l1 is not None \
                and report.drift_linf is not None:
            obs.emit("health.drift", node=report.node, tick=report.tick,
                     l1=report.drift_l1, linf=report.drift_linf)
        for violation in report.violations:
            obs.emit("health.slo_violation", node=report.node,
                     tick=report.tick, rule=violation)
        registry = obs.metrics()
        prefix = f"health.node.{report.node}"
        registry.gauge(f"{prefix}.score").set(report.score)
        registry.gauge(f"{prefix}.sample_fill").set(report.sample_fill)
        if report.drift_linf is not None:
            registry.gauge(f"{prefix}.drift_linf").set(report.drift_linf)
        if report.flag_latency_max is not None:
            registry.gauge(f"{prefix}.latency_max").set(
                float(report.flag_latency_max))
        if not np.isnan(report.sigma_min):
            registry.gauge(f"{prefix}.sigma_min").set(report.sigma_min)
        registry.counter("health.checks").inc()
        if report.violations:
            registry.counter("health.violations").inc(len(report.violations))

    # ------------------------------------------------------------------

    def summary(self) -> "dict[str, object]":
        """JSON-ready roll-up for ``network_stats['health']``."""
        per_node: "dict[str, object]" = {}
        for node_id, report in sorted(self._last.items()):
            probe = self._state.get(node_id, _NodeProbeState())
            per_node[str(node_id)] = {
                "score": report.score,
                "drift_linf": report.drift_linf,
                "peak_drift": probe.peak_drift,
                "violations": dict(sorted(
                    probe.violation_counts.items())),
            }
        scores = [report.score for report in self._last.values()]
        return {
            "n_checks": self._n_checks,
            "n_nodes": len(self._last),
            "min_score": min(scores) if scores else None,
            "mean_score": float(np.mean(scores)) if scores else None,
            "nodes": per_node,
        }
