"""D3 -- Distributed Deviation Detection (paper Section 7, Figure 4).

Leaves maintain the Section 5 estimator state over their own stream and
check *every* reading against their local model (``IsOutlier``).  Values
that enter the local sample are forwarded to the parent with probability
``f``; flagged values are always escalated.  Parents maintain the same
estimator state over the forwarded stream -- which approximates a uniform
sample of the union of their children's windows -- and re-check only the
escalated candidates (Theorem 3: a parent-level outlier must be an
outlier at some child), escalating again on confirmation.

Scaling note: a node's neighbourhood counts are scaled by the number of
values its conceptual window holds (``|W|`` under the default "fixed"
semantics, ``l x |W|`` under "union"; see :class:`D3Config`), while its
chain sample stays uniform over its own *arrival* stream, whose
per-window volume is derived in :func:`expected_parent_arrival_window`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng
from repro._validation import (
    require_fraction,
    require_positive_int,
)
from repro.core.kernels import EPANECHNIKOV, Kernel
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import (
    ChildStalenessTracker,
    StreamModelState,
    model_chunks,
)
from repro.network.messages import Message, OutlierReport, ValueForward
from repro.network.node import Detection, DetectionLog, Outgoing
from repro.network.topology import Hierarchy

__all__ = ["D3Config", "D3LeafNode", "D3ParentNode", "build_d3_network",
           "expected_parent_arrival_window"]


@dataclass(frozen=True)
class D3Config:
    """Parameters of a D3 deployment (defaults follow Section 10.2).

    ``parent_window`` selects the semantics of a leader's sliding window:

    * ``"fixed"`` (default): every leader keeps the most recent ``|W|``
      values of its children's combined stream, so the outlier threshold
      ``t`` means the same density at every level.  This matches the
      paper's reported behaviour (outlier populations of 40-80 at every
      level, precision improving up the hierarchy).
    * ``"union"``: a leader's window is the union of its children's full
      windows (``l x |W|`` values), the literal ``W_p`` of Theorem 3.
    """

    spec: DistanceOutlierSpec
    window_size: int = 10_000
    sample_size: int = 500           # |R| = 0.05 |W| by default
    sample_fraction: float = 0.5     # f
    epsilon: float = 0.2             # variance-sketch accuracy
    warmup: int | None = None        # ticks before nodes start flagging
    model_refresh: int = 16
    kernel: Kernel = EPANECHNIKOV
    parent_window: str = "fixed"
    #: Fault tolerance (docs/FAULT_MODEL.md): parents exclude children
    #: silent for more than this many ticks from their window-size
    #: scaling, so survivors' counts stay calibrated while crashed
    #: subtrees are down.  None (default) disables the exclusion --
    #: behaviour is then identical to a fault-free deployment.
    staleness_horizon: "int | None" = None

    def __post_init__(self) -> None:
        require_positive_int("window_size", self.window_size)
        require_positive_int("sample_size", self.sample_size)
        require_fraction("sample_fraction", self.sample_fraction)
        if self.sample_size > self.window_size:
            raise ParameterError("sample_size cannot exceed window_size")
        if self.parent_window not in ("fixed", "union"):
            raise ParameterError(
                f"parent_window must be 'fixed' or 'union', "
                f"got {self.parent_window!r}")
        if self.staleness_horizon is not None:
            require_positive_int("staleness_horizon", self.staleness_horizon)

    @property
    def effective_warmup(self) -> int:
        """Ticks before detection starts (defaults to a full window)."""
        return self.window_size if self.warmup is None else self.warmup


def expected_parent_arrival_window(n_children: int, config: D3Config) -> int:
    """A parent's window length measured in forwarded arrivals.

    Every node replaces sample slots and forwards each replacement
    upward with probability ``f``.  Under ``"fixed"`` parent windows the
    forwarding rates telescope so that any leader's window period spans
    about ``f * |R|`` of its arrivals, independent of fan-out; under
    ``"union"`` windows the span is ``c * f * |R|`` for ``c`` children.
    """
    if config.parent_window == "fixed":
        expected = int(round(config.sample_fraction * config.sample_size))
    else:
        expected = int(round(
            n_children * config.sample_fraction * config.sample_size))
    # Never let the chain window drop below the slot count: a window
    # shorter than |R| degenerates the sample into duplicates of a few
    # recent values.  Trading a slightly longer effective window for a
    # well-conditioned sample is the right call on near-stationary data.
    return max(2, config.sample_size, expected)


class D3LeafNode:
    """LeafProcess of Figure 4 (lines 11-20)."""

    def __init__(self, node_id: int, parent: "int | None", level: int,
                 config: D3Config, n_dims: int, log: DetectionLog,
                 rng: np.random.Generator) -> None:
        self.node_id = node_id
        self._parent = parent
        self._level = level
        self._config = config
        self._log = log
        self._rng = rng
        # Forward gates draw from a dedicated substream so the batched
        # and per-tick ingestion paths consume it in the same order
        # (spawned, so the node's own generator is not advanced).
        try:
            self._forward_rng = rng.spawn(1)[0]
        except (AttributeError, TypeError):
            self._forward_rng = np.random.default_rng(
                int(rng.integers(2**63)))
        self._state = StreamModelState(
            config.window_size, config.sample_size, n_dims,
            epsilon=config.epsilon, model_refresh=config.model_refresh,
            kernel=config.kernel, rng=rng)
        #: Detections computed by a batched epoch, awaiting their tick:
        #: tick -> (value, neighbourhood count, model_seq consulted).
        self._pending: "dict[int, tuple[np.ndarray, float, int]]" = {}
        #: Ticks of readings this leaf flagged (inspection/testing aid).
        self.flagged_ticks: "list[int]" = []

    @property
    def state(self) -> StreamModelState:
        """The node's estimator state (for memory accounting)."""
        return self._state

    def on_reading(self, value: np.ndarray, tick: int) -> "list[Outgoing]":
        """Process one sensor reading (Figure 4, lines 12-19)."""
        out: "list[Outgoing]" = []
        changed = self._state.observe(value)
        # The window fills over the first |W| ticks.
        self._state.count_window_size = min(tick + 1, self._config.window_size)
        if changed and self._parent is not None \
                and self._forward_rng.random() < self._config.sample_fraction:
            out.append((self._parent, ValueForward(value=np.array(value, dtype=float))))
        if tick >= self._config.effective_warmup:
            model = self._state.model()
            if model is not None:
                count = float(np.asarray(
                    model.neighborhood_count(value, self._config.spec.radius)).reshape(()))
                if count < self._config.spec.count_threshold:
                    self._log.record(
                        Detection(
                            tick=tick, node_id=self.node_id,
                            level=self._level, origin=self.node_id,
                            value=np.array(value, dtype=float)),
                        prob=count,
                        threshold=float(self._config.spec.count_threshold),
                        model_seq=self._state.model_seq)
                    self.flagged_ticks.append(tick)
                    if self._parent is not None:
                        out.append((self._parent, OutlierReport(
                            value=np.array(value, dtype=float),
                            origin=self.node_id, flagged_level=self._level,
                            tick=tick)))
        return out

    def on_readings(self, values: np.ndarray,
                    start_tick: int) -> "list[list[Outgoing]]":
        """Ingest an epoch of readings at once; return outgoing per tick.

        Produces the same chain sample, forwards and detections as
        calling :meth:`on_reading` for each tick in order (ingestion and
        detection are vectorised; see
        :meth:`repro.detectors._state.StreamModelState.observe_many`).
        Detections are staged in ``_pending`` and emitted -- logged, in
        tick order -- by :meth:`on_tick_start`.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        n = vals.shape[0]
        per_tick: "list[list[Outgoing]]" = [[] for _ in range(n)]
        window = self._config.window_size
        for i, j, due in model_chunks(n, start_tick,
                                      self._config.effective_warmup,
                                      self._state.arrivals_until_check):
            changed = self._state.observe_many(vals[i:j])
            self._queue_forwards(changed, vals, per_tick, i)
            self._state.count_window_size = min(start_tick + j, window)
            if due is None:
                continue
            cached = self._state.cached_model
            cached_seq = self._state.model_seq
            if not due:
                if cached is not None:
                    self._flag_batch(cached, vals, start_tick, i, j - i,
                                     cached_seq)
                continue
            model = self._state.model()
            if model is cached and model is not None:
                self._flag_batch(model, vals, start_tick, i, j - i,
                                 cached_seq)
                continue
            if j - i > 1 and cached is not None:
                self._flag_batch(cached, vals, start_tick, i, j - i - 1,
                                 cached_seq)
            if model is not None:
                self._flag_batch(model, vals, start_tick, j - 1, 1,
                                 self._state.model_seq)
        return per_tick

    def on_tick_start(self, tick: int) -> "list[Outgoing]":
        """Emit (and log) any detection staged for ``tick`` by a batch."""
        staged = self._pending.pop(tick, None)
        if staged is None:
            return []
        value, count, model_seq = staged
        self._log.record(
            Detection(tick=tick, node_id=self.node_id, level=self._level,
                      origin=self.node_id, value=value),
            prob=count,
            threshold=float(self._config.spec.count_threshold),
            model_seq=model_seq)
        self.flagged_ticks.append(tick)
        if self._parent is not None:
            return [(self._parent, OutlierReport(
                value=np.array(value, dtype=float), origin=self.node_id,
                flagged_level=self._level, tick=tick))]
        return []

    def _queue_forwards(self, changed: np.ndarray,
                        vals: np.ndarray, per_tick: "list[list[Outgoing]]",
                        offset: int) -> None:
        """Stage sample forwards for each arrival that replaced a slot."""
        if self._parent is None:
            return
        fraction = self._config.sample_fraction
        for j, replaced in enumerate(changed.any(axis=1).tolist()):
            if replaced and self._forward_rng.random() < fraction:
                per_tick[offset + j].append((self._parent, ValueForward(
                    value=vals[offset + j].copy())))

    def _flag_batch(self, model, vals: np.ndarray, start_tick: int,
                    offset: int, count: int, model_seq: int) -> None:
        """Run the distance test on a chunk sharing one model."""
        points = vals[offset:offset + count]
        radius = self._config.spec.radius
        counts = model._range_probability_batch(
            points - radius, points + radius) * model.window_size
        threshold = self._config.spec.count_threshold
        for j in range(count):
            if counts[j] < threshold:
                self._pending[start_tick + offset + j] = (
                    points[j].copy(), float(counts[j]), model_seq)

    def on_message(self, message: Message, sender: int,
                   tick: int) -> "list[Outgoing]":
        """Leaves receive no messages under D3."""
        return []


class D3ParentNode:
    """ParentProcess of Figure 4 (lines 21-31)."""

    def __init__(self, node_id: int, parent: "int | None", level: int,
                 n_children: int, n_leaves_under: int,
                 config: D3Config, n_dims: int, log: DetectionLog,
                 rng: np.random.Generator, *,
                 children_leaf_counts: "Mapping[int, int] | None" = None) -> None:
        self.node_id = node_id
        self._parent = parent
        self._level = level
        self._n_leaves_under = n_leaves_under
        self._config = config
        self._log = log
        self._rng = rng
        arrival_window = expected_parent_arrival_window(n_children, config)
        self._state = StreamModelState(
            arrival_window, config.sample_size, n_dims,
            epsilon=config.epsilon, model_refresh=config.model_refresh,
            kernel=config.kernel, rng=rng)
        self._staleness = ChildStalenessTracker(children_leaf_counts)

    @property
    def state(self) -> StreamModelState:
        """The node's estimator state (for memory accounting)."""
        return self._state

    def child_staleness(self, tick: int) -> "dict[int, int]":
        """Ticks since each direct child was last heard from."""
        return self._staleness.staleness(tick)

    def _active_leaves(self, tick: int) -> int:
        """Leaves feeding this node's window, per the staleness horizon."""
        horizon = self._config.staleness_horizon
        if horizon is None:
            return self._n_leaves_under
        return max(1, self._staleness.active_leaf_count(tick, horizon))

    def on_reading(self, value: np.ndarray, tick: int) -> "list[Outgoing]":
        """Leaders have no sensor stream of their own in this deployment."""
        return []

    def on_message(self, message: Message, sender: int,
                   tick: int) -> "list[Outgoing]":
        """Handle forwarded samples and escalated outliers (lines 22-30)."""
        out: "list[Outgoing]" = []
        self._staleness.mark(sender, tick)   # any upward traffic = alive
        if isinstance(message, ValueForward):
            changed = self._state.observe(message.value)
            leaves = self._active_leaves(tick)
            if self._config.parent_window == "fixed":
                # Most recent |W| values of the combined children stream.
                self._state.count_window_size = min(
                    (tick + 1) * leaves, self._config.window_size)
            else:
                # Union of the full leaf windows below (Theorem 3's W_p).
                self._state.count_window_size = (
                    min(tick + 1, self._config.window_size) * leaves)
            if changed and self._parent is not None \
                    and self._rng.random() < self._config.sample_fraction:
                out.append((self._parent, message))
        elif isinstance(message, OutlierReport):
            if tick >= self._config.effective_warmup:
                model = self._state.model()
                if model is not None:
                    count = float(np.asarray(model.neighborhood_count(
                        message.value, self._config.spec.radius)).reshape(()))
                    flagged = count < self._config.spec.count_threshold
                    if obs.ACTIVE:
                        obs.emit("detector.check", node=self.node_id,
                                 level=self._level, origin=message.origin,
                                 flagged=flagged, tick=tick,
                                 reading_tick=message.tick)
                    if flagged:
                        self._log.record(
                            Detection(
                                tick=message.tick, node_id=self.node_id,
                                level=self._level, origin=message.origin,
                                value=message.value),
                            flag_tick=tick,
                            prob=count,
                            threshold=float(
                                self._config.spec.count_threshold),
                            model_seq=self._state.model_seq)
                        if self._parent is not None:
                            out.append((self._parent, OutlierReport(
                                value=message.value, origin=message.origin,
                                flagged_level=self._level, tick=message.tick)))
        return out


@dataclass
class D3Network:
    """The node behaviours plus the shared detection log of a D3 deployment."""

    nodes: "dict[int, D3LeafNode | D3ParentNode]"
    log: DetectionLog = field(default_factory=DetectionLog)


def build_d3_network(hierarchy: Hierarchy, config: D3Config, n_dims: int, *,
                     rng: np.random.Generator | None = None) -> D3Network:
    """Instantiate D3 behaviours for every node of ``hierarchy``.

    Per-node RNGs are derived from ``rng`` so runs are reproducible.
    """
    root = resolve_rng(rng)
    log = DetectionLog(n_levels=len(hierarchy.levels))
    nodes: "dict[int, D3LeafNode | D3ParentNode]" = {}
    for level_idx, tier in enumerate(hierarchy.levels):
        for node_id in tier:
            child_rng = np.random.default_rng(root.integers(2**63))
            parent = hierarchy.parent_of(node_id)
            if level_idx == 0:
                nodes[node_id] = D3LeafNode(
                    node_id, parent, level_idx + 1, config, n_dims, log, child_rng)
            else:
                children = hierarchy.children_of(node_id)
                nodes[node_id] = D3ParentNode(
                    node_id, parent, level_idx + 1,
                    n_children=len(children),
                    n_leaves_under=len(hierarchy.leaves_under(node_id)),
                    config=config, n_dims=n_dims, log=log, rng=child_rng,
                    children_leaf_counts={
                        child: len(hierarchy.leaves_under(child))
                        for child in children})
    return D3Network(nodes=nodes, log=log)
