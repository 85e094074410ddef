"""MGDD -- Multi Granular Deviation Detection (paper Section 8, Figure 4).

MDEF-based outliers are non-decomposable (an outlier at a parent need not
be one at any child), so Theorem 3 does not apply and only leaf sensors
detect.  To judge deviations against an entire region's data, every leaf
keeps a copy of the region's *reference* estimator model: samples flow
up the hierarchy with probability ``f`` per hop, and whenever a
forwarded value enters the model-owning leader's kernel sample, the
change is flooded back down to that leader's leaves (Section 8.1).  By
default the single top-level leader owns one global model;
``MGDDConfig.model_level`` instead makes every leader of a chosen tier
own a regional model for its subtree (Example 1's "outliers at any
level of detail").

Two update policies are implemented:

* ``"incremental"`` (the default scheme of Section 8.1's first part):
  every change to the root's sample travels down as a small
  slot-replacement message;
* ``"lazy"`` (the Section 8.1 optimisation): the root re-broadcasts the
  *full* model only when its Jensen-Shannon distance from the last
  broadcast model exceeds a threshold, which saves messages while the
  underlying distribution is stationary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng, spawn_rngs
from repro._validation import require_fraction, require_positive_int
from repro.core.divergence import model_js_divergence
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, Kernel
from repro.core.mdef import MDEFOutlierDetector, MDEFSpec
from repro.detectors._state import (
    ChildStalenessTracker,
    StreamModelState,
    model_bandwidths,
)
from repro.detectors.d3 import expected_parent_arrival_window
from repro.network.messages import Message, ModelUpdate, ValueForward
from repro.network.node import Detection, DetectionLog, Outgoing
from repro.network.topology import Hierarchy

__all__ = ["MGDDConfig", "MGDDLeafNode", "MGDDLeaderNode", "build_mgdd_network"]


@dataclass(frozen=True)
class MGDDConfig:
    """Parameters of an MGDD deployment (defaults follow Section 10.2)."""

    spec: MDEFSpec
    window_size: int = 10_000
    sample_size: int = 500           # |R| = 0.05 |W| by default
    sample_fraction: float = 0.5     # f
    epsilon: float = 0.2
    warmup: int | None = None
    model_refresh: int = 16
    kernel: Kernel = EPANECHNIKOV
    update_policy: "Literal['incremental', 'lazy']" = "incremental"
    #: Lazy policy: re-broadcast when JS(current, last broadcast) exceeds this.
    lazy_threshold: float = 0.05
    #: Lazy policy: check the divergence once per this many sample changes.
    lazy_check_every: int = 16
    #: Global-window semantics, as in :class:`~repro.detectors.d3.D3Config`:
    #: "fixed" = the most recent |W| values across all sensors;
    #: "union" = the union of all leaf windows.
    parent_window: str = "fixed"
    #: Cap on the global model's kernel bandwidth.  MDEF probes density
    #: contrast at the counting-radius scale; Scott's rule driven by the
    #: *global* sigma oversmooths multimodal data far beyond that scale
    #: and erases exactly the voids MDEF looks for.  None = auto
    #: (2 x counting_radius); pass math.inf to disable.
    bandwidth_cap: "float | None" = None
    #: How intermediate leaders forward received samples upward:
    #: "bernoulli" -- with probability f, unconditionally (matches the
    #: paper's Section 8.1 description and its (f l)^n update
    #: accounting, and reproduces Figure 11's MGDD curve);
    #: "inclusion" -- only when the value also enters the leader's own
    #: chain sample (the literal reading of Figure 4's pseudocode).
    relay_policy: "Literal['bernoulli', 'inclusion']" = "bernoulli"
    #: The hierarchy level whose leaders own the reference model
    #: (Example 1: "we can choose to identify outliers at any level of
    #: detail").  None (default) = the top-level leader, i.e. one global
    #: model for the whole network; a smaller level makes each leader of
    #: that tier broadcast a *regional* model to its own subtree, so
    #: leaves judge deviations against their region instead.
    model_level: "int | None" = None
    #: Fault tolerance (docs/FAULT_MODEL.md): leaders exclude children
    #: silent for more than this many ticks from the global window-size
    #: scaling, and leaves stop trusting a mirrored global model whose
    #: last update is older than this (detection pauses rather than
    #: flagging against a reference the network can no longer refresh).
    #: None (default) disables both -- fault-free behaviour is identical.
    staleness_horizon: "int | None" = None

    def __post_init__(self) -> None:
        require_positive_int("window_size", self.window_size)
        require_positive_int("sample_size", self.sample_size)
        require_fraction("sample_fraction", self.sample_fraction)
        if self.sample_size > self.window_size:
            raise ParameterError("sample_size cannot exceed window_size")
        if self.update_policy not in ("incremental", "lazy"):
            raise ParameterError(
                f"update_policy must be 'incremental' or 'lazy', "
                f"got {self.update_policy!r}")
        require_fraction("lazy_threshold", self.lazy_threshold)
        require_positive_int("lazy_check_every", self.lazy_check_every)
        if self.parent_window not in ("fixed", "union"):
            raise ParameterError(
                f"parent_window must be 'fixed' or 'union', "
                f"got {self.parent_window!r}")
        if self.relay_policy not in ("bernoulli", "inclusion"):
            raise ParameterError(
                f"relay_policy must be 'bernoulli' or 'inclusion', "
                f"got {self.relay_policy!r}")
        if self.staleness_horizon is not None:
            require_positive_int("staleness_horizon", self.staleness_horizon)

    @property
    def effective_warmup(self) -> int:
        """Ticks before leaves start flagging (defaults to a full window)."""
        return self.window_size if self.warmup is None else self.warmup

    @property
    def effective_bandwidth_cap(self) -> float:
        """The bandwidth cap actually applied to the global model."""
        if self.bandwidth_cap is None:
            return 2.0 * self.spec.counting_radius
        return self.bandwidth_cap


class _GlobalModelCopy:
    """A leaf's mirror of the root's kernel sample and stddev (R_g, sigma_g)."""

    def __init__(self, sample_size: int, n_dims: int, kernel: Kernel,
                 bandwidth_cap: float) -> None:
        self._values = np.zeros((sample_size, n_dims))
        self._filled = np.zeros(sample_size, dtype=bool)
        self._stddev = np.zeros(n_dims)
        self._window_size = 1
        self._kernel = kernel
        self._bandwidth_cap = bandwidth_cap
        self._cached: KernelDensityEstimator | None = None
        self._model_seq = 0

    @property
    def model_seq(self) -> int:
        """Monotone merge counter: updates applied to this mirror.

        Observational only (never read by the decision path) -- it lets
        a detection cite which model version it was judged against.
        """
        return self._model_seq

    def apply(self, update: ModelUpdate) -> None:
        """Apply an incremental or full update; invalidate the cache."""
        if update.full_sample is not None:
            full = np.asarray(update.full_sample, dtype=float)
            n = min(full.shape[0], self._values.shape[0])
            self._values[:n] = full[:n]
            self._filled[:n] = True
        if update.value is not None:
            for slot in update.slots:
                if 0 <= slot < self._values.shape[0]:
                    self._values[slot] = update.value
                    self._filled[slot] = True
        self._stddev = np.asarray(update.stddev, dtype=float)
        if update.window_size > 0:
            self._window_size = update.window_size
        self._cached = None
        self._model_seq += 1

    def model(self) -> "KernelDensityEstimator | None":
        """The mirrored global model, or None while too sparse."""
        n_filled = int(self._filled.sum())
        if n_filled < max(2, self._values.shape[0] // 2):
            return None
        if self._cached is None:
            sample = self._values[self._filled]
            bandwidths = model_bandwidths(
                self._stddev, sample.shape[0], self._window_size, "sample",
                self._bandwidth_cap)
            self._cached = KernelDensityEstimator(
                sample, bandwidths=bandwidths,
                kernel=self._kernel, window_size=self._window_size)
        return self._cached

    def memory_words(self) -> int:
        """Footprint of the mirrored sample + stddev, in words."""
        return int(self._values.size) + int(self._stddev.size)


class MGDDLeafNode:
    """LeafProcess of the MGDD algorithm (Figure 4, right column)."""

    def __init__(self, node_id: int, parent: "int | None",
                 config: MGDDConfig, n_dims: int, log: DetectionLog,
                 rng: np.random.Generator) -> None:
        self.node_id = node_id
        self._parent = parent
        self._config = config
        self._log = log
        self._rng = rng
        # Forward gates draw from a dedicated substream, apart from the
        # chain sample's draws.
        self._forward_rng = spawn_rngs(rng, 1)[0]
        # Local sample/sketch: maintained for upward propagation (and for
        # the faulty-sensor application), not for local detection.
        self._state = StreamModelState(
            config.window_size, config.sample_size, n_dims,
            epsilon=config.epsilon, model_refresh=config.model_refresh,
            kernel=config.kernel, rng=rng)
        self._global = _GlobalModelCopy(config.sample_size, n_dims, config.kernel,
                                        config.effective_bandwidth_cap)
        self._last_update_tick: "int | None" = None
        self.flagged_ticks: "list[int]" = []
        # The MDEF detector over the current global-model copy, kept
        # until the copy changes so its cell-population table is filled
        # once per model.
        self._mdef: "MDEFOutlierDetector | None" = None

    @property
    def state(self) -> StreamModelState:
        """Local estimator state (for memory accounting / faulty-sensor app)."""
        return self._state

    @property
    def global_copy(self) -> _GlobalModelCopy:
        """The leaf's mirror of the global model."""
        return self._global

    def on_reading(self, value: np.ndarray, tick: int) -> "list[Outgoing]":
        """MGDD LeafProcess lines 10-14: propagate up, detect globally."""
        out: "list[Outgoing]" = []
        changed = self._state.observe(value)
        if changed and self._parent is not None \
                and self._forward_rng.random() < self._config.sample_fraction:
            out.append((self._parent, ValueForward(value=np.array(value, dtype=float))))
        if tick >= self._config.effective_warmup:
            self._detect(value, tick)
        return out

    def model_staleness(self, tick: int) -> int:
        """Ticks since the last ModelUpdate (never = ``tick + 1``)."""
        if self._last_update_tick is None:
            return tick + 1
        return tick - self._last_update_tick

    def _detect(self, value: np.ndarray, tick: int) -> None:
        """Check one reading against the global-model copy; log on flag."""
        horizon = self._config.staleness_horizon
        if horizon is not None and self.model_staleness(tick) > horizon:
            # The mirrored reference is too old to trust: the path to
            # the model source has been down longer than the horizon.
            # Pausing beats flagging against a frozen distribution.
            if obs.ACTIVE:
                obs.emit("detector.pause", node=self.node_id, tick=tick)
            return
        model = self._global.model()
        if model is not None:
            if self._mdef is None or self._mdef.model is not model:
                self._mdef = MDEFOutlierDetector(model, self._config.spec)
            decision = self._mdef.check(value)
            if decision.is_outlier:
                self._log.record(
                    Detection(
                        tick=tick, node_id=self.node_id, level=1,
                        origin=self.node_id,
                        value=np.array(value, dtype=float)),
                    prob=float(decision.mdef),
                    threshold=float(
                        self._config.spec.k_sigma * decision.sigma_mdef),
                    model_seq=self._global.model_seq,
                    staleness=self.model_staleness(tick))
                self.flagged_ticks.append(tick)

    def on_message(self, message: Message, sender: int,
                   tick: int) -> "list[Outgoing]":
        """MGDD LeafProcess lines 15-16: apply global-model updates."""
        if isinstance(message, ModelUpdate):
            self._global.apply(message)
            self._last_update_tick = tick
            if obs.ACTIVE:
                obs.emit("lineage.model_merge", node=self.node_id,
                         tick=tick, model_seq=self._global.model_seq)
        return []


class MGDDLeaderNode:
    """ParentProcess of the MGDD algorithm (Figure 4, lines 18-24).

    Intermediate leaders relay samples up and updates down; the leader
    owning the reference model for its subtree (the top-level leader by
    default, or every leader of ``config.model_level`` for regional
    models) additionally maintains that model's sample and decides when
    to send updates.
    """

    def __init__(self, node_id: int, parent: "int | None",
                 children: "tuple[int, ...]", n_children: int,
                 n_leaves_region: int, config: MGDDConfig, n_dims: int,
                 rng: np.random.Generator,
                 is_model_source: "bool | None" = None,
                 children_leaf_counts: "Mapping[int, int] | None" = None) -> None:
        self.node_id = node_id
        self._parent = parent
        self._children = children
        self._config = config
        self._rng = rng
        self._n_leaves_region = n_leaves_region
        self._staleness = ChildStalenessTracker(children_leaf_counts)
        arrival_window = expected_parent_arrival_window(n_children, config)
        self._state = StreamModelState(
            arrival_window, config.sample_size, n_dims,
            epsilon=config.epsilon, model_refresh=config.model_refresh,
            kernel=config.kernel, rng=rng)
        if is_model_source is None:
            is_model_source = parent is None
        self._is_model_source = is_model_source
        # Lazy policy bookkeeping (model sources only).
        self._changes_since_check = 0
        self._last_broadcast: KernelDensityEstimator | None = None
        #: Count of model-update floods initiated (sources only).
        self.updates_sent = 0

    @property
    def state(self) -> StreamModelState:
        """The leader's estimator state."""
        return self._state

    def on_reading(self, value: np.ndarray, tick: int) -> "list[Outgoing]":
        """Leaders have no sensor stream of their own in this deployment."""
        return []

    # ------------------------------------------------------------------

    def child_staleness(self, tick: int) -> "dict[int, int]":
        """Ticks since each direct child was last heard from."""
        return self._staleness.staleness(tick)

    def _active_leaves(self, tick: int) -> int:
        """Leaves feeding this region, per the staleness horizon."""
        horizon = self._config.staleness_horizon
        if horizon is None:
            return self._n_leaves_region
        return max(1, self._staleness.active_leaf_count(tick, horizon))

    def _global_window_size(self, tick: int) -> int:
        leaves = self._active_leaves(tick)
        if self._config.parent_window == "fixed":
            return min((tick + 1) * leaves, self._config.window_size)
        return min(tick + 1, self._config.window_size) * leaves

    def _broadcast_incremental(self, changed: "tuple[int, ...]",
                               value: np.ndarray, tick: int) -> "list[Outgoing]":
        update = ModelUpdate(
            stddev=self._state.sketch.std(), slots=changed,
            value=np.array(value, dtype=float),
            window_size=self._global_window_size(tick))
        self.updates_sent += 1
        if obs.ACTIVE:
            obs.emit("detector.model_update", node=self.node_id,
                     policy="incremental", full=False, tick=tick)
        return [(child, update) for child in self._children]

    def _maybe_broadcast_lazy(self, tick: int) -> "list[Outgoing]":
        self._changes_since_check += 1
        if self._changes_since_check < self._config.lazy_check_every:
            return []
        self._changes_since_check = 0
        current = self._state.model()
        if current is None:
            return []
        if self._last_broadcast is not None:
            distance = model_js_divergence(current, self._last_broadcast)
            if distance <= self._config.lazy_threshold:
                return []
        self._last_broadcast = current
        update = ModelUpdate(
            stddev=self._state.sketch.std(),
            full_sample=current.sample.copy(),
            window_size=self._global_window_size(tick))
        self.updates_sent += 1
        if obs.ACTIVE:
            obs.emit("detector.model_update", node=self.node_id,
                     policy="lazy", full=True, tick=tick)
        return [(child, update) for child in self._children]

    def on_message(self, message: Message, sender: int,
                   tick: int) -> "list[Outgoing]":
        """Relay samples upward; originate/relay model updates downward."""
        out: "list[Outgoing]" = []
        if isinstance(message, ValueForward):
            self._staleness.mark(sender, tick)   # upward traffic = alive
            changed = self._state.observe(message.value)
            if self._is_model_source:
                self._state.count_window_size = self._global_window_size(tick)
                if changed:
                    if self._config.update_policy == "incremental":
                        out.extend(self._broadcast_incremental(
                            changed, message.value, tick))
                    else:
                        out.extend(self._maybe_broadcast_lazy(tick))
            elif self._parent is not None:
                gate = True if self._config.relay_policy == "bernoulli" \
                    else bool(changed)
                # The gate draws from the generator the chain sample's
                # acceptance draws use, interleaved with them per arrival.
                if gate and self._rng.random() < self._config.sample_fraction:
                    out.append((self._parent, message))
        elif isinstance(message, ModelUpdate):
            # Flood the update toward the leaves.
            out.extend((child, message) for child in self._children)
        return out


@dataclass
class MGDDNetwork:
    """The node behaviours plus the shared detection log of an MGDD deployment."""

    nodes: "dict[int, MGDDLeafNode | MGDDLeaderNode]"
    log: DetectionLog = field(default_factory=DetectionLog)

    @property
    def root(self) -> MGDDLeaderNode:
        """The top-level leader."""
        for node in self.nodes.values():
            if isinstance(node, MGDDLeaderNode) and node._parent is None:
                return node
        raise ParameterError("network has no root leader")

    @property
    def model_sources(self) -> "list[MGDDLeaderNode]":
        """The leaders that own and broadcast a reference model."""
        return [node for node in self.nodes.values()
                if isinstance(node, MGDDLeaderNode) and node._is_model_source]


def build_mgdd_network(hierarchy: Hierarchy, config: MGDDConfig, n_dims: int, *,
                       rng: np.random.Generator | None = None) -> MGDDNetwork:
    """Instantiate MGDD behaviours for every node of ``hierarchy``.

    With ``config.model_level`` set, every leader of that tier owns the
    reference model for its subtree (regional detection); by default the
    single top-level leader owns one global model.
    """
    root_rng = resolve_rng(rng)
    log = DetectionLog(n_levels=hierarchy.n_levels)
    source_level = config.model_level if config.model_level is not None \
        else hierarchy.n_levels
    if not 2 <= source_level <= hierarchy.n_levels:
        raise ParameterError(
            f"model_level must be a leader tier in "
            f"[2, {hierarchy.n_levels}], got {source_level}")
    nodes: "dict[int, MGDDLeafNode | MGDDLeaderNode]" = {}
    for level_idx, tier in enumerate(hierarchy.levels):
        for node_id in tier:
            child_rng = np.random.default_rng(root_rng.integers(2**63))
            parent = hierarchy.parent_of(node_id)
            if level_idx == 0:
                nodes[node_id] = MGDDLeafNode(
                    node_id, parent, config, n_dims, log, child_rng)
            else:
                children = hierarchy.children_of(node_id)
                nodes[node_id] = MGDDLeaderNode(
                    node_id, parent, children,
                    n_children=len(children),
                    n_leaves_region=len(hierarchy.leaves_under(node_id)),
                    config=config, n_dims=n_dims, rng=child_rng,
                    is_model_source=(level_idx + 1 == source_level),
                    children_leaf_counts={
                        child: len(hierarchy.leaves_under(child))
                        for child in children})
    return MGDDNetwork(nodes=nodes, log=log)
