"""D3 -- Distributed Deviation Detection (paper Section 7, Figure 4).

Leaves maintain the Section 5 estimator state over their own stream and
check *every* reading against their local model (``IsOutlier``).  Values
that enter the local sample are forwarded to the parent with probability
``f``; flagged values are always escalated.  Parents maintain the same
estimator state over the forwarded stream -- which approximates a uniform
sample of the union of their children's windows -- and re-check only the
escalated candidates (Theorem 3: a parent-level outlier must be an
outlier at some child), escalating again on confirmation.

Leaves that a simulator feeds epoch by epoch for the whole run share a
:class:`D3LeafGroup`: one cross-stream
:class:`~repro.engine.core.DetectorEngine` over their columns, so an
epoch costs one chain-sample pass, one sketch pass, one model check per
due tick and one stacked Eq. 5 call for all of them.  A leaf outside
the group (one with a crash window) keeps its own state and runs the
per-reading path.

Scaling note: a node's neighbourhood counts are scaled by the number of
values its conceptual window holds (``|W|`` under the default "fixed"
semantics, ``l x |W|`` under "union"; see :class:`D3Config`), while its
chain sample stays uniform over its own *arrival* stream, whose
per-window volume is derived in :func:`expected_parent_arrival_window`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError, SimulationError
from repro._rng import resolve_rng, spawn_rngs
from repro._validation import (
    require_fraction,
    require_positive_int,
)
from repro.core.kernels import EPANECHNIKOV, Kernel
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import ChildStalenessTracker, StreamModelState
from repro.engine.core import DetectorEngine
from repro.network.messages import Message, OutlierReport, ValueForward
from repro.network.node import Detection, DetectionLog, Outgoing
from repro.network.topology import Hierarchy

if TYPE_CHECKING:
    from repro.detectors.mgdd import MGDDConfig

__all__ = ["D3Config", "D3LeafGroup", "D3LeafNode", "D3ParentNode",
           "build_d3_network", "expected_parent_arrival_window"]


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


def expected_parent_arrival_window(
        n_children: int, config: "D3Config | MGDDConfig") -> int:
    """A parent's window length measured in forwarded arrivals.

    Every node replaces sample slots and forwards each replacement
    upward with probability ``f``.  Under ``"fixed"`` parent windows the
    forwarding rates telescope so that any leader's window period spans
    about ``f * |R|`` of its arrivals, independent of fan-out; under
    ``"union"`` windows the span is ``c * f * |R|`` for ``c`` children.
    ``config`` is a D3 or an MGDD config; only its ``sample_fraction``,
    ``sample_size`` and ``parent_window`` are read.
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


class D3LeafGroup:
    """The D3 leaves of one network that ingest as one engine.

    :func:`build_d3_network` gives all its leaves one group.  A leaf
    joins it (:meth:`D3LeafNode.join_batch`) when a simulator will feed
    it through the group protocol for the whole run; membership is then
    fixed.  The group's state is one
    :class:`~repro.engine.core.DetectorEngine` over the members'
    columns, built on first use from each member's own generator, so
    every spawn key and draw is the one the leaf's own
    :class:`~repro.detectors._state.StreamModelState` would make.

    Each member stages its epoch block (:meth:`D3LeafNode.on_readings`);
    once all have, one :meth:`~repro.engine.core.DetectorEngine.ingest`
    runs Figure 4's lines 12-19 for every member: chain sample, sketch,
    change-driven model and the Eq. 5 count.  The group keeps each
    member's sample forward (one forward-gate draw per arrival that
    replaced a slot, in arrival order, from the leaf's own gate
    substream) and its flag (count and the model version consulted)
    until :meth:`D3LeafNode.on_tick_start` emits them at their tick.
    """

    def __init__(self, config: D3Config, n_dims: int) -> None:
        self._config = config
        self._n_dims = n_dims
        self._members: "list[D3LeafNode]" = []
        self._engine: "DetectorEngine | None" = None
        #: member row -> its staged epoch block, until all have staged.
        self._staged: "dict[int, np.ndarray]" = {}
        self._start = 0
        #: (member row, tick) -> (forwarded value or None,
        #: (value, count, model_seq) of a flagged reading or None).
        self._due: "dict[tuple[int, int], tuple]" = {}

    def join(self, leaf: "D3LeafNode") -> int:
        """Add ``leaf`` to the group; return its row in the engine."""
        if leaf in self._members:
            return self._members.index(leaf)
        if self._engine is not None:
            raise SimulationError(
                f"leaf {leaf.node_id} cannot join a group that has "
                "started ingesting")
        self._members.append(leaf)
        return len(self._members) - 1

    @property
    def engine(self) -> DetectorEngine:
        """The members' engine (built from their generators on first use)."""
        if self._engine is None:
            config = self._config
            self._engine = DetectorEngine(
                len(self._members), config.spec,
                window_size=config.window_size,
                sample_size=config.sample_size, n_dims=self._n_dims,
                warmup=config.effective_warmup,
                model_refresh=config.model_refresh, epsilon=config.epsilon,
                kernel=config.kernel,
                rng=[leaf._rng for leaf in self._members])
        return self._engine

    def stage(self, row: int, values: np.ndarray, start_tick: int) -> None:
        """Stage member ``row``'s block; ingest once every member has."""
        block = np.asarray(values, dtype=float).reshape(-1, self._n_dims)
        if not self._staged:
            self._start = start_tick
        elif start_tick != self._start \
                or block.shape != next(iter(self._staged.values())).shape:
            raise SimulationError(
                "group members must stage the same ticks in one epoch")
        self._staged[row] = block
        if len(self._staged) == len(self._members):
            staged, self._staged = self._staged, {}
            self._ingest(np.stack([staged[r] for r in range(len(staged))],
                                  axis=1))

    def _ingest(self, block: np.ndarray) -> None:
        """One engine pass over the ``(n_ticks, members, d)`` block."""
        engine = self.engine
        start = self._start
        engine.ingest(block)
        due = self._due
        fraction = self._config.sample_fraction
        replaced = engine.last_accepted.any(axis=2)
        for row, leaf in enumerate(self._members):
            if leaf._parent is None:
                continue
            arrivals = np.flatnonzero(replaced[row])
            if not arrivals.size:
                continue
            gates = leaf._forward_rng.random(arrivals.size) < fraction
            for t in arrivals[gates].tolist():
                due[(row, start + t)] = (block[t, row].copy(), None)
        for flag in engine.last_flags:
            row, tick = flag["stream"], flag["tick"]
            forward = due.get((row, tick), (None, None))[0]
            due[(row, tick)] = (forward, (block[tick - start, row].copy(),
                                          flag["score"], flag["model_seq"]))

    def take(self, row: int, tick: int) -> "tuple | None":
        """Member ``row``'s staged (forward, flag) for ``tick``, if any."""
        return self._due.pop((row, tick), None)


class D3LeafNode:
    """LeafProcess of Figure 4 (lines 11-20).

    A leaf that joined its :class:`D3LeafGroup` ingests through the
    group's engine (:meth:`on_readings` / :meth:`on_tick_start`); any
    other leaf keeps its own :class:`StreamModelState` and handles one
    reading at a time (:meth:`on_reading`).  Both paths make the same
    draws and decisions: ``neighborhood_count``'s single-box count
    equals the group's stacked count bit for bit.
    """

    def __init__(self, node_id: int, parent: "int | None", level: int,
                 config: D3Config, n_dims: int, log: DetectionLog,
                 rng: np.random.Generator,
                 group: "D3LeafGroup | None" = None) -> None:
        self.node_id = node_id
        self._parent = parent
        self._level = level
        self._config = config
        self._n_dims = n_dims
        self._log = log
        self._rng = rng
        # Forward gates draw from a dedicated substream so the group and
        # the per-reading path consume it in the same order.
        self._forward_rng = spawn_rngs(rng, 1)[0]
        self._group = group if group is not None \
            else D3LeafGroup(config, n_dims)
        #: Row in the group's engine once joined.
        self._row: "int | None" = None
        #: The per-reading path's own state, built on its first reading
        #: (so the generator is spawned from once, by one of the paths).
        self._state: "StreamModelState | None" = None
        #: Ticks of readings this leaf flagged (inspection/testing aid).
        self.flagged_ticks: "list[int]" = []

    @property
    def state(self) -> "StreamModelState | None":
        """The node's estimator state (for memory accounting).

        A group member's is copied out of the group's engine
        (:meth:`~repro.engine.core.DetectorEngine.stream_state`); a
        leaf that has not read on either path has none yet.
        """
        if self._row is not None:
            return self._group.engine.stream_state(self._row)
        return self._state

    def _new_state(self, rng: np.random.Generator) -> StreamModelState:
        config = self._config
        return StreamModelState(
            config.window_size, config.sample_size, self._n_dims,
            epsilon=config.epsilon, model_refresh=config.model_refresh,
            kernel=config.kernel, rng=rng)

    def join_batch(self) -> None:
        """Ingest through the leaf's group for the rest of the run."""
        if self._state is not None:
            raise SimulationError(
                f"leaf {self.node_id} already keeps its own state")
        self._row = self._group.join(self)

    def on_reading(self, value: np.ndarray, tick: int) -> "list[Outgoing]":
        """Process one sensor reading (Figure 4, lines 12-19)."""
        if self._row is not None:
            raise SimulationError(
                f"leaf {self.node_id} ingests through its group")
        if self._state is None:
            self._state = self._new_state(self._rng)
        state = self._state
        out: "list[Outgoing]" = []
        changed = state.observe(value)
        # The window fills over the first |W| ticks.
        state.count_window_size = min(tick + 1, self._config.window_size)
        if changed and self._parent is not None \
                and self._forward_rng.random() < self._config.sample_fraction:
            out.append((self._parent, ValueForward(value=np.array(value, dtype=float))))
        if tick >= self._config.effective_warmup:
            model = state.model()
            if model is not None:
                count = float(model.neighborhood_count(
                    value, self._config.spec.radius))
                if count < self._config.spec.count_threshold:
                    out.extend(self._flag(tick, np.array(value, dtype=float),
                                          count, state.model_seq))
        return out

    def on_readings(self, values: np.ndarray, start_tick: int) -> None:
        """Stage an epoch of readings into the leaf's group.

        Row ``i`` of ``values`` is the reading at ``start_tick + i``.
        The group ingests once all its members have staged; the
        resulting forwards and flags come out of :meth:`on_tick_start`
        at their ticks.
        """
        if self._row is None:
            raise SimulationError(
                f"leaf {self.node_id} has not joined its group")
        self._group.stage(self._row, values, start_tick)

    def on_tick_start(self, tick: int) -> "list[Outgoing]":
        """Emit the forward and the flag (logged) the group staged for
        ``tick``, in that order, as :meth:`on_reading` would."""
        staged = self._group.take(self._row, tick)
        if staged is None:
            return []
        forward, flag = staged
        out: "list[Outgoing]" = []
        if forward is not None:
            out.append((self._parent, ValueForward(value=forward)))
        if flag is not None:
            out.extend(self._flag(tick, *flag))
        return out

    def _flag(self, tick: int, value: np.ndarray, count: float,
              model_seq: int) -> "list[Outgoing]":
        """Log a flagged reading and escalate it (Figure 4, line 18)."""
        self._log.record(
            Detection(tick=tick, node_id=self.node_id, level=self._level,
                      origin=self.node_id, value=value),
            prob=count,
            threshold=float(self._config.spec.count_threshold),
            model_seq=model_seq)
        self.flagged_ticks.append(tick)
        if self._parent is None:
            return []
        return [(self._parent, OutlierReport(
            value=np.array(value, dtype=float), origin=self.node_id,
            flagged_level=self._level, tick=tick))]

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
            # The gate draws from the generator the chain sample's
            # acceptance draws use, interleaved with them arrival by arrival.
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
    The leaves share one :class:`D3LeafGroup`.
    """
    root = resolve_rng(rng)
    log = DetectionLog(n_levels=len(hierarchy.levels))
    group = D3LeafGroup(config, n_dims)
    nodes: "dict[int, D3LeafNode | D3ParentNode]" = {}
    for level_idx, tier in enumerate(hierarchy.levels):
        for node_id in tier:
            child_rng = np.random.default_rng(root.integers(2**63))
            parent = hierarchy.parent_of(node_id)
            if level_idx == 0:
                nodes[node_id] = D3LeafNode(
                    node_id, parent, level_idx + 1, config, n_dims, log,
                    child_rng, group)
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
