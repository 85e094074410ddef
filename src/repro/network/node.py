"""Node protocol and detection logging for the network simulator.

Concrete node behaviours (the D3, MGDD and centralized algorithms) live
in :mod:`repro.detectors`; this module defines the contract the
simulator drives them through, plus the shared detection log that
experiments read back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Tuple

import numpy as np

from repro import obs
from repro.network.messages import Message
from repro.obs.report import latency_stats

__all__ = ["SimNode", "Outgoing", "Detection", "DetectionLog"]

#: A message addressed to another node: (destination id, message).
Outgoing = Tuple[int, Message]


class SimNode(Protocol):
    """What the simulator requires of every node implementation.

    Leaves that share state may also implement the *group* protocol,
    which :meth:`~repro.network.simulator.NetworkSimulator.step_epoch`
    (and hence ``step``, ``run`` and ``run_batched``) drives:

    ``join_batch() -> None``
        Called once, when the simulator is built, on each leaf it will
        feed blocks for the whole run (every leaf with the method and
        no crash window in the run's fault plan).

    ``on_readings(values, start_tick) -> None``
        Stage an epoch of readings (shape ``(n, d)``, tick
        ``start_tick + i`` for row ``i``).  Leaves are handed their
        blocks in leaf order before the epoch's first tick, so the group
        ingests them together once the last has staged (see
        :class:`~repro.detectors.d3.D3LeafGroup`).

    ``on_tick_start(tick) -> list[Outgoing]``
        Called once per tick, in leaf order, before that tick's messages
        drain: the messages ``on_reading`` would return for the tick's
        reading (same RNG consumption included).
    """

    node_id: int

    def on_reading(self, value: np.ndarray, tick: int) -> "Iterable[Outgoing]":
        """Handle this node's own sensor reading (leaves only)."""
        ...

    def on_message(self, message: Message, sender: int,
                   tick: int) -> "Iterable[Outgoing]":
        """Handle a message from a neighbour; return messages to send."""
        ...


@dataclass(frozen=True)
class Detection:
    """One outlier flagged by some node during the simulation."""

    tick: int
    node_id: int
    level: int          # 1-based hierarchy level of the flagging node
    origin: int         # leaf that produced the reading
    value: np.ndarray


@dataclass
class DetectionLog:
    """Accumulates every outlier flagged anywhere in the network.

    ``latencies[i]`` is the event-time -> flag-time tick delta of
    ``detections[i]`` -- 0 when a node flags a reading the tick it was
    sampled, positive when loss/retransmits/parking delayed the report
    that triggered the flag.  It is maintained unconditionally (pure
    bookkeeping, no RNG or control-flow impact) so latency accounting
    works with observability off; the enriched ``detector.flag`` /
    ``lineage.detect`` events and per-tier histograms are emitted only
    under :data:`repro.obs.ACTIVE`.
    """

    detections: "list[Detection]" = field(default_factory=list)
    latencies: "list[int]" = field(default_factory=list)
    n_levels: "int | None" = None   # hierarchy depth, for tier labels

    def record(self, detection: Detection, *,
               flag_tick: "int | None" = None,
               prob: "float | None" = None,
               threshold: "float | None" = None,
               model_seq: "int | None" = None,
               staleness: "int | None" = None) -> None:
        """Append one detection.

        ``detection.tick`` is the *reading* tick; ``flag_tick`` is the
        tick the flagging node made the decision (defaults to the
        reading tick, i.e. zero latency).  ``prob``/``threshold`` are
        the decision inputs (estimated probability or MDEF vs. the
        spec's cutoff), ``model_seq`` the version of the model
        consulted and ``staleness`` the model's age in ticks.
        """
        flag = detection.tick if flag_tick is None else flag_tick
        latency = flag - detection.tick
        self.detections.append(detection)
        self.latencies.append(latency)
        if obs.ACTIVE:
            extra: "dict[str, float | int]" = {}
            if prob is not None:
                extra["prob"] = prob
            if threshold is not None:
                extra["threshold"] = threshold
            if model_seq is not None:
                extra["model_seq"] = model_seq
            if staleness is not None:
                extra["staleness"] = staleness
            obs.emit("detector.flag", node=detection.node_id,
                     level=detection.level, origin=detection.origin,
                     tick=detection.tick, reading_tick=detection.tick,
                     flag_tick=flag, latency=latency, **extra)
            obs.emit("lineage.detect", node=detection.node_id,
                     level=detection.level, origin=detection.origin,
                     reading_tick=detection.tick, flag_tick=flag,
                     latency=latency, **extra)
            obs.metrics().counter("detector.outliers_flagged").inc()
            obs.metrics().histogram(
                f"detector.latency.{self.tier(detection.level)}") \
                .observe(float(latency))

    def tier(self, level: int) -> str:
        """Tier label for a 1-based hierarchy level."""
        if level <= 1:
            return "leaf"
        if self.n_levels is not None and level >= self.n_levels:
            return "root"
        return "intermediate"

    def at_level(self, level: int) -> "list[Detection]":
        """All detections flagged by nodes of the given 1-based level."""
        return [d for d in self.detections if d.level == level]

    def latency_summary(self) -> "dict[str, object]":
        """Latency and per-tier stats over everything recorded so far."""
        by_tier: "dict[str, list[int]]" = {}
        for detection, latency in zip(self.detections, self.latencies):
            by_tier.setdefault(self.tier(detection.level), []) \
                .append(latency)
        summary: "dict[str, object]" = {"n_flags": len(self.latencies)}
        summary.update(
            latency_stats(self.latencies)
            or {"count": 0, "p50": None, "p99": None, "max": None})
        summary["by_tier"] = {tier: latency_stats(values)
                              for tier, values in sorted(by_tier.items())}
        return summary

    def __len__(self) -> int:
        return len(self.detections)
