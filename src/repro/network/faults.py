"""Fault injection for simulated deployments (node crashes, link loss,
message duplication).

The paper's hierarchy assumes unreliable hardware -- leaders rotate
precisely because sensors die -- yet a plain
:class:`~repro.network.simulator.NetworkSimulator` models only uniform
silent message loss.  This module makes failure a first-class,
*injectable* and *replayable* condition:

* **crashes** -- per-node down intervals (``[start, end)`` in ticks).  A
  crashed node neither reads its sensor, nor relays, nor receives;
  messages addressed to it are dropped (or parked by the reliable
  transport, see :mod:`repro.network.transport`).  Crash schedules may
  target leaf sensors *and* logical leader nodes.
* **link loss** -- a per-directed-link loss probability generalising the
  simulator's global ``loss_rate`` (which remains the default for links
  without an override).
* **duplication** -- a probability that a delivered message is heard
  twice by its receiver (spurious link-layer retransmission).

A :class:`FaultPlan` is pure data: all randomness used to *generate* one
(:func:`random_crash_plan`) or to *apply* one (the simulator's loss and
duplication draws) comes from seeded :mod:`numpy.random` generators, so
every fault pattern replays bit for bit under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro._exceptions import ParameterError, TopologyError
from repro._rng import resolve_rng
from repro.network.topology import Hierarchy

__all__ = ["CrashWindow", "EngineCrash", "FaultPlan", "random_crash_plan"]


@dataclass(frozen=True)
class CrashWindow:
    """One down interval of one node: crashed during ``[start, end)``.

    ``end is None`` means the node never recovers.
    """

    node: int
    start: int
    end: "int | None" = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ParameterError(
                f"crash start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ParameterError(
                f"crash end must exceed start, got [{self.start}, {self.end})")

    def covers(self, tick: int) -> bool:
        """Whether the node is down at ``tick``."""
        if tick < self.start:
            return False
        return self.end is None or tick < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """Whether the window intersects the tick range ``[start, end)``."""
        if end <= self.start:
            return False
        return self.end is None or self.end > start


@dataclass(frozen=True)
class EngineCrash:
    """One process-level kill of a supervised detector engine.

    The crash fires immediately *before* tick ``tick`` is processed:
    all live state built from earlier ticks is destroyed, and the
    supervisor restores from ``checkpoint`` (a specific stored
    checkpoint tick) or, when ``None``, from the newest checkpoint at
    or before the crash.  Node-level :class:`CrashWindow` entries model
    sensors going dark; this models the *detector process itself*
    dying -- the failure mode :mod:`repro.engine` exists to survive.
    """

    tick: int
    checkpoint: "int | None" = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ParameterError(
                f"engine crash tick must be >= 0, got {self.tick}")
        if self.checkpoint is not None and self.checkpoint < 0:
            raise ParameterError(
                f"engine crash checkpoint must be >= 0, "
                f"got {self.checkpoint}")


class FaultPlan:
    """A deterministic schedule of crashes, link loss and duplication.

    Parameters
    ----------
    crashes:
        Down intervals, any number per node (kept sorted per node).
    link_loss:
        Per-directed-link loss probability overrides, keyed by
        ``(sender, receiver)``.  Links without an override fall back to
        ``default_loss_rate`` (or, when that is ``None``, to the
        simulator's global ``loss_rate``).
    default_loss_rate:
        Loss probability for links without an override; ``None`` defers
        to the simulator's ``loss_rate`` argument.
    duplication_rate:
        Probability that a delivered message is delivered a second time
        in the same tick.
    engine_crashes:
        Process-level :class:`EngineCrash` kills of a supervised
        detector engine (consumed by
        :class:`repro.engine.supervisor.SupervisedEngine`); at most one
        per tick, kept sorted by tick.
    """

    def __init__(self, crashes: "Iterable[CrashWindow]" = (),
                 link_loss: "Mapping[tuple[int, int], float] | None" = None,
                 default_loss_rate: "float | None" = None,
                 duplication_rate: float = 0.0,
                 engine_crashes: "Iterable[EngineCrash]" = ()) -> None:
        self._windows: "dict[int, list[CrashWindow]]" = {}
        for window in crashes:
            self._windows.setdefault(window.node, []).append(window)
        for node, windows in self._windows.items():
            windows.sort(key=lambda w: w.start)
            for earlier, later in zip(windows, windows[1:]):
                if earlier.end is None or later.start < earlier.end:
                    raise ParameterError(
                        f"overlapping crash windows for node {node}")
        self._link_loss = dict(link_loss) if link_loss else {}
        for link, rate in self._link_loss.items():
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(
                    f"link loss rate for {link} must lie in [0, 1], "
                    f"got {rate!r}")
        if default_loss_rate is not None \
                and not 0.0 <= default_loss_rate <= 1.0:
            raise ParameterError(
                f"default_loss_rate must lie in [0, 1], "
                f"got {default_loss_rate!r}")
        if not 0.0 <= duplication_rate <= 1.0:
            raise ParameterError(
                f"duplication_rate must lie in [0, 1], "
                f"got {duplication_rate!r}")
        self._default_loss_rate = default_loss_rate
        self._duplication_rate = duplication_rate
        self._engine_crashes = tuple(
            sorted(engine_crashes, key=lambda c: c.tick))
        for earlier, later in zip(self._engine_crashes,
                                  self._engine_crashes[1:]):
            if earlier.tick == later.tick:
                raise ParameterError(
                    f"duplicate engine crash at tick {earlier.tick}")

    # ------------------------------------------------------------------

    @property
    def crash_windows(self) -> "tuple[CrashWindow, ...]":
        """Every scheduled down interval, grouped by node."""
        return tuple(w for windows in self._windows.values()
                     for w in windows)

    @property
    def crashed_node_ids(self) -> "tuple[int, ...]":
        """Ids of every node with at least one crash window."""
        return tuple(sorted(self._windows))

    @property
    def default_loss_rate(self) -> "float | None":
        """Loss rate for links without an override (None = simulator's)."""
        return self._default_loss_rate

    @property
    def duplication_rate(self) -> float:
        """Probability a delivered message is delivered twice."""
        return self._duplication_rate

    @property
    def engine_crashes(self) -> "tuple[EngineCrash, ...]":
        """Scheduled process-level engine kills, sorted by tick."""
        return self._engine_crashes

    def crashed(self, node: int, tick: int) -> bool:
        """Whether ``node`` is down at ``tick``."""
        for window in self._windows.get(node, ()):
            if window.covers(tick):
                return True
            if tick < window.start:
                break
        return False

    def crash_overlaps(self, node: int, start: int, end: int) -> bool:
        """Whether ``node`` is down at any tick of ``[start, end)``."""
        return any(w.overlaps(start, end)
                   for w in self._windows.get(node, ()))

    def loss_rate_for(self, sender: int, receiver: int,
                      fallback: float = 0.0) -> float:
        """Loss probability of the directed link ``sender -> receiver``.

        ``fallback`` is the simulator's global ``loss_rate``, used when
        neither a link override nor a plan default applies.
        """
        rate = self._link_loss.get((sender, receiver))
        if rate is not None:
            return rate
        if self._default_loss_rate is not None:
            return self._default_loss_rate
        return fallback

    @property
    def has_link_faults(self) -> bool:
        """Whether any loss or duplication is configured (rng needed)."""
        return (bool(self._link_loss)
                or bool(self._default_loss_rate)
                or self._duplication_rate > 0.0)


def random_crash_plan(hierarchy: Hierarchy, *,
                      crash_fraction: float,
                      first_tick: int, last_tick: int,
                      min_down: int, max_down: int,
                      default_loss_rate: "float | None" = None,
                      duplication_rate: float = 0.0,
                      rng: "np.random.Generator | None" = None) -> FaultPlan:
    """A seedable plan crashing a fraction of the leaf sensors once each.

    ``crash_fraction`` of the leaves (rounded down, chosen uniformly)
    each get one down interval starting uniformly in
    ``[first_tick, last_tick - min_down]`` and lasting uniformly between
    ``min_down`` and ``max_down`` ticks (clipped so recovery lands by
    ``last_tick``, keeping degradation measurable rather than terminal).
    All draws come from ``rng`` (deterministic fallback from
    :mod:`repro._rng` when omitted), so the same seed always yields the
    same plan.
    """
    if not 0.0 <= crash_fraction <= 1.0:
        raise ParameterError(
            f"crash_fraction must lie in [0, 1], got {crash_fraction!r}")
    if first_tick < 0 or last_tick <= first_tick:
        raise TopologyError(
            f"need 0 <= first_tick < last_tick, "
            f"got [{first_tick}, {last_tick})")
    if min_down < 1 or max_down < min_down:
        raise ParameterError(
            f"need 1 <= min_down <= max_down, got {min_down}, {max_down}")
    if first_tick + min_down > last_tick:
        raise ParameterError(
            "crash range too short for min_down ticks of downtime")
    generator = resolve_rng(rng)
    leaves = list(hierarchy.leaf_ids)
    n_crashed = int(crash_fraction * len(leaves))
    chosen = generator.choice(len(leaves), size=n_crashed, replace=False) \
        if n_crashed else np.empty(0, dtype=int)
    crashes = []
    for index in sorted(int(i) for i in chosen):
        start = int(generator.integers(first_tick,
                                       max(first_tick, last_tick - min_down) + 1))
        length = int(generator.integers(min_down, max_down + 1))
        end = min(start + length, last_tick)
        crashes.append(CrashWindow(node=leaves[index], start=start, end=end))
    return FaultPlan(crashes=crashes,
                     default_loss_rate=default_loss_rate,
                     duplication_rate=duplication_rate)
