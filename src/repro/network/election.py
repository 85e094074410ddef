"""Leader election / rotation for the virtual-grid hierarchy (Section 2).

The paper delegates leader selection to existing protocols ([17, 33,
47]) whose job is to "ensure the leadership role is rotated among the
nodes of the network ... in an energy efficient manner".  This module
provides that pluggable component for simulated deployments: each cell
of the hierarchy elects which of its member sensors *plays* the leader
role for the next epoch, either round-robin or by remaining energy.

The leader role is logical -- the hierarchy's leader node ids stay
stable (and so does all detector state, which in a real deployment
travels with a model-transfer message; see :func:`handoff_cost_words`).
What rotates is the *physical* sensor bearing the role, which is what
spreads the relay/aggregation energy burden.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro._exceptions import ParameterError, TopologyError
from repro._validation import require_positive_int
from repro.network.energy import EnergyAccountant
from repro.network.faults import FaultPlan
from repro.network.messages import MessageCounter, ModelHandoff
from repro.network.topology import Hierarchy

__all__ = ["LeaderAssignment", "RoundRobinElection", "EnergyAwareElection",
           "handoff_cost_words", "BearerChange", "BearerRepair"]


@dataclass(frozen=True)
class LeaderAssignment:
    """Which physical sensor bears each logical leader role this epoch."""

    epoch: int
    #: logical leader node id -> physical leaf sensor id.
    bearer: "dict[int, int]"

    def bearer_of(self, leader: int) -> int:
        """The physical sensor currently playing ``leader``."""
        try:
            return self.bearer[leader]
        except KeyError:
            raise TopologyError(f"{leader} is not a leader node") from None


class _ElectionBase:
    def __init__(self, hierarchy: Hierarchy, epoch_length: int) -> None:
        require_positive_int("epoch_length", epoch_length)
        self._hierarchy = hierarchy
        self._epoch_length = epoch_length
        self._leaders = [node for tier in hierarchy.levels[1:]
                         for node in tier]
        if not self._leaders:
            raise TopologyError("hierarchy has no leader tiers to elect for")
        #: Candidate bearers per leader: the leaf sensors of its subtree.
        self._candidates = {leader: hierarchy.leaves_under(leader)
                            for leader in self._leaders}

    @property
    def epoch_length(self) -> int:
        """Ticks per election epoch."""
        return self._epoch_length

    @property
    def leaders(self) -> "tuple[int, ...]":
        """The logical leader node ids the election covers."""
        return tuple(self._leaders)

    def candidates_for(self, leader: int) -> "tuple[int, ...]":
        """The physical sensors eligible to bear ``leader``'s role."""
        try:
            return tuple(self._candidates[leader])
        except KeyError:
            raise TopologyError(f"{leader} is not a leader node") from None

    def epoch_of(self, tick: int) -> int:
        """The election epoch a tick belongs to."""
        if tick < 0:
            raise ParameterError(f"tick must be >= 0, got {tick}")
        return tick // self._epoch_length


class RoundRobinElection(_ElectionBase):
    """Rotate each cell's leadership among its members, one per epoch.

    Deterministic and state-free: epoch ``e`` assigns member
    ``e mod len(cell)`` -- every sensor bears the role equally often.
    """

    def assignment(self, tick: int) -> LeaderAssignment:
        """The assignment in force at ``tick``."""
        epoch = self.epoch_of(tick)
        bearer = {leader: candidates[epoch % len(candidates)]
                  for leader, candidates in self._candidates.items()}
        return LeaderAssignment(epoch=epoch, bearer=bearer)


class EnergyAwareElection(_ElectionBase):
    """Elect the member with the most remaining energy each epoch.

    Ties break toward the lowest sensor id, making the election
    deterministic given the energy map (as the cited protocols are,
    given their local state).
    """

    def assignment(self, tick: int,
                   spent_joules: "dict[int, float]") -> LeaderAssignment:
        """The assignment at ``tick`` given per-sensor energy spent."""
        epoch = self.epoch_of(tick)
        bearer = {}
        for leader, candidates in self._candidates.items():
            bearer[leader] = min(
                candidates,
                key=lambda s: (spent_joules.get(s, 0.0), s))
        return LeaderAssignment(epoch=epoch, bearer=bearer)


def handoff_cost_words(sample_size: int, n_dims: int,
                       sketch_words: int) -> int:
    """Words transferred when a leader role moves between sensors.

    The incoming bearer needs the role's detector state: the kernel
    sample (``d |R|`` values plus timestamps) and the variance sketches.
    This is the per-rotation communication price an election protocol
    pays for balancing energy.
    """
    require_positive_int("sample_size", sample_size)
    require_positive_int("n_dims", n_dims)
    if sketch_words < 0:
        raise ParameterError(f"sketch_words must be >= 0, got {sketch_words}")
    return sample_size * (n_dims + 1) + sketch_words


@dataclass(frozen=True)
class BearerChange:
    """One leader-role migration between physical sensors.

    ``reason`` is ``"rotation"`` (scheduled epoch turnover), ``"crash"``
    (the scheduled bearer is down and a survivor took over), or
    ``"recovery"`` (a previously bearer-less leader regained one).
    """

    tick: int
    leader: int
    old_bearer: "int | None"
    new_bearer: int
    reason: str


class BearerRepair:
    """Keeps every leader role on a *living* physical bearer under faults.

    Wraps an election policy: each tick it takes the policy's scheduled
    assignment, and for any leader whose scheduled bearer is crashed
    (per the :class:`~repro.network.faults.FaultPlan`) it re-elects the
    next surviving candidate in rotation order.  Every bearer change --
    scheduled rotation or crash repair alike -- is charged as a
    :class:`~repro.network.messages.ModelHandoff` of ``handoff_words``
    (see :func:`handoff_cost_words`): the incoming bearer must receive
    the role's detector state.  When *every* candidate of a leader is
    down, the leader itself is down (:meth:`leader_is_down`); the
    simulator's reliable transport then parks messages addressed to it
    until a bearer recovers.

    State recovery is assumed durable at the role level: the logical
    leader's detector state survives bearer crashes (in a real
    deployment via the handoff replica this class charges for); see
    docs/FAULT_MODEL.md for the abstraction boundary.
    """

    def __init__(self, election: "RoundRobinElection | EnergyAwareElection",
                 faults: FaultPlan, *,
                 handoff_words: int,
                 counter: "MessageCounter | None" = None,
                 energy: "EnergyAccountant | None" = None) -> None:
        require_positive_int("handoff_words", handoff_words)
        self._election = election
        self._faults = faults
        self._handoff_words = handoff_words
        self._counter = counter
        self._energy = energy
        self._bearers: "dict[int, int | None]" = {}
        self._last_tick = -1
        self._initialised = False
        #: Every bearer migration performed, in tick order.
        self.handoffs: "list[BearerChange]" = []

    # ------------------------------------------------------------------

    def _scheduled(self, tick: int) -> LeaderAssignment:
        if isinstance(self._election, EnergyAwareElection):
            spent = self._energy.per_node() if self._energy is not None else {}
            return self._election.assignment(tick, spent)
        return self._election.assignment(tick)

    def _repair_bearer(self, leader: int, scheduled: int,
                       tick: int) -> "int | None":
        """The next surviving candidate after ``scheduled``, if any."""
        candidates = self._election.candidates_for(leader)
        start = candidates.index(scheduled) if scheduled in candidates else 0
        for offset in range(len(candidates)):
            candidate = candidates[(start + offset) % len(candidates)]
            if not self._faults.crashed(candidate, tick):
                return candidate
        return None

    def maintain(self, tick: int) -> "dict[int, int | None]":
        """Bring the bearer map up to date for ``tick``; charge handoffs.

        Idempotent per tick; returns the current leader -> bearer map
        (``None`` marks a leader with no surviving bearer).
        """
        if tick == self._last_tick:
            return dict(self._bearers)
        self._last_tick = tick
        scheduled = self._scheduled(tick)
        for leader in self._election.leaders:
            want = scheduled.bearer[leader]
            repaired = False
            if self._faults.crashed(want, tick):
                want = self._repair_bearer(leader, want, tick)
                repaired = True
            have = self._bearers.get(leader)
            if want == have and leader in self._bearers:
                continue
            self._bearers[leader] = want
            if want is None or not self._initialised:
                continue   # nothing to hand over (or initial deployment)
            reason = "crash" if repaired else (
                "recovery" if have is None else "rotation")
            self.handoffs.append(BearerChange(
                tick=tick, leader=leader, old_bearer=have,
                new_bearer=want, reason=reason))
            if obs.ACTIVE:
                obs.emit("election.handoff", leader=leader,
                         new_bearer=want, old_bearer=have,
                         reason=reason, tick=tick)
            self._charge(leader, have, want, tick)
        self._initialised = True
        return dict(self._bearers)

    def _charge(self, leader: int, old_bearer: "int | None",
                new_bearer: int, tick: int) -> None:
        """Charge one state transfer to the counters.

        The transfer originates at the outgoing bearer when it is still
        alive, else at the leader's logical position (the durable role
        replica); handoffs are assumed reliably delivered.
        """
        message = ModelHandoff(leader=leader, words=self._handoff_words)
        if self._counter is not None:
            sender = old_bearer if old_bearer is not None else leader
            self._counter.send(message, sender, new_bearer, tick)
            self._counter.deliver(message, new_bearer, tick)
        if self._energy is not None:
            source = old_bearer if (
                old_bearer is not None
                and not self._faults.crashed(old_bearer, tick)) else leader
            self._energy.record(source, new_bearer, message, delivered=True)

    # ------------------------------------------------------------------

    def bearer_of(self, leader: int) -> "int | None":
        """The current physical bearer of ``leader`` (None = down)."""
        try:
            return self._bearers[leader]
        except KeyError:
            raise TopologyError(
                f"{leader} is not a maintained leader (call maintain "
                f"first)") from None

    def leader_is_down(self, node: int, tick: int) -> bool:
        """Whether ``node`` is a leader with no surviving bearer at ``tick``.

        Non-leader nodes are never "down" by this criterion (their own
        crash windows are the :class:`~repro.network.faults.FaultPlan`'s
        business).  The map is maintained for ``tick`` on demand.
        """
        if node not in self._election.leaders:
            return False
        self.maintain(tick)
        return self._bearers.get(node) is None
