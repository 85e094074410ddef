"""A TAG-style tick-driven network simulator (paper Section 10,
"Implementation").

The paper's prototype runs on the TAG simulator: a static topology, a
continuous query installed on every node, and the hierarchy of Section 2
imposed on top.  We reproduce the relevant substrate: at every tick each
leaf consumes one reading from its stream; messages are routed along the
tree edges and processed within the tick (sensor radio latency is far
below the 1-second reading period the paper assumes); every transmitted
message is accounted in a :class:`~repro.network.messages.MessageCounter`.
Radio contention is out of scope -- the paper uses TAG for topology and
message accounting only (see DESIGN.md section 4).

Failure is a first-class condition (docs/FAULT_MODEL.md): a
:class:`~repro.network.faults.FaultPlan` injects node crashes,
per-link loss and message duplication; a
:class:`~repro.network.transport.TransportConfig` inserts the
ack/retransmit shim between node behaviours and the drain loop; a
:class:`~repro.network.election.BearerRepair` keeps leader roles on
living bearers.  Every attempt, retransmission and acknowledgement is
charged to the message counter (and energy accountant), and every
attempt outcome is recorded, so ``sent == delivered + dropped`` holds
per message kind.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro._exceptions import SimulationError, TopologyError
from repro._rng import resolve_rng
from repro.data.streams import StreamSet
from repro.network.election import BearerRepair
from repro.network.energy import EnergyAccountant
from repro.network.faults import FaultPlan
from repro.network.messages import Ack, Message, MessageCounter
from repro.network.node import SimNode
from repro.network.topology import Hierarchy
from repro.obs.lineage import lineage_fields
from repro.network.transport import (
    PendingMessage,
    ReliableTransport,
    TransportConfig,
)

__all__ = ["NetworkSimulator"]

#: Safety valve: more message deliveries than this within one tick means
#: a routing loop in a node implementation.  Retransmission-heavy
#: scenarios may raise it via ``max_deliveries_per_tick``.
_MAX_DELIVERIES_PER_TICK = 1_000_000


@dataclass
class _Envelope:
    """One transmission attempt queued for this tick's drain."""

    dest: int
    sender: int
    message: Message
    entry: "PendingMessage | None" = None   # reliable-transport tracking


def _lineage_context(message: Message,
                     entry: "PendingMessage | None") -> "dict[str, int]":
    """Causal-context fields for a message-plane event: the reading the
    message carries (OutlierReport only) plus the transport sequence
    number when the reliable shim tracks the envelope."""
    context = lineage_fields(message)
    if entry is not None:
        context["seq_no"] = entry.seq
    return context


class NetworkSimulator:
    """Drives a set of node behaviours over a hierarchy and stream set.

    Parameters
    ----------
    hierarchy:
        The tree topology of Section 2.
    nodes:
        One behaviour object per node id (see
        :class:`~repro.network.node.SimNode`).
    streams:
        Per-leaf reading sequences; stream ``i`` feeds leaf id ``i``.
    counter:
        Message accounting sink (a fresh one is created when omitted).
    energy:
        Optional :class:`~repro.network.energy.EnergyAccountant`; when
        given, every transmission attempt is charged to the sender and
        receiver under the radio model.
    loss_rate:
        Probability that any transmitted message is silently lost
        (failure injection; lost messages are still counted as sent and
        still cost transmit energy, but are never delivered).
        ``1.0`` -- total partition -- is allowed.
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`: node crash
        schedules, per-link loss overrides (falling back to
        ``loss_rate``), and message duplication.  Crashed nodes neither
        read, nor relay, nor receive.
    transport:
        Optional :class:`~repro.network.transport.TransportConfig`:
        inserts the per-hop ack/retransmit shim.  Behaviours then see
        exactly-once delivery (receiver-side dedup) while the counters
        see every physical attempt and ack.
    repair:
        Optional :class:`~repro.network.election.BearerRepair`,
        maintained at every tick start; leaders it reports bearer-less
        count as down for delivery purposes.
    max_deliveries_per_tick:
        The message-storm valve (default unchanged); raise it
        deliberately for retransmission-heavy scenarios.
    rng:
        Randomness source for loss/duplication injection.  When omitted
        (and any loss or duplication is configured) a deterministic
        fallback stream from :mod:`repro._rng` is used, so fault
        patterns replay bit for bit.
    """

    def __init__(self, hierarchy: Hierarchy, nodes: "Mapping[int, SimNode]",
                 streams: StreamSet,
                 counter: "MessageCounter | None" = None,
                 energy: "EnergyAccountant | None" = None,
                 loss_rate: float = 0.0,
                 faults: "FaultPlan | None" = None,
                 transport: "TransportConfig | None" = None,
                 repair: "BearerRepair | None" = None,
                 max_deliveries_per_tick: int = _MAX_DELIVERIES_PER_TICK,
                 rng: "np.random.Generator | None" = None) -> None:
        if streams.n_sensors != len(hierarchy.leaf_ids):
            raise TopologyError(
                f"{len(hierarchy.leaf_ids)} leaves but {streams.n_sensors} streams")
        missing = [nid for nid in hierarchy.parents if nid not in nodes]
        if missing:
            raise TopologyError(f"no behaviour registered for nodes {missing[:5]}")
        if not 0.0 <= loss_rate <= 1.0:
            raise SimulationError(
                f"loss_rate must lie in [0, 1], got {loss_rate!r}")
        if max_deliveries_per_tick < 1:
            raise SimulationError(
                f"max_deliveries_per_tick must be >= 1, "
                f"got {max_deliveries_per_tick}")
        self._hierarchy = hierarchy
        self._nodes = dict(nodes)
        self._streams = streams
        self._counter = counter if counter is not None else MessageCounter()
        self._energy = energy
        self._loss_rate = loss_rate
        self._faults = faults
        self._repair = repair
        self._max_deliveries = max_deliveries_per_tick
        self._transport = ReliableTransport(config=transport) \
            if transport is not None else None
        needs_rng = loss_rate > 0.0 or (
            faults is not None and faults.has_link_faults)
        if needs_rng and rng is None:
            rng = resolve_rng(rng)
        self._rng = rng
        self._tick = 0
        self._messages_lost = 0
        self._messages_duplicated = 0
        self._drops_by_reason: "dict[str, int]" = {}
        # Leaves fed through the batch protocol, fixed for the run: a
        # leaf with any crash window reads tick by tick throughout, so
        # its blackout matches the per-reading schedule exactly.  Those
        # that join a group (a D3 network's leaves) have no per-reading
        # path left, so even a one-tick step feeds them a block.
        crashed = set(faults.crashed_node_ids) if faults is not None \
            else set()
        self._batched: "set[int]" = set()
        self._grouped: "set[int]" = set()
        for leaf in hierarchy.leaf_ids:
            node = self._nodes[leaf]
            if leaf in crashed or not (hasattr(node, "on_readings")
                                       and hasattr(node, "on_tick_start")):
                continue
            self._batched.add(leaf)
            join = getattr(node, "join_batch", None)
            if join is not None:
                join()
                self._grouped.add(leaf)

    # ------------------------------------------------------------------

    @property
    def hierarchy(self) -> Hierarchy:
        """The topology being simulated."""
        return self._hierarchy

    @property
    def counter(self) -> MessageCounter:
        """Message accounting accumulated so far."""
        return self._counter

    @property
    def tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def messages_lost(self) -> int:
        """Attempts dropped by the loss injector so far."""
        return self._messages_lost

    @property
    def messages_duplicated(self) -> int:
        """Deliveries duplicated by the fault injector so far."""
        return self._messages_duplicated

    @property
    def drops_by_reason(self) -> "dict[str, int]":
        """Dropped attempts by cause (``"loss"`` / ``"crash"``)."""
        return dict(self._drops_by_reason)

    @property
    def transport(self) -> "ReliableTransport | None":
        """The reliable-transport shim state (None when disabled)."""
        return self._transport

    @property
    def n_ticks_available(self) -> int:
        """Ticks the stream set can still feed."""
        return self._streams.length - self._tick

    # -- fault predicates ----------------------------------------------

    def _node_down(self, node: int, tick: int) -> bool:
        """Whether ``node`` cannot participate at ``tick``."""
        if self._faults is not None and self._faults.crashed(node, tick):
            return True
        return self._repair is not None \
            and self._repair.leader_is_down(node, tick)

    def _link_loss_rate(self, sender: int, dest: int) -> float:
        if self._faults is not None:
            return self._faults.loss_rate_for(sender, dest, self._loss_rate)
        return self._loss_rate

    def _begin_tick(self) -> None:
        """Per-tick fault bookkeeping: repair first, then parked flushes."""
        if self._repair is not None:
            self._repair.maintain(self._tick)

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one tick: every live leaf reads once; messages drain.

        Group members (a D3 network's leaves) get a one-tick block, as
        in :meth:`step_epoch`; every other leaf reads through
        ``on_reading``.
        """
        if self._tick >= self._streams.length:
            raise SimulationError("streams exhausted; cannot step further")
        self._advance(1, self._grouped)

    # -- queue plumbing ------------------------------------------------

    def _enqueue(self, queue: "deque[_Envelope]", sender: int, dest: int,
                 message: Message) -> None:
        """Queue one outgoing message, registering it with the transport."""
        entry = None
        if self._transport is not None:
            entry = self._transport.submit(sender, dest, message, self._tick)
        queue.append(_Envelope(dest=dest, sender=sender, message=message,
                               entry=entry))

    def _enqueue_due_retransmits(self, queue: "deque[_Envelope]") -> None:
        """Queue this tick's retransmissions and recovered-park flushes."""
        if self._transport is None:
            return
        for entry in self._transport.collect_due(self._tick, self._node_down):
            queue.append(_Envelope(dest=entry.dest, sender=entry.sender,
                                   message=entry.message, entry=entry))

    # -- the drain loop ------------------------------------------------

    def _drain(self, queue: "deque[_Envelope]") -> None:
        """Route queued messages until the network is quiet this tick."""
        if obs.ACTIVE:
            with obs.span("phase", phase="drain", tick=self._tick):
                self._drain_queue(queue)
        else:
            self._drain_queue(queue)

    def _drain_queue(self, queue: "deque[_Envelope]") -> None:
        deliveries = 0
        while queue:
            envelope = queue.popleft()
            deliveries += 1
            if deliveries > self._max_deliveries:
                raise SimulationError(
                    "message storm: over "
                    f"{self._max_deliveries} deliveries in one tick")
            deliveries += self._transmit(envelope, queue)

    def _transmit(self, envelope: _Envelope, queue: "deque[_Envelope]") -> int:
        """One physical transmission attempt; returns extra deliveries
        performed inline (acks, duplicated copies)."""
        dest, sender = envelope.dest, envelope.sender
        message, entry = envelope.message, envelope.entry
        if dest not in self._nodes:
            raise SimulationError(f"message addressed to unknown node {dest}")
        dest_down = self._node_down(dest, self._tick)
        if dest_down and entry is not None \
                and self._transport.config.park_when_crashed:
            # The link layer knows the next hop is dead (no carrier):
            # buffer at the sender instead of burning radio and retries.
            evicted = self._transport.park(entry)
            if evicted is not None:
                # A full park buffer sheds its oldest occupant.  Parked
                # messages were never charged as sent (parking precedes
                # the send site below), so the eviction must record both
                # a send and a drop to keep sent == delivered + dropped.
                self._counter.record(evicted.message)
                self._counter.record_dropped(evicted.message)
                self._drops_by_reason["park-evict"] = \
                    self._drops_by_reason.get("park-evict", 0) + 1
                if obs.ACTIVE:
                    kind = type(evicted.message).__name__
                    context = _lineage_context(evicted.message, evicted)
                    obs.emit("message.send", kind=kind,
                             sender=evicted.sender, dest=evicted.dest,
                             words=evicted.message.size_words(),
                             tick=self._tick, **context)
                    obs.emit("message.drop", kind=kind,
                             reason="park-evict", dest=evicted.dest,
                             tick=self._tick, **context)
            return 0
        # Sending happens regardless of delivery: the message is counted
        # and the sender pays transmit energy even when the radio loses it.
        self._counter.record(message)
        if obs.ACTIVE:
            obs.emit("message.send", kind=type(message).__name__,
                     sender=sender, dest=dest,
                     words=message.size_words(), tick=self._tick,
                     **_lineage_context(message, entry))
        if entry is not None:
            self._transport.note_attempt(entry)
        rate = self._link_loss_rate(sender, dest)
        lost = rate > 0.0 and self._rng.random() < rate
        delivered = not lost and not dest_down
        if self._energy is not None:
            self._energy.record(sender, dest, message, delivered=delivered)
        if not delivered:
            self._counter.record_dropped(message)
            reason = "loss" if lost else "crash"
            if lost:
                self._messages_lost += 1
            self._drops_by_reason[reason] = \
                self._drops_by_reason.get(reason, 0) + 1
            if obs.ACTIVE:
                obs.emit("message.drop", kind=type(message).__name__,
                         reason=reason, dest=dest, tick=self._tick,
                         **_lineage_context(message, entry))
            if entry is not None:
                self._transport.schedule_or_expire(entry, self._tick)
            return 0
        self._counter.record_delivered(message)
        if obs.ACTIVE:
            obs.emit("message.deliver", kind=type(message).__name__,
                     dest=dest, tick=self._tick,
                     **_lineage_context(message, entry))
        extra = self._deliver(envelope, queue)
        dup_rate = self._faults.duplication_rate \
            if self._faults is not None else 0.0
        if dup_rate > 0.0 and self._rng.random() < dup_rate:
            # The radio hears the frame twice: a second full attempt.
            self._messages_duplicated += 1
            self._counter.record(message)
            self._counter.record_delivered(message)
            if obs.ACTIVE:
                obs.emit("message.send", kind=type(message).__name__,
                         sender=sender, dest=dest,
                         words=message.size_words(), tick=self._tick,
                         duplicate=True, **_lineage_context(message, entry))
                obs.emit("message.deliver", kind=type(message).__name__,
                         dest=dest, tick=self._tick, duplicate=True,
                         **_lineage_context(message, entry))
            if self._energy is not None:
                self._energy.record(sender, dest, message, delivered=True)
            extra += 1 + self._deliver(envelope, queue)
        return extra

    def _deliver(self, envelope: _Envelope, queue: "deque[_Envelope]") -> int:
        """Hand a received message to the transport shim / behaviour."""
        dest, sender = envelope.dest, envelope.sender
        entry = envelope.entry
        extra = 0
        first_copy = True
        if entry is not None:
            first_copy = not entry.delivered_to_app
            entry.delivered_to_app = True
            extra += self._send_ack(entry)
        if first_copy:
            if obs.ACTIVE:
                with obs.span("node", node=dest, tick=self._tick):
                    outgoing = list(self._nodes[dest].on_message(
                        envelope.message, sender, self._tick))
            else:
                outgoing = self._nodes[dest].on_message(
                    envelope.message, sender, self._tick)
            for nxt_dest, nxt_msg in outgoing:
                self._enqueue(queue, dest, nxt_dest, nxt_msg)
        return extra

    def _send_ack(self, entry: PendingMessage) -> int:
        """Transmit the per-hop ack back to the sender; returns 1."""
        ack = Ack(seq=entry.seq)
        self._counter.record(ack)
        if obs.ACTIVE:
            obs.emit("message.send", kind="Ack", sender=entry.dest,
                     dest=entry.sender, words=ack.size_words(),
                     tick=self._tick)
        rate = self._link_loss_rate(entry.dest, entry.sender)
        ack_lost = rate > 0.0 and self._rng.random() < rate
        sender_down = self._node_down(entry.sender, self._tick)
        ack_delivered = not ack_lost and not sender_down
        if self._energy is not None:
            self._energy.record(entry.dest, entry.sender, ack,
                                delivered=ack_delivered)
        if ack_delivered:
            self._counter.record_delivered(ack)
            if obs.ACTIVE:
                obs.emit("message.deliver", kind="Ack", dest=entry.sender,
                         tick=self._tick)
            self._transport.acknowledge(entry)
        else:
            self._counter.record_dropped(ack)
            reason = "loss" if ack_lost else "crash"
            if ack_lost:
                self._messages_lost += 1
            self._drops_by_reason[reason] = \
                self._drops_by_reason.get(reason, 0) + 1
            if obs.ACTIVE:
                obs.emit("message.drop", kind="Ack", reason=reason,
                         dest=entry.sender, tick=self._tick)
            self._transport.schedule_or_expire(entry, self._tick)
        return 1

    # ------------------------------------------------------------------

    def step_epoch(self, n_ticks: int) -> None:
        """Advance ``n_ticks`` ticks, feeding each leaf its block at once.

        Leaves on the batch protocol (``on_readings`` /
        ``on_tick_start``, see :class:`~repro.network.node.SimNode`)
        get their whole block up front, in leaf order -- a D3 network's
        leaves stage it into their group, which ingests all of them in
        one engine pass once the last has -- and their staged per-tick
        messages then drain tick by tick in leaf order.  The others --
        leaves without the protocol, and every leaf with a crash window
        in the :class:`~repro.network.faults.FaultPlan`, for the whole
        run -- read tick by tick through ``on_reading`` and skip the
        ticks they are down.  The message sequence, and hence every
        parent's state, the counters and the detection log, does not
        depend on how a run is cut into epochs.
        """
        if n_ticks < 1:
            raise SimulationError(f"n_ticks must be >= 1, got {n_ticks}")
        if self._tick + n_ticks > self._streams.length:
            raise SimulationError(
                f"cannot step {n_ticks} ticks; only "
                f"{self._streams.length - self._tick} readings left")
        self._advance(n_ticks, self._batched)

    def _advance(self, n_ticks: int, fed: "set[int]") -> None:
        """Advance ``n_ticks`` ticks, feeding the ``fed`` leaves blocks."""
        start = self._tick
        leaf_ids = self._hierarchy.leaf_ids
        batched: "dict[int, list[list]]" = {}
        for i, leaf in enumerate(leaf_ids):
            if leaf not in fed:
                continue
            batched[leaf] = self._nodes[leaf].on_readings(
                self._streams.block(i, start, start + n_ticks), start)

        for offset in range(n_ticks):
            if obs.ACTIVE:
                with obs.span("tick", tick=self._tick):
                    self._epoch_tick(batched, leaf_ids, offset)
            else:
                self._epoch_tick(batched, leaf_ids, offset)
            self._tick += 1

    def _epoch_tick(self, batched: "dict[int, list[list]]",
                    leaf_ids: "tuple[int, ...]", offset: int) -> None:
        """One tick of an epoch: staged/fallback leaf output, then drain."""
        self._begin_tick()
        queue: "deque[_Envelope]" = deque()
        self._enqueue_due_retransmits(queue)
        for i, leaf in enumerate(leaf_ids):
            if leaf in batched:
                # The reading was ingested up front by on_readings, but
                # its lineage anchor belongs to this tick -- same tick
                # granularity as the stepped path.
                if obs.ACTIVE:
                    obs.emit("lineage.ingest", node=leaf, tick=self._tick)
                outgoing = list(batched[leaf][offset])
                outgoing.extend(self._nodes[leaf].on_tick_start(self._tick))
            elif self._node_down(leaf, self._tick):
                continue
            else:
                reading = self._streams.reading(i, self._tick)
                if obs.ACTIVE:
                    obs.emit("lineage.ingest", node=leaf, tick=self._tick)
                outgoing = self._nodes[leaf].on_reading(reading, self._tick)
            for dest, message in outgoing:
                self._enqueue(queue, leaf, dest, message)
        self._drain(queue)

    def run(self, n_ticks: "int | None" = None,
            on_tick: "Callable[[int], None] | None" = None) -> None:
        """Run ``n_ticks`` steps (all remaining when omitted).

        ``on_tick(t)`` is invoked after each completed tick ``t`` --
        experiments hook ground-truth evaluation in here.
        """
        if n_ticks is None:
            n_ticks = self.n_ticks_available
        if n_ticks < 0 or n_ticks > self.n_ticks_available:
            raise SimulationError(
                f"cannot run {n_ticks} ticks; only {self.n_ticks_available} available")
        if obs.ACTIVE:
            with obs.span("run", mode="stepped", n_ticks=n_ticks):
                self._run_loop(n_ticks, on_tick)
        else:
            self._run_loop(n_ticks, on_tick)

    def _run_loop(self, n_ticks: int,
                  on_tick: "Callable[[int], None] | None") -> None:
        for _ in range(n_ticks):
            self.step()
            if on_tick is not None:
                on_tick(self._tick - 1)

    def run_batched(self, n_ticks: "int | None" = None, *,
                    epoch_size: int = 64,
                    on_tick: "Callable[[int], None] | None" = None) -> None:
        """Run in epochs of ``epoch_size`` ticks via :meth:`step_epoch`.

        Produces the same end state as :meth:`run` (see
        :meth:`step_epoch`), substantially faster for leaves that
        implement the batch protocol.  Note ``on_tick`` fires per tick
        but only after the tick's *epoch* has completed, so callbacks
        that inspect per-tick simulator state see end-of-epoch state.
        """
        if epoch_size < 1:
            raise SimulationError(f"epoch_size must be >= 1, got {epoch_size}")
        if n_ticks is None:
            n_ticks = self.n_ticks_available
        if n_ticks < 0 or n_ticks > self.n_ticks_available:
            raise SimulationError(
                f"cannot run {n_ticks} ticks; only {self.n_ticks_available} available")
        if obs.ACTIVE:
            with obs.span("run", mode="batched", n_ticks=n_ticks,
                          epoch_size=epoch_size):
                self._run_batched_loop(n_ticks, epoch_size, on_tick)
        else:
            self._run_batched_loop(n_ticks, epoch_size, on_tick)

    def _run_batched_loop(self, n_ticks: int, epoch_size: int,
                          on_tick: "Callable[[int], None] | None") -> None:
        done = 0
        while done < n_ticks:
            span = min(epoch_size, n_ticks - done)
            first = self._tick
            self.step_epoch(span)
            done += span
            if on_tick is not None:
                for t in range(first, first + span):
                    on_tick(t)
