"""Message taxonomy and accounting (paper Sections 7, 8.1 and 10.3).

Three message kinds move through the hierarchy:

* :class:`ValueForward` -- a sample-changing observation propagated from
  a child to its parent with probability ``f`` (D3 line 15, MGDD line 14);
* :class:`OutlierReport` -- a value a node flagged, escalated to its
  parent for re-checking (D3 lines 19 and 27);
* :class:`ModelUpdate` -- the global-estimator update MGDD floods from
  the top-level leader down to the leaves (MGDD line 23), either an
  incremental single-sample change or a full model re-broadcast (the
  Section 8.1 lazy scheme).

Two further kinds exist only under fault tolerance (docs/FAULT_MODEL.md):

* :class:`Ack` -- the reliable transport's per-hop acknowledgement;
* :class:`ModelHandoff` -- detector state transferred when a leader role
  moves to a new physical bearer (its size is
  :func:`~repro.network.election.handoff_cost_words`).

Sizes are accounted in machine words (16-bit on the paper's motes): a
d-dimensional value costs ``d`` words, plus bookkeeping fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.obs.lineage import lineage_fields

__all__ = [
    "Message",
    "ValueForward",
    "OutlierReport",
    "ModelUpdate",
    "Ack",
    "ModelHandoff",
    "MessageCounter",
]


@dataclass(frozen=True)
class Message:
    """Base class; concrete messages define their payload and size."""

    def size_words(self) -> int:
        """Logical payload size in machine words."""
        raise NotImplementedError


@dataclass(frozen=True)
class ValueForward(Message):
    """A sample inclusion propagated upward with probability ``f``."""

    value: np.ndarray

    def size_words(self) -> int:
        return int(np.asarray(self.value).size) + 1   # value + timestamp


@dataclass(frozen=True)
class OutlierReport(Message):
    """A flagged value escalated for re-checking at the parent's level."""

    value: np.ndarray
    origin: int            # leaf id that produced the reading
    flagged_level: int     # 1-based level of the node that flagged it
    tick: int

    def size_words(self) -> int:
        return int(np.asarray(self.value).size) + 3


@dataclass(frozen=True)
class ModelUpdate(Message):
    """A global-model update flowing down the hierarchy (MGDD).

    ``slots``/``value`` describe an incremental change (these sample
    slots of the global kernel sample were replaced by ``value``);
    ``full_sample`` carries a complete re-broadcast instead (the lazy
    scheme).  ``stddev`` refreshes the bandwidth input either way.
    """

    stddev: np.ndarray
    slots: "tuple[int, ...]" = ()
    value: "np.ndarray | None" = None
    full_sample: "np.ndarray | None" = None
    window_size: int = 0

    def size_words(self) -> int:
        words = int(np.asarray(self.stddev).size) + 1
        if self.value is not None:
            words += int(np.asarray(self.value).size) + len(self.slots)
        if self.full_sample is not None:
            words += int(np.asarray(self.full_sample).size)
        return words


@dataclass(frozen=True)
class Ack(Message):
    """A per-hop transport acknowledgement (reliable transport only).

    Carries the sequence number of the data message it confirms; two
    words on the paper's 16-bit motes (sequence + sender tag).
    """

    seq: int

    def size_words(self) -> int:
        return 2


@dataclass(frozen=True)
class ModelHandoff(Message):
    """Detector state moved to a leader role's new physical bearer.

    ``words`` is the transfer size computed by
    :func:`~repro.network.election.handoff_cost_words` (kernel sample
    plus variance sketches).
    """

    leader: int
    words: int

    def size_words(self) -> int:
        return self.words


def _context(message: "Message", seq_no: "int | None") -> "dict[str, int]":
    """A message event's causal context: the reading it carries
    (OutlierReport only) plus the transport sequence number, if any."""
    context = lineage_fields(message)
    if seq_no is not None:
        context["seq_no"] = seq_no
    return context


@dataclass
class MessageCounter:
    """The message ledger: every send, delivery and drop, by message class.

    One method per attempt outcome.  :meth:`send` accounts a
    transmission attempt (``counts``/``words``), :meth:`deliver` one that
    reached its receiver (``delivered``) and :meth:`drop` one that did
    not (``dropped``, and ``drops_by_reason`` by cause).  Under
    :data:`repro.obs.ACTIVE` each also emits the matching
    ``message.send`` / ``message.deliver`` / ``message.drop`` event with
    the message's lineage context (:func:`~repro.obs.lineage
    .lineage_fields`) and the caller's transport ``seq_no``, so the trace
    and the counts balance by construction.  A driver that settles every
    attempt keeps ``sent == delivered + dropped`` per message kind
    (:meth:`conservation_failures` checks it).
    """

    counts: "dict[str, int]" = field(default_factory=dict)
    words: "dict[str, int]" = field(default_factory=dict)
    delivered: "dict[str, int]" = field(default_factory=dict)
    dropped: "dict[str, int]" = field(default_factory=dict)
    drops_by_reason: "dict[str, int]" = field(default_factory=dict)

    def send(self, message: Message, sender: int, dest: int, tick: int, *,
             seq_no: "int | None" = None, duplicate: bool = False) -> None:
        """Account one transmission attempt (one hop, one try)."""
        kind = type(message).__name__
        words = message.size_words()
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.words[kind] = self.words.get(kind, 0) + words
        if obs.ACTIVE:
            flag = {"duplicate": True} if duplicate else {}
            obs.emit("message.send", kind=kind, sender=sender, dest=dest,
                     words=words, tick=tick, **flag,
                     **_context(message, seq_no))

    def deliver(self, message: Message, dest: int, tick: int, *,
                seq_no: "int | None" = None,
                duplicate: bool = False) -> None:
        """Account an attempt that reached its receiver."""
        kind = type(message).__name__
        self.delivered[kind] = self.delivered.get(kind, 0) + 1
        if obs.ACTIVE:
            flag = {"duplicate": True} if duplicate else {}
            obs.emit("message.deliver", kind=kind, dest=dest, tick=tick,
                     **flag, **_context(message, seq_no))

    def drop(self, message: Message, reason: str, tick: int, *,
             dest: "int | None" = None,
             seq_no: "int | None" = None) -> None:
        """Account an attempt that did not reach its receiver.

        ``reason`` is the cause: ``"loss"`` (the radio lost it),
        ``"crash"`` (the receiver was down), ``"park-evict"`` (a full
        park buffer shed it) or ``"fleet-loss"`` (the fleet's loss
        injection).  ``dest`` is left out of the event when None.
        """
        kind = type(message).__name__
        self.dropped[kind] = self.dropped.get(kind, 0) + 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        if obs.ACTIVE:
            where = {} if dest is None else {"dest": dest}
            obs.emit("message.drop", kind=kind, reason=reason, **where,
                     tick=tick, **_context(message, seq_no))

    @property
    def total_messages(self) -> int:
        """Total messages across all kinds."""
        return sum(self.counts.values())

    @property
    def total_delivered(self) -> int:
        """Total delivered attempts across all kinds."""
        return sum(self.delivered.values())

    @property
    def total_dropped(self) -> int:
        """Total dropped attempts across all kinds."""
        return sum(self.dropped.values())

    def conservation_failures(self) -> "list[str]":
        """Kinds violating ``sent == delivered + dropped`` (empty = ok).

        Only meaningful when the driver settles every attempt; a
        counter fed by :meth:`send` alone reports every kind here.
        """
        return [kind for kind, sent in self.counts.items()
                if sent != self.delivered.get(kind, 0)
                + self.dropped.get(kind, 0)]

    @property
    def total_words(self) -> int:
        """Total payload words across all kinds."""
        return sum(self.words.values())

    def messages_per_tick(self, n_ticks: int) -> float:
        """Average messages per simulator tick (= per second at 1 Hz)."""
        if n_ticks <= 0:
            return 0.0
        return self.total_messages / n_ticks
