"""Trace event schema: the vocabulary every JSONL trace must speak.

Every record a :class:`repro.obs.trace.Tracer` emits carries the common
fields ``event`` (kind), ``seq`` (monotone int), ``t`` (wall-clock
float) and ``span`` (innermost open span id or None), plus kind-specific
required fields listed in :data:`EVENT_FIELDS`.  Extra fields are always
allowed (emitters attach context like ``tick`` freely, but a ``tick``,
where present, must be an int: the fleet merge orders events by it);
unknown event kinds and missing or mistyped required fields are errors.

The CI obs-smoke job and ``tools/trace_report.py --validate`` run every
emitted event through :func:`validate_event`.

Schema versioning of enrichments: fields added to an *existing* kind
after its first release go into :data:`EVENT_OPTIONAL_FIELDS`, not
:data:`EVENT_FIELDS` -- they are type-checked only when present, so
traces recorded before the enrichment stay ``--validate``-green.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

__all__ = ["EVENT_FIELDS", "EVENT_KINDS", "EVENT_OPTIONAL_FIELDS",
           "SPAN_NAMES", "validate_event", "validate_events"]

#: The span hierarchy (outermost to innermost): a run contains ticks,
#: a tick contains per-node delivery spans and drain/ingest phases.
SPAN_NAMES = ("run", "tick", "node", "phase")

_INT = "int"
_OPT_INT = "int|none"
_FLOAT = "float"
_STR = "str"
_BOOL = "bool"

#: event kind -> {required field: type tag}.  Common fields are checked
#: separately and omitted here.
EVENT_FIELDS: "Mapping[str, Mapping[str, str]]" = MappingProxyType({
    # span structure
    "span_open": {"id": _INT, "name": _STR, "parent": _OPT_INT},
    "span_close": {"id": _INT},
    # message plane (emitted only by MessageCounter's send/deliver/drop)
    "message.send": {"kind": _STR, "sender": _INT, "dest": _INT,
                     "words": _INT},
    "message.deliver": {"kind": _STR, "dest": _INT},
    "message.drop": {"kind": _STR, "reason": _STR},
    # reliable-transport lifecycle
    "transport.retransmit": {"seq_no": _INT, "attempt": _INT},
    "transport.expire": {"seq_no": _INT},
    "transport.park": {"seq_no": _INT, "dest": _INT},
    "transport.park_evict": {"seq_no": _INT, "dest": _INT},
    "transport.flush": {"seq_no": _INT, "dest": _INT},
    "transport.sender_crash": {"seq_no": _INT, "sender": _INT},
    # election / bearer repair
    "election.handoff": {"leader": _INT, "new_bearer": _INT,
                         "reason": _STR},
    # chain-sample maintenance
    "sample.evict": {"count": _INT},
    # estimator lifecycle
    "estimator.rebuild": {"sample_size": _INT, "dur_s": _FLOAT},
    # detection decisions
    "detector.flag": {"node": _INT, "level": _INT, "origin": _INT,
                      "tick": _INT},
    "detector.check": {"node": _INT, "level": _INT, "origin": _INT,
                       "flagged": _BOOL},
    "detector.model_update": {"node": _INT, "policy": _STR,
                              "full": _BOOL},
    "detector.pause": {"node": _INT, "tick": _INT},
    # model-health monitoring (repro.obs.health)
    "health.check": {"tick": _INT, "n_nodes": _INT},
    "health.node": {"node": _INT, "tick": _INT, "score": _FLOAT},
    "health.drift": {"node": _INT, "tick": _INT, "l1": _FLOAT,
                     "linf": _FLOAT},
    "health.slo_violation": {"node": _INT, "tick": _INT, "rule": _STR},
    # supervised engine checkpoint/recovery (repro.engine)
    "engine.checkpoint": {"tick": _INT, "n_bytes": _INT, "dur_s": _FLOAT},
    "engine.restore": {"tick": _INT, "checkpoint_tick": _INT,
                       "dur_s": _FLOAT},
    "engine.replay": {"tick": _INT, "n_ticks": _INT, "dur_s": _FLOAT},
    # detection lineage (repro.obs.lineage)
    "lineage.ingest": {"node": _INT, "tick": _INT},
    "lineage.model_merge": {"node": _INT, "tick": _INT,
                            "model_seq": _INT},
    "lineage.detect": {"node": _INT, "level": _INT, "origin": _INT,
                       "reading_tick": _INT, "flag_tick": _INT,
                       "latency": _INT},
})

EVENT_KINDS = frozenset(EVENT_FIELDS)

#: event kind -> {optional field: type tag}.  These are enrichments
#: added after the kind first shipped; validation type-checks them only
#: when present so pre-enrichment traces keep validating.
EVENT_OPTIONAL_FIELDS: "Mapping[str, Mapping[str, str]]" = \
    MappingProxyType({
        # Lineage enrichment (PR 9): the decision inputs and the
        # event-time -> flag-time latency of each flag.
        "detector.flag": {"prob": _FLOAT, "threshold": _FLOAT,
                          "model_seq": _INT, "reading_tick": _INT,
                          "flag_tick": _INT, "latency": _INT,
                          "staleness": _INT},
        "lineage.detect": {"prob": _FLOAT, "threshold": _FLOAT,
                           "model_seq": _INT, "staleness": _INT},
        # Causal context threaded onto the message plane for
        # OutlierReport-bearing envelopes.
        # ``duplicate`` marks a transport-duplicated copy; a fleet
        # drop carries no ``dest``.
        "message.send": {"seq_no": _INT, "origin": _INT,
                         "reading_tick": _INT, "duplicate": _BOOL},
        "message.deliver": {"seq_no": _INT, "origin": _INT,
                            "reading_tick": _INT, "duplicate": _BOOL},
        "message.drop": {"seq_no": _INT, "origin": _INT,
                         "reading_tick": _INT, "dest": _INT},
        "transport.retransmit": {"origin": _INT, "reading_tick": _INT},
        "transport.expire": {"origin": _INT, "reading_tick": _INT},
        "transport.park": {"origin": _INT, "reading_tick": _INT},
        "transport.park_evict": {"origin": _INT, "reading_tick": _INT},
        "transport.flush": {"origin": _INT, "reading_tick": _INT},
        "transport.sender_crash": {"origin": _INT, "reading_tick": _INT},
    })


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(value: object, tag: str) -> bool:
    if tag == _INT:
        return _is_int(value)
    if tag == _OPT_INT:
        return value is None or _is_int(value)
    if tag == _FLOAT:
        return (isinstance(value, float)
                or (_is_int(value)))
    if tag == _STR:
        return isinstance(value, str)
    if tag == _BOOL:
        return isinstance(value, bool)
    raise AssertionError(f"unknown type tag {tag!r}")  # pragma: no cover


def validate_event(record: "Mapping[str, object]") -> "list[str]":
    """Problems with one event record; empty list means valid."""
    problems: "list[str]" = []
    kind = record.get("event")
    if not isinstance(kind, str):
        return [f"event kind missing or not a string: {kind!r}"]
    if kind not in EVENT_KINDS:
        return [f"unknown event kind {kind!r}"]
    if not _is_int(record.get("seq")):
        problems.append(f"{kind}: 'seq' missing or not an int")
    t = record.get("t")
    if not (isinstance(t, float) or _is_int(t)):
        problems.append(f"{kind}: 't' missing or not a number")
    span = record.get("span", "missing")
    if not (span is None or _is_int(span)):
        problems.append(f"{kind}: 'span' must be an int or None")
    if "tick" in record and "tick" not in EVENT_FIELDS[kind] \
            and not _is_int(record["tick"]):
        problems.append(f"{kind}: 'tick' must be an int")
    for field, tag in EVENT_FIELDS[kind].items():
        if field not in record:
            problems.append(f"{kind}: required field {field!r} missing")
        elif not _check_type(record[field], tag):
            problems.append(
                f"{kind}: field {field!r} has wrong type "
                f"({type(record[field]).__name__}, wanted {tag})")
    for field, tag in EVENT_OPTIONAL_FIELDS.get(kind, {}).items():
        if field in record and not _check_type(record[field], tag):
            problems.append(
                f"{kind}: optional field {field!r} has wrong type "
                f"({type(record[field]).__name__}, wanted {tag})")
    if kind == "span_open" and record.get("name") not in SPAN_NAMES:
        problems.append(
            f"span_open: name {record.get('name')!r} not in {SPAN_NAMES}")
    return problems


def validate_events(
        records: "list[Mapping[str, object]]") -> "list[str]":
    """Problems across a whole trace, each prefixed with its index."""
    problems: "list[str]" = []
    for i, record in enumerate(records):
        for problem in validate_event(record):
            problems.append(f"[{i}] {problem}")
    return problems
