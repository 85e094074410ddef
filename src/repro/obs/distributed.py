"""Distributed telemetry: per-worker trace spools and deterministic merge.

The single-process observability stack (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`) assumes one ring, one registry, one sink.
This module makes it span processes, following the per-site-summary /
coordinator shape of the Papapetrou et al. sketch paper (PAPERS.md):

* **Spools** -- each worker writes its own JSONL spool file under a run
  directory: a provenance *header* line (worker id, pid, host, python),
  then schema-valid event lines streamed by the worker's
  :class:`~repro.obs.trace.Tracer` sink, then a *footer* line recording
  emission totals, per-kind ring-overflow drops and the worker's
  :class:`~repro.network.messages.MessageCounter` totals.  A spool with
  a torn final line (the worker died mid-write) is recovered up to the
  tear -- tolerated and counted, mirroring the PR-8 journal discipline;
  corruption *before* the tail is fatal.

* **Merge** -- :func:`merge_spools` stitches N spools into one coherent
  trace under a stable total order on ``(tick, worker_id, seq)``, where
  ``tick`` is each worker's monotone high-water tick at emission time
  (so a worker's own ``seq`` order is never reordered, and workers
  interleave by simulation progress, not wall clock).  Per-worker span
  ids are offset into disjoint ranges, global ``seq`` is renumbered in
  merge order, and every event gains ``worker_id``/``worker_seq``
  provenance.  The output is plain event JSONL: schema validation,
  ``tools/trace_report.py`` and ``repro explain`` all consume it
  unchanged.  Merging the same spools in any input order is
  byte-identical.

* **Global conservation** -- :func:`conservation_failures` checks the
  PR-4 identity fleet-wide: per-kind ``message.send`` / ``.deliver`` /
  ``.drop`` events in the merged trace must equal the *sum* of all
  workers' MessageCounter totals exactly, and ``sent == delivered +
  dropped`` must hold on the summed totals.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import socket
import time
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro._artifacts import atomic_write_text
from repro._exceptions import ParameterError, SnapshotError
from repro.obs import report

__all__ = [
    "MergedTrace",
    "SPOOL_MAGIC",
    "SPOOL_VERSION",
    "Spool",
    "append_spool_footer",
    "conservation_failures",
    "counter_totals",
    "is_spool_file",
    "load_metrics_snapshots",
    "load_spool",
    "load_spools",
    "load_trace",
    "load_trace_meta",
    "merge_spools",
    "spool_path",
    "sum_counter_totals",
    "worker_trace_sink",
    "write_merged",
    "write_spool_header",
]

#: Spool format marker + version, stamped into every header line.
SPOOL_MAGIC = "repro-spool"
SPOOL_VERSION = 1

#: The counter-totals dict shape shared by footers and metrics files.
_COUNTER_KEYS = ("counts", "delivered", "dropped", "words")


def spool_path(run_dir: "str | Path", worker_id: int) -> Path:
    """Canonical spool file path for ``worker_id`` under ``run_dir``."""
    return Path(run_dir) / f"worker-{int(worker_id):04d}.spool.jsonl"


def counter_totals(counter: object) -> "dict[str, dict[str, int]]":
    """A MessageCounter's per-kind totals as a plain JSON-able dict."""
    totals: "dict[str, dict[str, int]]" = {}
    for key in _COUNTER_KEYS:
        table = getattr(counter, key, None)
        if not isinstance(table, Mapping):
            raise ParameterError(
                f"counter object lacks mapping attribute {key!r}")
        totals[key] = {str(kind): int(n) for kind, n in sorted(table.items())}
    return totals


def sum_counter_totals(
        totals: "Iterable[Mapping[str, Mapping[str, int]]]",
) -> "dict[str, dict[str, int]]":
    """Element-wise sum of per-worker counter totals (fleet totals)."""
    out: "dict[str, dict[str, int]]" = {key: {} for key in _COUNTER_KEYS}
    for table in totals:
        for key in _COUNTER_KEYS:
            for kind, n in table.get(key, {}).items():
                out[key][str(kind)] = out[key].get(str(kind), 0) + int(n)
    return out


# ----------------------------------------------------------------------
# spool writing


def write_spool_header(path: "str | Path", worker_id: int,
                       **extra: object) -> Path:
    """Create a spool file holding just the provenance header line."""
    header: "dict[str, object]" = {
        "spool": SPOOL_MAGIC,
        "version": SPOOL_VERSION,
        "worker_id": int(worker_id),
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "created_t": time.time(),
    }
    header.update(extra)
    target = Path(path)
    target.write_text(
        json.dumps({"spool_header": header}, sort_keys=True) + "\n",
        encoding="utf-8")
    return target


def append_spool_footer(path: "str | Path", worker_id: int, *,
                        n_emitted: int,
                        ring_dropped_by_kind: "Mapping[str, int]",
                        counter: "Mapping[str, Mapping[str, int]] | None",
                        ) -> None:
    """Append the closing footer line to a finished spool."""
    footer: "dict[str, object]" = {
        "worker_id": int(worker_id),
        "n_emitted": int(n_emitted),
        "ring_dropped": int(sum(ring_dropped_by_kind.values())),
        "ring_dropped_by_kind": dict(sorted(ring_dropped_by_kind.items())),
        "counter": dict(counter) if counter is not None else None,
    }
    with open(path, "a", encoding="utf-8") as sink:
        sink.write(json.dumps({"spool_footer": footer}, sort_keys=True) + "\n")


@contextlib.contextmanager
def worker_trace_sink(run_dir: "str | Path", worker_id: int, *,
                      counter: "object | None" = None,
                      ) -> "Iterator[Path]":
    """Scoped spooled tracing for one worker process.

    Resets the process-local :mod:`repro.obs` singletons (each worker
    owns its telemetry -- no state leaks in from a previous run in the
    same process), writes the spool header, opens the tracer sink in
    append mode behind it, activates tracing for the scope, and on exit
    closes the sink and appends the footer (emission totals, per-kind
    ring drops, and ``counter``'s totals when one is given).
    """
    from repro import obs

    run = Path(run_dir)
    run.mkdir(parents=True, exist_ok=True)
    path = spool_path(run, worker_id)
    write_spool_header(path, worker_id)
    obs.reset()
    with obs.enabled():
        obs.tracer().open_sink(str(path), append=True)
        try:
            yield path
        finally:
            tracer = obs.tracer()
            n_emitted = tracer.n_emitted
            dropped = tracer.dropped_by_kind()
            tracer.close_sink()
            append_spool_footer(
                path, worker_id, n_emitted=n_emitted,
                ring_dropped_by_kind=dropped,
                counter=counter_totals(counter)
                if counter is not None else None)


# ----------------------------------------------------------------------
# spool reading


class Spool:
    """One worker's recovered spool: header, events, optional footer."""

    def __init__(self, worker_id: int, header: "dict[str, object]",
                 events: "list[dict[str, object]]",
                 footer: "dict[str, object] | None",
                 n_torn: int = 0,
                 path: "Path | None" = None) -> None:
        self.worker_id = int(worker_id)
        self.header = header
        self.events = events
        self.footer = footer
        self.n_torn = int(n_torn)
        self.path = path

    @property
    def clean(self) -> bool:
        """True when the spool closed properly: footer present, no tear."""
        return self.footer is not None and self.n_torn == 0

    @property
    def counter(self) -> "dict[str, dict[str, int]] | None":
        """The worker's MessageCounter totals from the footer, if any."""
        if self.footer is None:
            return None
        totals = self.footer.get("counter")
        if not isinstance(totals, Mapping):
            return None
        return {str(key): {str(k): int(v) for k, v in table.items()}
                for key, table in totals.items()
                if isinstance(table, Mapping)}

    @property
    def ring_dropped_by_kind(self) -> "dict[str, int]":
        """Per-kind ring-overflow drops the worker reported, if any."""
        if self.footer is None:
            return {}
        table = self.footer.get("ring_dropped_by_kind")
        if not isinstance(table, Mapping):
            return {}
        return {str(k): int(v) for k, v in table.items()}


def is_spool_file(path: "str | Path") -> bool:
    """True when ``path``'s first line is a spool header."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
    except OSError:
        return False
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        return False
    return isinstance(record, dict) and "spool_header" in record


def load_spool(path: "str | Path") -> Spool:
    """Parse one spool file, recovering a torn tail.

    The journal discipline of :mod:`repro.engine.journal`, applied to
    JSONL: a final line that fails to parse is a *tear* (the worker
    died mid-write) -- dropped and counted in ``n_torn``, never
    propagated.  A line that fails to parse *before* the tail means the
    file was corrupted, not torn, and raises :class:`SnapshotError`.
    A missing footer (worker never closed the spool) leaves
    ``footer=None`` and ``clean=False``.
    """
    target = Path(path)
    raw_lines = target.read_text(encoding="utf-8").splitlines()
    lines = [line for line in raw_lines if line.strip()]
    if not lines:
        raise ParameterError(f"{target}: empty file is not a spool")

    def parse(i: int, line: str) -> "dict[str, object] | None":
        """The parsed record, or None for a tolerated torn tail."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return None
            raise SnapshotError(
                f"{target}: corrupt spool line {i + 1} "
                "(interior damage, not a torn tail)") from None
        if not isinstance(record, dict):
            raise SnapshotError(
                f"{target}: spool line {i + 1} is not a JSON object")
        return record

    head = parse(0, lines[0])
    if head is None or "spool_header" not in head:
        raise ParameterError(f"{target}: missing spool header line")
    header = head["spool_header"]
    if not isinstance(header, dict) or header.get("spool") != SPOOL_MAGIC:
        raise ParameterError(f"{target}: malformed spool header")
    version = header.get("version")
    if version != SPOOL_VERSION:
        raise ParameterError(
            f"{target}: unsupported spool version {version!r} "
            f"(this reader speaks {SPOOL_VERSION})")
    worker_id = header.get("worker_id")
    if not isinstance(worker_id, int) or isinstance(worker_id, bool):
        raise ParameterError(f"{target}: spool header lacks a worker_id")

    events: "list[dict[str, object]]" = []
    footer: "dict[str, object] | None" = None
    n_torn = 0
    for i, line in enumerate(lines[1:], start=1):
        record = parse(i, line)
        if record is None:
            n_torn += 1
            break
        if footer is not None:
            raise SnapshotError(
                f"{target}: data after spool footer (line {i + 1})")
        if "spool_footer" in record:
            body = record["spool_footer"]
            if not isinstance(body, dict):
                raise SnapshotError(f"{target}: malformed spool footer")
            footer = body
        elif "spool_header" in record:
            raise SnapshotError(
                f"{target}: second spool header at line {i + 1}")
        elif isinstance(record.get("event"), str):
            events.append(record)
        else:
            raise SnapshotError(
                f"{target}: line {i + 1} is neither an event nor a footer")
    return Spool(worker_id, header, events, footer,
                 n_torn=n_torn, path=target)


def load_spools(run_dir: "str | Path") -> "list[Spool]":
    """All spools under a run directory, ordered by worker id."""
    run = Path(run_dir)
    paths = sorted(run.glob("worker-*.spool.jsonl"))
    if not paths:
        raise ParameterError(f"{run}: no worker-*.spool.jsonl spools found")
    spools = [load_spool(path) for path in paths]
    seen: "dict[int, Path]" = {}
    for spool in spools:
        if spool.worker_id in seen:
            raise ParameterError(
                f"duplicate worker_id {spool.worker_id} in "
                f"{seen[spool.worker_id]} and {spool.path}")
        assert spool.path is not None
        seen[spool.worker_id] = spool.path
    return sorted(spools, key=lambda s: s.worker_id)


# ----------------------------------------------------------------------
# merge


class MergedTrace:
    """The result of merging worker spools into one coherent trace."""

    def __init__(self, events: "list[dict[str, object]]",
                 worker_ids: "list[int]",
                 ring_dropped_by_worker: "dict[int, dict[str, int]]",
                 torn_by_worker: "dict[int, int]",
                 counter_totals_summed:
                 "dict[str, dict[str, int]] | None") -> None:
        self.events = events
        self.worker_ids = worker_ids
        self.ring_dropped_by_worker = ring_dropped_by_worker
        self.torn_by_worker = torn_by_worker
        self.counter_totals = counter_totals_summed

    @property
    def clean(self) -> bool:
        """True when no contributing spool was torn."""
        return not any(self.torn_by_worker.values())

    @property
    def n_ring_dropped(self) -> int:
        """Total ring-evicted events across all workers."""
        return sum(sum(table.values())
                   for table in self.ring_dropped_by_worker.values())


def _event_tick(record: "Mapping[str, object]") -> "int | None":
    tick = record.get("tick")
    if isinstance(tick, int) and not isinstance(tick, bool):
        return tick
    return None


def merge_spools(spools: "Sequence[Spool]") -> MergedTrace:
    """Stitch N worker spools into one deterministically ordered trace.

    Ordering key per event: ``(tick, worker_id, seq)`` where ``tick``
    is the worker's monotone *high-water* tick at emission time (the
    max ``tick`` field seen so far in that worker's spool; -1 before
    any).  The high-water carry -- rather than each event's own tick --
    matters because late events legitimately reference old ticks (a
    coordinator delivering a reading flagged long ago): sorting on raw
    ticks would reorder a worker's own sequence and break the lineage
    reconstruction's "no hops from the future" ``seq`` horizon.  With
    the carry, each worker's ``seq`` order is preserved exactly and
    workers interleave by simulation progress.

    The merged events are renumbered: ``seq`` becomes the global merge
    order (so downstream consumers keep their monotone-``seq``
    assumption), the original per-worker value moves to ``worker_seq``,
    ``worker_id`` is stamped on every event, and span ids are offset
    into per-worker disjoint ranges so ``span_open``/``span_close``
    pairs stay unambiguous.  Input order is irrelevant: spools are
    sorted by worker id first, so the output is byte-identical for any
    permutation of the same spools.
    """
    ordered = sorted(spools, key=lambda s: s.worker_id)
    seen_ids = [s.worker_id for s in ordered]
    if len(set(seen_ids)) != len(seen_ids):
        raise ParameterError(
            f"duplicate worker ids in spools: {seen_ids}")

    # Disjoint span-id ranges: worker w's span ids shift by the total
    # span-id space of all lower-numbered workers.
    span_base: "dict[int, int]" = {}
    base = 0
    for spool in ordered:
        span_base[spool.worker_id] = base
        max_span = -1
        for record in spool.events:
            if record.get("event") == "span_open":
                span_id = record.get("id")
                if isinstance(span_id, int) and not isinstance(span_id, bool):
                    max_span = max(max_span, span_id)
        base += max_span + 1

    keyed: "list[tuple[int, int, int, dict[str, object]]]" = []
    for spool in ordered:
        high_water = -1
        for record in spool.events:
            tick = _event_tick(record)
            if tick is not None and tick > high_water:
                high_water = tick
            seq = record.get("seq")
            if not isinstance(seq, int) or isinstance(seq, bool):
                raise ParameterError(
                    f"spool worker {spool.worker_id}: event without an "
                    f"int 'seq': {record.get('event')!r}")
            keyed.append((high_water, spool.worker_id, seq, record))
    keyed.sort(key=lambda item: item[:3])

    events: "list[dict[str, object]]" = []
    for global_seq, (_, worker_id, worker_seq, record) in enumerate(keyed):
        merged = dict(record)
        merged["seq"] = global_seq
        merged["worker_id"] = worker_id
        merged["worker_seq"] = worker_seq
        offset = span_base[worker_id]
        if offset:
            span = merged.get("span")
            if isinstance(span, int) and not isinstance(span, bool):
                merged["span"] = span + offset
            if merged.get("event") in ("span_open", "span_close"):
                span_id = merged.get("id")
                if isinstance(span_id, int) and not isinstance(span_id, bool):
                    merged["id"] = span_id + offset
            if merged.get("event") == "span_open":
                parent = merged.get("parent")
                if isinstance(parent, int) and not isinstance(parent, bool):
                    merged["parent"] = parent + offset
        events.append(merged)

    counters = [s.counter for s in ordered]
    present = [c for c in counters if c is not None]
    return MergedTrace(
        events=events,
        worker_ids=seen_ids,
        ring_dropped_by_worker={s.worker_id: s.ring_dropped_by_kind
                                for s in ordered},
        torn_by_worker={s.worker_id: s.n_torn for s in ordered},
        counter_totals_summed=sum_counter_totals(present)
        if len(present) == len(ordered) and present else None)


def write_merged(events: "Sequence[Mapping[str, object]]",
                 path: "str | Path") -> Path:
    """Write merged events as plain JSONL (sorted keys -> stable bytes)."""
    payload = "".join(json.dumps(dict(record), sort_keys=True) + "\n"
                      for record in events)
    return atomic_write_text(path, payload)


# ----------------------------------------------------------------------
# global conservation


def conservation_failures(
        events: "Sequence[Mapping[str, object]]",
        totals: "Mapping[str, Mapping[str, int]]") -> "list[str]":
    """Violations of the global per-kind conservation identity.

    Checks, per message kind, that the merged trace's ``message.send``
    / ``message.deliver`` / ``message.drop`` event counts (and summed
    send words), as :func:`repro.obs.report.summarize` folds them,
    equal the fleet-summed MessageCounter ``totals`` *exactly*, and
    that ``sent == delivered + dropped`` holds on the totals.  Empty
    list means the books balance.
    """
    observed = report.summarize(events)["messages"]
    assert isinstance(observed, dict)
    failures: "list[str]" = []
    kinds = sorted(set(observed)
                   | set(totals.get("counts", {}))
                   | set(totals.get("delivered", {}))
                   | set(totals.get("dropped", {})))
    for mkind in kinds:
        row = observed.get(
            mkind, {"send": 0, "deliver": 0, "drop": 0, "words": 0})
        sent = int(totals.get("counts", {}).get(mkind, 0))
        delivered = int(totals.get("delivered", {}).get(mkind, 0))
        dropped = int(totals.get("dropped", {}).get(mkind, 0))
        words = int(totals.get("words", {}).get(mkind, 0))
        for verb, counted in (("send", sent), ("deliver", delivered),
                              ("drop", dropped)):
            if row[verb] != counted:
                failures.append(
                    f"{mkind}: trace has {row[verb]} {verb} event(s) but "
                    f"counters say {counted}")
        if row["words"] != words:
            failures.append(
                f"{mkind}: trace send words {row['words']} != counter "
                f"words {words}")
        if sent != delivered + dropped:
            failures.append(
                f"{mkind}: sent {sent} != delivered {delivered} + "
                f"dropped {dropped}")
    return failures


# ----------------------------------------------------------------------
# unified loading (file | spool | run directory)


def load_trace_meta(
        path: "str | Path",
) -> "tuple[list[dict[str, object]], dict[str, object]]":
    """Events plus distributed-telemetry meta for any trace source.

    ``path`` may be a plain JSONL trace file, a single worker spool, or
    a run directory of spools (merged on the fly).  The meta dict is
    empty for plain traces; for spool sources it carries worker ids,
    per-worker ring drops, torn-tail counts and (when every footer is
    present) the fleet-summed counter totals.
    """
    target = Path(path)
    if target.is_dir():
        merged = merge_spools(load_spools(target))
        return merged.events, _merged_meta(merged)
    if is_spool_file(target):
        merged = merge_spools([load_spool(target)])
        return merged.events, _merged_meta(merged)
    return report.load_events(str(target)), {}


def _merged_meta(merged: MergedTrace) -> "dict[str, object]":
    return {
        "worker_ids": list(merged.worker_ids),
        "ring_dropped_by_worker": {
            str(w): dict(table)
            for w, table in merged.ring_dropped_by_worker.items()},
        "n_ring_dropped": merged.n_ring_dropped,
        "torn_by_worker": {str(w): n
                           for w, n in merged.torn_by_worker.items()},
        "clean": merged.clean,
        "counter_totals": merged.counter_totals,
    }


def load_trace(path: "str | Path") -> "list[dict[str, object]]":
    """Events for any trace source (plain file, spool, or run dir)."""
    events, _ = load_trace_meta(path)
    return events


def load_metrics_snapshots(
        paths: "Sequence[str | Path]",
) -> "list[dict[str, object]]":
    """Metrics snapshots from files and/or directories, merge-ready.

    Accepts, per path: a metrics snapshot JSON file (the
    ``MetricsRegistry.snapshot()`` shape), a worker metrics document
    wrapping one under a ``"metrics"`` key (what the fleet pilot
    writes), or a directory -- scanned for ``*.metrics.json`` files.
    """
    snapshots: "list[dict[str, object]]" = []
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            files = sorted(target.glob("*.metrics.json"))
            if not files:
                raise ParameterError(
                    f"{target}: no *.metrics.json files found")
            snapshots.extend(load_metrics_snapshots(files))
            continue
        try:
            document = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(
                f"cannot read metrics snapshot {target}: {exc}") from exc
        if not isinstance(document, dict):
            raise ParameterError(
                f"{target}: metrics snapshot must be a JSON object")
        inner = document.get("metrics", document)
        if not isinstance(inner, dict) or not (
                "counters" in inner or "gauges" in inner
                or "histograms" in inner):
            raise ParameterError(
                f"{target}: no metrics snapshot found "
                "(expected counters/gauges/histograms)")
        snapshots.append(inner)
    return snapshots
