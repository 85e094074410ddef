"""Per-layer timing from outside the program, and the ledger it adds up to.

The spans are recorded by wrapping public layer entry points on their
classes (``setattr`` on the class, restored afterwards), so the program
under test carries no benchmark code and an untraced run pays nothing.
Each span holds its site name, start and end in ``perf_counter_ns``,
span id, parent span id, the batch (gateway call) it served, and a row
count where the site has one.  Spans stay in memory and are written as
JSONL when the run ends.

A site's self time is the time its spans cover minus the time their
child spans cover.  The measured phase is a set of wall-clock windows
(the tick blocks and batch rounds of the traced cycles); the part of
those windows no top-level span covers is ``unattributed``.  Self times
plus ``unattributed`` must add up to the wall time of the windows, which
:func:`ledger` checks.

This module imports :mod:`repro` only inside :func:`sites`, so the
``layers`` report can run on a trace file without the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: Largest ``unattributed.share`` a traced run may leave.
MAX_UNATTRIBUTED_SHARE = 0.10

#: Sites that every workload exercises; only these report ``self_s``,
#: so no per-layer time reads a constant zero on some workload.
COMMON_SITES = (
    "detectors.model",
    "streams.chain.offer_many",
    "streams.sketch.insert_many",
    "core.kde.build",
    "core.range_batch",
)


@dataclass(frozen=True)
class Site:
    """One wrapped layer entry point."""

    name: str
    owner: type
    attr: str
    #: Positional argument (after ``self``) whose length is the site's
    #: row count, or None when the site counts only calls.
    rows_arg: "int | None" = None


def sites() -> "tuple[Site, ...]":
    """Every wrapped site, named after the module that owns it."""
    from repro.core.estimator import KernelDensityEstimator
    from repro.core.mdef import MDEFOutlierDetector
    from repro.detectors._state import StreamModelState
    from repro.detectors.d3 import D3LeafNode, D3ParentNode
    from repro.detectors.single import OnlineOutlierDetector
    from repro.engine.checkpoint import CheckpointStore
    from repro.engine.core import DetectorEngine
    from repro.engine.journal import Journal
    from repro.engine.supervisor import SupervisedEngine
    from repro.network.simulator import NetworkSimulator
    from repro.streams.sampling import ChainSample
    from repro.streams.variance import MultiDimVarianceSketch

    return (
        Site("engine.ingest", DetectorEngine, "ingest"),
        Site("engine.supervisor.ingest", SupervisedEngine, "ingest"),
        Site("engine.supervisor.journal_append", Journal, "append"),
        Site("engine.supervisor.checkpoint", CheckpointStore, "save"),
        Site("engine.supervisor.restore", CheckpointStore, "load"),
        Site("detectors.process_many", OnlineOutlierDetector, "process_many"),
        Site("detectors.model", StreamModelState, "model"),
        Site("detectors.d3.leaf.on_readings", D3LeafNode, "on_readings"),
        Site("detectors.d3.parent.on_message", D3ParentNode, "on_message"),
        Site("streams.chain.offer_many", ChainSample, "offer_many"),
        Site("streams.sketch.insert_many", MultiDimVarianceSketch,
             "insert_many"),
        Site("core.kde.build", KernelDensityEstimator, "__init__"),
        # The detector layer calls the batch path directly, not the
        # public range_probability, so that is the site to wrap.
        Site("core.range_batch", KernelDensityEstimator,
             "_range_probability_batch", rows_arg=0),
        Site("core.range_probability", KernelDensityEstimator,
             "range_probability"),
        Site("core.mdef.check_many", MDEFOutlierDetector, "check_many"),
        Site("network.run_batched", NetworkSimulator, "run_batched"),
    )


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: (site, start_ns, end_ns, span_id, parent_id, batch, rows)
        self.spans: "list[tuple[str, int, int, int, int, int, int]]" = []
        #: (start_ns, end_ns) of each traced window of the measured phase.
        self.windows: "list[tuple[int, int]]" = []
        #: Gateway call the next spans belong to; set by the caller.
        self.batch = 0
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, site: Site, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        rows_arg = site.rows_arg

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows = len(args[1 + rows_arg]) if rows_arg is not None else 0
                spans.append((site.name, start, end, span_id, parent,
                              self.batch, rows))
        return traced

    @contextlib.contextmanager
    def installed(self, all_sites: "tuple[Site, ...]") -> Iterator[None]:
        """Wrap every site for the duration of the block, as one window."""
        originals = [(site, site.owner.__dict__[site.attr])
                     for site in all_sites]
        try:
            for site, fn in originals:
                setattr(site.owner, site.attr, self._wrap(site, fn))
            start = time.perf_counter_ns()
            try:
                yield
            finally:
                self.windows.append((start, time.perf_counter_ns()))
        finally:
            for site, fn in originals:
                setattr(site.owner, site.attr, fn)

    def write(self, path: Path, header: "dict[str, Any]") -> None:
        """Write header, windows and spans as JSONL."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(json.dumps({"kind": "header", **header}) + "\n")
            for start, end in self.windows:
                sink.write(json.dumps(
                    {"kind": "window", "start": start, "end": end}) + "\n")
            for name, start, end, span_id, parent, batch, rows in self.spans:
                sink.write(json.dumps({
                    "kind": "span", "name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent, "batch": batch,
                    "rows": rows}) + "\n")


def read_trace(path: Path) -> "tuple[dict[str, Any], list, list]":
    """(header, windows, spans) of a trace written by :meth:`Recorder.write`."""
    header: "dict[str, Any]" = {}
    windows: "list[tuple[int, int]]" = []
    spans: "list[tuple[str, int, int, int, int, int, int]]" = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            rec = json.loads(line)
            if rec["kind"] == "header":
                header = rec
            elif rec["kind"] == "window":
                windows.append((rec["start"], rec["end"]))
            else:
                spans.append((rec["name"], rec["start"], rec["end"],
                              rec["id"], rec["parent"], rec["batch"],
                              rec["rows"]))
    return header, windows, spans


class LedgerError(ValueError):
    """The spans do not reconcile to the wall time of the measured phase."""


def ledger(windows: "list[tuple[int, int]]",
           spans: "list[tuple[str, int, int, int, int, int, int]]",
           ) -> "dict[str, Any]":
    """Self time, calls and rows per site, plus the unattributed rest.

    Raises :class:`LedgerError` when a span's children outlast it, a
    top-level span leaves the measured windows, or self times plus the
    gaps between top-level spans do not add up to the wall time.
    """
    wall = sum(end - start for start, end in windows)
    by_id = {span[3]: span for span in spans}
    child_ns: "dict[int, int]" = {}
    for _, start, end, _, parent, _, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    per_site: "dict[str, dict[str, int]]" = {}
    top_ns = 0
    for name, start, end, span_id, parent, _, rows in spans:
        own = end - start - child_ns.get(span_id, 0)
        if own < 0:
            raise LedgerError(f"span {span_id} ({name}) is shorter than "
                              f"its children")
        if parent == 0:
            top_ns += end - start
            if not any(w0 <= start and end <= w1 for w0, w1 in windows):
                raise LedgerError(f"top-level span {span_id} ({name}) lies "
                                  f"outside the measured windows")
        elif parent not in by_id:
            raise LedgerError(f"span {span_id} ({name}) has unknown "
                              f"parent {parent}")
        entry = per_site.setdefault(name, {"calls": 0, "self_ns": 0,
                                           "rows": 0})
        entry["calls"] += 1
        entry["self_ns"] += own
        entry["rows"] += rows
    unattributed = wall - top_ns
    total_self = sum(entry["self_ns"] for entry in per_site.values())
    if unattributed < 0 or total_self + unattributed != wall:
        raise LedgerError(
            f"self times ({total_self} ns) plus unattributed "
            f"({unattributed} ns) do not add up to the wall time "
            f"({wall} ns)")
    return {"wall_ns": wall, "unattributed_ns": unattributed,
            "sites": per_site}


def layer_metrics(book: "dict[str, Any]",
                  all_sites: "tuple[str, ...]") -> "dict[str, tuple[float, str]]":
    """Per-site ``calls``/``share`` (and ``self_s`` for common sites)."""
    wall = book["wall_ns"]
    out: "dict[str, tuple[float, str]]" = {}
    for name in all_sites:
        entry = book["sites"].get(name, {"calls": 0, "self_ns": 0, "rows": 0})
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.share"] = (entry["self_ns"] / wall, "share")
        if name in COMMON_SITES:
            out[f"{name}.self_s"] = (entry["self_ns"] / 1e9, "s")
    out["unattributed.share"] = (book["unattributed_ns"] / wall, "share")
    builds = book["sites"].get("core.kde.build", {}).get("calls", 0)
    models = book["sites"].get("detectors.model", {}).get("calls", 0)
    out["detectors.model.rebuild_ratio"] = (
        builds / models if models else 0.0, "ratio")
    out["core.range_batch.rows"] = (
        book["sites"].get("core.range_batch", {}).get("rows", 0), "count")
    return out


def report(path: Path) -> int:
    """Print self time per layer for a trace file; 1 if it fails to reconcile."""
    header, windows, spans = read_trace(path)
    try:
        book = ledger(windows, spans)
    except LedgerError as exc:
        print(f"FAIL: {exc}")
        return 1
    wall = book["wall_ns"]
    print(f"{header.get('workload', '?')} seed {header.get('seed', '?')}: "
          f"{len(spans)} spans over {len(windows)} traced windows, "
          f"wall {wall / 1e9:.4f} s")
    rows = sorted(book["sites"].items(), key=lambda kv: -kv[1]["self_ns"])
    print(f"{'layer':34} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, entry in rows:
        print(f"{name:34} {entry['calls']:9d} "
              f"{entry['self_ns'] / 1e9:10.4f} {entry['self_ns'] / wall:7.3f}")
    share = book["unattributed_ns"] / wall
    print(f"{'unattributed':34} {'':9} "
          f"{book['unattributed_ns'] / 1e9:10.4f} {share:7.3f}")
    print(f"{'sum (= wall)':34} {'':9} {wall / 1e9:10.4f} {1.0:7.3f}")
    if share > MAX_UNATTRIBUTED_SHARE:
        print(f"FAIL: unattributed.share {share:.3f} > "
              f"{MAX_UNATTRIBUTED_SHARE}")
        return 1
    return 0
