"""Trace summarization: turn a JSONL trace into a readable report.

Backs ``tools/trace_report.py`` and the ``repro trace`` subcommand.
Only depends on the trace format itself (plus :mod:`repro.obs.schema`
for the validation hook), so it can digest traces produced by any run.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

__all__ = ["load_events", "summarize", "format_report", "latency_stats"]


def load_events(path: str) -> "list[dict[str, object]]":
    """Parse a JSONL trace file into a list of event records."""
    events: "list[dict[str, object]]" = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _as_int(value: object) -> int:
    return int(value) if isinstance(value, (int, float)) else 0


def summarize(
        events: "Sequence[Mapping[str, object]]") -> "dict[str, object]":
    """Top-line rollup of a trace: events, messages, spans, detections."""
    by_event: "dict[str, int]" = {}
    messages: "dict[str, dict[str, int]]" = {}
    span_names: "dict[int, str]" = {}
    span_time: "dict[str, dict[str, float]]" = {}
    n_detections = 0
    n_evictions = 0
    latencies: "list[int]" = []
    for record in events:
        kind = str(record.get("event"))
        by_event[kind] = by_event.get(kind, 0) + 1
        if kind in ("message.send", "message.deliver", "message.drop"):
            mkind = str(record.get("kind"))
            row = messages.setdefault(
                mkind, {"send": 0, "deliver": 0, "drop": 0, "words": 0})
            verb = kind.split(".", 1)[1]
            row[verb] += 1
            if verb == "send":
                row["words"] += _as_int(record.get("words"))
        elif kind == "span_open":
            span_names[_as_int(record.get("id"))] = str(record.get("name"))
        elif kind == "span_close":
            name = span_names.get(_as_int(record.get("id")), "?")
            dur = record.get("dur_s")
            if isinstance(dur, (int, float)):
                row_t = span_time.setdefault(
                    name, {"count": 0, "total_s": 0.0})
                row_t["count"] += 1
                row_t["total_s"] += float(dur)
        elif kind == "detector.flag":
            n_detections += 1
            latency = record.get("latency")
            if not isinstance(latency, int) or isinstance(latency, bool):
                flag_tick = record.get("flag_tick")
                reading = record.get("reading_tick", record.get("tick"))
                latency = flag_tick - reading \
                    if isinstance(flag_tick, int) and isinstance(reading, int) \
                    else None
            if latency is not None:
                latencies.append(latency)
        elif kind == "sample.evict":
            n_evictions += _as_int(record.get("count"))
    return {
        "n_events": len(events),
        "by_event": dict(sorted(by_event.items())),
        "messages": dict(sorted(messages.items())),
        "spans": dict(sorted(span_time.items())),
        "n_detections": n_detections,
        "n_evictions": n_evictions,
        "flag_latency": latency_stats(latencies),
    }


def latency_stats(latencies: "Sequence[int]") -> "dict[str, int] | None":
    """Count, p50, p99 and max of ``latencies``; None when there are none.

    Percentiles are nearest-rank: the p-th is the smallest latency with
    at least p % of them at or below it.
    """
    if not latencies:
        return None
    ordered = sorted(latencies)
    def rank(percent: int) -> int:
        return ordered[-(-percent * len(ordered) // 100) - 1]
    return {"count": len(ordered), "p50": rank(50), "p99": rank(99),
            "max": ordered[-1]}


def _table(headers: "list[str]",
           rows: "list[list[str]]") -> "list[str]":
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: "list[str]") -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def format_report(summary: "Mapping[str, object]") -> str:
    """Render :func:`summarize` output as an aligned plain-text report."""
    lines: "list[str]" = []
    lines.append(f"events: {summary['n_events']}"
                 f"  detections: {summary['n_detections']}"
                 f"  sample evictions: {summary['n_evictions']}")
    flag_latency = summary.get("flag_latency")
    if isinstance(flag_latency, Mapping):
        lines.append(
            f"flag latency (ticks): p50={flag_latency['p50']}"
            f"  p99={flag_latency['p99']}  max={flag_latency['max']}"
            f"  over {flag_latency['count']} flag(s)")
    by_event = summary["by_event"]
    assert isinstance(by_event, Mapping)
    lines.append("")
    lines.extend(_table(
        ["event", "count"],
        [[kind, str(count)] for kind, count in by_event.items()]))
    messages = summary["messages"]
    assert isinstance(messages, Mapping)
    if messages:
        lines.append("")
        rows = []
        for kind, row in messages.items():
            assert isinstance(row, Mapping)
            rows.append([kind, str(row["send"]), str(row["deliver"]),
                         str(row["drop"]), str(row["words"])])
        lines.extend(_table(
            ["message kind", "send", "deliver", "drop", "words"], rows))
    spans = summary["spans"]
    assert isinstance(spans, Mapping)
    if spans:
        lines.append("")
        rows = []
        for name, row in spans.items():
            assert isinstance(row, Mapping)
            rows.append([name, str(row["count"]),
                         f"{float(row['total_s']):.6f}"])
        lines.extend(_table(["span", "count", "total_s"], rows))
    return "\n".join(lines)
