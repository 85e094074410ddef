"""``repro top``: a periodically-refreshing per-node live view.

Runs a simulation in refresh-sized steps (``NetworkSimulator.run`` is
incremental) with tracing on, and after each step renders a table with
one row per node: current tick, window fill, health score, probe drift,
message send/deliver counters, and flag count plus worst event-time ->
flag latency.  The message counters come from an
*incremental* scan of the tracer ring -- only events with ``seq`` beyond
the last frame's high-water mark are folded in, so a frame costs O(new
events), not O(trace).

Everything here is presentation: the numbers are exactly the ones
:class:`~repro.obs.health.HealthMonitor` and the ``message.*`` trace
events already expose.  The renderer writes plain text frames to any
file object, so tests drive it headless with ``io.StringIO``.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

import numpy as np

from repro import obs
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_drift_streams, make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.obs.health import HealthMonitor
from repro._exceptions import ParameterError

__all__ = ["build_workload", "TopView", "replay_top", "run_top"]

#: ANSI clear-screen + cursor-home, used between interactive frames.
_CLEAR = "\x1b[2J\x1b[H"


def build_workload(*, n_leaves: int = 8, branching: int = 4,
                   window_size: int = 300, n_ticks: int = 600,
                   seed: int = 7, dataset: str = "synthetic",
                   ) -> "tuple[NetworkSimulator, dict[int, object], object]":
    """A D3 deployment for the live view: (simulator, nodes, hierarchy).

    ``dataset`` is ``"synthetic"`` (stationary mixture) or ``"drift"``
    (mean shift at mid-stream, so drift scores visibly move).
    """
    if dataset == "synthetic":
        arrays = make_mixture_streams(n_leaves, n_ticks, seed=seed)
    elif dataset == "drift":
        arrays = make_drift_streams(n_leaves, n_ticks, seed=seed)
    else:
        raise ParameterError(
            f"dataset must be 'synthetic' or 'drift', got {dataset!r}")
    hierarchy = build_hierarchy(n_leaves, min(branching, n_leaves))
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=window_size, sample_size=max(10, window_size // 10),
        sample_fraction=0.5, warmup=window_size)
    streams = StreamSet.from_arrays(arrays)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(seed))
    simulator = NetworkSimulator(hierarchy, network.nodes, streams)
    return simulator, network.nodes, hierarchy


class TopView:
    """Incremental per-node table renderer over the tracer ring."""

    def __init__(self, nodes: "dict[int, object]",
                 monitor: HealthMonitor) -> None:
        self._nodes = nodes
        self._monitor = monitor
        self._last_seq = -1
        self._sent: "dict[int, int]" = {}
        self._received: "dict[int, int]" = {}
        self._flags: "dict[int, int]" = {}
        self._latency_max: "dict[int, int]" = {}
        self._frames = 0

    @property
    def n_frames(self) -> int:
        """Frames rendered so far."""
        return self._frames

    def absorb_events(self) -> int:
        """Fold tracer events newer than the last frame; returns count."""
        absorbed = 0
        for record in obs.tracer().events():
            seq = record["seq"]
            assert isinstance(seq, int)
            if seq <= self._last_seq:
                continue
            self._last_seq = seq
            absorbed += 1
            kind = record.get("event")
            if kind == "message.send":
                sender = record.get("sender")
                if isinstance(sender, int):
                    self._sent[sender] = self._sent.get(sender, 0) + 1
            elif kind == "message.deliver":
                dest = record.get("dest")
                if isinstance(dest, int):
                    self._received[dest] = self._received.get(dest, 0) + 1
            elif kind == "detector.flag":
                node = record.get("node")
                if isinstance(node, int):
                    self._flags[node] = self._flags.get(node, 0) + 1
                    latency = record.get("latency")
                    if isinstance(latency, int) and not isinstance(
                            latency, bool):
                        previous = self._latency_max.get(node)
                        if previous is None or latency > previous:
                            self._latency_max[node] = latency
        return absorbed

    def render(self, tick: int) -> str:
        """One table frame: header line + one row per monitored node."""
        self.absorb_events()
        reports = self._monitor.last_reports()
        rows = [("node", "fill", "score", "drift", "sent", "recv",
                 "flags", "lat", "violations")]
        for node_id in sorted(self._nodes):
            report = reports.get(node_id)
            if report is None:
                continue
            drift = "-" if report.drift_linf is None \
                else f"{report.drift_linf:.3f}"
            latency = self._latency_max.get(node_id)
            rows.append((
                str(node_id), f"{report.sample_fill:.2f}",
                f"{report.score:.2f}", drift,
                str(self._sent.get(node_id, 0)),
                str(self._received.get(node_id, 0)),
                str(self._flags.get(node_id, 0)),
                "-" if latency is None else str(latency),
                ",".join(report.violations) or "-"))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(rows[0]))]
        lines = [f"repro top  tick={tick}  nodes={len(rows) - 1}  "
                 f"events={obs.tracer().n_emitted}"]
        for j, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) if i else
                                   cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        self._frames += 1
        return "\n".join(lines)


class _TraceTopView:
    """Per-node roll-up folded from recorded (possibly merged) events."""

    def __init__(self) -> None:
        self.sent: "dict[int, int]" = {}
        self.received: "dict[int, int]" = {}
        self.flags: "dict[int, int]" = {}
        self.latency_max: "dict[int, int]" = {}
        self.workers: "dict[int, set[int]]" = {}
        self.n_events = 0

    def absorb(self, record: "dict[str, object]") -> None:
        self.n_events += 1
        kind = record.get("event")
        node: "object | None" = None
        if kind == "message.send":
            node = record.get("sender")
            if isinstance(node, int) and not isinstance(node, bool):
                self.sent[node] = self.sent.get(node, 0) + 1
        elif kind == "message.deliver":
            node = record.get("dest")
            if isinstance(node, int) and not isinstance(node, bool):
                self.received[node] = self.received.get(node, 0) + 1
        elif kind == "detector.flag":
            node = record.get("node")
            if isinstance(node, int) and not isinstance(node, bool):
                self.flags[node] = self.flags.get(node, 0) + 1
                latency = record.get("latency")
                if isinstance(latency, int) and not isinstance(
                        latency, bool):
                    previous = self.latency_max.get(node)
                    if previous is None or latency > previous:
                        self.latency_max[node] = latency
        if isinstance(node, int) and not isinstance(node, bool):
            worker = record.get("worker_id")
            if isinstance(worker, int) and not isinstance(worker, bool):
                self.workers.setdefault(node, set()).add(worker)

    def render(self, tick: int, *, title: str) -> str:
        rows = [("node", "workers", "sent", "recv", "flags", "lat")]
        nodes = sorted(set(self.sent) | set(self.received)
                       | set(self.flags))
        for node_id in nodes:
            latency = self.latency_max.get(node_id)
            workers = self.workers.get(node_id)
            rows.append((
                str(node_id),
                ",".join(str(w) for w in sorted(workers))
                if workers else "-",
                str(self.sent.get(node_id, 0)),
                str(self.received.get(node_id, 0)),
                str(self.flags.get(node_id, 0)),
                "-" if latency is None else str(latency)))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(rows[0]))]
        lines = [f"{title}  tick={tick}  nodes={len(rows) - 1}  "
                 f"events={self.n_events}"]
        for j, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) if i else
                                   cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def replay_top(trace: str, *, refresh_every: int = 50,
               interval_s: float = 0.0, out: "TextIO | None" = None,
               clear: bool = False) -> "dict[str, object]":
    """``repro top --trace``: replay a recorded trace as fleet frames.

    ``trace`` is anything :func:`repro.obs.distributed.load_trace`
    accepts -- a plain JSONL trace, one worker spool, or a run
    directory of spools (merged on the fly).  Events are folded in
    order and a frame is rendered whenever the high-water tick crosses
    the next ``refresh_every`` boundary, so the replay paces like the
    live view did; a ``workers`` column shows which worker ids each
    node's events came from (merged multi-worker traces only).  The
    summary dict carries the distributed meta -- worker ids, per-worker
    ring drops, torn spools -- alongside frames/final tick.
    """
    from repro.obs.distributed import load_trace_meta

    if refresh_every < 1:
        raise ParameterError(
            f"refresh_every must be >= 1, got {refresh_every}")
    sink = out if out is not None else sys.stdout
    events, meta = load_trace_meta(trace)
    view = _TraceTopView()
    frames = 0
    high_water = -1
    boundary = refresh_every

    def flush_frame(tick: int) -> None:
        nonlocal frames
        frame = view.render(tick, title="repro top (replay)")
        if clear:
            sink.write(_CLEAR)
        sink.write(frame + "\n")
        if not clear:
            sink.write("\n")
        sink.flush()
        frames += 1
        if interval_s > 0:
            time.sleep(interval_s)

    for record in events:
        tick = record.get("tick")
        if isinstance(tick, int) and not isinstance(tick, bool) \
                and tick > high_water:
            high_water = tick
            while high_water >= boundary:
                flush_frame(boundary - 1)
                boundary += refresh_every
        view.absorb(record)
    flush_frame(max(high_water, 0))
    return {
        "frames": frames,
        "final_tick": max(high_water, 0),
        "n_events": len(events),
        "meta": meta,
    }


def run_top(*, n_leaves: int = 8, window_size: int = 300,
            n_ticks: int = 600, refresh_every: int = 50,
            interval_s: float = 0.0, seed: int = 7,
            dataset: str = "synthetic",
            out: "TextIO | None" = None, clear: bool = False,
            ) -> "dict[str, object]":
    """Drive a traced run, rendering a frame every ``refresh_every`` ticks.

    ``interval_s`` sleeps between frames (0 for tests/CI); ``clear``
    prepends an ANSI clear-screen so an interactive terminal shows a
    refreshing dashboard rather than a scroll.  Returns a summary dict
    (frames rendered, final tick, health roll-up).
    """
    if refresh_every < 1:
        raise ParameterError(
            f"refresh_every must be >= 1, got {refresh_every}")
    sink = out if out is not None else sys.stdout
    simulator, nodes, hierarchy = build_workload(
        n_leaves=n_leaves, window_size=window_size, n_ticks=n_ticks,
        seed=seed, dataset=dataset)
    obs.reset()
    with obs.enabled():
        monitor = HealthMonitor(nodes, hierarchy, probe_seed=seed)
        view = TopView(nodes, monitor)
        done = 0
        while done < n_ticks:
            chunk = min(refresh_every, n_ticks - done)
            simulator.run(chunk)
            done += chunk
            monitor.check(done - 1)
            frame = view.render(done - 1)
            if clear:
                sink.write(_CLEAR)
            sink.write(frame + "\n")
            if not clear:
                sink.write("\n")
            sink.flush()
            if interval_s > 0:
                time.sleep(interval_s)
        summary = {
            "frames": view.n_frames,
            "final_tick": done - 1,
            "n_events": obs.tracer().n_emitted,
            "health": monitor.summary(),
        }
    obs.reset()
    return summary
