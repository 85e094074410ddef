"""The ``repro profile`` workload: a traced run with per-phase timing.

Runs two workloads -- a single-node detector fed through
``process_many`` and a batched D3 deployment -- *under*
:mod:`repro.obs`, so the result is not one wall-clock number but a
breakdown over the named hot paths (batched ingestion, estimator cache
rebuilds, Theorem 2 sorted-path queries, drain loop).  Untraced speed is
measured by the ``bench`` package at the repository root.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs as _obs
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.single import OnlineOutlierDetector
from repro.eval.provenance import run_metadata
from repro.eval.reporting import render_grid
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy

__all__ = ["run_profile_benchmark", "format_profile_table"]


def run_profile_benchmark(*, window_size: int = 2_000,
                          sample_size: int = 100,
                          n_readings: int = 10_000,
                          batch_size: int = 1_024,
                          n_leaves: int = 8, n_ticks: int = 400,
                          seed: int = 0,
                          trace_path: "str | None" = None) -> dict:
    """Run the single-node + network workloads traced; return the document.

    Resets the :mod:`repro.obs` singletons first so the embedded profile
    describes exactly this invocation.  ``trace_path`` additionally
    streams the full event trace to a JSONL file.
    """
    _obs.reset()
    wall: "dict[str, float]" = {}
    with _obs.enabled(trace_path):
        detector = OnlineOutlierDetector(
            window_size, sample_size,
            DistanceOutlierSpec(radius=0.01, count_threshold=9),
            rng=np.random.default_rng(seed))
        readings = make_mixture_streams(1, n_readings, seed=seed)[0].reshape(-1)
        start = time.perf_counter()
        for i in range(0, n_readings, batch_size):
            detector.process_many(readings[i:i + batch_size])
        wall["single_node_s"] = time.perf_counter() - start

        hierarchy = build_hierarchy(n_leaves, min(4, n_leaves))
        config = D3Config(
            spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
            window_size=300, sample_size=30, sample_fraction=0.5,
            warmup=300)
        streams = StreamSet.from_arrays(
            make_mixture_streams(n_leaves, n_ticks, seed=seed))
        network = build_d3_network(hierarchy, config, 1,
                                   rng=np.random.default_rng(seed))
        simulator = NetworkSimulator(hierarchy, network.nodes, streams)
        start = time.perf_counter()
        simulator.run_batched()
        wall["network_s"] = time.perf_counter() - start

    tracer = _obs.tracer()
    doc: "dict[str, object]" = {
        "benchmark": "profile",
        "meta": run_metadata(seed=seed),
        "workload": {
            "window_size": window_size, "sample_size": sample_size,
            "n_readings": n_readings, "batch_size": batch_size,
            "n_leaves": n_leaves, "n_ticks": n_ticks,
            "detections": len(network.log.detections),
        },
        "wall": wall,
        "phases": _obs.profiler().summary(),
        "metrics": _obs.metrics().snapshot(),
        "n_events": tracer.n_emitted,
        "events_by_kind": tracer.counts_by_kind(),
    }
    if trace_path is not None:
        doc["trace_path"] = trace_path
    _obs.reset()
    return doc


def format_profile_table(doc: dict) -> str:
    """Render the per-phase breakdown as an aligned text table."""
    rows = [("phase", "calls", "total s", "mean ms", "max ms")]
    for name, stat in doc["phases"].items():
        rows.append((name, f"{stat['calls']:,}",
                     f"{stat['total_s']:.4f}",
                     f"{stat['mean_s'] * 1e3:.4f}",
                     f"{stat['max_s'] * 1e3:.4f}"))
    lines = [render_grid(rows)]
    wall = doc["wall"]
    lines.append("")
    lines.append("wall: " + "  ".join(
        f"{key}={value:.4f}" for key, value in wall.items()))
    lines.append(f"events: {doc['n_events']}")
    meta = doc.get("meta")
    if isinstance(meta, dict) and "backend" in meta:
        lines.append(f"backend: {meta['backend']}")
    return "\n".join(lines)
