"""Acceptance cross-check: a traced run's per-kind message events must
equal the :class:`~repro.network.messages.MessageCounter` totals exactly,
and tracing must not perturb the simulation.

These run the full accuracy harness under faults (loss + crashes +
duplication + reliable transport + leader repair), so the trace covers
every message kind the simulator can produce -- ValueForward,
OutlierReport, Ack, ModelHandoff for D3 and ModelUpdate for MGDD.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.engine.supervisor import SupervisedEngine
from repro.eval.harness import ExperimentConfig, run_accuracy_run
from repro.network.faults import CrashWindow, EngineCrash, FaultPlan
from repro.network.transport import TransportConfig
from repro.obs import report, schema


def _faulted_config(algorithm: str) -> ExperimentConfig:
    dataset = {"d3": "synthetic", "mgdd": "plateau"}[algorithm]
    return ExperimentConfig(
        algorithm=algorithm, dataset=dataset, n_leaves=9, branching=3,
        window_size=120, measure_ticks=120, n_runs=1, seed=3,
        loss_rate=0.15, crash_fraction=0.3, duplication_rate=0.05,
        reliable_transport=True, repair_leaders=True,
        staleness_horizon=60)


def _event_counts(events):
    """Per-kind send/deliver/drop counts from message.* trace events."""
    sent = collections.Counter()
    delivered = collections.Counter()
    dropped = collections.Counter()
    for event in events:
        if event["event"] == "message.send":
            sent[event["kind"]] += 1
        elif event["event"] == "message.deliver":
            delivered[event["kind"]] += 1
        elif event["event"] == "message.drop":
            dropped[event["kind"]] += 1
    return sent, delivered, dropped


@pytest.mark.parametrize("algorithm", ["d3", "mgdd"])
class TestConservation:
    def test_trace_matches_counter_exactly(self, algorithm, tmp_path):
        trace_path = tmp_path / f"trace_{algorithm}.jsonl"
        result = run_accuracy_run(_faulted_config(algorithm), seed=3,
                                  obs=str(trace_path))
        events = report.load_events(str(trace_path))

        # The whole trace is schema-valid JSONL.
        assert schema.validate_events(events) == []

        # Per-kind send events equal the counter's totals exactly.
        sent, delivered, dropped = _event_counts(events)
        counts_by_kind = result.network_stats["counts_by_kind"]
        assert dict(sent) == counts_by_kind

        # Every kind conserves: sent == delivered + dropped, in the
        # trace itself and against the counter totals.
        for kind in sent:
            assert sent[kind] == delivered[kind] + dropped[kind], kind
        assert result.network_stats["conservation_failures"] == []
        assert sum(delivered.values()) \
            == result.network_stats["messages_delivered"]
        assert sum(dropped.values()) \
            == result.network_stats["messages_dropped"]

        # Faults actually fired, so the identity was stressed.
        assert sum(dropped.values()) > 0

    def test_tracing_does_not_perturb_results(self, algorithm, tmp_path):
        config = _faulted_config(algorithm)
        plain = run_accuracy_run(config, seed=3)
        traced = run_accuracy_run(config, seed=3,
                                  obs=str(tmp_path / "t.jsonl"))
        assert not obs.ACTIVE   # restored afterwards

        traced_stats = {k: v for k, v in traced.network_stats.items()
                        if k != "obs"}
        assert traced_stats == plain.network_stats
        for level in plain.levels:
            assert traced.precision(level) == plain.precision(level)
            assert traced.recall(level) == plain.recall(level)


class TestParkEvictionConservation:
    def test_park_evictions_are_traced_and_conserved(self, tmp_path):
        """A bounded park buffer under a long outage: every eviction is
        a ``transport.park_evict`` event AND a ``message.drop`` with
        reason ``park-evict``, and the per-kind conservation identity
        still closes exactly in the trace."""
        from tests.network.test_transport import build_lossy_sim

        faults = FaultPlan(crashes=[CrashWindow(node=2, start=1, end=9)])
        _, _, sim = build_lossy_sim(
            0.0, transport=TransportConfig(max_retries=3, max_parked=3),
            faults=faults, length=12)
        trace_path = tmp_path / "park.jsonl"
        with obs.enabled(str(trace_path)):
            sim.run()
        events = report.load_events(str(trace_path))
        assert schema.validate_events(events) == []

        evicts = [e for e in events if e["event"] == "transport.park_evict"]
        evict_drops = [e for e in events if e["event"] == "message.drop"
                       and e["reason"] == "park-evict"]
        assert sim.transport.n_park_evictions > 0
        assert len(evicts) == sim.transport.n_park_evictions
        assert len(evict_drops) == sim.drops_by_reason["park-evict"]
        assert len(evicts) == len(evict_drops)

        sent, delivered, dropped = _event_counts(events)
        for kind in sent:
            assert sent[kind] == delivered[kind] + dropped[kind], kind
        assert sim.counter.conservation_failures() == []


class TestEngineRecoveryEvents:
    def test_crash_recovery_trace_matches_supervisor_records(self, tmp_path):
        """Every kill-and-restore shows up as exactly one
        ``engine.restore`` + one ``engine.replay`` event whose fields
        equal the supervisor's own recovery records."""
        spec = DistanceOutlierSpec(radius=0.5, count_threshold=3)
        engine = DetectorEngine(3, spec, window_size=40, sample_size=16,
                                warmup=10, model_refresh=8,
                                rng=np.random.default_rng(7))
        plan = FaultPlan(engine_crashes=[
            EngineCrash(tick=20), EngineCrash(tick=70)])
        sup = SupervisedEngine(engine, tmp_path / "state",
                               checkpoint_every=16, fault_plan=plan)
        rng = np.random.default_rng(3)
        data = rng.normal(size=(96, 3))
        trace_path = tmp_path / "engine.jsonl"
        with obs.enabled(str(trace_path)):
            for i in range(0, 96, 32):
                sup.ingest(data[i:i + 32])
        sup.close()
        events = report.load_events(str(trace_path))
        assert schema.validate_events(events) == []

        checkpoints = [e for e in events if e["event"] == "engine.checkpoint"]
        restores = [e for e in events if e["event"] == "engine.restore"]
        replays = [e for e in events if e["event"] == "engine.replay"]
        assert len(checkpoints) > 0
        assert len(restores) == sup.restarts == 2
        assert len(replays) == len(sup.recoveries)
        assert [e["tick"] for e in restores] == \
            [r["crash_tick"] for r in sup.recoveries]
        assert [e["checkpoint_tick"] for e in restores] == \
            [r["checkpoint_tick"] for r in sup.recoveries]
        assert [e["n_ticks"] for e in replays] == \
            [r["replayed_ticks"] for r in sup.recoveries]

    def test_disabled_engine_run_emits_nothing(self, tmp_path):
        spec = DistanceOutlierSpec(radius=0.5, count_threshold=3)
        engine = DetectorEngine(2, spec, window_size=30, sample_size=10,
                                rng=np.random.default_rng(0))
        plan = FaultPlan(engine_crashes=[EngineCrash(tick=10)])
        sup = SupervisedEngine(engine, tmp_path / "state",
                               checkpoint_every=8, fault_plan=plan)
        sup.ingest(np.random.default_rng(1).normal(size=(24, 2)))
        sup.close()
        assert sup.restarts == 1
        assert obs.tracer().n_emitted == 0


def _maintenance_telemetry(run) -> "tuple[dict, list]":
    """Run ``run()`` traced; return its obs snapshot and outputs."""
    obs.reset()
    with obs.enabled():
        outputs = run()
    snap = obs.snapshot()
    events = obs.tracer().events()
    snap["evicted_by_events"] = sum(e["count"] for e in events
                                    if e["event"] == "sample.evict")
    snap["schema_problems"] = [p for e in events
                               for p in schema.validate_event(e)]
    obs.reset()
    return snap, outputs


class TestEngineMaintenanceTelemetry:
    """A traced engine reports the stream-maintenance and model-rebuild
    telemetry that per-stream detectors report for the same readings."""

    @pytest.mark.parametrize("spec,n_dims", [
        (DistanceOutlierSpec(radius=0.5, count_threshold=3), 1),
        (MDEFSpec(sampling_radius=1.0, counting_radius=0.25), 2)])
    def test_engine_matches_per_stream_detectors(self, spec, n_dims):
        n_streams, window, sample = 3, 24, 8
        data = np.random.default_rng(5).normal(size=(90, n_streams, n_dims))
        seeds = [11, 12, 13]

        def engine_run():
            engine = DetectorEngine(n_streams, spec, window_size=window,
                                    sample_size=sample, n_dims=n_dims,
                                    model_refresh=8, stream_seeds=seeds)
            return [engine.ingest(data[i:i + 13]) for i in range(0, 90, 13)]

        def detector_run():
            detectors = [OnlineOutlierDetector(
                window, sample, spec, n_dims=n_dims, model_refresh=8,
                rng=np.random.default_rng(seed)) for seed in seeds]
            return [det.process_many(data[:, s]) for s, det in
                    enumerate(detectors)]

        engine_snap, _ = _maintenance_telemetry(engine_run)
        detector_snap, _ = _maintenance_telemetry(detector_run)
        counters = engine_snap["metrics"]["counters"]
        assert counters["sample.mutations"] > 0
        assert counters["sample.evictions"] > 0
        for name in ("sample.mutations", "sample.evictions"):
            assert counters[name] == \
                detector_snap["metrics"]["counters"][name]
        assert engine_snap["evicted_by_events"] == counters["sample.evictions"]
        assert engine_snap["schema_problems"] == []
        by_kind = engine_snap["events_by_kind"]
        assert by_kind["estimator.rebuild"] == \
            detector_snap["events_by_kind"]["estimator.rebuild"]

    def test_tracing_does_not_perturb_engine(self):
        spec = DistanceOutlierSpec(radius=0.5, count_threshold=3)
        data = np.random.default_rng(6).normal(size=(80, 4))

        def run():
            engine = DetectorEngine(4, spec, window_size=24, sample_size=8,
                                    rng=np.random.default_rng(2))
            return engine.ingest(data)

        _, traced = _maintenance_telemetry(run)
        assert np.array_equal(traced, run())


class TestSnapshotEmbedding:
    def test_obs_snapshot_in_network_stats(self):
        result = run_accuracy_run(_faulted_config("d3"), seed=3, obs=True)
        snap = result.network_stats["obs"]
        assert snap["n_events"] > 0
        # The metrics bridge mirrors the counter.
        counters = snap["metrics"]["counters"]
        for kind, count in result.network_stats["counts_by_kind"].items():
            assert counters[f"messages.{kind}.sent"] == count

    def test_disabled_run_has_no_obs_key(self):
        result = run_accuracy_run(_faulted_config("d3"), seed=3)
        assert "obs" not in result.network_stats
        assert obs.tracer().n_emitted == 0


def _emit_sites(event_prefix: str) -> "list[tuple[str, int]]":
    """(path under src/repro, line) of every ``obs.emit`` whose first
    argument is a string literal starting with ``event_prefix``."""
    root = Path(repro.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith(event_prefix)):
                sites.append((path.relative_to(root).as_posix(),
                              node.lineno))
    return sites


class TestOneLedger:
    """The trace's message and flag events come from one place each, so
    they balance against the counters by construction."""

    def test_message_events_only_in_the_ledger(self):
        sites = _emit_sites("message.")
        assert len(sites) == 3   # MessageCounter.send, deliver, drop
        assert {path for path, _ in sites} == {"network/messages.py"}

    def test_flag_events_only_in_the_detection_log(self):
        sites = _emit_sites("detector.flag")
        assert {path for path, _ in sites} == {"network/node.py"}
