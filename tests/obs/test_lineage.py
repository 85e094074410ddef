"""Detection lineage: stable reading ids, causal context, ``explain``.

The acceptance property of the lineage layer: in a *faulted* run
(loss + crashes + duplication + reliable transport) every single
``detector.flag`` must reconstruct into a complete
:class:`~repro.obs.lineage.LineageRecord` -- decision inputs (estimate
vs threshold), the model sequence number consulted, and an event-time
-> flag-time latency that equals ``flag_tick - reading_tick`` recomputed
independently from the raw event stream.  With tracing off the lineage
layer must not exist: that bit-identity is covered by the conservation
suite; here we pin the schema-versioning contract (old traces stay
valid) and the observational-only ``model_seq`` counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.detectors._state import StreamModelState
from repro.eval.harness import ExperimentConfig, run_accuracy_run
from repro.network.node import Detection, DetectionLog
from repro.obs import report, schema
from repro.obs.explain import (
    explain,
    explanation_dict,
    format_explanation,
    select_record,
)
from repro.obs.lineage import lineage_fields, reading_id, reconstruct
from repro._exceptions import ParameterError


def _faulted_config(algorithm: str) -> ExperimentConfig:
    dataset = {"d3": "synthetic", "mgdd": "plateau"}[algorithm]
    return ExperimentConfig(
        algorithm=algorithm, dataset=dataset, n_leaves=9, branching=3,
        window_size=120, measure_ticks=120, n_runs=1, seed=3,
        loss_rate=0.15, crash_fraction=0.3, duplication_rate=0.05,
        reliable_transport=True, repair_leaders=True,
        staleness_horizon=60)


class TestSchemaVersioning:
    def test_lineage_kinds_are_declared(self):
        for kind in ("lineage.ingest", "lineage.model_merge",
                     "lineage.detect"):
            assert kind in schema.EVENT_FIELDS

    def test_pre_lineage_flag_event_still_validates(self):
        # A detector.flag recorded before the enrichment (no prob /
        # latency / model_seq keys) must stay --validate green.
        record = {"event": "detector.flag", "seq": 0, "t": 0.0,
                  "span": None, "node": 3, "level": 1, "origin": 3,
                  "tick": 17}
        assert schema.validate_event(record) == []

    def test_mistyped_optional_field_is_rejected(self):
        record = {"event": "detector.flag", "seq": 0, "t": 0.0,
                  "span": None, "node": 3, "level": 1, "origin": 3,
                  "tick": 17, "model_seq": "three"}
        problems = schema.validate_event(record)
        assert any("model_seq" in p for p in problems)


class TestReadingIdentity:
    def test_reading_id_is_origin_and_tick(self):
        assert reading_id(4, 250) == "r4@250"

    def test_lineage_fields_duck_types_messages(self):
        class Report:
            origin = 5
            tick = 99
        assert lineage_fields(Report()) \
            == {"origin": 5, "reading_tick": 99}

        class Forward:
            pass
        assert lineage_fields(Forward()) == {}


class TestModelSeq:
    def test_rebuild_bumps_the_counter(self):
        state = StreamModelState(60, 10, 1, model_refresh=1,
                                 rng=np.random.default_rng(0))
        assert state.model_seq == 0
        for i in range(30):
            state.observe(np.array([i / 30.0]))
        state.model()
        assert state.model_seq >= 1

    def test_snapshot_round_trips_the_counter(self):
        state = StreamModelState(60, 10, 1, model_refresh=1,
                                 rng=np.random.default_rng(0))
        for i in range(30):
            state.observe(np.array([i / 30.0]))
        state.model()
        snapshot = state.snapshot_state()
        assert snapshot["model_seq"] == state.model_seq
        restored = StreamModelState.restore_state(snapshot)
        assert restored.model_seq == state.model_seq

    def test_pre_lineage_snapshot_restores_to_zero(self):
        state = StreamModelState(60, 10, 1,
                                 rng=np.random.default_rng(0))
        snapshot = state.snapshot_state()
        del snapshot["model_seq"]     # a checkpoint taken before PR 9
        assert StreamModelState.restore_state(snapshot).model_seq == 0


@pytest.mark.parametrize("algorithm", ["d3", "mgdd"])
class TestExplainCompleteness:
    def test_every_flag_reconstructs_complete(self, algorithm, tmp_path):
        trace_path = tmp_path / f"lineage_{algorithm}.jsonl"
        result = run_accuracy_run(_faulted_config(algorithm), seed=3,
                                  obs=str(trace_path))
        events = report.load_events(str(trace_path))
        assert schema.validate_events(events) == []

        flags = [e for e in events if e["event"] == "detector.flag"]
        assert flags, "the faulted run must flag something"
        records = reconstruct(events)
        assert len(records) == len(flags)
        for record in records:
            assert record.complete, record
            assert record.prob is not None
            assert record.threshold is not None
            assert record.model_seq is not None
            assert record.latency == record.flag_tick - record.reading_tick
            assert record.latency >= 0
            # The human rendering and the JSON form both resolve.
            assert record.reading in format_explanation(record)
            assert explanation_dict(record)["complete"] is True

        # The unconditional harness roll-up agrees with the trace.
        detections = result.network_stats["detections"]
        assert detections["n_flags"] == len(flags)

    def test_selectors_address_the_same_records(self, algorithm, tmp_path):
        trace_path = tmp_path / f"select_{algorithm}.jsonl"
        run_accuracy_run(_faulted_config(algorithm), seed=3,
                         obs=str(trace_path))
        events = report.load_events(str(trace_path))
        records = reconstruct(events)
        last = explain(events, "last")
        assert last == records[-1]
        assert explain(events, "first") == records[0]
        assert explain(events, -1) == last
        assert select_record(
            records, f"{last.node}:{last.reading_tick}").node == last.node
        with pytest.raises(ParameterError):
            explain(events, "nonsense")
        with pytest.raises(ParameterError):
            explain(events, len(records))


class TestTraceReportLatency:
    def test_summarize_reports_flag_latency(self, tmp_path):
        trace_path = tmp_path / "lat.jsonl"
        run_accuracy_run(_faulted_config("d3"), seed=3,
                         obs=str(trace_path))
        events = report.load_events(str(trace_path))
        summary = report.summarize(events)
        stats = summary["flag_latency"]
        assert stats is not None
        assert stats["count"] == summary["n_detections"]
        assert 0 <= stats["p50"] <= stats["p99"] <= stats["max"]
        assert "flag latency" in report.format_report(summary)

    @pytest.mark.parametrize("n, p50, p99", [
        (1, 0, 0), (99, 49, 98), (100, 49, 98), (200, 99, 197)])
    def test_one_nearest_rank_percentile(self, n, p50, p99):
        """The network log and the trace report roll latencies up alike:
        the smallest latency with p % of them at or below it."""
        latencies = list(np.random.default_rng(n).permutation(n))
        log = DetectionLog()
        for latency in latencies:
            log.record(Detection(tick=0, node_id=0, level=1, origin=0,
                                 value=np.zeros(1)), flag_tick=int(latency))
        expected = {"count": n, "p50": p50, "p99": p99, "max": n - 1}
        assert report.latency_stats(latencies) == expected
        summary = log.latency_summary()
        assert {key: summary[key] for key in expected} == expected
        assert summary["by_tier"] == {"leaf": expected}

    def test_pre_lineage_trace_reports_none(self):
        events = [{"event": "detector.flag", "seq": 0, "t": 0.0,
                   "span": None, "node": 1, "level": 1, "origin": 1,
                   "tick": 5}]
        summary = report.summarize(events)
        # Old traces carry no latency fields: the column stays None and
        # the report renders without it.
        assert summary["flag_latency"] is None
        assert "flag latency" not in report.format_report(summary)


class TestHealthLatencySLO:
    def test_slow_flag_trips_the_latency_violation(self):
        from repro.obs.health import HealthMonitor, HealthThresholds
        from repro.obs.top import build_workload

        simulator, nodes, hierarchy = build_workload(
            n_leaves=2, window_size=40, n_ticks=30)
        simulator.run(20)
        log = DetectionLog()
        leaf = min(nodes)
        log.record(Detection(tick=3, node_id=leaf, level=1, origin=leaf,
                             value=np.array([0.5])), flag_tick=20)
        monitor = HealthMonitor(
            nodes, hierarchy, detections=log,
            thresholds=HealthThresholds(max_flag_latency=10.0))
        report_ = monitor.check(20)[leaf]
        assert report_.flag_latency_max == 17
        assert "latency" in report_.violations
        assert report_.score < 1.0
        # The drain is incremental: a second check sees no new flags.
        assert monitor.check(21)[leaf].flag_latency_max is None


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=50),
    loss_rate=st.floats(min_value=0.0, max_value=0.3),
    crash_fraction=st.sampled_from([0.0, 0.25]),
    duplication_rate=st.floats(min_value=0.0, max_value=0.1),
)
def test_lineage_is_causal_under_random_fault_plans(
        seed, loss_rate, crash_fraction, duplication_rate):
    """Property: whatever the fault plan, every flagged detection's
    lineage is acyclic (hop ticks never precede the reading, and never
    decrease along the hop sequence), its decision inputs are populated,
    and its latency equals ``flag_tick - reading_tick`` recomputed
    independently from the raw event stream."""
    obs.reset()
    config = ExperimentConfig(
        algorithm="d3", dataset="synthetic", n_leaves=4, branching=2,
        window_size=60, measure_ticks=60, n_runs=1, seed=seed,
        loss_rate=loss_rate, crash_fraction=crash_fraction,
        duplication_rate=duplication_rate, reliable_transport=True,
        staleness_horizon=30)
    run_accuracy_run(config, seed=seed, obs=True)
    events = obs.tracer().events()

    flags = [e for e in events if e["event"] == "detector.flag"]
    for flag in flags:
        assert flag["latency"] == flag["flag_tick"] - flag["reading_tick"]
        assert flag["latency"] >= 0

    records = reconstruct(events)
    assert len(records) == len(flags)
    delivered = {(e["origin"], e["reading_tick"], e.get("seq_no"))
                 for e in events if e["event"] == "message.deliver"
                 and "origin" in e}
    for record in records:
        assert record.complete, record
        previous_tick = record.reading_tick
        for hop in sorted(record.hops, key=lambda h: h["seq"]):
            assert hop["origin"] == record.origin
            assert hop["reading_tick"] == record.reading_tick
            assert hop["tick"] >= record.reading_tick
            assert hop["tick"] >= previous_tick
            previous_tick = hop["tick"]
        # A flag above the leaf tier can only have seen the report if
        # some copy of it was actually delivered.
        if record.level >= 2:
            assert record.n_delivered >= 1
            assert any(key[0] == record.origin
                       and key[1] == record.reading_tick
                       for key in delivered)
    obs.reset()
