"""Tracer ring buffer, spans, file sink, and the activation toggles."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import Tracer


class TestTracerRing:
    def test_emit_records_common_fields(self):
        tracer = Tracer()
        record = tracer.emit("sample.evict", count=3)
        assert record["event"] == "sample.evict"
        assert record["count"] == 3
        assert record["seq"] == 0
        assert record["span"] is None
        assert isinstance(record["t"], float)

    def test_seq_monotonic(self):
        tracer = Tracer()
        seqs = [tracer.emit("sample.evict", count=1)["seq"]
                for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_ring_bounded_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit("sample.evict", count=i)
        events = tracer.events()
        assert len(events) == 4
        assert [e["count"] for e in events] == [6, 7, 8, 9]
        assert tracer.n_emitted == 10
        assert tracer.n_dropped == 6

    def test_counts_by_kind(self):
        tracer = Tracer()
        tracer.emit("sample.evict", count=1)
        tracer.emit("sample.evict", count=2)
        tracer.emit("transport.expire", seq_no=0, attempts=3)
        assert tracer.counts_by_kind() == {
            "sample.evict": 2, "transport.expire": 1}

    def test_numpy_fields_jsonable_in_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.open_sink(str(path))
        tracer.emit("sample.evict", count=np.int64(2),
                    timestamp=np.float64(1.5),
                    values=np.array([0.25, 0.75]))
        tracer.close_sink()
        record = json.loads(path.read_text())
        assert record["count"] == 2
        assert record["timestamp"] == 1.5
        assert record["values"] == [0.25, 0.75]


class TestRingCapacityEdges:
    def test_exactly_at_default_capacity_drops_nothing(self):
        from repro.obs.trace import DEFAULT_CAPACITY

        tracer = Tracer()
        for _ in range(DEFAULT_CAPACITY):
            tracer.emit("sample.evict", count=1)
        assert tracer.n_emitted == DEFAULT_CAPACITY
        assert tracer.n_dropped == 0
        assert len(tracer.events()) == DEFAULT_CAPACITY

    def test_one_past_default_capacity_wraps(self):
        from repro.obs.trace import DEFAULT_CAPACITY

        tracer = Tracer()
        for i in range(DEFAULT_CAPACITY + 1):
            tracer.emit("sample.evict", count=i)
        assert tracer.n_dropped == 1
        events = tracer.events()
        assert len(events) == DEFAULT_CAPACITY
        # The oldest event (count=0) fell off; order is preserved.
        assert events[0]["count"] == 1
        assert events[-1]["count"] == DEFAULT_CAPACITY


class TestSinkFailures:
    def test_unwritable_path_raises_clear_error(self, tmp_path):
        from repro._exceptions import ParameterError

        bad = tmp_path / "no-such-dir" / "trace.jsonl"
        tracer = Tracer()
        with pytest.raises(ParameterError, match="cannot open trace sink"):
            tracer.open_sink(str(bad))
        assert tracer.sink_path is None

    def test_sink_dying_mid_run_warns_and_continues(self):
        class _DeadSink:
            def write(self, text):
                raise OSError("disk full")

            def close(self):
                pass

        tracer = Tracer()
        tracer._sink = _DeadSink()
        tracer._sink_path = "/dev/fullish"
        with pytest.warns(RuntimeWarning, match="failed mid-run"):
            record = tracer.emit("sample.evict", count=1)
        assert record["count"] == 1           # the emit itself succeeded
        assert tracer.sink_path is None       # sink dropped...
        tracer.emit("sample.evict", count=2)  # ...and tracing continues
        assert tracer.n_emitted == 2

    def test_bad_ambient_trace_file_warns_not_raises(self):
        from repro.obs import _open_ambient_sink

        with pytest.warns(RuntimeWarning, match="REPRO_TRACE_FILE"):
            _open_ambient_sink("/no/such/dir/trace.jsonl")
        assert obs.tracer().sink_path is None


class TestSpans:
    def test_nesting_and_parent(self):
        tracer = Tracer()
        outer = tracer.open_span("run")
        inner = tracer.open_span("tick", tick=0)
        assert tracer.current_span() == inner
        events = tracer.events()
        assert events[0]["event"] == "span_open"
        assert events[0]["parent"] is None
        assert events[1]["parent"] == outer
        tracer.close_span(inner)
        assert tracer.current_span() == outer
        tracer.close_span(outer)
        assert tracer.current_span() is None

    def test_events_inherit_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("run") as span_id:
            record = tracer.emit("sample.evict", count=1)
        assert record["span"] == span_id

    def test_span_contextmanager_closes_with_duration(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        close = tracer.events()[-1]
        assert close["event"] == "span_close"
        assert close["dur_s"] >= 0.0

    def test_close_span_pops_through_stack(self):
        tracer = Tracer()
        outer = tracer.open_span("run")
        tracer.open_span("tick", tick=0)
        tracer.close_span(outer)   # closes the stale inner too
        assert tracer.current_span() is None


class TestSink:
    def test_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.open_sink(str(path))
        tracer.emit("sample.evict", count=1)
        tracer.emit("sample.evict", count=2)
        tracer.close_sink()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["count"] == 2

    def test_sink_survives_ring_overflow(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=2)
        tracer.open_sink(str(path))
        for i in range(6):
            tracer.emit("sample.evict", count=i)
        tracer.close_sink()
        assert len(path.read_text().splitlines()) == 6


class TestActivation:
    def test_disabled_path_adds_zero_events(self):
        # Instrumented code paths gate on obs.ACTIVE, so running real
        # components with the flag off must leave everything empty.
        from repro.streams.sampling import ChainSample

        assert not obs.ACTIVE
        sample = ChainSample(window_size=8, sample_size=4)
        for i in range(64):
            sample.offer(float(i), timestamp=i)
        assert sample.eviction_count > 0   # evictions happened...
        assert obs.tracer().n_emitted == 0  # ...but none were traced
        assert obs.tracer().events() == []
        assert obs.metrics().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_restores_previous_state(self):
        assert not obs.ACTIVE
        with obs.enabled():
            assert obs.ACTIVE
            obs.emit("sample.evict", count=1)
        assert not obs.ACTIVE
        assert obs.tracer().n_emitted == 1

    def test_enabled_opens_and_closes_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.enabled(str(path)):
            obs.emit("sample.evict", count=1)
        assert obs.tracer().sink_path is None
        assert len(path.read_text().splitlines()) == 1

    def test_reset_discards_events(self):
        obs.activate()
        obs.emit("sample.evict", count=1)
        obs.reset()
        assert obs.tracer().n_emitted == 0

    def test_snapshot_shape(self):
        obs.activate()
        obs.emit("sample.evict", count=1)
        obs.metrics().counter("transport.retries").inc()
        snap = obs.snapshot()
        assert snap["n_events"] == 1
        assert snap["events_by_kind"] == {"sample.evict": 1}
        assert snap["metrics"]["counters"]["transport.retries"] == 1
        assert "profile" not in snap


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["", "0", "false", "FALSE", "no", "off"])
    def test_falsey(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert not obs._env_active()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "2"])
    def test_truthy(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert obs._env_active()

    def test_unset_is_falsey(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not obs._env_active()


class TestRingDropAccounting:
    """Satellite of the distributed plane: per-kind overflow counts."""

    def test_dropped_by_kind_tallies_evictions(self):
        tracer = Tracer(capacity=4)
        for _ in range(6):
            tracer.emit("sample.evict", count=1)
        for _ in range(2):
            tracer.emit("transport.expire", seq_no=0, attempts=1)
        # 8 emitted into a 4-slot ring: the 4 oldest (all sample.evict)
        # were evicted, and the tally says which kinds they were.
        assert tracer.n_dropped == 4
        assert tracer.dropped_by_kind() == {"sample.evict": 4}

    def test_no_overflow_means_empty_tally(self):
        tracer = Tracer()
        tracer.emit("sample.evict", count=1)
        assert tracer.dropped_by_kind() == {}

    def test_snapshot_surfaces_ring_drops(self):
        obs.activate()
        obs.emit("sample.evict", count=1)
        snap = obs.snapshot()
        assert snap["n_ring_dropped"] == 0
        assert snap["ring_dropped_by_kind"] == {}

    def test_sink_is_complete_despite_ring_overflow(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=2)
        tracer.open_sink(str(path))
        for i in range(5):
            tracer.emit("sample.evict", count=i)
        tracer.close_sink()
        # The ring evicted 3 events; the sink file still holds all 5.
        assert tracer.n_dropped == 3
        assert len(path.read_text().splitlines()) == 5

    def test_append_mode_preserves_existing_content(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        path.write_text('{"spool_header": {"worker_id": 1}}\n')
        tracer = Tracer()
        tracer.open_sink(str(path), append=True)
        tracer.emit("sample.evict", count=1)
        tracer.close_sink()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert "spool_header" in lines[0]
