"""Counters, gauges, histograms, and the MessageCounter bridge."""

from __future__ import annotations

import numpy as np

from repro.network.messages import Ack, MessageCounter, ValueForward
from repro.obs.metrics import MetricsRegistry


class TestPrimitives:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("transport.retries")
        counter.inc()
        counter.inc(3)
        assert registry.counter("transport.retries") is counter
        assert counter.value == 4

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("sample.size").set(100.0)
        registry.gauge("sample.size").set(99.0)
        assert registry.gauge("sample.size").value == 99.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("estimator.range_query.latency")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_empty_histogram_summary_is_zeros(self):
        summary = MetricsRegistry().histogram("x").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0


class TestAbsorb:
    def test_absorb_message_counter(self):
        counter = MessageCounter()
        forward = ValueForward(value=np.array([0.5]))
        counter.send(forward, 1, 0, 0)
        counter.send(forward, 1, 0, 0)
        counter.deliver(forward, 0, 0)
        counter.drop(forward, "loss", 0)
        counter.send(Ack(seq=0), 1, 0, 0)
        counter.deliver(Ack(seq=0), 0, 0)

        registry = MetricsRegistry()
        registry.absorb_message_counter(counter)
        counters = registry.snapshot()["counters"]
        assert counters["messages.ValueForward.sent"] == 2
        assert counters["messages.ValueForward.delivered"] == 1
        assert counters["messages.ValueForward.dropped"] == 1
        assert counters["messages.ValueForward.words"] == 2 * forward.size_words()
        assert counters["messages.Ack.sent"] == 1
        assert counters["messages.Ack.delivered"] == 1

    def test_absorb_mapping_recurses_and_skips_non_numeric(self):
        registry = MetricsRegistry()
        registry.absorb_mapping({
            "retransmissions": 7,
            "enabled": True,
            "nested": {"expired": 2.5},
            "label": "ignored",
        }, "transport")
        gauges = registry.snapshot()["gauges"]
        assert gauges["transport.retransmissions"] == 7.0
        assert gauges["transport.enabled"] == 1.0
        assert gauges["transport.nested.expired"] == 2.5
        assert "transport.label" not in gauges

    def test_snapshot_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["h"]["count"] == 1


class TestMerge:
    """Fleet merge rules: counters add, gauges last-writer-by-tick,
    histograms bucket-wise -- each associative and commutative."""

    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("fleet.flags").inc(3)
        b.counter("fleet.flags").inc(4)
        b.counter("fleet.readings").inc(10)
        a.merge(b.snapshot())
        counters = a.snapshot()["counters"]
        assert counters["fleet.flags"] == 7
        assert counters["fleet.readings"] == 10

    def test_gauges_resolve_last_writer_by_tick(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("fleet.progress.tick").set(120.0, tick=120)
        b.gauge("fleet.progress.tick").set(80.0, tick=80)
        a.merge(b.snapshot())
        # The later tick wins regardless of merge direction.
        assert a.snapshot()["gauges"]["fleet.progress.tick"] == 120.0
        b.merge(MetricsRegistry().snapshot())   # no-op
        fresh = MetricsRegistry()
        fresh.merge(b.snapshot())
        snap_a = MetricsRegistry()
        snap_a.gauge("fleet.progress.tick").set(120.0, tick=120)
        fresh.merge(snap_a.snapshot())
        assert fresh.snapshot()["gauges"]["fleet.progress.tick"] == 120.0

    def test_untick_gauge_adopted_not_zero_clobbered(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.gauge("fleet.worker.1.elapsed_s").set(-2.5)
        a.merge(b.snapshot())
        assert a.snapshot()["gauges"]["fleet.worker.1.elapsed_s"] == -2.5

    def test_histograms_merge_bucket_wise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0):
            a.histogram("fleet.batch_ingest_s").observe(value)
        for value in (3.0, 6.0):
            b.histogram("fleet.batch_ingest_s").observe(value)
        a.merge(b.snapshot())
        summary = a.snapshot()["histograms"]["fleet.batch_ingest_s"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 6.0
        assert summary["mean"] == 3.0

    def test_merge_snapshots_order_insensitive(self):
        import itertools

        from repro.obs.metrics import merge_snapshots

        snaps = []
        for worker, (tick, flags) in enumerate([(100, 3), (160, 5),
                                                (40, 1)]):
            registry = MetricsRegistry()
            registry.counter("fleet.flags").inc(flags)
            registry.gauge("fleet.progress.tick").set(float(tick),
                                                      tick=tick)
            registry.histogram("h").observe(float(worker))
            snaps.append(registry.snapshot())
        baseline = merge_snapshots(snaps)
        for ordering in itertools.permutations(snaps):
            assert merge_snapshots(list(ordering)) == baseline
        assert baseline["counters"]["fleet.flags"] == 9
        assert baseline["gauges"]["fleet.progress.tick"] == 160.0

    def test_empty_snapshot_shape_has_no_gauge_ticks(self):
        snap = MetricsRegistry().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        ticked = MetricsRegistry()
        ticked.gauge("g").set(1.0, tick=3)
        assert ticked.snapshot()["gauge_ticks"] == {"g": 3}
