"""Worker spools, the deterministic merge, and global conservation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro._exceptions import ParameterError, SnapshotError
from repro.network.messages import MessageCounter, OutlierReport
from repro.obs.distributed import (
    Spool,
    append_spool_footer,
    conservation_failures,
    counter_totals,
    is_spool_file,
    load_metrics_snapshots,
    load_spool,
    load_spools,
    load_trace,
    load_trace_meta,
    merge_spools,
    spool_path,
    sum_counter_totals,
    worker_trace_sink,
    write_merged,
    write_spool_header,
)


def _write_spool(run_dir, worker_id, events, *, footer=True,
                 counter=None, tail=None):
    """A hand-built spool file: header, event lines, optional footer."""
    path = spool_path(run_dir, worker_id)
    write_spool_header(path, worker_id)
    with open(path, "a", encoding="utf-8") as sink:
        for event in events:
            sink.write(json.dumps(event, sort_keys=True) + "\n")
    if footer:
        append_spool_footer(path, worker_id,
                            n_emitted=len(events),
                            ring_dropped_by_kind={}, counter=counter)
    if tail is not None:
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(tail)
    return path


def _events(kinds_ticks):
    """Event dicts with sequential per-worker seq numbers."""
    out = []
    for i, (kind, tick) in enumerate(kinds_ticks):
        record = {"event": kind, "seq": i, "t": 0.0, "span": None}
        if tick is not None:
            record["tick"] = tick
        out.append(record)
    return out


class TestSpoolRoundTrip:
    def test_worker_trace_sink_round_trip(self, tmp_path):
        counter = MessageCounter()
        report = OutlierReport(value=np.array([1.0]), origin=3,
                               flagged_level=0, tick=5)
        counter.send(report, 1, 0, 0)
        counter.deliver(report, 0, 0)
        with worker_trace_sink(tmp_path, 3, counter=counter) as path:
            obs.emit("sample.evict", count=1, tick=5)
            obs.emit("sample.evict", count=2, tick=6)
        spool = load_spool(path)
        assert spool.worker_id == 3
        assert spool.clean
        assert spool.n_torn == 0
        # Spans from worker_trace_sink's own scope are absent here, so
        # the two emitted events are exactly the payload.
        assert [e["event"] for e in spool.events] == ["sample.evict"] * 2
        assert spool.footer is not None
        assert spool.footer["n_emitted"] == 2
        assert spool.counter == counter_totals(counter)

    def test_header_carries_provenance(self, tmp_path):
        with worker_trace_sink(tmp_path, 1):
            pass
        spool = load_spool(spool_path(tmp_path, 1))
        for key in ("pid", "host", "python", "created_t"):
            assert key in spool.header
        assert spool.counter is None   # no counter given

    def test_torn_tail_tolerated_and_counted(self, tmp_path):
        path = _write_spool(tmp_path, 2,
                            _events([("sample.evict", 1),
                                     ("sample.evict", 2)]),
                            footer=False,
                            tail='{"event": "sample.evict", "se\n')
        spool = load_spool(path)
        assert spool.n_torn == 1
        assert not spool.clean
        assert len(spool.events) == 2   # recovered up to the tear

    def test_interior_corruption_is_fatal(self, tmp_path):
        path = spool_path(tmp_path, 2)
        write_spool_header(path, 2)
        with open(path, "a", encoding="utf-8") as sink:
            sink.write("{not json}\n")
            sink.write(json.dumps(_events([("sample.evict", 1)])[0]) + "\n")
        with pytest.raises(SnapshotError, match="interior"):
            load_spool(path)

    def test_missing_footer_means_not_clean(self, tmp_path):
        path = _write_spool(tmp_path, 4,
                            _events([("sample.evict", 1)]), footer=False)
        spool = load_spool(path)
        assert spool.footer is None
        assert not spool.clean
        assert spool.counter is None

    def test_data_after_footer_is_fatal(self, tmp_path):
        path = _write_spool(
            tmp_path, 4, _events([("sample.evict", 1)]),
            tail=json.dumps(_events([("sample.evict", 2)])[0]) + "\n")
        with pytest.raises(SnapshotError, match="after spool footer"):
            load_spool(path)

    def test_not_a_spool_rejected(self, tmp_path):
        plain = tmp_path / "trace.jsonl"
        plain.write_text('{"event": "sample.evict", "seq": 0}\n')
        assert not is_spool_file(plain)
        with pytest.raises(ParameterError, match="header"):
            load_spool(plain)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ParameterError, match="empty"):
            load_spool(empty)

    def test_wrong_version_rejected(self, tmp_path):
        path = spool_path(tmp_path, 1)
        header = {"spool": "repro-spool", "version": 99, "worker_id": 1}
        path.write_text(json.dumps({"spool_header": header}) + "\n")
        with pytest.raises(ParameterError, match="version"):
            load_spool(path)

    def test_load_spools_orders_by_worker_id(self, tmp_path):
        _write_spool(tmp_path, 7, _events([("sample.evict", 1)]))
        _write_spool(tmp_path, 2, _events([("sample.evict", 1)]))
        spools = load_spools(tmp_path)
        assert [s.worker_id for s in spools] == [2, 7]

    def test_load_spools_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="no worker-"):
            load_spools(tmp_path)


class TestMerge:
    def test_provenance_stamped_and_seq_renumbered(self, tmp_path):
        _write_spool(tmp_path, 1, _events([("sample.evict", 0),
                                           ("sample.evict", 2)]))
        _write_spool(tmp_path, 2, _events([("sample.evict", 1)]))
        merged = merge_spools(load_spools(tmp_path))
        assert merged.worker_ids == [1, 2]
        assert [e["seq"] for e in merged.events] == [0, 1, 2]
        assert all("worker_id" in e and "worker_seq" in e
                   for e in merged.events)
        # Interleaved by high-water tick: w1@0, w2@1, w1@2.
        assert [(e["worker_id"], e["worker_seq"])
                for e in merged.events] == [(1, 0), (2, 0), (1, 1)]

    def test_high_water_carry_never_reorders_a_worker(self, tmp_path):
        # The late event (old tick 1 emitted after tick 9) must stay
        # *after* its predecessor: the merge keys on the monotone
        # high-water tick, not each event's own tick.
        _write_spool(tmp_path, 1, _events([
            ("sample.evict", 9), ("message.deliver", 1),
            ("sample.evict", 10)]))
        merged = merge_spools(load_spools(tmp_path))
        assert [e["worker_seq"] for e in merged.events] == [0, 1, 2]

    def test_span_ids_offset_into_disjoint_ranges(self, tmp_path):
        for worker in (1, 2):
            path = spool_path(tmp_path, worker)
            write_spool_header(path, worker)
            with open(path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(
                    {"event": "span_open", "seq": 0, "id": 0,
                     "parent": None, "name": "run", "t": 0.0,
                     "span": None, "tick": worker}) + "\n")
                sink.write(json.dumps(
                    {"event": "span_close", "seq": 1, "id": 0,
                     "t": 0.0, "span": None, "tick": worker}) + "\n")
            append_spool_footer(path, worker, n_emitted=2,
                                ring_dropped_by_kind={}, counter=None)
        merged = merge_spools(load_spools(tmp_path))
        opens = {e["worker_id"]: e["id"] for e in merged.events
                 if e["event"] == "span_open"}
        closes = {e["worker_id"]: e["id"] for e in merged.events
                  if e["event"] == "span_close"}
        assert opens[1] != opens[2]          # disjoint id ranges
        assert opens == closes               # pairs still match up

    def test_duplicate_worker_ids_rejected(self):
        spool = Spool(1, {"worker_id": 1},
                      _events([("sample.evict", 0)]), None)
        with pytest.raises(ParameterError, match="duplicate"):
            merge_spools([spool, spool])

    def test_ring_drop_and_torn_meta_carried(self, tmp_path):
        path = spool_path(tmp_path, 5)
        write_spool_header(path, 5)
        append_spool_footer(
            path, 5, n_emitted=10,
            ring_dropped_by_kind={"sample.evict": 4}, counter=None)
        merged = merge_spools([load_spool(path)])
        assert merged.n_ring_dropped == 4
        assert merged.ring_dropped_by_worker[5] == {"sample.evict": 4}
        assert merged.clean

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_merge_is_byte_identical_under_input_reordering(self, data):
        """Property: merging the same spools in any input order yields
        byte-identical merged traces (the satellite (c) guarantee)."""
        n_workers = data.draw(st.integers(min_value=2, max_value=4))
        worker_ids = data.draw(st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=n_workers, max_size=n_workers, unique=True))
        spools = []
        for worker_id in worker_ids:
            ticks = data.draw(st.lists(
                st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
                max_size=8))
            events = _events([("sample.evict", t) for t in ticks])
            spools.append(Spool(worker_id, {"worker_id": worker_id},
                                events, {"n_emitted": len(events)}))

        def merged_bytes(ordering):
            payload = merge_spools(ordering).events
            return "".join(json.dumps(e, sort_keys=True) + "\n"
                           for e in payload)

        baseline = merged_bytes(spools)
        permuted = data.draw(st.permutations(spools))
        assert merged_bytes(permuted) == baseline

    def test_write_merged_round_trips_through_load_trace(self, tmp_path):
        _write_spool(tmp_path, 1, _events([("sample.evict", 0)]))
        merged = merge_spools(load_spools(tmp_path))
        out = tmp_path / "merged.jsonl"
        write_merged(merged.events, out)
        assert load_trace(out) == merged.events


class TestConservation:
    def _send(self, seq, *, words=4):
        return {"event": "message.send", "seq": seq,
                "kind": "OutlierReport", "words": words}

    def test_balanced_books_pass(self):
        events = [self._send(0), self._send(1),
                  {"event": "message.deliver", "seq": 2,
                   "kind": "OutlierReport"},
                  {"event": "message.drop", "seq": 3,
                   "kind": "OutlierReport"},
                  {"event": "detector.flag", "seq": 4},
                  # Not one of the three ledger events: not counted.
                  {"event": "message.bogus", "seq": 5,
                   "kind": "OutlierReport"}]
        totals = {"counts": {"OutlierReport": 2},
                  "delivered": {"OutlierReport": 1},
                  "dropped": {"OutlierReport": 1},
                  "words": {"OutlierReport": 8}}
        assert conservation_failures(events, totals) == []

    def test_missing_deliver_event_fails(self):
        events = [self._send(0)]
        totals = {"counts": {"OutlierReport": 1},
                  "delivered": {"OutlierReport": 1},
                  "dropped": {}, "words": {"OutlierReport": 4}}
        problems = conservation_failures(events, totals)
        # The trace is short one deliver event; the totals themselves
        # still balance, so that is the *only* failure.
        assert len(problems) == 1
        assert "deliver" in problems[0]

    def test_word_mismatch_fails(self):
        events = [self._send(0, words=3)]
        totals = {"counts": {"OutlierReport": 1}, "delivered": {},
                  "dropped": {"OutlierReport": 1},
                  "words": {"OutlierReport": 4}}
        problems = conservation_failures(events, totals)
        assert any("words" in p for p in problems)

    def test_leaky_totals_fail(self):
        totals = {"counts": {"OutlierReport": 3},
                  "delivered": {"OutlierReport": 1},
                  "dropped": {"OutlierReport": 1}, "words": {}}
        problems = conservation_failures([], totals)
        assert any("sent 3 != delivered 1 + dropped 1" in p
                   for p in problems)

    def test_counter_totals_and_fleet_sum(self):
        counter = MessageCounter()
        report = OutlierReport(value=np.array([0.5]), origin=1,
                               flagged_level=0, tick=0)
        counter.send(report, 1, 0, 0)
        counter.drop(report, "loss", 0)
        totals = counter_totals(counter)
        assert totals["counts"]["OutlierReport"] == 1
        assert totals["dropped"]["OutlierReport"] == 1
        summed = sum_counter_totals([totals, totals])
        assert summed["counts"]["OutlierReport"] == 2
        assert summed["words"]["OutlierReport"] \
            == 2 * totals["words"]["OutlierReport"]

    def test_counter_totals_rejects_non_counter(self):
        with pytest.raises(ParameterError, match="counts"):
            counter_totals(object())


class TestLoadTraceMeta:
    def test_plain_trace_has_empty_meta(self, tmp_path):
        plain = tmp_path / "trace.jsonl"
        plain.write_text('{"event": "sample.evict", "seq": 0}\n')
        events, meta = load_trace_meta(plain)
        assert len(events) == 1
        assert meta == {}

    def test_single_spool_and_directory_sources(self, tmp_path):
        counter = MessageCounter()
        path = _write_spool(tmp_path, 3,
                            _events([("sample.evict", 1)]),
                            counter=counter_totals(counter))
        events, meta = load_trace_meta(path)
        assert meta["worker_ids"] == [3]
        assert meta["clean"] is True
        _write_spool(tmp_path, 4, _events([("sample.evict", 0)]),
                     counter=counter_totals(counter))
        events, meta = load_trace_meta(tmp_path)
        assert meta["worker_ids"] == [3, 4]
        assert len(events) == 2
        assert meta["counter_totals"] is not None

    def test_counter_totals_absent_unless_every_footer_has_one(
            self, tmp_path):
        _write_spool(tmp_path, 1, _events([("sample.evict", 0)]),
                     counter={"counts": {}, "delivered": {},
                              "dropped": {}, "words": {}})
        _write_spool(tmp_path, 2, _events([("sample.evict", 0)]))
        _, meta = load_trace_meta(tmp_path)
        assert meta["counter_totals"] is None


class TestLoadMetricsSnapshots:
    def test_accepts_bare_wrapped_and_directory(self, tmp_path):
        bare = tmp_path / "a.metrics.json"
        bare.write_text(json.dumps(
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}}))
        wrapped = tmp_path / "b.metrics.json"
        wrapped.write_text(json.dumps(
            {"worker_id": 1,
             "metrics": {"counters": {"x": 2}, "gauges": {},
                         "histograms": {}}}))
        snapshots = load_metrics_snapshots([bare, wrapped])
        assert [s["counters"]["x"] for s in snapshots] == [1, 2]
        from_dir = load_metrics_snapshots([tmp_path])
        assert len(from_dir) == 2

    def test_rejects_non_snapshots(self, tmp_path):
        empty_dir = tmp_path / "nothing"
        empty_dir.mkdir()
        with pytest.raises(ParameterError, match="no .*metrics.json"):
            load_metrics_snapshots([empty_dir])
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"no": "metrics"}')
        with pytest.raises(ParameterError, match="no metrics snapshot"):
            load_metrics_snapshots([bogus])
