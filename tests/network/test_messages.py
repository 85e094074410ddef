"""Message taxonomy and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.network.messages import (
    Ack,
    Message,
    MessageCounter,
    ModelHandoff,
    ModelUpdate,
    OutlierReport,
    ValueForward,
)


class TestSizes:
    def test_value_forward(self):
        msg = ValueForward(value=np.array([0.1, 0.2]))
        assert msg.size_words() == 3   # 2 coords + timestamp

    def test_outlier_report(self):
        msg = OutlierReport(value=np.array([0.1]), origin=3,
                            flagged_level=1, tick=7)
        assert msg.size_words() == 4

    def test_incremental_model_update(self):
        msg = ModelUpdate(stddev=np.array([0.05]), slots=(1, 4),
                          value=np.array([0.3]), window_size=100)
        # stddev(1) + window(1) + value(1) + 2 slots
        assert msg.size_words() == 5

    def test_full_model_update(self):
        msg = ModelUpdate(stddev=np.array([0.05, 0.04]),
                          full_sample=np.zeros((10, 2)), window_size=100)
        assert msg.size_words() == 2 + 1 + 20

    def test_ack(self):
        assert Ack(seq=17).size_words() == 2   # seq + timestamp

    def test_model_handoff(self):
        assert ModelHandoff(leader=9, words=85).size_words() == 85

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            Message().size_words()


class TestCounter:
    def test_counts_by_kind(self):
        counter = MessageCounter()
        counter.send(ValueForward(value=np.array([0.1])), 1, 0, 0)
        counter.send(ValueForward(value=np.array([0.2])), 1, 0, 0)
        counter.send(OutlierReport(value=np.array([0.1]), origin=0,
                                   flagged_level=1, tick=0), 1, 0, 0)
        assert counter.counts == {"ValueForward": 2, "OutlierReport": 1}
        assert counter.total_messages == 3

    def test_words_accumulate(self):
        counter = MessageCounter()
        counter.send(ValueForward(value=np.array([0.1, 0.2])), 1, 0, 0)
        assert counter.total_words == 3
        assert counter.words["ValueForward"] == 3

    def test_rate(self):
        counter = MessageCounter()
        for _ in range(10):
            counter.send(ValueForward(value=np.array([0.1])), 1, 0, 0)
        assert counter.messages_per_tick(5) == 2.0
        assert counter.messages_per_tick(0) == 0.0

    def test_delivered_and_dropped_by_kind(self):
        counter = MessageCounter()
        msg = ValueForward(value=np.array([0.1]))
        for _ in range(3):
            counter.send(msg, 1, 0, 0)
        counter.deliver(msg, 0, 0)
        counter.deliver(msg, 0, 0)
        counter.drop(msg, "loss", 0)
        assert counter.delivered == {"ValueForward": 2}
        assert counter.dropped == {"ValueForward": 1}
        assert counter.total_delivered == 2
        assert counter.total_dropped == 1

    def test_conservation_identity(self):
        counter = MessageCounter()
        msg = ValueForward(value=np.array([0.1]))
        ack = Ack(seq=1)
        counter.send(msg, 1, 0, 0)
        counter.deliver(msg, 0, 0)
        counter.send(ack, 1, 0, 0)
        assert counter.conservation_failures() == ["Ack"]
        counter.drop(ack, "loss", 0)
        assert counter.conservation_failures() == []


class TestLedger:
    """One call per attempt outcome counts it and, when traced, emits
    the matching ``message.*`` event with the message's lineage."""

    REPORT = OutlierReport(value=np.array([0.4]), origin=7,
                           flagged_level=1, tick=12)

    def _traced(self, run):
        obs.reset()
        with obs.enabled():
            run()
        events = [{k: v for k, v in e.items()
                   if k not in ("seq", "t", "span")}
                  for e in obs.tracer().events()]
        obs.reset()
        return events

    def test_events_carry_lineage_and_seq_no(self):
        counter = MessageCounter()

        def run():
            counter.send(self.REPORT, 7, 3, 14, seq_no=5)
            counter.drop(self.REPORT, "loss", 14, dest=3, seq_no=5)
            counter.send(self.REPORT, 7, 3, 15, seq_no=5, duplicate=True)
            counter.deliver(self.REPORT, 3, 15, seq_no=5, duplicate=True)

        lineage = {"origin": 7, "reading_tick": 12, "seq_no": 5}
        assert self._traced(run) == [
            {"event": "message.send", "kind": "OutlierReport", "sender": 7,
             "dest": 3, "words": 4, "tick": 14, **lineage},
            {"event": "message.drop", "kind": "OutlierReport",
             "reason": "loss", "dest": 3, "tick": 14, **lineage},
            {"event": "message.send", "kind": "OutlierReport", "sender": 7,
             "dest": 3, "words": 4, "tick": 15, "duplicate": True,
             **lineage},
            {"event": "message.deliver", "kind": "OutlierReport", "dest": 3,
             "tick": 15, "duplicate": True, **lineage}]
        assert counter.conservation_failures() == []

    def test_drop_without_dest_and_untracked_kinds(self):
        counter = MessageCounter()

        def run():
            counter.drop(self.REPORT, "fleet-loss", 9)
            counter.drop(Ack(seq=2), "crash", 9, dest=1)

        assert self._traced(run) == [
            {"event": "message.drop", "kind": "OutlierReport",
             "reason": "fleet-loss", "tick": 9, "origin": 7,
             "reading_tick": 12},
            {"event": "message.drop", "kind": "Ack", "reason": "crash",
             "dest": 1, "tick": 9}]

    def test_drops_by_reason(self):
        counter = MessageCounter()
        for reason in ("loss", "crash", "loss", "park-evict"):
            counter.send(self.REPORT, 7, 3, 0)
            counter.drop(self.REPORT, reason, 0, dest=3)
        assert counter.drops_by_reason == {"loss": 2, "crash": 1,
                                           "park-evict": 1}
        assert counter.dropped == {"OutlierReport": 4}
        assert counter.conservation_failures() == []
