"""Resource reports (paper Section 10.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.messages import (
    Ack,
    MessageCounter,
    ModelHandoff,
    ModelUpdate,
    OutlierReport,
    ValueForward,
)
from repro.network.metrics import (
    BYTES_PER_WORD,
    CommunicationReport,
    MemoryReport,
)


class TestMemoryReport:
    def test_totals(self):
        report = MemoryReport(sample_words=1000, variance_words=150,
                              model_words=200)
        assert report.total_words == 1350
        assert report.total_bytes == 2700   # 16-bit words

    def test_model_words_default_zero(self):
        report = MemoryReport(sample_words=10, variance_words=5)
        assert report.total_words == 15

    def test_bytes_use_16_bit_words(self):
        assert BYTES_PER_WORD == 2
        report = MemoryReport(sample_words=7, variance_words=0)
        assert report.total_bytes == 7 * BYTES_PER_WORD

    def test_zero_report(self):
        report = MemoryReport(sample_words=0, variance_words=0)
        assert report.total_words == 0
        assert report.total_bytes == 0

    def test_frozen(self):
        report = MemoryReport(sample_words=1, variance_words=1)
        with pytest.raises(AttributeError):
            report.sample_words = 2   # type: ignore[misc]


class TestCommunicationReport:
    def test_rates(self):
        counter = MessageCounter()
        for _ in range(100):
            counter.send(ValueForward(value=np.array([0.1])), 1, 0, 0)
        report = CommunicationReport(n_ticks=50, n_nodes=10, counter=counter)
        assert report.messages_per_second == 2.0
        assert report.messages_per_node_per_second == 0.2

    def test_zero_nodes(self):
        report = CommunicationReport(n_ticks=10, n_nodes=0,
                                     counter=MessageCounter())
        assert report.messages_per_node_per_second == 0.0

    def test_zero_ticks(self):
        counter = MessageCounter()
        counter.send(Ack(seq=0), 1, 0, 0)
        report = CommunicationReport(n_ticks=0, n_nodes=4, counter=counter)
        assert report.messages_per_second == 0.0
        assert report.messages_per_node_per_second == 0.0


class TestWordAccounting:
    """The per-kind word/byte accounting the paper's cost model rests on."""

    def test_value_forward_words(self):
        # d values + 1 timestamp word.
        assert ValueForward(value=np.zeros(3)).size_words() == 4
        assert ValueForward(value=np.zeros(1)).size_words() == 2

    def test_outlier_report_words(self):
        # d values + origin + flagged_level + tick.
        message = OutlierReport(value=np.zeros(2), origin=1,
                                flagged_level=1, tick=9)
        assert message.size_words() == 5

    def test_model_update_words_incremental(self):
        # stddev (d) + window word + per-slot values + slot indices.
        message = ModelUpdate(stddev=np.zeros(1), slots=(0, 3),
                              value=np.zeros(2))
        assert message.size_words() == 1 + 1 + 2 + 2

    def test_model_update_words_full_broadcast(self):
        message = ModelUpdate(stddev=np.zeros(1),
                              full_sample=np.zeros((5, 2)))
        assert message.size_words() == 1 + 1 + 10

    def test_ack_and_handoff_words(self):
        assert Ack(seq=17).size_words() == 2
        assert ModelHandoff(leader=0, words=123).size_words() == 123

    def test_counter_accumulates_words_by_kind(self):
        counter = MessageCounter()
        counter.send(ValueForward(value=np.zeros(3)), 1, 0, 0)  # 4 words
        counter.send(ValueForward(value=np.zeros(3)), 1, 0, 0)  # 4 words
        counter.send(Ack(seq=0), 1, 0, 0)                       # 2 words
        assert counter.words == {"ValueForward": 8, "Ack": 2}
        assert counter.total_words == 10
        # Bytes at the paper's 16-bit word size.
        assert counter.total_words * BYTES_PER_WORD == 20


class TestCounterConservation:
    def test_identity_holds_when_outcomes_recorded(self):
        counter = MessageCounter()
        message = ValueForward(value=np.zeros(1))
        counter.send(message, 1, 0, 0)
        counter.send(message, 1, 0, 0)
        counter.deliver(message, 0, 0)
        counter.drop(message, "loss", 0)
        assert counter.conservation_failures() == []
        assert counter.total_messages == 2
        assert counter.total_delivered == 1
        assert counter.total_dropped == 1

    def test_identity_violation_reported_per_kind(self):
        counter = MessageCounter()
        counter.send(ValueForward(value=np.zeros(1)), 1, 0, 0)
        counter.send(Ack(seq=0), 1, 0, 0)
        counter.deliver(Ack(seq=0), 0, 0)
        assert counter.conservation_failures() == ["ValueForward"]
