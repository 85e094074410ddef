"""Event schema validation: positive and negative cases."""

from __future__ import annotations

from repro import obs
from repro.obs import schema


def _emit(event, **fields):
    """Emit through an active tracer and return the full record."""
    return obs.tracer().emit(event, **fields)


class TestValidEvents:
    def test_every_kind_has_fields(self):
        assert set(schema.EVENT_KINDS) == set(schema.EVENT_FIELDS)

    def test_emitted_events_validate(self):
        obs.activate()
        with obs.span("run"):
            _emit("message.send", kind="ValueForward", sender=1, dest=0,
                  words=2)
            _emit("message.deliver", kind="ValueForward", dest=0)
            _emit("message.drop", kind="Ack", reason="loss")
            _emit("transport.retransmit", seq_no=4, attempt=2)
            _emit("detector.flag", node=0, level=1, origin=3, tick=7)
            _emit("detector.check", node=0, level=2, origin=3, flagged=False)
            _emit("sample.evict", count=2)
            _emit("estimator.rebuild", sample_size=100, dur_s=0.001)
        assert schema.validate_events(obs.tracer().events()) == []

    def test_extra_fields_allowed(self):
        obs.activate()
        record = _emit("sample.evict", count=1, timestamp=9, custom="x")
        assert schema.validate_event(record) == []


class TestInvalidEvents:
    def test_unknown_kind(self):
        obs.activate()
        record = _emit("nonsense.kind")
        problems = schema.validate_event(record)
        assert any("unknown event" in p for p in problems)

    def test_missing_required_field(self):
        obs.activate()
        record = _emit("message.send", kind="Ack", sender=1, dest=0)
        problems = schema.validate_event(record)
        assert any("words" in p for p in problems)

    def test_wrong_type(self):
        obs.activate()
        record = _emit("sample.evict", count="two")
        problems = schema.validate_event(record)
        assert any("count" in p for p in problems)

    def test_bool_is_not_int(self):
        obs.activate()
        record = _emit("sample.evict", count=True)
        assert schema.validate_event(record) != []

    def test_span_open_name_must_be_known(self):
        obs.activate()
        obs.tracer().open_span("bogus")
        problems = schema.validate_events(obs.tracer().events())
        assert any("bogus" in p for p in problems)

    def test_missing_common_fields(self):
        problems = schema.validate_event({"event": "sample.evict", "count": 1})
        assert any("seq" in p for p in problems)

    def test_validate_events_prefixes_index(self):
        obs.activate()
        _emit("sample.evict", count=1)
        _emit("nonsense.kind")
        problems = schema.validate_events(obs.tracer().events())
        assert problems
        assert all(p.startswith("[1]") for p in problems)

    def test_mistyped_tick_and_message_flags(self):
        obs.activate()
        record = _emit("message.send", kind="ValueForward", sender=1,
                       dest=0, words=2, tick="x", duplicate="yes")
        problems = schema.validate_event(record)
        assert len(problems) == 2, problems
        assert any("'tick'" in p for p in problems)
        assert any("'duplicate'" in p for p in problems)

    def test_drop_dest_must_be_an_int(self):
        obs.activate()
        record = _emit("message.drop", kind="Ack", reason="loss", dest="0")
        assert any("'dest'" in p for p in schema.validate_event(record))
        record = _emit("message.drop", kind="Ack", reason="loss", tick=3)
        assert schema.validate_event(record) == []
