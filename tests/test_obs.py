"""Unit tests for the observability package (:mod:`repro.obs`).

Covers the three zero-dependency building blocks on their own: trace-id
parsing and propagation, the bounded span ring + histograms, and the
structured event logger and its schema.  Service-level integration
(headers on the wire, ``/debug/trace`` merging) lives in
``tests/test_service_obs.py``.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs.logging import (
    EVENT_FIELDS,
    StructuredLogger,
    validate_event,
)
from repro.obs.spans import (
    HISTOGRAM_BUCKETS_S,
    SpanRecorder,
    histogram_samples,
    recorder,
    span,
)
from repro.obs.trace import (
    DEFAULT_TENANT,
    TraceContext,
    current_trace,
    new_trace,
    parse_trace_header,
    sanitize_tenant,
    use_trace,
)


class TestTraceContext:
    def test_new_trace_ids_are_16_hex(self):
        ctx = new_trace()
        assert len(ctx.trace_id) == 16 and int(ctx.trace_id, 16) >= 0
        assert len(ctx.span_id) == 16 and int(ctx.span_id, 16) >= 0
        assert ctx.tenant == DEFAULT_TENANT

    def test_header_round_trip(self):
        ctx = new_trace("acme")
        parsed = parse_trace_header(ctx.header_value())
        assert parsed == ctx

    def test_child_keeps_trace_changes_span(self):
        ctx = new_trace()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.tenant == ctx.tenant

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "nonsense",
            "abc;def;tenant",  # ids too short
            "0123456789abcdef;0123456789abcdef",  # two fields, not three
            "0123456789ABCDEF;0123456789abcdef;t",  # uppercase rejected
        ],
    )
    def test_malformed_header_mints_new_trace(self, header):
        ctx = parse_trace_header(header)
        assert len(ctx.trace_id) == 16 and len(ctx.span_id) == 16
        assert ctx.tenant == DEFAULT_TENANT

    def test_explicit_tenant_header_wins(self):
        wire = TraceContext("0" * 16, "1" * 15 + "a", tenant="riding").header_value()
        ctx = parse_trace_header(wire, tenant="explicit")
        assert ctx.tenant == "explicit"
        assert ctx.trace_id == "0" * 16

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (None, DEFAULT_TENANT),
            ("", DEFAULT_TENANT),
            ("team-a", "team-a"),
            ("a.b:c_d-e", "a.b:c_d-e"),
            ("has space", "other"),
            ("x" * 33, "other"),
            ('evil"label\n', "other"),
        ],
    )
    def test_sanitize_tenant(self, raw, expected):
        assert sanitize_tenant(raw) == expected

    def test_use_trace_scopes_the_ambient_context(self):
        assert current_trace() is None
        ctx = new_trace()
        with use_trace(ctx):
            assert current_trace() == ctx
        assert current_trace() is None


class TestSpanRecorder:
    def test_record_and_read_back(self):
        rec = SpanRecorder()
        rec.record("t1", "engine.solve", 10.0, 0.25, tenant="acme", algorithm="ffdh")
        doc = rec.trace_document("t1")
        assert doc["trace"] == "t1"
        (span,) = doc["spans"]
        assert span["name"] == "engine.solve"
        assert span["duration_s"] == 0.25
        assert span["tenant"] == "acme"
        assert span["labels"] == {"algorithm": "ffdh"}

    def test_unknown_trace_yields_empty_document(self):
        assert SpanRecorder().trace_document("nope") == {"trace": "nope", "spans": []}

    def test_trace_ring_is_bounded(self):
        rec = SpanRecorder(max_traces=3)
        for i in range(5):
            rec.record(f"t{i}", "x", float(i), 0.001)
        assert rec.spans_for("t0") == [] and rec.spans_for("t1") == []
        assert len(rec.spans_for("t4")) == 1

    def test_spans_per_trace_are_capped(self):
        rec = SpanRecorder(max_spans_per_trace=4)
        for i in range(10):
            rec.record("t", "x", float(i), 0.001)
        assert len(rec.spans_for("t")) == 4
        # the histogram still counts every recording
        assert rec.histogram_snapshot()["x|default"]["count"] == 10

    def test_identity_is_stamped_on_spans(self):
        rec = SpanRecorder()
        rec.identity = "3"
        rec.record("t", "x", 0.0, 0.001)
        assert rec.trace_document("t")["spans"][0]["worker"] == "3"

    def test_span_contextmanager_noop_without_trace(self):
        assert current_trace() is None
        before = recorder().histogram_snapshot()
        with span("test.noop"):
            pass
        assert recorder().histogram_snapshot() == before

    def test_span_contextmanager_records_under_the_ambient_trace(self):
        ctx = new_trace(tenant="acme")
        with use_trace(ctx):
            with span("test.ambient", worker_hint="w"):
                pass
        (recorded,) = recorder().trace_document(ctx.trace_id)["spans"]
        assert recorded["name"] == "test.ambient" and recorded["tenant"] == "acme"
        assert recorded["labels"] == {"worker_hint": "w"}

    def test_histogram_buckets_accumulate(self):
        rec = SpanRecorder()
        rec.record("t", "x", 0.0, 0.0005)  # first bucket (<= 1ms)
        rec.record("t", "x", 0.0, 0.3)  # <= 0.5s bucket
        rec.record("t", "x", 0.0, 99.0)  # overflow (+Inf)
        entry = rec.histogram_snapshot()["x|default"]
        assert entry["count"] == 3
        assert entry["buckets"][0] == 1
        assert entry["buckets"][HISTOGRAM_BUCKETS_S.index(0.5)] == 1
        assert entry["buckets"][-1] == 1

    def test_histogram_samples_are_cumulative(self):
        rec = SpanRecorder()
        for duration in (0.0005, 0.3, 99.0):
            rec.record("t", "x", 0.0, duration)
        samples = histogram_samples(rec.histogram_snapshot(), {"worker": "0"})
        buckets = {
            s[1]["le"]: s[2]
            for s in samples
            if s[0] == "repro_span_duration_seconds_bucket"
        }
        assert buckets["0.001"] == 1.0
        assert buckets["5"] == 2.0  # cumulative: everything but the overflow
        assert buckets["+Inf"] == 3.0
        count = [s for s in samples if s[0] == "repro_span_duration_seconds_count"]
        assert count[0][2] == 3.0
        assert count[0][1]["worker"] == "0"


class TestStructuredLogger:
    def test_json_lines_validate(self):
        sink = io.StringIO()
        logger = StructuredLogger("json", stream=sink)
        logger.event(
            "request", trace="a" * 16, endpoint="/solve", status=200,
            latency_ms=1.25, tenant="default", cache="hit",
        )
        record = json.loads(sink.getvalue())
        validate_event(record)
        assert record["event"] == "request" and record["cache"] == "hit"

    def test_text_lines_are_key_value(self):
        sink = io.StringIO()
        StructuredLogger("text", stream=sink).event("drain", stage="begin")
        line = sink.getvalue().strip()
        assert line.startswith("event=drain")
        assert "stage=begin" in line and "level=info" in line

    def test_unconfigured_goes_through_stdlib_logging(self, caplog):
        logger = StructuredLogger()
        assert not logger.configured
        with caplog.at_level(logging.WARNING, logger="repro.test.obs"):
            logger.event("failover", logger="repro.test.obs",
                         worker=2, reason="timeout", path="/solve")
        assert len(caplog.records) == 1
        assert caplog.records[0].levelno == logging.WARNING
        assert "event=failover" in caplog.records[0].getMessage()

    def test_unconfigured_event_below_the_level_is_never_rendered(self, monkeypatch):
        """An INFO event that stdlib logging would drop costs no rendering."""
        from repro.obs import logging as obs_logging

        rendered = []
        monkeypatch.setattr(
            obs_logging, "_render_text", lambda event, fields: rendered.append(event) or ""
        )
        quiet = logging.getLogger("repro.test.obs.quiet")
        quiet.setLevel(logging.WARNING)
        try:
            StructuredLogger().event(
                "request", logger="repro.test.obs.quiet", trace="a" * 16,
                endpoint="/solve", status=200, latency_ms=1.0, tenant="default",
            )
        finally:
            quiet.setLevel(logging.NOTSET)
        assert rendered == []

    def test_file_sink_appends_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = StructuredLogger("json", path=path)
        logger.event("drain", stage="begin")
        logger.event("drain", stage="complete")
        logger.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_event(json.loads(line))

    def test_broken_sink_never_raises(self):
        class Broken(io.StringIO):
            def write(self, *_):
                raise OSError("disk full")

        StructuredLogger("json", stream=Broken()).event("drain", stage="begin")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            StructuredLogger("xml")

    @pytest.mark.parametrize(
        "record,message",
        [
            ("not a dict", "object"),
            ({"event": "nope", "ts": 1.0, "level": "info"}, "unknown event"),
            ({"event": "drain", "level": "info"}, "ts"),
            ({"event": "drain", "ts": 1.0, "level": "loud"}, "level"),
            ({"event": "drain", "ts": 1.0, "level": "info"}, "stage"),
            (
                {"event": "drain", "ts": 1.0, "level": "info", "stage": 3},
                "stage",
            ),
        ],
    )
    def test_validate_event_rejects(self, record, message):
        with pytest.raises(ValueError, match=message):
            validate_event(record)

    def test_every_event_schema_has_typed_fields(self):
        for event, fields in EVENT_FIELDS.items():
            assert fields, event
            for name, types in fields.items():
                assert isinstance(name, str) and isinstance(types, tuple)
