"""Tests for repro.obs — tracing, histograms, and Prometheus exposition.

Three layers of contract:

* **Unit** — trace ids and header round-trips, ambient span nesting,
  the JSONL trace store, fixed-bucket histograms, and the strict
  exposition validator.
* **Integration** — a traced ``Session.run`` produces the documented
  span vocabulary; the serving stack mints, propagates, stores, and
  serves traces (``GET /trace/<id>``, ``POST /trace`` ingestion,
  ``/metrics?format=prometheus``); a fleet worker's spans export back
  into the submitting request's trace.
* **Zero-perturbation** — the registry-wide byte-identity test: every
  experiment's ``--format json`` envelope is identical with tracing on
  or off.  Tracing observes the computation; it never feeds it.
"""

import json
import os
import re
import stat
import threading
import time

import pytest

from harness import get_json, wait_for
from repro.__main__ import main
from repro.api import Session, all_experiments
from repro.api.client import RemoteSession
from repro.api.session import install_default
from repro.api.store import ResultStore, canonical_json
from repro.exec.cache import CompileCache
from repro.obs import (
    DEFAULT_BUCKETS,
    TRACE_HEADER,
    Histogram,
    SpanBuffer,
    TraceStore,
    Tracer,
    activate,
    current,
    current_trace_id,
    format_trace_header,
    is_trace_id,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    record_span,
    root_span,
    span,
    span_record,
    validate_exposition,
)
from repro.obs.prometheus import (
    escape_label_value,
    family,
    format_value,
    histogram_family,
    render,
    sample_line,
)
from repro.serve.app import ServeApp
from repro.serve.jobs import JobQueue
from repro.serve.metrics import COUNTERS, ServeMetrics
from repro.serve.sweeps import SweepTable


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


def _names(spans):
    return [record["name"] for record in spans]


# ---------------------------------------------------------------------------
# trace core
# ---------------------------------------------------------------------------


class TestTraceIds:
    def test_id_formats(self):
        assert re.fullmatch(r"[0-9a-f]{32}", new_trace_id())
        assert re.fullmatch(r"[0-9a-f]{16}", new_span_id())
        assert new_trace_id() != new_trace_id()

    def test_is_trace_id(self):
        assert is_trace_id(new_trace_id())
        assert not is_trace_id(None)
        assert not is_trace_id("abc")
        assert not is_trace_id("Z" * 32)
        assert not is_trace_id(new_trace_id().upper())

    def test_header_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = format_trace_header(trace_id, span_id)
        assert parse_trace_header(header) == (trace_id, span_id)

    @pytest.mark.parametrize("value", [
        None, 42, "", "garbage", "deadbeef-cafe",
        "g" * 32 + "-" + "a" * 16,            # non-hex trace id
        "a" * 32,                              # no span part
        "a" * 32 + "-" + "b" * 15,             # short span id
        "a" * 31 + "-" + "b" * 16,             # short trace id
    ])
    def test_malformed_headers_degrade_to_none(self, value):
        assert parse_trace_header(value) is None

    def test_parse_strips_whitespace(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = f"  {format_trace_header(trace_id, span_id)}\n"
        assert parse_trace_header(header) == (trace_id, span_id)


class TestSpanContext:
    def test_span_without_active_trace_is_noop(self):
        assert current() is None
        with span("anything", key="value") as handle:
            assert handle.trace_id is None
            assert handle.span_id is None
            handle.set(extra=1)  # must not raise
        assert current() is None
        assert current_trace_id() is None

    def test_nested_spans_parent_correctly(self):
        sink = SpanBuffer()
        tracer = Tracer(sink, service="test")
        trace_id = new_trace_id()
        with activate(tracer, trace_id):
            with span("outer") as outer:
                with span("inner", detail=1) as inner:
                    pass
        assert _names(sink.records) == ["inner", "outer"]  # emit at exit
        inner_rec, outer_rec = sink.records
        assert inner_rec["trace"] == outer_rec["trace"] == trace_id
        assert inner_rec["parent"] == outer.span_id
        assert outer_rec["parent"] is None
        assert inner_rec["attrs"] == {"detail": 1}
        assert outer_rec["service"] == "test"
        assert inner_rec["span"] == inner.span_id

    def test_context_restored_after_block(self):
        tracer = Tracer(SpanBuffer())
        with activate(tracer, new_trace_id()) as active:
            with span("child"):
                assert current().span_id is not None
            assert current().span_id == active.span_id
        assert current() is None

    def test_exception_stamps_error_attr_and_propagates(self):
        sink = SpanBuffer()
        with activate(Tracer(sink), new_trace_id()):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (record,) = sink.records
        assert record["attrs"]["error"] == "ValueError"

    def test_root_span_with_no_tracer_is_noop(self):
        with root_span(None, "entry") as handle:
            assert handle.trace_id is None

    def test_root_span_mints_fresh_trace(self):
        sink = SpanBuffer()
        with root_span(Tracer(sink), "entry", service="cli") as handle:
            assert is_trace_id(handle.trace_id)
            assert current_trace_id() == handle.trace_id
        (record,) = sink.records
        assert record["parent"] is None
        assert record["service"] == "cli"
        assert current() is None

    def test_root_span_joins_active_trace_as_child(self):
        sink = SpanBuffer()
        tracer = Tracer(sink)
        other = Tracer(SpanBuffer())
        trace_id = new_trace_id()
        parent = new_span_id()
        with activate(tracer, trace_id, parent):
            # The tracer argument is ignored when a trace is active:
            # nested entry points join instead of forking a new trace.
            with root_span(other, "entry") as handle:
                assert handle.trace_id == trace_id
        (record,) = sink.records
        assert record["parent"] == parent

    def test_record_span_emits_externally_timed_interval(self):
        sink = SpanBuffer()
        tracer = Tracer(sink, service="serve")
        trace_id = new_trace_id()
        span_id = record_span(tracer, trace_id, None, "queue.wait",
                              "serve", 123.0, 0.25, job_id="j1")
        (record,) = sink.records
        assert record == span_record(trace_id, span_id, None, "queue.wait",
                                     "serve", 123.0, 0.25, {"job_id": "j1"})

    def test_span_record_rounds_and_shapes(self):
        record = span_record("a" * 32, "b" * 16, None, "x", "svc",
                             1.23456789, 0.000000123)
        assert record["start"] == 1.234568
        assert record["duration_s"] == 0.0
        assert "attrs" not in record

    def test_tracer_requires_emit(self):
        with pytest.raises(TypeError, match="emit"):
            Tracer(object())

    def test_tracer_observer_sees_emitted_records(self):
        seen = []
        tracer = Tracer(SpanBuffer(), observer=seen.append)
        with activate(tracer, new_trace_id()):
            with span("watched"):
                pass
        assert _names(seen) == ["watched"]


class TestSpanBuffer:
    def test_drain_empties_the_buffer(self):
        buffer = SpanBuffer()
        buffer.emit({"trace": "t", "name": "a"})
        buffer.emit({"trace": "t", "name": "b"})
        drained = buffer.drain()
        assert _names(drained) == ["a", "b"]
        assert buffer.records == []
        assert buffer.drain() == []


# ---------------------------------------------------------------------------
# trace store
# ---------------------------------------------------------------------------


class TestTraceStore:
    def _store(self, tmp_path):
        return TraceStore(str(tmp_path / "traces"))

    def test_emit_and_read_sorted_by_start(self, tmp_path):
        store = self._store(tmp_path)
        trace_id = new_trace_id()
        store.emit(span_record(trace_id, "b" * 16, None, "late", "s",
                               200.0, 0.1))
        store.emit(span_record(trace_id, "a" * 16, None, "early", "s",
                               100.0, 0.1))
        assert _names(store.read(trace_id)) == ["early", "late"]

    def test_read_unknown_or_malformed_id_is_empty(self, tmp_path):
        store = self._store(tmp_path)
        assert store.read(new_trace_id()) == []
        assert store.read("../../etc/passwd") == []

    def test_emit_skips_records_without_a_trace_id(self, tmp_path):
        store = self._store(tmp_path)
        store.emit({"name": "orphan"})
        store.emit({"trace": "not-an-id", "name": "bad"})
        assert store.traces() == []

    def test_ingest_counts_only_wellformed_records(self, tmp_path):
        store = self._store(tmp_path)
        trace_id = new_trace_id()
        good = span_record(trace_id, "a" * 16, None, "ok", "w", 1.0, 0.1)
        accepted = store.ingest([
            good,
            "not a dict",
            {"trace": trace_id},              # no name
            {"trace": "nope", "name": "x"},   # bad id
            None,
        ])
        assert accepted == 1
        assert _names(store.read(trace_id)) == ["ok"]

    def test_read_skips_non_utf8_lines(self, tmp_path):
        store = self._store(tmp_path)
        trace_id = new_trace_id()
        store.emit(span_record(trace_id, "a" * 16, None, "early", "s",
                               100.0, 0.1))
        with open(store.disk.file_for(trace_id), "ab") as handle:
            handle.write(b'{"name": "\xff\xfe"}\n')
        store.emit(span_record(trace_id, "b" * 16, None, "late", "s",
                               200.0, 0.1))
        assert _names(store.read(trace_id)) == ["early", "late"]

    def test_resolve_prefix(self, tmp_path):
        store = self._store(tmp_path)
        first = "aa" + "0" * 30
        second = "ab" + "0" * 30
        for trace_id in (first, second):
            store.emit(span_record(trace_id, "c" * 16, None, "x", "s",
                                   1.0, 0.1))
        assert store.resolve(first) == first
        assert store.resolve("ab") == second
        assert store.resolve("zz") is None
        assert store.resolve(new_trace_id()) is None  # full id, not stored
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve("a")

    def test_traces_and_stats(self, tmp_path):
        store = self._store(tmp_path)
        trace_id = new_trace_id()
        store.emit(span_record(trace_id, "a" * 16, None, "x", "s", 1.0, 0.1))
        rows = store.traces()
        assert [row[0] for row in rows] == [trace_id]
        stats = store.stats()
        assert stats["traces"] == 1
        assert stats["total_bytes"] == rows[0][1] > 0

    def test_unwritable_directory_degrades_to_dropping(self, tmp_path,
                                                       capsys):
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind as root")
        target = tmp_path / "sealed"
        target.mkdir()
        target.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            store = TraceStore(str(target))
            for _ in range(3):
                store.emit(span_record(new_trace_id(), "a" * 16, None,
                                       "x", "s", 1.0, 0.1))
        finally:
            target.chmod(stat.S_IRWXU)
        err = capsys.readouterr().err
        assert err.count("not writable") == 1  # warn once, never raise


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_observe_fills_the_right_buckets(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        assert hist.cumulative() == ((0.1, 1), (1.0, 2), (10.0, 3))
        assert hist.overflow == 1

    def test_negative_observations_clamp_to_zero(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(-5.0)
        assert hist.cumulative() == ((1.0, 1),)
        assert hist.sum == 0.0

    def test_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bound).
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.cumulative() == ((1.0, 1), (2.0, 1))

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(bound > 0 for bound in DEFAULT_BUCKETS)

    def test_cumulative_is_monotone(self):
        hist = Histogram()
        for value in (0.003, 0.003, 0.2, 7.0, 100.0):
            hist.observe(value)
        counts = [count for _, count in hist.cumulative()]
        assert counts == sorted(counts)
        assert hist.count == 5


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheusRendering:
    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(7) == "7"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"

    def test_sample_line(self):
        line = sample_line("repro_x_total", {"route": "/run"}, 3)
        assert line == 'repro_x_total{route="/run"} 3'
        assert sample_line("repro_x_total", {}, 3) == "repro_x_total 3"

    def test_render_validates(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(0.05)
        text = render([
            family("repro_up", "gauge", "Is it up.", [({}, 1)]),
            histogram_family("repro_lat_seconds", "Latency.",
                             [({}, hist)]),
        ])
        report = validate_exposition(text)
        assert report["families"] == 2
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert text.endswith("\n")

    @pytest.mark.parametrize("bad, why", [
        ("repro_x 1\n", "TYPE"),                       # sample before TYPE
        ("# TYPE repro_x counter\nrepro_x 1", "newline"),
        ("# TYPE repro_x counter\nrepro_x one\n", "value"),
        ("# TYPE repro_x counter\n\nrepro_x 1\n", "blank"),
        ("# TYPE repro_x counter\n# TYPE repro_x counter\nrepro_x 1\n",
         "duplicate"),
        ('# TYPE repro_h histogram\nrepro_h_bucket{le="1"} 1\n'
         "repro_h_sum 1\nrepro_h_count 1\n", "Inf"),
    ])
    def test_validator_rejects_malformed_documents(self, bad, why):
        with pytest.raises(ValueError, match=why):
            validate_exposition(bad)


# ---------------------------------------------------------------------------
# serve metrics (satellites a, b, c)
# ---------------------------------------------------------------------------


#: Cumulative ``le`` bucket bounds of the default latency histogram.
_LE = ("0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25",
       "0.5", "1", "2.5", "5", "10", "30", "60")


def _cumulative(first_filled):
    """One observation's cumulative buckets, filled from ``_LE[first_filled]``."""
    return {le: int(i >= first_filled) for i, le in enumerate(_LE)}


#: ``snapshot()`` of :func:`_golden_metrics` minus ``uptime_s`` and
#: ``started_at``, in insertion order.
_GOLDEN_SNAPSHOT = {
    "requests_total": 12,
    "errors_total": 21,
    "requests_by_route": {"/run": 1, "/sweeps": 1},
    "store": {"hits": 30, "misses": 40, "results_served": 50},
    "jobs": {"submitted": 60, "coalesced": 70, "completed": 80, "failed": 90},
    "sweeps": {"submitted": 100, "cells_total": 110, "cells_hit": 120,
               "cells_queued": 130, "cells_coalesced": 140, "streams": 150},
    "circuits": {"uploaded": 160, "served": 170},
    "fleet": {"claims": 180, "heartbeats": 190, "completions": 200,
              "failures": 210, "leases_reclaimed": 220},
    "trace": {"spans_ingested": 230, "traces_served": 240},
    "latency": {
        "request_duration_seconds": {
            "/run": {"count": 1, "sum": 0.02, "buckets": _cumulative(4)}},
        "queue_wait_seconds": {
            "all": {"count": 1, "sum": 0.003, "buckets": _cumulative(2)}},
        "compile_duration_seconds": {
            "all": {"count": 1, "sum": 0.004, "buckets": _cumulative(2)}},
    },
}

#: ``prometheus()`` of :func:`_golden_metrics` minus the
#: ``repro_uptime_seconds`` sample.
_GOLDEN_PROMETHEUS = """\
# HELP repro_uptime_seconds Seconds since this server process started.
# TYPE repro_uptime_seconds gauge
# HELP repro_requests_total Requests handled, by route.
# TYPE repro_requests_total counter
repro_requests_total{route="/run"} 1
repro_requests_total{route="/sweeps"} 1
# HELP repro_errors_total Monotonic count of errors total.
# TYPE repro_errors_total counter
repro_errors_total 21
# HELP repro_store_hits_total Monotonic count of store hits.
# TYPE repro_store_hits_total counter
repro_store_hits_total 30
# HELP repro_store_misses_total Monotonic count of store misses.
# TYPE repro_store_misses_total counter
repro_store_misses_total 40
# HELP repro_results_served_total Monotonic count of results served.
# TYPE repro_results_served_total counter
repro_results_served_total 50
# HELP repro_jobs_submitted_total Monotonic count of jobs submitted.
# TYPE repro_jobs_submitted_total counter
repro_jobs_submitted_total 60
# HELP repro_jobs_coalesced_total Monotonic count of jobs coalesced.
# TYPE repro_jobs_coalesced_total counter
repro_jobs_coalesced_total 70
# HELP repro_jobs_completed_total Monotonic count of jobs completed.
# TYPE repro_jobs_completed_total counter
repro_jobs_completed_total 80
# HELP repro_jobs_failed_total Monotonic count of jobs failed.
# TYPE repro_jobs_failed_total counter
repro_jobs_failed_total 90
# HELP repro_sweeps_submitted_total Monotonic count of sweeps submitted.
# TYPE repro_sweeps_submitted_total counter
repro_sweeps_submitted_total 100
# HELP repro_sweep_cells_total Monotonic count of sweep cells total.
# TYPE repro_sweep_cells_total counter
repro_sweep_cells_total 110
# HELP repro_sweep_cells_hit_total Monotonic count of sweep cells hit.
# TYPE repro_sweep_cells_hit_total counter
repro_sweep_cells_hit_total 120
# HELP repro_sweep_cells_queued_total Monotonic count of sweep cells queued.
# TYPE repro_sweep_cells_queued_total counter
repro_sweep_cells_queued_total 130
# HELP repro_sweep_cells_coalesced_total Monotonic count of sweep cells coalesced.
# TYPE repro_sweep_cells_coalesced_total counter
repro_sweep_cells_coalesced_total 140
# HELP repro_sweep_streams_total Monotonic count of sweep streams.
# TYPE repro_sweep_streams_total counter
repro_sweep_streams_total 150
# HELP repro_circuits_uploaded_total Monotonic count of circuits uploaded.
# TYPE repro_circuits_uploaded_total counter
repro_circuits_uploaded_total 160
# HELP repro_circuits_served_total Monotonic count of circuits served.
# TYPE repro_circuits_served_total counter
repro_circuits_served_total 170
# HELP repro_fleet_claims_total Monotonic count of fleet claims.
# TYPE repro_fleet_claims_total counter
repro_fleet_claims_total 180
# HELP repro_fleet_heartbeats_total Monotonic count of fleet heartbeats.
# TYPE repro_fleet_heartbeats_total counter
repro_fleet_heartbeats_total 190
# HELP repro_fleet_completions_total Monotonic count of fleet completions.
# TYPE repro_fleet_completions_total counter
repro_fleet_completions_total 200
# HELP repro_fleet_failures_total Monotonic count of fleet failures.
# TYPE repro_fleet_failures_total counter
repro_fleet_failures_total 210
# HELP repro_leases_reclaimed_total Monotonic count of leases reclaimed.
# TYPE repro_leases_reclaimed_total counter
repro_leases_reclaimed_total 220
# HELP repro_spans_ingested_total Monotonic count of spans ingested.
# TYPE repro_spans_ingested_total counter
repro_spans_ingested_total 230
# HELP repro_traces_served_total Monotonic count of traces served.
# TYPE repro_traces_served_total counter
repro_traces_served_total 240
# HELP repro_compile_duration_seconds Latency distribution: compile duration seconds.
# TYPE repro_compile_duration_seconds histogram
repro_compile_duration_seconds_bucket{le="0.001"} 0
repro_compile_duration_seconds_bucket{le="0.0025"} 0
repro_compile_duration_seconds_bucket{le="0.005"} 1
repro_compile_duration_seconds_bucket{le="0.01"} 1
repro_compile_duration_seconds_bucket{le="0.025"} 1
repro_compile_duration_seconds_bucket{le="0.05"} 1
repro_compile_duration_seconds_bucket{le="0.1"} 1
repro_compile_duration_seconds_bucket{le="0.25"} 1
repro_compile_duration_seconds_bucket{le="0.5"} 1
repro_compile_duration_seconds_bucket{le="1"} 1
repro_compile_duration_seconds_bucket{le="2.5"} 1
repro_compile_duration_seconds_bucket{le="5"} 1
repro_compile_duration_seconds_bucket{le="10"} 1
repro_compile_duration_seconds_bucket{le="30"} 1
repro_compile_duration_seconds_bucket{le="60"} 1
repro_compile_duration_seconds_bucket{le="+Inf"} 1
repro_compile_duration_seconds_sum 0.004
repro_compile_duration_seconds_count 1
# HELP repro_queue_wait_seconds Latency distribution: queue wait seconds.
# TYPE repro_queue_wait_seconds histogram
repro_queue_wait_seconds_bucket{le="0.001"} 0
repro_queue_wait_seconds_bucket{le="0.0025"} 0
repro_queue_wait_seconds_bucket{le="0.005"} 1
repro_queue_wait_seconds_bucket{le="0.01"} 1
repro_queue_wait_seconds_bucket{le="0.025"} 1
repro_queue_wait_seconds_bucket{le="0.05"} 1
repro_queue_wait_seconds_bucket{le="0.1"} 1
repro_queue_wait_seconds_bucket{le="0.25"} 1
repro_queue_wait_seconds_bucket{le="0.5"} 1
repro_queue_wait_seconds_bucket{le="1"} 1
repro_queue_wait_seconds_bucket{le="2.5"} 1
repro_queue_wait_seconds_bucket{le="5"} 1
repro_queue_wait_seconds_bucket{le="10"} 1
repro_queue_wait_seconds_bucket{le="30"} 1
repro_queue_wait_seconds_bucket{le="60"} 1
repro_queue_wait_seconds_bucket{le="+Inf"} 1
repro_queue_wait_seconds_sum 0.003
repro_queue_wait_seconds_count 1
# HELP repro_request_duration_seconds Latency distribution: request duration seconds.
# TYPE repro_request_duration_seconds histogram
repro_request_duration_seconds_bucket{le="0.001",route="/run"} 0
repro_request_duration_seconds_bucket{le="0.0025",route="/run"} 0
repro_request_duration_seconds_bucket{le="0.005",route="/run"} 0
repro_request_duration_seconds_bucket{le="0.01",route="/run"} 0
repro_request_duration_seconds_bucket{le="0.025",route="/run"} 1
repro_request_duration_seconds_bucket{le="0.05",route="/run"} 1
repro_request_duration_seconds_bucket{le="0.1",route="/run"} 1
repro_request_duration_seconds_bucket{le="0.25",route="/run"} 1
repro_request_duration_seconds_bucket{le="0.5",route="/run"} 1
repro_request_duration_seconds_bucket{le="1",route="/run"} 1
repro_request_duration_seconds_bucket{le="2.5",route="/run"} 1
repro_request_duration_seconds_bucket{le="5",route="/run"} 1
repro_request_duration_seconds_bucket{le="10",route="/run"} 1
repro_request_duration_seconds_bucket{le="30",route="/run"} 1
repro_request_duration_seconds_bucket{le="60",route="/run"} 1
repro_request_duration_seconds_bucket{le="+Inf",route="/run"} 1
repro_request_duration_seconds_sum{route="/run"} 0.02
repro_request_duration_seconds_count{route="/run"} 1
"""


def _golden_metrics():
    """Every declared counter at a distinct value (10, 20, ... in
    declaration order), plus one routed 200 with a latency, one 500, one
    queue-wait observation and one teed ``compile`` span."""
    metrics = ServeMetrics()
    for index, counter in enumerate(COUNTERS):
        metrics.count(counter, 10 * (index + 1))
    metrics.count_request("/run", 200, seconds=0.02)
    metrics.count_request("/sweeps", 500)
    metrics.observe("queue_wait_seconds", 0.003)
    metrics.observe_span(span_record(new_trace_id(), "a" * 16, None,
                                     "compile", "s", 1.0, 0.004))
    return metrics


class TestServeMetrics:
    def test_unknown_counter_raises_naming_the_known_ones(self):
        metrics = ServeMetrics()
        with pytest.raises(ValueError) as excinfo:
            metrics.count("requests_totall")  # typo must not vanish
        message = str(excinfo.value)
        assert "requests_totall" in message
        for known in ("jobs_submitted", "spans_ingested"):
            assert known in message
        # The declared counters all work.
        for counter in COUNTERS:
            metrics.count(counter)

    def test_snapshot_and_exposition_bytes_are_pinned(self):
        metrics = _golden_metrics()
        snap = metrics.snapshot()
        del snap["uptime_s"], snap["started_at"]
        assert json.dumps(snap) == json.dumps(_GOLDEN_SNAPSHOT)
        text = metrics.prometheus()
        validate_exposition(text)
        assert "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("repro_uptime_seconds ")
        ) == _GOLDEN_PROMETHEUS

    def test_uptime_is_monotonic_not_wall_clock(self, monkeypatch):
        metrics = ServeMetrics()
        # An NTP step back in wall-clock time must not produce a
        # negative (or shrinking) uptime: uptime reads time.monotonic.
        import repro.serve.metrics as metrics_module

        real_time = time.time
        monkeypatch.setattr(metrics_module.time, "time",
                            lambda: real_time() - 3600.0)
        snap = metrics.snapshot()
        assert snap["uptime_s"] >= 0.0
        assert snap["started_at"] == pytest.approx(metrics.started_at)

    def test_snapshot_is_consistent_under_concurrent_hammering(self):
        metrics = ServeMetrics()
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                metrics.count_request("/run", 200, seconds=0.001)
                metrics.count("jobs_submitted")

        def watch():
            while not stop.is_set():
                snap = metrics.snapshot()
                total = snap["requests_total"]
                by_route = sum(snap["requests_by_route"].values())
                if total < by_route:
                    failures.append((total, by_route))

        threads = ([threading.Thread(target=hammer) for _ in range(4)]
                   + [threading.Thread(target=watch) for _ in range(2)])
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not failures
        snap = metrics.snapshot()
        assert snap["requests_total"] == sum(
            snap["requests_by_route"].values())
        assert snap["requests_total"] > 0

    def test_observe_validates_names_and_labels(self):
        metrics = ServeMetrics()
        with pytest.raises(ValueError, match="unknown histogram"):
            metrics.observe("nope_seconds", 0.1)
        with pytest.raises(ValueError, match="label"):
            metrics.observe("queue_wait_seconds", 0.1, label="/run")
        metrics.observe("queue_wait_seconds", 0.1)
        metrics.observe("request_duration_seconds", 0.1, label="/run")

    def test_request_latency_lands_in_snapshot_and_exposition(self):
        metrics = ServeMetrics()
        metrics.count_request("/run", 200, seconds=0.02)
        metrics.count_request("/metrics", 200, seconds=0.001)
        latency = metrics.snapshot()["latency"]["request_duration_seconds"]
        assert latency["/run"]["count"] == 1
        text = metrics.prometheus()
        validate_exposition(text)
        assert ('repro_request_duration_seconds_bucket'
                '{le="0.025",route="/run"} 1') in text

    def test_observe_span_feeds_only_mapped_names(self):
        metrics = ServeMetrics()
        metrics.observe_span(span_record(new_trace_id(), "a" * 16, None,
                                         "compile", "s", 1.0, 0.004))
        metrics.observe_span(span_record(new_trace_id(), "b" * 16, None,
                                         "session.run", "s", 1.0, 0.5))
        latency = metrics.snapshot()["latency"]
        assert latency["compile_duration_seconds"]["all"]["count"] == 1
        assert "cell_duration_seconds" not in latency

    def test_prometheus_exposition_is_strictly_valid_when_empty(self):
        text = ServeMetrics().prometheus()
        report = validate_exposition(text)
        assert report["samples"] > 0
        assert "repro_requests_total 0" in text
        assert "repro_uptime_seconds" in text


# ---------------------------------------------------------------------------
# session tracing
# ---------------------------------------------------------------------------


class TestSessionTracing:
    def test_trace_dir_and_tracer_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Session(trace_dir=str(tmp_path / "t"),
                    tracer=Tracer(SpanBuffer()))

    def test_untraced_session_records_nothing(self):
        session = Session(jobs=1)
        session.run("validation", quick=True)
        assert session.tracer is None
        assert session.last_trace_id is None

    def test_traced_run_produces_the_span_vocabulary(self, tmp_path):
        trace_dir = tmp_path / "traces"
        session = Session(jobs=1, trace_dir=str(trace_dir),
                          store_dir=str(tmp_path / "store"))
        session.run("fig12", quick=True)
        trace_id = session.last_trace_id
        assert is_trace_id(trace_id)
        spans = TraceStore(str(trace_dir)).read(trace_id)
        names = set(_names(spans))
        assert {"session.run", "store.read", "store.write", "tasks",
                "compile", "shots"} <= names
        root = next(record for record in spans
                    if record["parent"] is None)
        assert root["name"] == "session.run"
        assert root["attrs"]["experiment"] == "fig12"
        assert root["attrs"]["store"] == "miss"
        # Every span belongs to this trace and parents resolve.
        ids = {record["span"] for record in spans}
        for record in spans:
            assert record["trace"] == trace_id
            assert record["parent"] is None or record["parent"] in ids

    def test_compile_spans_annotate_cache_tier(self, tmp_path):
        trace_dir = tmp_path / "traces"
        session = Session(jobs=1, trace_dir=str(trace_dir))
        session.run("validation", quick=True)
        spans = TraceStore(str(trace_dir)).read(session.last_trace_id)
        tiers = {record["attrs"]["cache"] for record in spans
                 if record["name"] == "compile"}
        assert "miss" in tiers            # cold cache compiles for real
        assert tiers <= {"miss", "memory", "disk"}

    def test_store_hit_replay_is_traced_too(self, tmp_path):
        trace_dir = tmp_path / "traces"
        store_dir = str(tmp_path / "store")
        first = Session(jobs=1, trace_dir=str(trace_dir),
                        store_dir=store_dir)
        first.run("validation", quick=True)
        second = Session(jobs=1, trace_dir=str(trace_dir),
                         store_dir=store_dir)
        second.run("validation", quick=True)
        assert second.last_trace_id != first.last_trace_id
        spans = TraceStore(str(trace_dir)).read(second.last_trace_id)
        root = next(record for record in spans
                    if record["parent"] is None)
        assert root["attrs"]["store"] == "hit"
        reads = [record for record in spans
                 if record["name"] == "store.read"]
        assert reads and reads[0]["attrs"]["hit"] is True
        assert "tasks" not in _names(spans)  # replay executes nothing

    def test_ledger_rows_carry_the_trace_id(self, tmp_path):
        store_dir = str(tmp_path / "store")
        traced = Session(jobs=1, trace_dir=str(tmp_path / "traces"),
                         store_dir=store_dir)
        traced.run("validation", quick=True)
        plain = Session(jobs=1, store_dir=store_dir)
        plain.run("validation", quick=True)
        events = ResultStore(store_dir).tail(10)
        assert events[0]["trace"] == traced.last_trace_id
        assert "trace" not in events[1]  # untraced rows stay unchanged


# ---------------------------------------------------------------------------
# zero-perturbation contract (tentpole part 3)
# ---------------------------------------------------------------------------


class TestZeroPerturbation:
    def test_every_envelope_is_byte_identical_with_tracing_on(
            self, tmp_path):
        """The registry-wide contract: tracing must not perturb one byte
        of any experiment's canonical JSON envelope."""
        cache = CompileCache(None)  # shared: only tracing may differ
        plain = Session(jobs=1, cache=cache)
        traced = Session(jobs=1, cache=cache,
                         trace_dir=str(tmp_path / "traces"))
        mismatched = []
        for name in all_experiments():
            untraced_bytes = canonical_json(
                plain.run(name, quick=True).to_dict())
            traced_bytes = canonical_json(
                traced.run(name, quick=True).to_dict())
            if untraced_bytes != traced_bytes:
                mismatched.append(name)
            assert is_trace_id(traced.last_trace_id)
        assert mismatched == []


# ---------------------------------------------------------------------------
# serving-layer tracing (in-process app)
# ---------------------------------------------------------------------------


def _make_app(tmp_path, tracer=None, workers=1):
    store = ResultStore(str(tmp_path / "store"))
    cache = CompileCache(None)
    metrics = ServeMetrics()
    if tracer is not None:
        tracer.observer = metrics.observe_span
    jobs = JobQueue(
        lambda: Session(jobs=1, cache=cache, store=store),
        workers=workers, metrics=metrics, store=store, tracer=tracer)
    sweeps = SweepTable(store, jobs, metrics)
    return ServeApp(store=store, jobs=jobs, metrics=metrics,
                    sweeps=sweeps, tracer=tracer)


class TestServeAppTracing:
    def test_trace_routes_404_when_tracing_disabled(self, tmp_path):
        app = _make_app(tmp_path)
        try:
            response = app.handle("GET", "/trace")
            assert response.status == 404
            assert "trace-dir" in json.loads(response.body)["error"]
            assert app.handle("GET", "/trace/" + "a" * 32).status == 404
            assert app.handle("POST", "/trace",
                              b'{"spans": []}').status == 404
        finally:
            app.jobs.shutdown()

    def test_posted_run_mints_a_trace_and_serves_it(self, tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")),
                        service="serve")
        app = _make_app(tmp_path, tracer=tracer)
        try:
            body = json.dumps({"experiment": "validation", "quick": True,
                               "wait": True}).encode()
            response = app.handle("POST", "/run", body)
            assert response.status == 200
            header = response.headers[TRACE_HEADER]
            trace_id, _ = parse_trace_header(header)

            detail = app.handle("GET", f"/trace/{trace_id}")
            assert detail.status == 200
            assert detail.headers[TRACE_HEADER].startswith(trace_id)
            payload = json.loads(detail.body)
            assert payload["trace"] == trace_id
            assert payload["count"] == len(payload["spans"])
            names = set(_names(payload["spans"]))
            assert {"server.request", "queue.wait", "lease",
                    "worker.execute", "session.run", "tasks",
                    "compile"} <= names
        finally:
            app.jobs.shutdown()

    def test_client_supplied_header_joins_the_clients_trace(self,
                                                            tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer)
        try:
            trace_id, parent = new_trace_id(), new_span_id()
            body = json.dumps({"experiment": "validation", "quick": True,
                               "wait": True}).encode()
            response = app.handle(
                "POST", "/run", body,
                trace=format_trace_header(trace_id, parent))
            echoed, _ = parse_trace_header(response.headers[TRACE_HEADER])
            assert echoed == trace_id
            spans = json.loads(
                app.handle("GET", f"/trace/{trace_id}").body)["spans"]
            request_span = next(record for record in spans
                                if record["name"] == "server.request")
            assert request_span["parent"] == parent
        finally:
            app.jobs.shutdown()

    def test_polling_gets_do_not_mint_traces(self, tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer)
        try:
            response = app.handle("GET", "/healthz")
            assert TRACE_HEADER not in response.headers
            assert app.tracer.sink.traces() == []
        finally:
            app.jobs.shutdown()

    def test_trace_detail_rejects_bad_and_unknown_ids(self, tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer)
        try:
            assert app.handle("GET", "/trace/xyz").status == 400
            assert app.handle("GET",
                              "/trace/" + new_trace_id()).status == 404
        finally:
            app.jobs.shutdown()

    def test_trace_ingestion_accepts_wellformed_spans(self, tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer)
        try:
            trace_id = new_trace_id()
            spans = [span_record(trace_id, "a" * 16, None, "client.run",
                                 "client", 1.0, 0.5),
                     {"trace": "malformed"}]
            response = app.handle("POST", "/trace", json.dumps(
                {"spans": spans}).encode())
            assert response.status == 200
            assert json.loads(response.body)["accepted"] == 1
            stored = json.loads(
                app.handle("GET", f"/trace/{trace_id}").body)
            assert _names(stored["spans"]) == ["client.run"]

            assert app.handle("POST", "/trace", b"not json").status == 400
            assert app.handle("POST", "/trace",
                              b'{"no": "spans"}').status == 400
        finally:
            app.jobs.shutdown()

    def test_ingested_compile_spans_feed_the_histogram(self, tmp_path):
        # A --jobs 0 server never compiles locally: its compile latency
        # histogram fills from the spans fleet workers export.
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer, workers=0)
        try:
            trace_id = new_trace_id()
            spans = [span_record(trace_id, "b" * 16, None, "compile",
                                 "worker", 1.0, 0.25),
                     span_record(trace_id, "c" * 16, None, "worker.execute",
                                 "worker", 1.0, 0.5)]
            response = app.handle("POST", "/trace", json.dumps(
                {"spans": spans}).encode())
            assert json.loads(response.body)["accepted"] == 2

            latency = app.metrics.snapshot()["latency"]
            compile_hist = latency["compile_duration_seconds"]["all"]
            assert compile_hist["count"] == 1
            assert compile_hist["sum"] == pytest.approx(0.25)
            scrape = app.handle("GET", "/metrics?format=prometheus")
            assert ("repro_compile_duration_seconds_count 1"
                    in scrape.body.decode())
        finally:
            app.jobs.shutdown()

    def test_metrics_prometheus_format_negotiation(self, tmp_path):
        app = _make_app(tmp_path)
        try:
            plain = app.handle("GET", "/metrics")
            assert plain.status == 200
            json.loads(plain.body)  # default stays JSON

            scrape = app.handle("GET", "/metrics?format=prometheus")
            assert scrape.status == 200
            assert scrape.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            validate_exposition(scrape.body.decode())
        finally:
            app.jobs.shutdown()

    def test_queue_and_cell_latency_reach_the_exposition(self, tmp_path):
        tracer = Tracer(TraceStore(str(tmp_path / "traces")))
        app = _make_app(tmp_path, tracer=tracer)
        try:
            body = json.dumps({"experiment": "validation", "quick": True,
                               "wait": True}).encode()
            assert app.handle("POST", "/run", body).status == 200
            text = app.handle("GET",
                              "/metrics?format=prometheus").body.decode()
            validate_exposition(text)
            assert "repro_queue_wait_seconds_count 1" in text
            assert "repro_cell_duration_seconds_count 1" in text
            assert "repro_compile_duration_seconds_count" in text
        finally:
            app.jobs.shutdown()


# ---------------------------------------------------------------------------
# end-to-end: RemoteSession + serve + fleet worker (acceptance)
# ---------------------------------------------------------------------------


class TestEndToEndTracing:
    @pytest.fixture
    def stack(self, served, tmp_path):
        """serve --jobs 0 with tracing + one fleet worker thread."""
        from repro.fleet import FleetWorker

        server = served(cache_dir=None, workers=0, lease_ttl=30.0,
                        trace_dir=str(tmp_path / "traces"))
        base = f"http://127.0.0.1:{server.port}"

        def session_factory():
            return Session(jobs=1,
                           store_dir=str(tmp_path / "worker-store"))

        worker = FleetWorker(base, session_factory, worker_id="w-obs",
                             poll_interval=0.05, quiet=True)
        worker_thread = threading.Thread(
            target=worker.run, kwargs={"max_jobs": 4}, daemon=True)
        worker_thread.start()
        yield base, str(tmp_path / "traces")
        worker.stop_event.set()
        worker_thread.join(timeout=10)

    def test_one_trace_covers_client_server_queue_and_worker(self, stack):
        base, trace_dir = stack
        remote = RemoteSession(base, trace=True)
        result = remote.run("validation", quick=True)
        assert result.to_dict()["experiment"] == "validation"
        trace_id = remote.last_trace_id
        assert is_trace_id(trace_id)

        # Client and worker spans arrive via POST /trace export; give
        # the worker's batch a moment to land.
        def all_services():
            spans = get_json(f"{base}/trace/{trace_id}")["spans"]
            services = {record["service"] for record in spans}
            return spans if {"client", "serve", "worker"} <= services \
                else None

        spans = wait_for(all_services, timeout=10.0)
        names = set(_names(spans))
        assert {"client.run", "client.request"} <= names       # client
        assert {"server.request", "queue.wait", "lease"} <= names  # serve
        assert {"worker.execute", "session.run", "tasks",
                "compile"} <= names                             # worker
        assert all(record["trace"] == trace_id for record in spans)
        lease = next(record for record in spans
                     if record["name"] == "lease")
        assert lease["attrs"]["worker"] == "w-obs"
        assert lease["attrs"]["outcome"] == "released"
        execute = next(record for record in spans
                       if record["name"] == "worker.execute")
        assert execute["attrs"]["status"] == "done"

    def test_remote_envelope_is_byte_identical_to_untraced(self, stack,
                                                           tmp_path):
        base, _ = stack
        traced = RemoteSession(base, trace=True).run("fig3", quick=True)
        plain = RemoteSession(base).run("fig3", quick=True)
        local = Session(jobs=1).run("fig3", quick=True)
        assert (canonical_json(traced.to_dict())
                == canonical_json(plain.to_dict())
                == canonical_json(local.to_dict()))

    def test_untraced_remote_session_contributes_no_client_spans(
            self, stack):
        base, trace_dir = stack
        store = TraceStore(trace_dir)
        before = {row[0] for row in store.traces()}
        remote = RemoteSession(base)
        remote.run("validation", quick=True)
        assert remote.last_trace_id is None
        # The server may mint its own trace for the POST /run, but the
        # untraced client neither sent a header nor exported spans.
        for trace_id in {row[0] for row in store.traces()} - before:
            services = {record["service"]
                        for record in store.read(trace_id)}
            assert "client" not in services


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestTraceCLI:
    def _run_traced(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "traces")
        assert main(["run", "validation", "--quick", "--no-cache",
                     "--trace-dir", trace_dir]) == 0
        err = capsys.readouterr().err
        match = re.search(r"\[trace ([0-9a-f]{32})\]", err)
        assert match, err
        return trace_dir, match.group(1)

    def test_run_prints_trace_id_and_show_renders_it(self, tmp_path,
                                                     capsys):
        trace_dir, trace_id = self._run_traced(tmp_path, capsys)

        assert main(["trace", "ls", "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert "session.run" in out
        assert "1 recorded trace(s)" in out

        # Unique prefixes resolve, like `store show`.
        assert main(["trace", "show", trace_id[:8],
                     "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "session.run" in out and "compile" in out
        assert "  tasks" in out  # children indent under the root

    def test_trace_show_json_matches_the_store(self, tmp_path, capsys):
        trace_dir, trace_id = self._run_traced(tmp_path, capsys)
        assert main(["trace", "show", trace_id, "--format", "json",
                     "--trace-dir", trace_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == trace_id
        assert payload["spans"] == TraceStore(trace_dir).read(trace_id)

    def test_trace_show_unknown_and_ambiguous(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "traces")
        store = TraceStore(trace_dir)
        for trace_id in ("aa" + "0" * 30, "ab" + "0" * 30):
            store.emit(span_record(trace_id, "c" * 16, None, "x", "s",
                                   1.0, 0.1))
        assert main(["trace", "show", "zz", "--trace-dir",
                     trace_dir]) == 2
        assert "no recorded trace" in capsys.readouterr().err
        assert main(["trace", "show", "a", "--trace-dir",
                     trace_dir]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_store_ls_last_shows_trace_column(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        trace_dir = str(tmp_path / "traces")
        assert main(["run", "validation", "--quick", "--no-cache",
                     "--store", store_dir, "--trace-dir",
                     trace_dir]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--last", "1",
                     "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        traces = TraceStore(trace_dir).traces()
        assert f"trace {traces[0][0][:12]}" in out

    def test_stdout_is_byte_identical_with_tracing_on(self, tmp_path,
                                                      capsys):
        assert main(["run", "validation", "--quick", "--no-cache",
                     "--format", "json"]) == 0
        untraced = capsys.readouterr().out
        assert main(["run", "validation", "--quick", "--no-cache",
                     "--format", "json",
                     "--trace-dir", str(tmp_path / "traces")]) == 0
        assert capsys.readouterr().out == untraced
