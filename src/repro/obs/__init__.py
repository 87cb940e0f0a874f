"""``repro.obs`` — end-to-end tracing, histograms, and exposition.

The observability subsystem, threaded through every layer of the
stack:

* :mod:`repro.obs.trace` — trace/span context (``X-Repro-Trace``
  propagation, ambient :func:`span` recording, :class:`Tracer`,
  :class:`SpanBuffer` for remote export).
* :mod:`repro.obs.store` — the append-only JSONL :class:`TraceStore`
  behind ``--trace-dir``, ``GET /trace/<id>``, and ``repro trace``.
* :mod:`repro.obs.metrics` — fixed-bucket :class:`Histogram` for the
  serving layer's latency distributions.
* :mod:`repro.obs.prometheus` — text exposition rendering and the
  strict :func:`validate_exposition` checker.

Everything here obeys the **zero-perturbation contract**: observability
reads the computation, never feeds it.  Span timestamps and histogram
observations go only to sinks and scrapes — never into cache keys,
seeds, parameters, or result envelopes — so output bytes are identical
with tracing on or off (pinned by the registry-wide test in
``tests/test_obs.py``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.metrics": ["DEFAULT_BUCKETS", "Histogram"],
    "repro.obs.prometheus": ["validate_exposition"],
    "repro.obs.store": ["TRACE_DIR_ENV", "TraceStore"],
    "repro.obs.trace": [
        "TRACE_HEADER",
        "ActiveTrace",
        "SpanBuffer",
        "SpanHandle",
        "Tracer",
        "activate",
        "current",
        "current_trace_id",
        "format_trace_header",
        "install",
        "is_trace_id",
        "new_span_id",
        "new_trace_id",
        "parse_trace_header",
        "record_span",
        "root_span",
        "span",
        "span_record",
    ],
})

__all__ = [
    "TRACE_HEADER",
    "TRACE_DIR_ENV",
    "DEFAULT_BUCKETS",
    "ActiveTrace",
    "Histogram",
    "SpanBuffer",
    "SpanHandle",
    "TraceStore",
    "Tracer",
    "activate",
    "current",
    "current_trace_id",
    "format_trace_header",
    "install",
    "is_trace_id",
    "new_span_id",
    "new_trace_id",
    "parse_trace_header",
    "record_span",
    "root_span",
    "span",
    "span_record",
    "validate_exposition",
]
