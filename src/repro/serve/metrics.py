"""Thread-safe counters and histograms behind ``GET /metrics``.

One :class:`ServeMetrics` instance is shared by the request router and
the background job queue.  Every mutation happens under one lock, so the
snapshot an operator polls is internally consistent — a request counted
as received is never missing from its per-endpoint bucket.

The counters deliberately mirror the store/queue vocabulary used
everywhere else in the repo (*hit*/*miss*, *coalesced*, *failed*), so a
``/metrics`` payload reads like the ledger and the CLI diagnostics do.
Latency distributions live in fixed-bucket histograms
(:mod:`repro.obs.metrics`) and render — together with the counters —
into Prometheus text exposition via :meth:`ServeMetrics.prometheus`
(``GET /metrics?format=prometheus``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.obs.metrics import Histogram
from repro.obs import prometheus as _prom

#: Every counter :meth:`ServeMetrics.count` may touch, declared once:
#: name → (``snapshot()`` group, key in that group).  Group ``None`` puts
#: the counter at the top level of the snapshot.  The Prometheus family
#: is ``repro_<name>``, suffixed ``_total`` where the name lacks it.
#: ``count`` on any other name raises — a typo must fail loudly, not
#: silently mint a counter that no snapshot ever reports.
COUNTERS = {
    "requests_total": (None, "requests_total"),
    "errors_total": (None, "errors_total"),
    # POST /run answered straight from the result store.
    "store_hits": ("store", "hits"),
    # POST /run that had to go through the job queue.
    "store_misses": ("store", "misses"),
    # GET /results/<key> lookups served (hits only).
    "results_served": ("store", "results_served"),
    "jobs_submitted": ("jobs", "submitted"),
    # Requests that attached to an already-in-flight job instead of
    # starting their own execution.
    "jobs_coalesced": ("jobs", "coalesced"),
    "jobs_completed": ("jobs", "completed"),
    "jobs_failed": ("jobs", "failed"),
    # Sweep traffic (POST /sweeps and its per-cell fan-out).
    "sweeps_submitted": ("sweeps", "submitted"),
    "sweep_cells_total": ("sweeps", "cells_total"),
    # Cells answered straight from the store at submission time.
    "sweep_cells_hit": ("sweeps", "cells_hit"),
    # Cells that became (or attached to) queue jobs.
    "sweep_cells_queued": ("sweeps", "cells_queued"),
    # Cells that attached to an already-in-flight job — the
    # overlapping-sweeps dedup the tests and CI gate assert on.
    "sweep_cells_coalesced": ("sweeps", "cells_coalesced"),
    # GET /sweeps/<id>/stream consumers started.
    "sweep_streams": ("sweeps", "streams"),
    # Circuit-store traffic (POST /circuits, GET /circuits/<digest>).
    "circuits_uploaded": ("circuits", "uploaded"),
    "circuits_served": ("circuits", "served"),
    # Fleet protocol traffic (remote pull workers; see repro.fleet).
    "fleet_claims": ("fleet", "claims"),
    "fleet_heartbeats": ("fleet", "heartbeats"),
    "fleet_completions": ("fleet", "completions"),
    "fleet_failures": ("fleet", "failures"),
    # Jobs requeued after their worker's lease expired unrenewed.
    "leases_reclaimed": ("fleet", "leases_reclaimed"),
    # Span records accepted over POST /trace (remote exporters).
    "spans_ingested": ("trace", "spans_ingested"),
    # GET /trace/<id> lookups answered with spans.
    "traces_served": ("trace", "traces_served"),
}

#: The declared histogram vocabulary: name → (label name or None).
#: ``request_duration_seconds`` is labelled per route; the rest are
#: single-series stage latencies.
HISTOGRAMS = {
    "request_duration_seconds": "route",
    "queue_wait_seconds": None,
    "cell_duration_seconds": None,
    "compile_duration_seconds": None,
}

#: Span names teed into histograms by :meth:`ServeMetrics.observe_span`.
_SPAN_HISTOGRAMS = {
    "compile": "compile_duration_seconds",
    "queue.wait": "queue_wait_seconds",
}


class ServeMetrics:
    """Monotonic counters + latency histograms for one server process."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Wall-clock start, for display only.
        self.started_at = time.time()
        #: Monotonic start — uptime must survive wall-clock jumps.
        self._started_monotonic = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._histograms: Dict[str, Dict[Optional[str], Histogram]] = {
            name: {} for name in HISTOGRAMS
        }
        self._counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def count_request(self, route: str, status: int,
                      seconds: Optional[float] = None) -> None:
        """Record one handled request under its route label, optionally
        with its handling latency."""
        with self._lock:
            self._counts["requests_total"] += 1
            self._requests[route] = self._requests.get(route, 0) + 1
            if status >= 400:
                self._counts["errors_total"] += 1
            if seconds is not None:
                self._observe_locked("request_duration_seconds",
                                     seconds, route)

    def count(self, counter: str, amount: int = 1) -> None:
        """Increment one of the declared counters (e.g. ``"store_hits"``).

        Raises ``ValueError`` on an undeclared name: a typo must not
        mint a counter no snapshot reports and no test can catch.
        """
        if counter not in COUNTERS:
            raise ValueError(
                f"unknown counter {counter!r}; declared counters: "
                + ", ".join(COUNTERS))
        with self._lock:
            self._counts[counter] += amount

    # -- histograms --------------------------------------------------------------

    def _observe_locked(self, name: str, seconds: float,
                        label: Optional[str]) -> None:
        series = self._histograms[name]
        histogram = series.get(label)
        if histogram is None:
            histogram = series[label] = Histogram()
        histogram.observe(seconds)

    def observe(self, name: str, seconds: float,
                label: Optional[str] = None) -> None:
        """Record one latency observation into a declared histogram."""
        if name not in HISTOGRAMS:
            raise ValueError(
                f"unknown histogram {name!r}; declared histograms: "
                + ", ".join(sorted(HISTOGRAMS)))
        if HISTOGRAMS[name] is None and label is not None:
            raise ValueError(f"histogram {name!r} takes no label")
        with self._lock:
            self._observe_locked(name, seconds, label)

    def observe_span(self, record: Dict[str, Any]) -> None:
        """Tracer observer hook: tee span durations into histograms.

        Only spans with a declared histogram mapping are observed, so
        attaching this to the server's tracer is always safe.
        """
        name = _SPAN_HISTOGRAMS.get(record.get("name"))
        if name is None:
            return
        duration = record.get("duration_s")
        if not isinstance(duration, (int, float)):
            return
        with self._lock:
            self._observe_locked(name, float(duration), None)

    # -- exposition --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            top: Dict[str, Any] = {
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3),
                "started_at": round(self.started_at, 3),
            }
            groups: Dict[str, Dict[str, int]] = {}
            for counter, (group, key) in COUNTERS.items():
                target = top if group is None else groups.setdefault(group, {})
                target[key] = self._counts[counter]
            return {
                **top,
                "requests_by_route": dict(sorted(self._requests.items())),
                **groups,
                "latency": {
                    name: {
                        (label if label is not None else "all"):
                            histogram.snapshot()
                        for label, histogram in sorted(
                            series.items(), key=lambda kv: str(kv[0]))
                    }
                    for name, series in self._histograms.items()
                    if series
                },
            }

    def prometheus(self) -> str:
        """The counters and histograms in Prometheus text exposition
        format (``GET /metrics?format=prometheus``).  Metric names are
        prefixed ``repro_``; counters gain the ``_total`` convention."""
        with self._lock:
            families = [
                _prom.family(
                    "repro_uptime_seconds", "gauge",
                    "Seconds since this server process started.",
                    [(None, time.monotonic() - self._started_monotonic)]),
                _prom.family(
                    "repro_requests_total", "counter",
                    "Requests handled, by route.",
                    [({"route": route}, count)
                     for route, count in sorted(self._requests.items())]
                    or [(None, 0)]),
            ]
            for counter in COUNTERS:
                if counter == "requests_total":
                    continue
                name = "repro_" + counter
                if not name.endswith("_total"):
                    name += "_total"
                families.append(_prom.family(
                    name, "counter",
                    f"Monotonic count of {counter.replace('_', ' ')}.",
                    [(None, self._counts[counter])]))
            for hist_name, label_name in sorted(HISTOGRAMS.items()):
                series = self._histograms[hist_name]
                if not series:
                    continue
                items = [
                    ({label_name: label} if label is not None else None,
                     histogram)
                    for label, histogram in sorted(
                        series.items(), key=lambda kv: str(kv[0]))
                ]
                families.append(_prom.histogram_family(
                    "repro_" + hist_name,
                    f"Latency distribution: {hist_name.replace('_', ' ')}.",
                    items))
            return _prom.render(families)
