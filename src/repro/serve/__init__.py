"""The experiment-serving subsystem.

``python -m repro serve --port P --store DIR --jobs N`` turns the
registry + session + result-store stack into a long-lived HTTP JSON
service: cached results are served straight from the
:class:`~repro.api.store.ResultStore`, misses run on a background job
queue with in-flight deduplication, and everything a run produces
persists back into the store so replays are free.

Layering (each importable and testable on its own):

* :mod:`repro.serve.metrics` — thread-safe counters behind ``/metrics``;
* :mod:`repro.serve.jobs` — the job queue: leased claims, lifecycle,
  dedup, per-job :class:`~repro.api.Session` isolation;
* :mod:`repro.serve.sweeps` — server-side sweep tracking: a
  ``POST /sweeps`` expands a :class:`~repro.api.sweep.SweepSpec` into
  one queue job per cell (store hits short-circuit; overlapping grids
  share in-flight cells), and ``GET /sweeps/<id>/stream`` delivers each
  cell's envelope the moment it finalizes as line-delimited JSON;
* :mod:`repro.serve.app` — transport-free request routing;
* :mod:`repro.serve.http` — the ``ThreadingHTTPServer`` shell and
  :func:`build_server`, which wires the whole stack.

The matching client is :class:`repro.api.client.RemoteSession`, whose
``run()`` proxies to a server — a backend really is just a Session
policy.

Every job is claimed under a heartbeat-renewed :mod:`repro.fleet`
lease, by one of ``--jobs N`` in-process loops or by a remote worker
over ``/fleet/*``; an expired lease is reaped and the job requeued.
``--jobs 0`` makes a fleet-only deployment.
"""

from repro.serve.app import Response, ServeApp
from repro.serve.http import ReproHTTPServer, build_server
from repro.serve.jobs import Job, JobQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.sweeps import SweepRecord, SweepTable

__all__ = [
    "Job",
    "JobQueue",
    "ReproHTTPServer",
    "Response",
    "ServeApp",
    "ServeMetrics",
    "SweepRecord",
    "SweepTable",
    "build_server",
]
