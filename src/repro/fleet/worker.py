"""The fleet worker: a pull loop draining one server's job queue.

A worker is deliberately dumb.  It polls ``POST /fleet/claim``; when the
server hands it a job it executes the experiment under its *own*
read-through :class:`repro.api.Session` (pointing at the shared
content-addressed result store, so a reclaimed job whose result already
landed replays with zero tasks), heartbeats on a side thread while the
run is in flight, and reports the outcome with ``POST /fleet/complete``.
Everything hard — deduplication, lease expiry, dead-worker detection,
requeueing — lives on the server, which is what lets a worker be killed
with ``SIGKILL`` at any instant without stranding work.

In-process use (tests, embedding)::

    worker = FleetWorker(base_url, session_factory, worker_id="w1")
    worker.run(max_jobs=1)          # or run() until stop_event is set

Command-line use (the real fleet)::

    python -m repro worker --server http://host:8000 --jobs 2 \\
        --store /shared/repro-store --cache-dir /shared/repro-cache
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import urllib.error
from typing import Any, Callable, Dict, Optional

from repro.api.client import ServerError, open_url
from repro.fleet.protocol import (
    CLAIM_PATH,
    COMPLETE_PATH,
    DEFAULT_POLL_INTERVAL,
    HEARTBEAT_PATH,
)
from repro.fleet.leases import LeaseLost
from repro.obs import trace as _obs

#: Failures a worker outlives: the server unreachable, restarting or
#: timing out, or answering with an error status (``WorkerClient``'s
#: ``RuntimeError``).  The next poll, beat or lease expiry recovers.
TRANSIENT_ERRORS = (urllib.error.URLError, TimeoutError, ConnectionError,
                    RuntimeError)


def default_worker_id(slot: Optional[int] = None) -> str:
    """``host-pid[-slot]``: unique per claim loop, stable across jobs."""
    import os

    base = f"{socket.gethostname()}-{os.getpid()}"
    return base if slot is None else f"{base}-{slot}"


class WorkerClient:
    """The worker's half of the fleet wire protocol (stdlib urllib)."""

    def __init__(self, base_url: str, worker_id: str,
                 timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.worker_id = worker_id
        self.timeout = timeout

    def _send(self, path: str, data: Optional[bytes] = None,
              headers: Optional[Dict[str, str]] = None) -> bytes:
        """The response body of one request (a POST when ``data`` is
        given).  A 409 naming ``LeaseLost`` raises :class:`LeaseLost`;
        any other error status a ``RuntimeError`` naming ``path``."""
        try:
            with open_url(self.base_url + path, data, headers=headers,
                          timeout=self.timeout) as response:
                return response.read()
        except ServerError as error:
            if error.status == 409 and error.error_type == "LeaseLost":
                raise LeaseLost(error.message) from None
            raise RuntimeError(f"{path} failed: HTTP "
                               f"{error.status}: {error.message}") from None

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(self._send(
            path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"}).decode("utf-8"))

    def claim(self) -> Optional[Dict[str, Any]]:
        """One claim attempt; the job description, or ``None`` if idle."""
        return self._post(CLAIM_PATH, {"worker": self.worker_id})["job"]

    def fetch_circuit(self, digest: str) -> str:
        """``GET /circuits/<digest>``: the canonical QASM text.

        Raises ``RuntimeError`` when the server does not hold the digest
        (or any other HTTP failure) — a job referencing it cannot run.
        """
        return self._send("/circuits/" + digest).decode("utf-8")

    def heartbeat(self, job_id: str) -> float:
        """Renew the lease; seconds to expiry.  Raises LeaseLost."""
        decoded = self._post(HEARTBEAT_PATH,
                             {"worker": self.worker_id, "job": job_id})
        return float(decoded["expires_in_s"])

    def export_spans(self, spans: list) -> Dict[str, Any]:
        """Ship locally-buffered span records to the server's trace
        store (``POST /trace``), so a distributed job's worker stages
        appear in the same ``GET /trace/<id>`` as the server's."""
        return self._post("/trace", {"worker": self.worker_id,
                                     "spans": spans})

    def complete(self, job_id: str, envelope: Optional[Dict[str, Any]] = None,
                 error: Optional[str] = None,
                 wall_s: Optional[float] = None,
                 tasks_executed: Optional[int] = None) -> Dict[str, Any]:
        """Report the job's outcome.  Raises LeaseLost when beaten."""
        payload: Dict[str, Any] = {"worker": self.worker_id, "job": job_id}
        if envelope is not None:
            payload["envelope"] = envelope
        if error is not None:
            payload["error"] = error
        if wall_s is not None:
            payload["wall_s"] = wall_s
        if tasks_executed is not None:
            payload["tasks_executed"] = tasks_executed
        return self._post(COMPLETE_PATH, payload)


class FleetWorker:
    """One pull loop: claim → execute under a fresh session → complete.

    ``server`` is a base URL or a client with :class:`WorkerClient`'s
    methods (whose id the worker takes), e.g. the job queue's in-process
    ``LocalClient``.  ``session_factory`` builds one session per job;
    ``claim_delay`` sleeps after each successful claim before executing
    — a fault-injection aid so fleet drills can kill a worker that holds
    a lease but has not finished (``tests/test_drills.py`` does exactly
    this).
    """

    def __init__(
        self,
        server: Any,
        session_factory: Callable[[], Any],
        worker_id: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        claim_delay: float = 0.0,
        quiet: bool = True,
        stop_event: Optional[threading.Event] = None,
    ):
        self.client = (WorkerClient(server, worker_id or default_worker_id())
                       if isinstance(server, str) else server)
        self.worker_id = self.client.worker_id
        self._session_factory = session_factory
        self.poll_interval = max(0.05, float(poll_interval))
        self.claim_delay = max(0.0, float(claim_delay))
        self.quiet = quiet
        self.stop_event = stop_event or threading.Event()
        #: Jobs this worker completed (DONE or FAILED reported).
        self.jobs_done = 0
        #: Jobs abandoned because the lease was lost mid-run.
        self.jobs_lost = 0

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.worker_id}] {message}", file=sys.stderr,
                  flush=True)

    # -- the loop ----------------------------------------------------------------

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Claim and execute until stopped (or ``max_jobs`` completed).

        Returns the number of jobs this call completed.  Transient
        server unavailability (connection refused mid-restart, timeouts)
        degrades to an idle poll, never a crash — a fleet worker outlives
        its server's restarts.
        """
        completed_here = 0
        while not self.stop_event.is_set():
            if max_jobs is not None and completed_here >= max_jobs:
                break
            try:
                claimed = self.client.claim()
            except TRANSIENT_ERRORS as error:
                self._log(f"claim failed ({error}); retrying")
                self.stop_event.wait(self.poll_interval)
                continue
            if claimed is None:
                self.stop_event.wait(self.poll_interval)
                continue
            if self._execute(claimed):
                completed_here += 1
        return completed_here

    def _prefetch_circuits(self, session, claimed: Dict[str, Any]) -> None:
        """Fetch every circuit digest the claimed job references but the
        worker's local circuit store lacks.

        Fetched circuits are cached locally (content-addressed, so the
        second job naming the same digest is a pure local read), and the
        received bytes are verified: a program that does not re-digest
        to what the job named is refused rather than executed.  Raises
        on any failure — reported as the job's error by the caller.
        """
        from repro.api.registry import get_experiment
        from repro.workloads.ref import iter_circuit_digests

        spec = get_experiment(claimed["experiment"])
        resolved = spec.resolved_params(
            quick=bool(claimed.get("quick")),
            overrides=claimed.get("params", {}))
        for digest in sorted(set(iter_circuit_digests(resolved))):
            if session.circuits.has(digest):
                continue
            stored = session.circuits.add(
                self.client.fetch_circuit(digest))
            if stored != digest:
                raise RuntimeError(
                    f"server returned a circuit digesting to "
                    f"{stored[:16]}… for requested {digest[:16]}…")
            self._log(f"fetched circuit {digest[:16]}…")

    def _export_spans(self, tracer: Optional[_obs.Tracer],
                      trace_id: Optional[str]) -> None:
        """Best-effort span export: a failure drops observability, never
        the job outcome."""
        if tracer is None:
            return
        spans = tracer.sink.drain()
        if not spans:
            return
        try:
            self.client.export_spans(spans)
        except TRANSIENT_ERRORS as error:
            self._log(f"span export for trace {trace_id[:16]}… failed "
                      f"({error}); dropped {len(spans)} spans")

    def _execute(self, claimed: Dict[str, Any]) -> bool:
        """Run one claimed job; ``True`` when an outcome was reported."""
        job_id = claimed["id"]
        interval = float(claimed.get("heartbeat_interval_s", 1.0))
        self._log(f"claimed {claimed['experiment']} job {job_id} "
                  f"(attempt {claimed.get('attempt', 1)})")
        done = threading.Event()
        lost = threading.Event()

        def beat() -> None:
            while not done.wait(interval):
                try:
                    self.client.heartbeat(job_id)
                except LeaseLost:
                    lost.set()
                    return
                except TRANSIENT_ERRORS:
                    # A flaky beat is survivable; the next one renews.
                    continue

        heartbeat_thread = threading.Thread(
            target=beat, daemon=True,
            name=f"repro-fleet-heartbeat-{job_id}")
        heartbeat_thread.start()
        if self.claim_delay:
            # The drill window: lease held (the heartbeat thread is
            # already beating), execution not started — the moment
            # fault-injection drills SIGKILL this process.
            self.stop_event.wait(self.claim_delay)
            if self.stop_event.is_set() or lost.is_set():
                done.set()
                heartbeat_thread.join(timeout=5)
                return False
        session = None
        envelope = error_text = None
        # The claim may carry trace context; worker spans are buffered
        # locally and exported to the server's trace store afterwards —
        # there is no shared filesystem to assume.
        trace_ctx = claimed.get("trace")
        trace_id = (trace_ctx.get("id")
                    if isinstance(trace_ctx, dict) else None)
        tracer = (_obs.Tracer(_obs.SpanBuffer(), service="worker")
                  if _obs.is_trace_id(trace_id) else None)

        def execute_job() -> None:
            nonlocal session, envelope, error_text
            try:
                session = self._session_factory()
                self._prefetch_circuits(session, claimed)
                result = session.run(claimed["experiment"],
                                     quick=bool(claimed.get("quick")),
                                     force=bool(claimed.get("force")),
                                     **claimed.get("params", {}))
                envelope = result.to_dict()
            except Exception as error:
                # Report, don't die: workers are cattle.
                # (KeyboardInterrupt propagates: the unreleased lease
                # simply expires and the job re-runs elsewhere.)
                error_text = f"{type(error).__name__}: {error}"

        start = time.perf_counter()
        try:
            if tracer is not None:
                with _obs.activate(tracer, trace_id,
                                   trace_ctx.get("parent")):
                    with _obs.span("worker.execute",
                                   worker=self.worker_id,
                                   job_id=job_id,
                                   attempt=claimed.get("attempt",
                                                       1)) as handle:
                        execute_job()
                        handle.set(
                            status="failed" if error_text else "done")
            else:
                execute_job()
        finally:
            wall_s = time.perf_counter() - start
            done.set()
            heartbeat_thread.join(timeout=5)
            # Export whatever was recorded on every outcome — even a
            # lost lease leaves a true record of what this worker did.
            self._export_spans(tracer, trace_id)
        if lost.is_set():
            self.jobs_lost += 1
            self._log(f"lease lost on job {job_id}; discarding result")
            return False
        try:
            self.client.complete(
                job_id, envelope=envelope, error=error_text, wall_s=wall_s,
                tasks_executed=getattr(session, "tasks_executed", None))
        except LeaseLost:
            self.jobs_lost += 1
            self._log(f"job {job_id} completed elsewhere; discarding")
            return False
        except TRANSIENT_ERRORS as error:
            # The one lossy window: executed but unreported.  The lease
            # expires and the job re-runs deterministically elsewhere.
            self.jobs_lost += 1
            self._log(f"could not report job {job_id} ({error})")
            return False
        self.jobs_done += 1
        self._log(f"{'failed' if error_text else 'completed'} job {job_id} "
                  f"in {wall_s:.1f}s")
        return True
