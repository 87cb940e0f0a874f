"""Background execution: the serving layer's job queue.

A ``POST /run`` that misses the result store does not compute inline in
the request handler — it becomes a :class:`Job` on a :class:`JobQueue`.
Every job runs the same way: a :class:`repro.fleet.FleetWorker` loop
claims it under a lease (:meth:`~JobQueue.claim`), renews it with
:meth:`~JobQueue.heartbeat`, and reports the outcome with
:meth:`~JobQueue.complete`; a lease that expires (the holder died or
partitioned) is reaped and the job requeued.  ``workers=N`` loops run
in-process on a :class:`LocalClient`, remote ones over HTTP
(``workers=0`` is fleet-only mode).  Three properties matter:

* **In-flight deduplication.**  Concurrent requests for the same store
  key coalesce onto one job (``submit`` returns the existing in-flight
  job), so a thundering herd of identical requests performs exactly one
  execution.  The store-check in the router and ``submit`` are not
  atomic, and do not need to be: every job runs through a read-through
  session, so a job submitted just after an identical one finished
  replays the freshly-stored envelope and executes zero tasks.

* **Per-job session isolation.**  Each job executes under its *own*
  :class:`repro.api.Session` (built by the queue's ``session_factory``),
  sharing the server's compile cache and result store objects but
  nothing else — so ``Session.tasks_executed`` attributes work to the
  job that did it, and two jobs activating their sessions in different
  claim loops never see each other's policy (``contextvars`` scoping
  is per-thread).

* **Observability.**  A job carries its full lifecycle (``queued`` →
  ``running`` → ``done``/``failed``), wall time, task count, holder, and
  — on success — the result envelope, which ``GET /jobs/<id>`` exposes.

``force=True`` jobs opt out of deduplication in both directions: they
exist to recompute, so neither attaching them to an in-flight job nor
letting later requests attach to *them* (and observe a result the
requester did not force) would be correct.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.api.results import ExperimentResult
from repro.fleet.leases import LeaseLost, LeaseTable
from repro.fleet.protocol import DEFAULT_LEASE_TTL, describe_claim
from repro.fleet.worker import FleetWorker, default_worker_id
from repro.obs import trace as _obs
from repro.serve.metrics import ServeMetrics

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class Job:
    """One queued experiment execution and its observable lifecycle."""

    id: str
    experiment: str
    key: str
    quick: bool
    params: Dict[str, Any]
    force: bool = False
    status: str = QUEUED
    error: Optional[str] = None
    #: ``to_dict()`` envelope of the result, set when the job succeeds.
    envelope: Optional[Dict[str, Any]] = None
    wall_s: Optional[float] = None
    #: The job session's dispatch counter after the run — zero when the
    #: read-through session replayed a stored envelope.
    tasks_executed: Optional[int] = None
    #: The claim loop currently holding (or last to hold) this job;
    #: ``None`` until the first claim.
    worker: Optional[str] = None
    #: Times this job was handed to an executor (> 1 after a reclaim).
    attempts: int = 0
    #: Trace context ``(trace_id, parent_span_id)`` captured at
    #: submission time — ContextVars do not cross the claim-loop
    #: boundary, so the job carries its trace explicitly and claim
    #: payloads forward it to the holder.
    trace: Optional[Tuple[str, Optional[str]]] = None
    created_at: float = field(default_factory=time.time)
    #: Enqueue stamps (wall for span display, monotonic for the
    #: interval) backing the queue-wait measurement; reset on requeue.
    _queued_wall: float = field(default_factory=time.time, repr=False)
    _queued_perf: float = field(default_factory=time.perf_counter,
                                repr=False)
    #: ``(wall, perf_counter)`` at lease grant; cleared when the lease
    #: span is emitted (release or expiry).
    _lease_started: Optional[Tuple[float, float]] = field(default=None,
                                                          repr=False)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)
    #: Callables invoked exactly once when the job reaches a terminal
    #: state (see :meth:`JobQueue.on_done`); sweeps subscribe here.
    _callbacks: list = field(default_factory=list, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; ``True`` unless timed out."""
        return self._done.wait(timeout)

    def describe(self) -> Dict[str, Any]:
        """The JSON shape ``GET /jobs/<id>`` returns."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "experiment": self.experiment,
            "key": self.key,
            "status": self.status,
            "quick": self.quick,
            "force": self.force,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.wall_s is not None:
            payload["wall_s"] = round(self.wall_s, 4)
        if self.tasks_executed is not None:
            payload["tasks_executed"] = self.tasks_executed
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.attempts > 1:
            payload["attempts"] = self.attempts
        if self.trace is not None:
            payload["trace"] = self.trace[0]
        if self.status == DONE:
            payload["result_url"] = f"/results/{self.key}"
        return payload


class JobQueue:
    """A FIFO of :class:`Job` instances drained by leased claims.

    ``workers`` in-process :class:`FleetWorker` loops claim through a
    :class:`LocalClient`; ``session_factory`` builds their one fresh
    read-through :class:`repro.api.Session` per job.  Sharing the
    underlying ``CompileCache``/``ResultStore`` objects between those
    sessions is the factory's (deliberate) choice, not the queue's.
    """

    def __init__(self, session_factory: Callable[[], Any], workers: int = 2,
                 metrics: Optional[ServeMetrics] = None,
                 max_finished: int = 1024,
                 store=None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 tracer: Optional[_obs.Tracer] = None):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_finished < 1:
            raise ValueError(f"max_finished must be >= 1, got {max_finished}")
        #: Terminal jobs retained for GET /jobs/<id>; beyond this the
        #: oldest are forgotten, bounding a long-lived server's memory.
        self._max_finished = max_finished
        self.metrics = metrics if metrics is not None else ServeMetrics()
        #: ResultStore that completions persist envelopes into (unless
        #: the holder's read-through session already stored those
        #: bytes); ``None`` keeps results in-memory only.
        self._store = store
        #: Tracer the queue records spans through (queue wait, lease
        #: lifetime, spans holders export); ``None`` records nothing.
        self.tracer = tracer
        self._lock = threading.Lock()
        #: Signalled when a job becomes pending or claims close.
        self._ready = threading.Condition(self._lock)
        #: Jobs awaiting a claim, oldest first; claim skips stale ones.
        self._pending: Deque[Job] = collections.deque()
        self._jobs: Dict[str, Job] = {}
        #: store key -> the queued/running (non-force) job computing it.
        self._inflight: Dict[str, Job] = {}
        #: Every claim, bounded by lease expiry (see repro.fleet).
        self.leases = LeaseTable(ttl=lease_ttl)
        #: worker id -> counters; every claim loop ever seen.
        self._fleet_workers: Dict[str, Dict[str, Any]] = {}
        self._reaper: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        self._shutdown = False
        #: Set once claims close; it is also the local loops' stop event.
        self._claims_closed = threading.Event()
        #: workers == 0 is fleet-only mode: jobs wait for remote claims.
        self._loops = []
        for index in range(workers):
            client = LocalClient(self, f"{default_worker_id()}-local-{index}")
            self._fleet_stats_locked(client.worker_id)  # listed at once
            worker = FleetWorker(client, session_factory,
                                 stop_event=self._claims_closed)
            self._loops.append(threading.Thread(
                target=worker.run, daemon=True,
                name=f"repro-serve-job-{index}"))
        for thread in self._loops:
            thread.start()

    # -- submission / lookup -----------------------------------------------------

    def submit(self, experiment: str, key: str, quick: bool,
               params: Dict[str, Any],
               force: bool = False) -> Tuple[Job, bool]:
        """Enqueue one execution, coalescing onto an in-flight duplicate.

        Returns ``(job, coalesced)``; ``coalesced`` is ``True`` when the
        returned job was already in flight for the same store key.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("job queue is shut down")
            if not force:
                existing = self._inflight.get(key)
                if existing is not None:
                    self.metrics.count("jobs_coalesced")
                    return existing, True
            job = Job(id=uuid.uuid4().hex[:12], experiment=experiment,
                      key=key, quick=quick, params=dict(params), force=force)
            # Capture the submitting request's trace context (if any):
            # the job crosses thread — possibly host — boundaries, so
            # ambient context stops here and explicit context rides on.
            active = _obs.current()
            if active is not None:
                job.trace = (active.trace_id, active.span_id)
            self._jobs[job.id] = job
            if not force:
                self._inflight[key] = job
            self.metrics.count("jobs_submitted")
            self._pending.append(job)
            self._ready.notify()
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def describe(self) -> Dict[str, Any]:
        """Queue-level state for ``GET /metrics``."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            in_flight = len(self._inflight)
        return {
            # Claim loops still running: a BaseException ends one for
            # good, and nothing starts a replacement.
            "workers": sum(loop.is_alive() for loop in self._loops),
            "in_flight": in_flight,
            "by_status": dict(sorted(by_status.items())),
        }

    def describe_fleet(self) -> Dict[str, Any]:
        """Fleet-level state for ``GET /metrics``: leases + per-worker."""
        self.reap_expired()
        with self._lock:
            workers = {
                worker_id: dict(stats)
                for worker_id, stats in sorted(self._fleet_workers.items())
            }
        return {
            "workers": workers,
            "leases": self.leases.describe(),
        }

    # -- execution ---------------------------------------------------------------

    def _observe_queue_wait(self, job: Job) -> None:
        """Record how long ``job`` sat queued before an executor took it.

        With a traced job the interval becomes a ``queue.wait`` span
        (teed into the histogram by the tracer's observer); untraced
        jobs still feed the histogram directly.
        """
        wait = max(0.0, time.perf_counter() - job._queued_perf)
        if self.tracer is not None and job.trace is not None:
            _obs.record_span(self.tracer, job.trace[0], job.trace[1],
                             "queue.wait", "serve", job._queued_wall, wait,
                             job_id=job.id)
        else:
            self.metrics.observe("queue_wait_seconds", wait)

    def _finalize(self, job: Job, outcome: str) -> None:
        """The terminal transition: wake waiters and subscribers."""
        if job.wall_s is not None:
            self.metrics.observe("cell_duration_seconds", job.wall_s)
        # The terminal status flips last: a poller that observes
        # "done" must already see envelope/wall_s/tasks_executed.
        job.status = outcome
        self.metrics.count("jobs_completed" if outcome == DONE
                           else "jobs_failed")
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._prune_finished_locked()
            callbacks = job._callbacks[:]
            job._callbacks.clear()
        # Outside the lock: a subscriber may re-enter queue methods.
        for callback in callbacks:
            try:
                callback(job)
            except Exception:  # a bad subscriber must not wedge the queue
                pass
        job._done.set()

    def on_done(self, job: Job, callback: Callable[[Job], None]) -> None:
        """Invoke ``callback(job)`` exactly once when ``job`` finishes.

        Registration races the terminal transition safely: a job that is
        already terminal fires the callback immediately (on the caller's
        thread), otherwise :meth:`_finalize` fires it — never both,
        because the pending-callback list is drained under the queue
        lock and status flips terminal before that drain.
        """
        with self._lock:
            if job.status not in (DONE, FAILED):
                job._callbacks.append(callback)
                return
        callback(job)

    # -- leased claims -----------------------------------------------------------

    def claim(self, worker_id: str, block: bool = False) -> Optional[Job]:
        """Hand the oldest pending job to ``worker_id``, under a lease.

        Expired leases are reaped first, so a dead holder's job is
        immediately claimable by the survivor doing the asking.  ``None``
        when nothing is pending — with ``block``, only once claims close.
        """
        self.reap_expired()
        with self._lock:
            while True:
                if self._claims_closed.is_set():
                    return None
                if self._pending:
                    job = self._pending.popleft()
                    if job.status == QUEUED:
                        break
                elif self._shutdown:
                    # Drained after shutdown: every accepted job is out.
                    self._claims_closed.set()
                    self._ready.notify_all()
                elif block:
                    self._ready.wait()
                else:
                    return None
            job.status = RUNNING
            job.worker = worker_id
            job.attempts += 1
            self._observe_queue_wait(job)
            job._lease_started = (time.time(), time.perf_counter())
            self.leases.grant(job.id, worker_id)
            stats = self._fleet_stats_locked(worker_id)
            stats["claims"] += 1
            stats["last_seen"] = time.time()
            self.metrics.count("fleet_claims")
            self._ensure_reaper_locked()
            return job

    def heartbeat(self, worker_id: str, job_id: str) -> float:
        """Renew ``worker_id``'s lease on ``job_id``; seconds left.

        Raises :class:`KeyError` for an unknown job and
        :class:`~repro.fleet.leases.LeaseLost` when the lease is gone —
        the transport maps these to 404 / 409.
        """
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            stats = self._fleet_stats_locked(worker_id)
            stats["last_seen"] = time.time()
            remaining = self.leases.heartbeat(job_id, worker_id)
            stats["heartbeats"] += 1
        self.metrics.count("fleet_heartbeats")
        return remaining

    def complete(self, worker_id: str, job_id: str,
                 envelope: Optional[Dict[str, Any]] = None,
                 error: Optional[str] = None,
                 wall_s: Optional[float] = None,
                 tasks_executed: Optional[int] = None) -> Job:
        """Accept a holder's outcome for its leased job.

        The lease must still be held: a holder that went dark long
        enough to be reclaimed gets :class:`LeaseLost` (HTTP 409) and
        its result is discarded — whoever holds the lease now completes
        the job exactly once.  A successful envelope is persisted into
        the shared result store and ledgered, so ``GET /results/<key>``
        serves it from any node.  An envelope that does not decode, or
        that names another experiment, raises ``ValueError`` (HTTP 400)
        before anything is stored; the lease stands.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.status in (DONE, FAILED):
            raise LeaseLost(f"job {job_id} already completed")
        if envelope is not None:
            ExperimentResult.from_dict(envelope)  # ValueError if it can't
            if envelope["experiment"] != job.experiment:
                raise ValueError(f"job {job_id} runs {job.experiment!r}, "
                                 f"not {envelope['experiment']!r}")
        self.leases.release(job_id, worker_id)
        self._emit_lease_span(job, "released", worker_id)
        job.worker = worker_id
        job.wall_s = wall_s
        job.tasks_executed = tasks_executed
        if envelope is not None:
            job.envelope = envelope
            # Persist through the server's store handle — unless the
            # holder's read-through session already landed these exact
            # bytes there (a local loop, or a shared filesystem): a second
            # put and a second ledger line would only duplicate its
            # record.
            if (self._store is not None
                    and self._store.peek(job.key) != envelope):
                self._store.save(job.key, job.experiment, envelope,
                                 wall_s or 0.0,
                                 trace=job.trace[0] if job.trace else None)
            outcome = DONE
        else:
            job.error = error or "worker reported failure"
            outcome = FAILED
        with self._lock:
            stats = self._fleet_stats_locked(worker_id)
            stats["completions" if outcome == DONE else "failures"] += 1
            stats["last_seen"] = time.time()
        self.metrics.count("fleet_completions" if outcome == DONE
                           else "fleet_failures")
        self._finalize(job, outcome)
        return job

    def _emit_lease_span(self, job: Job, outcome: str,
                         worker_id: str) -> None:
        """Record one lease lifetime span (grant → release/expiry)."""
        started = job._lease_started
        job._lease_started = None
        if (started is None or self.tracer is None
                or job.trace is None):
            return
        wall, perf = started
        _obs.record_span(self.tracer, job.trace[0], job.trace[1],
                         "lease", "serve", wall,
                         time.perf_counter() - perf,
                         outcome=outcome, worker=worker_id,
                         job_id=job.id)

    def reap_expired(self) -> int:
        """Requeue every job whose lease expired; the reclaim count."""
        expired = self.leases.pop_expired()
        if not expired:
            return 0
        reclaimed = 0
        with self._lock:
            for lease in expired:
                job = self._jobs.get(lease.job_id)
                if (job is None or job.status != RUNNING
                        or job.worker != lease.worker):
                    continue
                self._emit_lease_span(job, "expired", lease.worker)
                job.status = QUEUED
                job.worker = None
                job._queued_wall = time.time()
                job._queued_perf = time.perf_counter()
                self._pending.append(job)
                self._ready.notify()
                reclaimed += 1
                stats = self._fleet_stats_locked(lease.worker)
                stats["leases_lost"] += 1
            if reclaimed:
                self.metrics.count("leases_reclaimed", reclaimed)
        return reclaimed

    def _fleet_stats_locked(self, worker_id: str) -> Dict[str, Any]:
        stats = self._fleet_workers.get(worker_id)
        if stats is None:
            stats = {"claims": 0, "heartbeats": 0, "completions": 0,
                     "failures": 0, "leases_lost": 0, "last_seen": None}
            self._fleet_workers[worker_id] = stats
        return stats

    def _ensure_reaper_locked(self) -> None:
        """Start the dead-holder reaper on the first claim.

        Once any lease is out, expiry must be detected even if no
        further requests ever arrive (a waiting ``POST /run`` client
        must not hang on a lease nobody will reap).
        """
        if self._reaper is not None or self._shutdown:
            return
        interval = max(0.05, min(1.0, self.leases.ttl / 4))

        def reap_loop() -> None:
            while not self._reaper_stop.wait(interval):
                self.reap_expired()

        self._reaper = threading.Thread(target=reap_loop, daemon=True,
                                        name="repro-fleet-reaper")
        self._reaper.start()

    def _prune_finished_locked(self) -> None:
        terminal = [job_id for job_id, job in self._jobs.items()
                    if job.status in (DONE, FAILED)]
        for job_id in terminal[:max(0, len(terminal) - self._max_finished)]:
            del self._jobs[job_id]

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) join the claim loops.

        Already-queued jobs still run — a client holding a job id must
        eventually observe a terminal state, even across shutdown — so
        with local loops claims stay open until they drain the FIFO.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            if not self._loops:
                self._claims_closed.set()
            self._ready.notify_all()  # idle loops close claims once drained
            reaper = self._reaper
        self._reaper_stop.set()
        if wait:
            for thread in self._loops:
                thread.join()
            if reaper is not None:
                reaper.join(timeout=5)


class LocalClient:
    """:class:`~repro.fleet.worker.WorkerClient`'s five methods, answered
    by a :class:`JobQueue` in this process instead of over HTTP."""

    def __init__(self, jobs: JobQueue, worker_id: str):
        self.jobs = jobs
        self.worker_id = worker_id

    def claim(self) -> Optional[Dict[str, Any]]:
        """Wait for a pending job; ``None`` once claims close."""
        job = self.jobs.claim(self.worker_id, block=True)
        return job and describe_claim(job, self.jobs.leases.ttl)

    def fetch_circuit(self, digest: str) -> str:
        # Submit refuses unknown digests, and sessions share the store.
        raise RuntimeError(f"circuit {digest[:16]}… is not on this server")

    def heartbeat(self, job_id: str) -> float:
        return self.jobs.heartbeat(self.worker_id, job_id)

    def export_spans(self, spans: list) -> None:
        """Ingest into the queue tracer's store, as ``POST /trace``
        does, so compile spans still feed the latency histograms."""
        store = getattr(self.jobs.tracer, "sink", None)
        if not hasattr(store, "ingest"):
            raise RuntimeError("tracing is not enabled on this server")
        store.ingest(spans, observer=self.jobs.metrics.observe_span)

    def complete(self, job_id: str, **outcome) -> None:
        """Raises as ``WorkerClient`` does for the same server answer:
        :class:`LeaseLost`, or ``RuntimeError`` for a 400/404 refusal."""
        try:
            self.jobs.complete(self.worker_id, job_id, **outcome)
        except (KeyError, ValueError) as refusal:
            raise RuntimeError(f"complete refused: {refusal}") from None
