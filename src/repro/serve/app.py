"""Request routing for the serving layer — transport-free.

:class:`ServeApp` maps ``(method, path, body)`` to a :class:`Response`;
the HTTP transport (:mod:`repro.serve.http`) is a thin shell around it,
and tests can drive the full routing/queue/store stack without opening a
socket.

Endpoints::

    GET  /healthz            liveness + uptime
    GET  /experiments        every registered ExperimentSpec (param
                             schema, defaults, --quick preset)
    GET  /experiments/<name> one spec
    GET  /results/<key>      the stored envelope — byte-identical to
                             `python -m repro run X --format json`
    POST /circuits           ingest an OpenQASM body -> its canonical
                             digest (content-addressed, idempotent)
    GET  /circuits           every stored circuit digest
    GET  /circuits/<digest>  the canonical QASM text (text/plain)
    POST /run                resolve params -> store key; serve a hit
                             directly, queue a miss ({"wait": true}
                             blocks for the result bytes); params may
                             reference uploaded circuits by digest
    GET  /jobs/<id>          job lifecycle/status
    POST /sweeps             expand a SweepSpec server-side; one job per
                             cell (store hits short-circuit, misses ride
                             the queue's in-flight dedup)
    GET  /sweeps/<id>        per-cell sweep status/progress
    GET  /sweeps/<id>/stream line-delimited JSON: each cell's envelope
                             the moment it finalizes, then a summary
    GET  /metrics            counters + queue + fleet state + recent
                             ledger tail (?format=prometheus renders
                             text exposition instead)
    GET  /trace              stored trace ids (tracing enabled servers)
    GET  /trace/<id>         every span of one trace, sorted by start
    POST /trace              ingest externally-recorded spans (remote
                             clients and fleet workers export here)
    POST /fleet/claim        a fleet worker pulls the next queued job
                             (lease granted; {"job": null} when idle)
    POST /fleet/heartbeat    renew a claimed job's lease (409 LeaseLost
                             once reclaimed)
    POST /fleet/complete     report a leased job's envelope or error

With tracing enabled (``serve --trace-dir``) an ``X-Repro-Trace``
request header joins the request to the caller's trace; POST /run and
POST /sweeps mint a fresh trace when none is sent.  Responses echo the
context back in the same header.

Every response body is JSON.  Result-envelope bodies are rendered with
:func:`repro.api.store.canonical_json`, the single spelling of envelope
bytes across the CLI, the store, and this server — which is what makes
the byte-identity contract in the tests a construction, not a
coincidence.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple
from urllib.parse import parse_qs

from repro.api.circuits import CircuitStore
from repro.api.registry import ExperimentSpec, all_experiments
from repro.api.store import ResultStore, canonical_json, store_key
from repro.api.sweep import SweepSpec
from repro.circuits.digest import circuit_digest, is_circuit_digest
from repro.circuits.qasm import from_qasm
from repro.workloads.ref import iter_circuit_digests
from repro.fleet.leases import LeaseLost
from repro.fleet.protocol import (
    CLAIM_PATH,
    COMPLETE_PATH,
    DEFAULT_POLL_INTERVAL,
    HEARTBEAT_PATH,
    describe_claim,
    validate_worker_id,
)
from repro.obs import trace as _obs
from repro.obs.store import TraceStore
from repro.serve.jobs import FAILED, JobQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.sweeps import SweepTable

#: A full store key: SHA-256 hex.  Anything else in /results/<key> is
#: rejected before it can reach the filesystem layer.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Ledger window summarized in GET /metrics.
RECENT_WINDOW = 100


@dataclass
class Response:
    """One routed response: status, JSON body bytes, extra headers.

    When ``stream`` is set the response is an incremental body instead:
    the transport sends each yielded bytes chunk as it arrives (chunked
    transfer-encoding over HTTP) and ``body`` is ignored.  Streams carry
    line-delimited JSON, one complete JSON object per line.
    """

    status: int
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Iterator[bytes]] = None


def _json_response(status: int, payload: Any,
                   headers: Optional[Dict[str, str]] = None) -> Response:
    return Response(status, canonical_json(payload).encode(),
                    dict(headers or {}))


def _error(status: int, message: str,
           error_type: Optional[str] = None) -> Response:
    """A JSON error body; ``error_type`` names the local exception the
    failure corresponds to, so clients (RemoteSession) can re-raise the
    right type without parsing the human-readable message."""
    payload: Dict[str, Any] = {"error": message}
    if error_type is not None:
        payload["error_type"] = error_type
    return _json_response(status, payload)


def _jsonable(value: Any) -> Any:
    """A JSON-compatible rendering of a spec default / preset value.

    Parameter defaults are primitives or tuples of primitives; anything
    exotic degrades to ``repr`` rather than failing the whole listing.
    """
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _describe_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "doc": spec.doc,
        "result_type": spec.result_type.__name__,
        "params": [
            {"name": p.name, "default": _jsonable(p.default),
             "required": p.required}
            for p in spec.params
        ],
        "quick": {name: _jsonable(value)
                  for name, value in spec.quick.items()},
    }


class ServeApp:
    """The serving layer's router over one store + one job queue."""

    def __init__(self, store: ResultStore, jobs: JobQueue,
                 metrics: Optional[ServeMetrics] = None,
                 sweeps: Optional[SweepTable] = None,
                 circuits: Optional[CircuitStore] = None,
                 tracer: Optional[_obs.Tracer] = None,
                 traces: Optional[TraceStore] = None):
        self.store = store
        self.jobs = jobs
        self.metrics = metrics if metrics is not None else jobs.metrics
        self.sweeps = (sweeps if sweeps is not None
                       else SweepTable(store, jobs, self.metrics))
        # Uploaded-workload storage defaults to a sibling of the result
        # store, so a bare ServeApp(store, jobs) still serves /circuits.
        self.circuits = (circuits if circuits is not None
                         else CircuitStore(os.path.join(store.path,
                                                        "circuits")))
        # Tracing is optional end to end: no tracer, no spans, no /trace
        # routes.  The tracer defaults to the queue's (one server, one
        # tracer) and the browsable store to the tracer's own sink when
        # that sink is a TraceStore.
        self.tracer = tracer if tracer is not None else jobs.tracer
        if traces is None and self.tracer is not None:
            sink = self.tracer.sink
            if isinstance(sink, TraceStore):
                traces = sink
        self.traces = traces

    # -- dispatch ----------------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes = b"",
               trace: Optional[str] = None) -> Response:
        """Route one request; never raises (unexpected failures → 500).

        ``trace`` is the raw ``X-Repro-Trace`` request header value (or
        ``None``): with a tracer configured it joins this request to the
        caller's trace, the handling is recorded as a ``server.request``
        span, and the context is echoed back in the response header.
        POST /run and POST /sweeps mint a fresh trace when the caller
        sent none — polling GETs never do (a scrape is not an
        operation).
        """
        bare, _, query = path.partition("?")
        start = time.perf_counter()
        context = (_obs.parse_trace_header(trace)
                   if self.tracer is not None else None)
        if (self.tracer is not None and context is None
                and method == "POST" and bare in ("/run", "/sweeps")):
            context = (_obs.new_trace_id(), None)
        if context is None:
            route, response = self._dispatch(method, bare, body, query)
        else:
            with _obs.activate(self.tracer, context[0], context[1]):
                with _obs.span("server.request", service="serve",
                               method=method) as request_span:
                    route, response = self._dispatch(method, bare, body,
                                                     query)
                    request_span.set(route=route, status=response.status)
            response.headers.setdefault(
                _obs.TRACE_HEADER,
                _obs.format_trace_header(context[0], request_span.span_id))
        self.metrics.count_request(route, response.status,
                                   seconds=time.perf_counter() - start)
        return response

    def _dispatch(self, method: str, path: str, body: bytes,
                  query: str = "") -> Tuple[str, Response]:
        try:
            if path == "/healthz" and method == "GET":
                return "GET /healthz", self._healthz()
            if path == "/experiments" and method == "GET":
                return "GET /experiments", self._experiments()
            if path.startswith("/experiments/") and method == "GET":
                return ("GET /experiments/<name>",
                        self._experiment(path[len("/experiments/"):]))
            if path.startswith("/results/") and method == "GET":
                return ("GET /results/<key>",
                        self._result(path[len("/results/"):]))
            if path == "/circuits" and method == "POST":
                return "POST /circuits", self._circuit_upload(body)
            if path == "/circuits" and method == "GET":
                return "GET /circuits", self._circuit_list()
            if path.startswith("/circuits/") and method == "GET":
                return ("GET /circuits/<digest>",
                        self._circuit(path[len("/circuits/"):]))
            if path == "/run" and method == "POST":
                return "POST /run", self._run(body)
            if path.startswith("/jobs/") and method == "GET":
                return "GET /jobs/<id>", self._job(path[len("/jobs/"):])
            if path == "/sweeps" and method == "POST":
                return "POST /sweeps", self._sweep_submit(body)
            if path.startswith("/sweeps/") and method == "GET":
                rest = path[len("/sweeps/"):]
                if rest.endswith("/stream"):
                    return ("GET /sweeps/<id>/stream",
                            self._sweep_stream(rest[:-len("/stream")]))
                return "GET /sweeps/<id>", self._sweep_status(rest)
            if path == "/metrics" and method == "GET":
                return "GET /metrics", self._metrics(query)
            if path == "/trace" and method == "GET":
                return "GET /trace", self._trace_list()
            if path == "/trace" and method == "POST":
                return "POST /trace", self._trace_ingest(body)
            if path.startswith("/trace/") and method == "GET":
                return ("GET /trace/<id>",
                        self._trace(path[len("/trace/"):]))
            if path == CLAIM_PATH and method == "POST":
                return f"POST {CLAIM_PATH}", self._fleet_claim(body)
            if path == HEARTBEAT_PATH and method == "POST":
                return f"POST {HEARTBEAT_PATH}", self._fleet_heartbeat(body)
            if path == COMPLETE_PATH and method == "POST":
                return f"POST {COMPLETE_PATH}", self._fleet_complete(body)
            return (f"{method} (unrouted)",
                    _error(404, f"no route for {method} {path}"))
        except Exception as error:  # pragma: no cover - defensive boundary
            return (f"{method} (failed)",
                    _error(500, f"{type(error).__name__}: {error}"))

    # -- endpoints ---------------------------------------------------------------

    def _healthz(self) -> Response:
        return _json_response(200, {
            "status": "ok",
            "uptime_s": self.metrics.snapshot()["uptime_s"],
        })

    def _experiments(self) -> Response:
        return _json_response(200, {
            "experiments": [_describe_spec(spec)
                            for spec in all_experiments().values()],
        })

    def _experiment(self, name: str) -> Response:
        spec = all_experiments().get(name)
        if spec is None:
            return _error(404, f"unknown experiment {name!r}")
        return _json_response(200, _describe_spec(spec))

    def _result(self, key: str) -> Response:
        if not _KEY_RE.match(key):
            return _error(400, "a result key is 64 lowercase hex digits")
        envelope = self.store.get(key)
        if envelope is None:
            return _error(404, f"no stored result under key {key[:16]}…")
        self.metrics.count("results_served")
        return Response(200, canonical_json(envelope).encode(),
                        {"X-Repro-Key": key})

    # -- circuits ----------------------------------------------------------------

    def _circuit_upload(self, body: bytes) -> Response:
        """Ingest an OpenQASM body; 200 with the digest (idempotent —
        re-uploading known content returns the same digest)."""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            return _error(400, "circuit body must be UTF-8 OpenQASM text")
        try:
            circuit = from_qasm(text)
        except ValueError as error:
            return _error(400, str(error), "ValueError")
        digest = circuit_digest(circuit)
        known = self.circuits.has(digest)
        if not known:
            self.circuits.add_circuit(circuit)
        self.metrics.count("circuits_uploaded")
        return _json_response(200, {
            "digest": digest,
            "ref": f"circuit:{digest}",
            "created": not known,
        }, {"X-Repro-Circuit": digest})

    def _circuit_list(self) -> Response:
        rows = sorted(self.circuits.entries())
        return _json_response(200, {
            "circuits": [{"digest": digest, "bytes": size}
                         for digest, _, size, _ in rows],
        })

    def _circuit(self, digest: str) -> Response:
        if not is_circuit_digest(digest):
            return _error(400, "a circuit digest is 64 lowercase hex "
                               "digits")
        text = self.circuits.get_qasm(digest)
        if text is None:
            return _error(404, f"no stored circuit under digest "
                               f"{digest[:16]}…")
        self.metrics.count("circuits_served")
        return Response(200, text.encode("utf-8"),
                        {"Content-Type": "text/plain; charset=utf-8",
                         "X-Repro-Circuit": digest})

    def _missing_circuits(self, resolved: Dict[str, Any]) -> list:
        """Digests referenced by ``resolved`` that the store lacks."""
        return sorted(digest for digest in set(iter_circuit_digests(resolved))
                      if not self.circuits.has(digest))

    def _run(self, body: bytes) -> Response:
        try:
            request = json.loads(body or b"{}")
        except ValueError:
            return _error(400, "request body must be JSON")
        if not isinstance(request, dict):
            return _error(400, "request body must be a JSON object")
        experiment = request.get("experiment")
        if not isinstance(experiment, str):
            return _error(400, 'request needs an "experiment" name')
        spec = all_experiments().get(experiment)
        if spec is None:
            return _error(404, f"unknown experiment {experiment!r}")
        quick = bool(request.get("quick", False))
        force = bool(request.get("force", False))
        wait = bool(request.get("wait", False))
        params = request.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            # Checked before any falsy coercion: a client sending the
            # wrong shape ([], false, "") must get the 400, not a
            # silently-accepted default-params run.
            return _error(400, '"params" must be a JSON object')
        try:
            resolved = spec.resolved_params(quick=quick, overrides=params)
            key = store_key(experiment, resolved)
            missing = self._missing_circuits(resolved)
        except (TypeError, ValueError) as error:
            return _error(400, str(error), type(error).__name__)
        if missing:
            # Validated before keying the store or queueing: a run
            # naming an unknown digest would only fail later inside a
            # job thread, costing a queue slot to report a client error.
            return _error(400, "params reference circuit(s) not in the "
                               "server's store (upload via POST /circuits "
                               "first): " + ", ".join(missing), "KeyError")

        if not force:
            # Ledgered like any other read-through hit, so /metrics'
            # recent window sees served traffic, not only queue traffic.
            envelope = self.store.replay(key, experiment,
                                         trace=_obs.current_trace_id())
            if envelope is not None:
                self.metrics.count("store_hits")
                return Response(200, canonical_json(envelope).encode(),
                                {"X-Repro-Store": "hit", "X-Repro-Key": key})

        self.metrics.count("store_misses")
        job, coalesced = self.jobs.submit(experiment, key, quick, params,
                                          force=force)
        if not wait:
            payload = job.describe()
            payload["coalesced"] = coalesced
            return _json_response(202, payload, {"X-Repro-Store": "miss",
                                                 "X-Repro-Key": key})
        job.wait()
        if job.status == FAILED:
            return _error(500, f"job {job.id} failed: {job.error}")
        return Response(200, canonical_json(job.envelope).encode(),
                        {"X-Repro-Store": "miss", "X-Repro-Key": key,
                         "X-Repro-Job": job.id})

    def _job(self, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None:
            return _error(404, f"unknown job {job_id!r}")
        return _json_response(200, job.describe())

    # -- sweeps ------------------------------------------------------------------

    def _sweep_submit(self, body: bytes) -> Response:
        try:
            request = json.loads(body or b"{}")
        except ValueError:
            return _error(400, "request body must be JSON")
        if not isinstance(request, dict):
            return _error(400, "request body must be a JSON object")
        experiment = request.get("experiment")
        if not isinstance(experiment, str):
            return _error(400, 'request needs an "experiment" name')
        if all_experiments().get(experiment) is None:
            # 404 before spec validation, matching POST /run's split
            # between "no such experiment" and "bad parameters".
            return _error(404, f"unknown experiment {experiment!r}")
        force = bool(request.get("force", False))
        try:
            spec = SweepSpec.from_dict(request)
            missing = self._missing_circuits(
                {"params": request.get("params"),
                 "axes": request.get("axes")})
        except (TypeError, ValueError) as error:
            return _error(400, str(error), type(error).__name__)
        if missing:
            return _error(400, "sweep references circuit(s) not in the "
                               "server's store (upload via POST /circuits "
                               "first): " + ", ".join(missing), "KeyError")
        record = self.sweeps.submit(spec, force=force)
        return _json_response(202, record.describe(),
                              {"X-Repro-Sweep": record.id})

    def _sweep_status(self, sweep_id: str) -> Response:
        record = self.sweeps.get(sweep_id)
        if record is None:
            return _error(404, f"unknown sweep {sweep_id!r}")
        return _json_response(200, record.describe(),
                              {"X-Repro-Sweep": record.id})

    def _sweep_stream(self, sweep_id: str) -> Response:
        record = self.sweeps.get(sweep_id)
        if record is None:
            return _error(404, f"unknown sweep {sweep_id!r}")
        self.metrics.count("sweep_streams")

        def lines() -> Iterator[bytes]:
            # One compact JSON object per line.  Each cell record's
            # "envelope" value re-renders byte-identically through
            # canonical_json — the stream embeds objects, not bytes, so
            # line framing and envelope canonical form never fight.
            for event in record.events():
                yield json.dumps(event, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n"
            yield json.dumps(record.summary(), sort_keys=True,
                             separators=(",", ":")).encode() + b"\n"

        return Response(200, b"", {"X-Repro-Sweep": record.id},
                        stream=lines())

    def _metrics(self, query: str = "") -> Response:
        formats = parse_qs(query).get("format")
        if formats and formats[-1] == "prometheus":
            return Response(
                200, self.metrics.prometheus().encode(),
                {"Content-Type":
                 "text/plain; version=0.0.4; charset=utf-8"})
        recent = self.store.tail(RECENT_WINDOW)
        hits = sum(1 for entry in recent if entry.get("hit"))
        return _json_response(200, {
            **self.metrics.snapshot(),
            "queue": self.jobs.describe(),
            "sweep_table": self.sweeps.describe(),
            "fleet_workers": self.jobs.describe_fleet(),
            "store_dir": self.store.path,
            "circuit_store": self.circuits.stats(),
            "recent_runs": {
                "window": RECENT_WINDOW,
                "events": len(recent),
                "hits": hits,
                "misses": len(recent) - hits,
            },
        })

    # -- traces ------------------------------------------------------------------

    def _trace_list(self) -> Response:
        if self.traces is None:
            return _error(404, "tracing is not enabled on this server "
                               "(start it with --trace-dir)")
        rows = self.traces.traces()
        return _json_response(200, {
            "count": len(rows),
            "traces": [{"id": trace_id, "bytes": size}
                       for trace_id, size, _ in rows[-RECENT_WINDOW:]],
        })

    def _trace(self, trace_id: str) -> Response:
        if self.traces is None:
            return _error(404, "tracing is not enabled on this server "
                               "(start it with --trace-dir)")
        if not _obs.is_trace_id(trace_id):
            return _error(400, "a trace id is 32 lowercase hex digits")
        spans = self.traces.read(trace_id)
        if not spans:
            return _error(404, "no spans recorded under trace "
                               f"{trace_id[:16]}…")
        self.metrics.count("traces_served")
        return _json_response(200, {
            "trace": trace_id,
            "count": len(spans),
            "spans": spans,
        }, {_obs.TRACE_HEADER: trace_id})

    def _trace_ingest(self, body: bytes) -> Response:
        """Accept spans recorded off-host: remote clients and fleet
        workers buffer their spans and export them here, so one
        ``GET /trace/<id>`` shows the whole distributed operation."""
        if self.traces is None:
            return _error(404, "tracing is not enabled on this server "
                               "(start it with --trace-dir)")
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            return _error(400, "request body must be JSON")
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("spans"), list)):
            return _error(400, 'request needs a "spans" list')
        accepted = self.traces.ingest(payload["spans"],
                                      observer=self.metrics.observe_span)
        if accepted:
            self.metrics.count("spans_ingested", accepted)
        return _json_response(200, {"accepted": accepted})

    # -- fleet protocol ----------------------------------------------------------

    def _fleet_body(self, body: bytes, need_job: bool):
        """``(worker_id, job_id, payload)`` from a fleet request body.

        Raises ``ValueError`` (→ 400) on anything malformed; ``job_id``
        is only required (and validated) when ``need_job`` is set.
        """
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            raise ValueError("request body must be JSON") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        worker_id = validate_worker_id(payload.get("worker"))
        job_id = payload.get("job")
        if need_job and not isinstance(job_id, str):
            raise ValueError('request needs a "job" id string')
        return worker_id, job_id, payload

    def _fleet_claim(self, body: bytes) -> Response:
        try:
            worker_id, _, _ = self._fleet_body(body, need_job=False)
        except ValueError as error:
            return _error(400, str(error), "ValueError")
        job = self.jobs.claim(worker_id)
        if job is None:
            return _json_response(200, {
                "job": None,
                "retry_in_s": DEFAULT_POLL_INTERVAL,
            })
        return _json_response(200, {
            "job": describe_claim(job, self.jobs.leases.ttl),
        })

    def _fleet_heartbeat(self, body: bytes) -> Response:
        try:
            worker_id, job_id, _ = self._fleet_body(body, need_job=True)
        except ValueError as error:
            return _error(400, str(error), "ValueError")
        try:
            remaining = self.jobs.heartbeat(worker_id, job_id)
        except KeyError as error:
            return _error(404, str(error).strip("'\""), "KeyError")
        except LeaseLost as error:
            return _error(409, str(error), "LeaseLost")
        return _json_response(200, {"expires_in_s": round(remaining, 3)})

    def _fleet_complete(self, body: bytes) -> Response:
        try:
            worker_id, job_id, payload = self._fleet_body(body, need_job=True)
        except ValueError as error:
            return _error(400, str(error), "ValueError")
        envelope = payload.get("envelope")
        error_text = payload.get("error")
        if envelope is None and error_text is None:
            return _error(400, 'complete needs an "envelope" or an '
                               '"error"', "ValueError")
        if envelope is not None and not isinstance(envelope, dict):
            return _error(400, '"envelope" must be a JSON object',
                          "ValueError")
        if error_text is not None and not isinstance(error_text, str):
            return _error(400, '"error" must be a string', "ValueError")
        wall_s = payload.get("wall_s")
        tasks_executed = payload.get("tasks_executed")
        if wall_s is not None and not isinstance(wall_s, (int, float)):
            return _error(400, '"wall_s" must be a number', "ValueError")
        if tasks_executed is not None and not isinstance(tasks_executed,
                                                         int):
            return _error(400, '"tasks_executed" must be an integer',
                          "ValueError")
        try:
            job = self.jobs.complete(
                worker_id, job_id, envelope=envelope, error=error_text,
                wall_s=wall_s, tasks_executed=tasks_executed)
        except KeyError as error:
            return _error(404, str(error).strip("'\""), "KeyError")
        except LeaseLost as error:
            return _error(409, str(error), "LeaseLost")
        except ValueError as error:
            return _error(400, str(error), "ValueError")
        return _json_response(200, {"status": job.status,
                                    "key": job.key})
