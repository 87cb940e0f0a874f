"""A Session whose backend is a running ``repro serve`` server.

:class:`RemoteSession` makes "a backend = a Session policy" literal: it
exposes the same ``run(experiment, quick=..., force=..., **params)``
call as :class:`repro.api.Session`, but proxies the execution to a
serving endpoint over HTTP and decodes the returned envelope through
``ExperimentResult.from_dict`` — so call sites can swap a local session
for a remote one without changing shape:

    from repro.api import RemoteSession

    session = RemoteSession("http://127.0.0.1:8000")
    result = session.run("fig10", quick=True)
    print(result.format())          # same object contract as Session.run

Sweeps speak the same protocol at cell granularity:
:meth:`RemoteSession.iter_sweep` POSTs the
:class:`~repro.api.sweep.SweepSpec` to ``/sweeps`` (the server expands
it, short-circuits stored cells, and dedups in-flight ones) and then
consumes ``GET /sweeps/<id>/stream`` incrementally — each ``(cell,
result)`` pair is yielded the moment the server finalizes that cell,
not when the whole grid finishes.  :meth:`RemoteSession.run_sweep`
drains the same stream into the canonically-ordered
:class:`~repro.api.sweep.SweepResult` a local ``Session.run_sweep``
returns.  Together with ``run`` this satisfies
:class:`repro.api.protocol.SessionProtocol`.

Server-side errors map back onto the exceptions the local session would
raise, by one rule (:func:`_local_error`).  A 4xx raises the class the
server names in ``error_type`` (``KeyError``, ``TypeError`` or
``ValueError``); without one, a 404 raises ``KeyError`` and any other
4xx ``ValueError``.  A GET reads by id, so its 400 is a miss
(``KeyError``).  A 5xx, a failed execution, raises
:class:`RemoteRunError`.  :func:`open_url` is the one HTTP call of every
serve-protocol client, the fleet worker's too.  Only the standard
library is used (``urllib``), like everything else here.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.api.results import ExperimentResult
from repro.api.sweep import SweepCell, SweepResult, SweepSpec
from repro.obs import trace as _obs

#: Seconds to back off before the single idempotent-GET retry.
RETRY_BACKOFF_S = 0.2


class RemoteRunError(RuntimeError):
    """A run failed on the server (the transported job error)."""


class ServerError(Exception):
    """An error status decoded from the server's JSON error body (see
    ``repro.serve.app._error``); ``error_type`` names the local
    exception class, ``None`` when the body carries none."""

    def __init__(self, status: int, message: str,
                 error_type: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.error_type = error_type


def open_url(url: str, data: Optional[bytes] = None,
             method: Optional[str] = None,
             headers: Optional[Dict[str, str]] = None,
             timeout: Optional[float] = None):
    """Send one request; the open response (a context manager).

    The one HTTP call of the serve-protocol clients.  An error status
    raises :class:`ServerError`; transport failures (``URLError``,
    timeouts) propagate unchanged.
    """
    request = urllib.request.Request(url, data=data, method=method,
                                     headers=headers or {})
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as error:
        with error:
            body = error.read().decode("utf-8", "replace")
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            payload = {"error": body or f"HTTP {error.code}"}
        raise ServerError(error.code, str(payload.get("error", payload)),
                          payload.get("error_type")) from None


#: The local exceptions a server may name in ``error_type``.
_LOCAL_ERRORS = {"KeyError": KeyError, "TypeError": TypeError,
                 "ValueError": ValueError}


def _local_error(error: ServerError, method: str) -> Exception:
    """The exception a local ``Session`` raises for what ``error``
    reports.  A GET reads by id, so its 400 (a malformed id) is a miss."""
    if error.status >= 500:
        return RemoteRunError(error.message)
    if method == "GET" and error.status == 400:
        return KeyError(error.message)
    local = _LOCAL_ERRORS.get(error.error_type)
    if local is None:
        local = KeyError if error.status == 404 else ValueError
    return local(error.message)


class RemoteSession:
    """Run registered experiments against a remote serving endpoint.

    ``trace=True`` turns on end-to-end tracing (see :mod:`repro.obs`):
    every :meth:`run` / :meth:`iter_sweep` mints a fresh trace id,
    propagates it to the server in the ``X-Repro-Trace`` header (joining
    the server's routing, queue, and worker spans to the same trace),
    records the client's own spans, and exports them to the server's
    trace store via ``POST /trace`` — so one ``GET /trace/<id>`` shows
    the whole distributed operation.  :attr:`last_trace_id` names the
    most recent trace.  Tracing never changes result bytes (the
    zero-perturbation contract) and export failures are dropped, never
    raised.
    """

    def __init__(self, base_url: str, timeout: Optional[float] = None,
                 trace: bool = False):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Server-reported outcome counters for this client's run()
        #: calls — the RemoteSession analogue of ``ResultStore.hits`` /
        #: ``misses`` on a local read-through session.
        self.hits = 0
        self.misses = 0
        self._tracer = (_obs.Tracer(_obs.SpanBuffer(), service="client")
                        if trace else None)
        #: Trace id of the most recent traced operation (or ``None``).
        self.last_trace_id: Optional[str] = None

    # -- transport ---------------------------------------------------------------

    def _open(self, method: str, path: str, data: Optional[bytes] = None,
              headers: Optional[Dict[str, str]] = None):
        """One request to the server; an error status raises the local
        exception it stands for (:func:`_local_error`)."""
        try:
            return open_url(self.base_url + path, data, method, headers,
                            self.timeout)
        except ServerError as error:
            raise _local_error(error, method) from None

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        with _obs.span("client.request", method=method,
                       path=path) as request_span:
            active = _obs.current()
            if active is not None and active.span_id is not None:
                headers[_obs.TRACE_HEADER] = _obs.format_trace_header(
                    active.trace_id, active.span_id)
            with self._open(method, path, body, headers) as response:
                request_span.set(status=response.status)
                return response, json.loads(
                    response.read().decode("utf-8"))

    @contextmanager
    def _traced(self, name: str, **attrs):
        """Mint one trace around an operation and export its spans."""
        if self._tracer is None:
            yield
            return
        trace_id = _obs.new_trace_id()
        self.last_trace_id = trace_id
        try:
            with _obs.activate(self._tracer, trace_id):
                with _obs.span(name, **attrs):
                    yield
        finally:
            self._export_spans()

    def _export_spans(self) -> None:
        """Ship buffered spans to the server (best effort: a failed
        export loses observability, never the operation)."""
        spans = self._tracer.sink.drain()
        if not spans:
            return
        try:
            self._request("POST", "/trace", {"spans": spans})
        except Exception:
            pass

    def _get(self, path: str) -> Dict[str, Any]:
        """One GET, retried once on a *transient* transport failure.

        GETs are idempotent, so a dropped connection or timeout (a
        server restarting, a load balancer shedding) is worth one short
        backoff and retry before surfacing.  An error status is a
        *response* — the server spoke — and :meth:`_open` has already
        raised it as a local exception, which is never retried.
        """
        try:
            _, decoded = self._request("GET", path)
        except (urllib.error.URLError, TimeoutError, ConnectionError):
            time.sleep(RETRY_BACKOFF_S)
            _, decoded = self._request("GET", path)
        return decoded

    # -- the Session-shaped surface ----------------------------------------------

    def run(self, experiment: str, quick: bool = False,
            force: bool = False, **params) -> ExperimentResult:
        """Run ``experiment`` on the server and decode the result.

        Blocks until the server has an envelope (a store hit returns
        immediately; a miss waits for the job).  Raises ``KeyError`` for
        an unknown experiment or circuit digest, ``TypeError``/
        ``ValueError`` for invalid parameters, and
        :class:`RemoteRunError` when the server-side execution itself
        failed.
        """
        with self._traced("client.run", experiment=experiment,
                          quick=bool(quick)):
            response, envelope = self._request("POST", "/run", {
                "experiment": experiment,
                "quick": bool(quick),
                "force": bool(force),
                "params": params,
                "wait": True,
            })
            if response.headers.get("X-Repro-Store") == "hit":
                self.hits += 1
            else:
                self.misses += 1
            return ExperimentResult.from_dict(envelope)

    def iter_sweep(
        self, spec: SweepSpec, force: bool = False,
    ) -> Iterator[Tuple[SweepCell, ExperimentResult]]:
        """Run ``spec`` on the server, yielding ``(cell, result)`` pairs
        **in completion order** as the server's stream delivers them.

        The server expands the same canonical grid this client holds,
        so stream records are matched to local cells by index (and
        cross-checked by store key).  Cells the server answers from its
        result store count as :attr:`hits`; computed cells as
        :attr:`misses`.  A failed cell raises :class:`RemoteRunError`
        when its record arrives; the spec's own validation errors
        (``KeyError``/``TypeError``/``ValueError``) surface from the
        submission request exactly like :meth:`run`.
        """
        with self._traced("client.sweep", experiment=spec.experiment,
                          quick=bool(spec.quick)):
            _, description = self._request("POST", "/sweeps",
                                           {**spec.to_dict(),
                                            "force": bool(force)})
        cells = spec.cells()
        stream_path = (description.get("stream_url")
                       or f"/sweeps/{description['id']}/stream")
        with self._open("GET", stream_path) as response:
            # http.client de-chunks transparently; iterating the
            # response yields the stream's JSON lines as they arrive.
            for raw in response:
                raw = raw.strip()
                if not raw:
                    continue
                record = json.loads(raw)
                if "sweep" in record:
                    return  # the terminal summary line
                cell = cells[record["index"]]
                if record.get("key") != cell.key:
                    raise RemoteRunError(
                        f"server cell {record['index']} key "
                        f"{record.get('key')!r} does not match the "
                        f"local expansion ({cell.key!r}); client and "
                        "server disagree about the registry"
                    )
                if record.get("status") == "failed":
                    raise RemoteRunError(
                        f"sweep cell {cell.index} {dict(cell.params)!r} "
                        f"failed: {record.get('error')}"
                    )
                if record.get("source") == "store":
                    self.hits += 1
                else:
                    self.misses += 1
                yield cell, ExperimentResult.from_dict(record["envelope"])

    def run_sweep(self, spec: SweepSpec,
                  force: bool = False) -> SweepResult:
        """Run every cell of ``spec`` on the server; the canonically
        ordered :class:`~repro.api.sweep.SweepResult` — the same object
        a local ``Session.run_sweep`` returns."""
        return SweepResult.from_pairs(spec,
                                      self.iter_sweep(spec, force=force))

    def upload_circuit(self, qasm_text: str) -> str:
        """``POST /circuits``: ingest an OpenQASM program; the digest.

        Idempotent — re-uploading known content returns the same digest.
        Use the returned digest (as ``circuit:<digest>``) in run/sweep
        parameters.  Raises ``ValueError`` on malformed QASM (the
        server's line-attributed validation message).
        """
        with self._open("POST", "/circuits", qasm_text.encode("utf-8"),
                        {"Content-Type": "text/plain; charset=utf-8"}
                        ) as response:
            return json.loads(response.read().decode("utf-8"))["digest"]

    def circuit_qasm(self, digest: str) -> str:
        """``GET /circuits/<digest>``: the stored canonical QASM text
        (``KeyError`` when the server does not hold the digest)."""
        with self._open("GET", f"/circuits/{digest}") as response:
            return response.read().decode("utf-8")

    def submit(self, experiment: str, quick: bool = False,
               force: bool = False, **params) -> Dict[str, Any]:
        """Enqueue without waiting; returns the job description
        (or, on a store hit, the envelope itself).  Raises like
        :meth:`run` for an unknown experiment or invalid parameters."""
        _, decoded = self._request("POST", "/run", {
            "experiment": experiment,
            "quick": bool(quick),
            "force": bool(force),
            "params": params,
            "wait": False,
        })
        return decoded

    # -- read-only views ---------------------------------------------------------

    def experiments(self) -> Dict[str, Dict[str, Any]]:
        """The server's registry, keyed by experiment name."""
        listing = self._get("/experiments")["experiments"]
        return {spec["name"]: spec for spec in listing}

    def result(self, key: str) -> Dict[str, Any]:
        """The stored envelope under ``key`` (``KeyError`` on a miss)."""
        return self._get(f"/results/{key}")

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._get(f"/jobs/{job_id}")

    def sweep(self, sweep_id: str) -> Dict[str, Any]:
        """Per-cell status of a submitted sweep (``KeyError`` if the
        server no longer tracks it)."""
        return self._get(f"/sweeps/{sweep_id}")

    def metrics(self) -> Dict[str, Any]:
        return self._get("/metrics")

    def __repr__(self) -> str:
        return f"RemoteSession({self.base_url!r})"
