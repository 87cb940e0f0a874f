"""HTTP transport for the serving layer.

A :class:`ThreadingHTTPServer` whose handler forwards every request to a
:class:`repro.serve.app.ServeApp` — the transport adds nothing but
sockets, headers, and an access-log line on stderr (stdout stays clean,
the same contract as the CLI).  ``build_server`` wires the full stack:

    store + compile cache
        -> per-job Session factory (read-through, shared cache/store)
        -> JobQueue (N in-process claim loops, in-flight dedup)
        -> ServeApp (routing + metrics)
        -> ReproHTTPServer

Thread model: the HTTP server spawns one thread per connection (cheap:
handlers only route, queue, and read the store), while experiment
execution is bounded by the job queue's claim loops.  A ``wait=true``
run request parks its connection thread on the job's completion event
without occupying a claim loop.
"""

from __future__ import annotations

import os
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.api.circuits import CircuitStore
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.exec.cache import CompileCache
from repro.fleet.protocol import DEFAULT_LEASE_TTL
from repro.obs import TRACE_HEADER, Tracer, TraceStore
from repro.serve.app import ServeApp
from repro.serve.jobs import JobQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.sweeps import SweepTable


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Transport shim: socket + headers in, ServeApp response out."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def _dispatch(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        response = self.server.app.handle(
            self.command, self.path, body,
            trace=self.headers.get(TRACE_HEADER))
        if response.stream is not None:
            self._stream(response)
            return
        self.send_response(response.status)
        # JSON is the default; a route serving another media type
        # (GET /circuits/<digest> returns QASM text) sets its own.
        if "Content-Type" not in response.headers:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _stream(self, response) -> None:
        """Write a streaming response with chunked transfer-encoding,
        flushing per chunk so consumers see each line the moment the
        app yields it.

        A dropped client (BrokenPipe/ConnectionReset) just ends the
        stream: the generator is closed and the connection discarded —
        the underlying jobs are queue-owned, so nothing leaks.
        """
        self.send_response(response.status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        try:
            for chunk in response.stream:
                if not chunk:
                    continue
                self.wfile.write(f"{len(chunk):x}\r\n".encode())
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True
        finally:
            close = getattr(response.stream, "close", None)
            if close is not None:
                close()

    do_GET = _dispatch
    do_POST = _dispatch

    def log_message(self, format: str, *args) -> None:
        # Access log to stderr, like every other repro diagnostic; the
        # server owns no stdout at all.
        if not getattr(self.server, "quiet", False):
            print(f"[serve] {self.address_string()} {format % args}",
                  file=sys.stderr)


class ReproHTTPServer(ThreadingHTTPServer):
    """The serving endpoint: one app, one queue, per-connection threads."""

    daemon_threads = True

    def __init__(self, address, app: ServeApp, quiet: bool = False):
        super().__init__(address, ReproRequestHandler)
        self.app = app
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]

    def close(self) -> None:
        """Stop accepting connections and drain the job queue."""
        self.server_close()
        self.app.jobs.shutdown(wait=True)


def build_server(
    host: str,
    port: int,
    store_dir: str,
    cache_dir: Optional[str] = None,
    workers: int = 2,
    quiet: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    circuit_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> ReproHTTPServer:
    """Assemble the full serving stack on ``host:port`` (0 = ephemeral).

    All jobs share one compile cache, one result store, and one circuit
    store (uploaded workloads; defaults to ``<store_dir>/circuits``);
    each job gets its own read-through :class:`Session` (sweeps run
    inline, ``jobs=1`` — concurrency comes from the queue's ``workers``
    claim loops, not from nested process pools; the worker count is a
    session setting, so no request parameter can change it), wired to
    the shared circuit store so jobs resolve ``circuit:<digest>``
    workloads against exactly what was uploaded.  Every job runs under a lease of
    ``lease_ttl`` seconds, held by a local loop or by a fleet worker
    (``python -m repro worker``); ``workers=0`` starts no local loops.
    ``trace_dir`` enables end-to-end tracing
    (see :mod:`repro.obs`): spans from request handling, the queue,
    executing sessions, and remote exporters land in an append-only
    JSONL store there, browsable via ``GET /trace/<id>``; ``None``
    records nothing.
    """
    store = ResultStore(store_dir)
    cache = CompileCache(cache_dir)
    circuits = CircuitStore(circuit_dir
                            or os.path.join(store.path, "circuits"))
    metrics = ServeMetrics()
    tracer = None
    if trace_dir is not None:
        # The tracer tees span durations into the latency histograms
        # (compile wall, queue wait), so one scrape covers both worlds.
        tracer = Tracer(TraceStore(trace_dir), service="serve",
                        observer=metrics.observe_span)
    jobs = JobQueue(
        lambda: Session(jobs=1, cache=cache, store=store,
                        circuits=circuits),
        workers=workers,
        metrics=metrics,
        store=store,
        lease_ttl=lease_ttl,
        tracer=tracer,
    )
    sweeps = SweepTable(store, jobs, metrics)
    app = ServeApp(store=store, jobs=jobs, metrics=metrics, sweeps=sweeps,
                   circuits=circuits, tracer=tracer)
    return ReproHTTPServer((host, port), app, quiet=quiet)
