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

Thread model: every connection is served on a thread of its own, so a
long sweep stream or a ``wait=true`` run never holds up another client.
Those threads are reused rather than started per connection: a thread
that finishes a connection waits for the next one, and the server
starts a new thread only when none is waiting.  At most
:data:`IDLE_CONNECTION_THREADS` wait at once; a thread finishing when
that many already wait exits, so a burst of connections leaves at
most that many threads behind.  Each connection runs in a fresh
:class:`contextvars.Context`, so nothing set while serving one request
(session, trace context) reaches the next, as on a fresh thread.
Experiment execution is bounded by the job queue's claim loops; a
``wait=true`` run request parks its connection thread on the job's
completion event without occupying a claim loop.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import queue
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.api.circuits import CircuitStore
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.exec.cache import CompileCache
from repro.fleet.protocol import DEFAULT_LEASE_TTL
from repro.obs import TRACE_HEADER, Tracer, TraceStore
from repro.serve.app import Response, ServeApp, _error
from repro.serve.jobs import JobQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.sweeps import SweepTable

#: Connection threads that may wait for a connection at once.  A thread
#: that finishes a connection while this many already wait exits.
IDLE_CONNECTION_THREADS = 8

#: Largest request body read, in bytes: far above any QASM upload to
#: ``POST /circuits``.  A longer declared body is a 413, left unread.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds one read or write on a connection may block.  A client that
#: sends less body than it declared, never ends its headers, or leaves a
#: kept-alive connection idle this long is dropped, which frees its
#: connection thread.  Parked ``wait`` runs and sweep streams wait on
#: the job queue, not on the socket, so they are not cut short.
CONNECTION_TIMEOUT_S = 60.0


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Transport shim: socket + headers in, ServeApp response out."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # StreamRequestHandler.setup() sets it on the connection's socket;
    # BaseHTTPRequestHandler logs the expiry and closes the connection.
    timeout = CONNECTION_TIMEOUT_S
    # TCP_NODELAY, set by StreamRequestHandler.setup(): with Nagle's
    # algorithm on, a response's last segment on a kept-alive connection
    # waits for the client's delayed ACK of the one before (~40 ms).
    disable_nagle_algorithm = True

    def _dispatch(self) -> None:
        length, refusal = self._body_length()
        if refusal is not None:
            # The body is left unread or its end is unknown, so nothing
            # after it on the connection can be read as a request: close.
            response = refusal
            response.headers["Connection"] = "close"
        else:
            body = self.rfile.read(length) if length else b""
            response = self.server.app.handle(
                self.command, self.path, body,
                trace=self.headers.get(TRACE_HEADER))
        try:
            if response.stream is not None:
                self._stream(response)
            else:
                self._write(response)
        except ConnectionError:
            # The client hung up before its response was written; any
            # other failure still reaches the server's handle_error.
            self.close_connection = True

    def _body_length(self) -> Tuple[int, Optional[Response]]:
        """The body length the request declares (0 without a
        ``Content-Length``), or the error response refusing its body:
        any ``Transfer-Encoding`` (no route takes a chunked body), a
        length that is not ASCII digits (``int`` also takes a sign,
        ``_`` separators and non-ASCII digits), or a length above
        :data:`MAX_BODY_BYTES`."""
        if "Transfer-Encoding" in self.headers:
            return 0, _error(400, "Transfer-Encoding is not supported; "
                                  "send a Content-Length")
        value = self.headers.get("Content-Length")
        if value is None:
            return 0, None
        value = value.strip()
        if not (value.isascii() and value.isdigit()):
            return 0, _error(400, "Content-Length must be a decimal "
                                  "integer")
        length = int(value)
        if length > MAX_BODY_BYTES:
            return 0, _error(413, f"request body over {MAX_BODY_BYTES} "
                                  "bytes")
        return length, None

    def _write(self, response: Response) -> None:
        self.send_response(response.status)
        # JSON is the default; a route serving another media type
        # (GET /circuits/<digest> returns QASM text) sets its own.
        if "Content-Type" not in response.headers:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        # Headers and body leave in one write, so one segment carries a
        # small response whole.
        self.wfile.write(self._header_block() + response.body)

    def _header_block(self) -> bytes:
        """:meth:`end_headers` without the write: the buffered status
        line and headers, blank line included, taken off the buffer
        (nothing for an HTTP/0.9 request, which gets a bare body)."""
        if self.request_version == "HTTP/0.9":
            return b""
        self._headers_buffer.append(b"\r\n")
        block = b"".join(self._headers_buffer)
        self._headers_buffer = []
        return block

    def _stream(self, response: Response) -> None:
        """Write a streaming response with chunked transfer-encoding,
        flushing per chunk so consumers see each line the moment the
        app yields it.

        The generator is closed however the stream ends, a dropped
        client included: the underlying jobs are queue-owned, so
        nothing leaks.
        """
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            for chunk in response.stream:
                if not chunk:
                    continue
                # One write per chunk: size line, data and its CRLF.
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
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
    """The serving endpoint: one app, one queue, reused connection
    threads (see the module docstring)."""

    def __init__(self, address, app: ServeApp, quiet: bool = False):
        # Set before binding: a failed bind calls server_close().
        self._lock = threading.Lock()
        # Threads waiting for a connection, each with the queue it
        # waits on; the newest is handed the next connection.
        self._idle: List[Tuple[threading.Thread, queue.SimpleQueue]] = []
        self._closed = False
        self._thread_ids = itertools.count(1)
        super().__init__(address, ReproRequestHandler)
        self.app = app
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a waiting thread, or start one."""
        with self._lock:
            waiting = self._idle.pop()[1] if self._idle else None
        if waiting is not None:
            waiting.put((request, client_address))
            return
        threading.Thread(
            target=self._serve_connections, args=(request, client_address),
            name=f"repro-serve-conn-{next(self._thread_ids)}",
            daemon=True).start()

    def _serve_connections(self, request, client_address) -> None:
        """One connection thread: serve a connection, then wait for the
        next unless enough threads wait already or the server closed."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while request is not None:
            # ThreadingMixIn's per-thread body: finish_request, then
            # handle_error on an Exception, then shutdown_request.
            contextvars.Context().run(self.process_request_thread,
                                      request, client_address)
            with self._lock:
                if (self._closed
                        or len(self._idle) >= IDLE_CONNECTION_THREADS):
                    return
                self._idle.append((threading.current_thread(), inbox))
            request, client_address = inbox.get()

    def server_close(self) -> None:
        """Close the listening socket and end the waiting threads."""
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for _, inbox in idle:
            inbox.put((None, None))
        for thread, _ in idle:
            thread.join()

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
