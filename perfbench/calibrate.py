"""A fixed pure-Python unit of work that measures the host's speed.

The host this benchmark runs on drifts: whole minutes run 10-50% slower
than others, for every piece of Python code alike.  A run therefore
times this unit at regular moments between its rounds and scales its
times to a reference host speed: ``scaled = measured * REFERENCE_S /
median(unit times)``.  The unit shares no code with the program, so a
change to the program cannot move it.

The unit mixes what the program's hot paths do: dict and set lookups,
list building and sorting, tuple keys, float arithmetic and a
breadth-first search over a grid graph.
"""

from __future__ import annotations

import gc
import http.client
import math
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Sequence, Tuple

#: Median seconds of one ``unit()`` on the reference host (a 2-core
#: Intel Xeon VM under Python 3.11), so scaled times read as that host's.
REFERENCE_S = 0.008
#: Unit repeats per calibration point; their minimum is the point.
REPEATS = 3
#: Seconds of wall time between calibration points.
INTERVAL_S = 0.5
#: Echo round trips per HTTP calibration point; their median is the point.
HTTP_REPEATS = 9
#: Median seconds of one echo round trip on the reference host.
HTTP_REFERENCE_S = 0.0008
#: The unit for import time: third-party and standard modules of the
#: kinds the program loads, imported by a fresh interpreter.  Import
#: speed (unmarshalling, extension loading, page faults) drifts apart
#: from the pure-Python unit above: on the reference host, scaling
#: imports by ``unit()`` widened their run-to-run spread, while dividing
#: by this unit halved it.
IMPORT_UNIT = ("numpy, json, decimal, http.server, email.mime.multipart, "
               "xml.dom.minidom, argparse, dataclasses, concurrent.futures")
#: Median seconds of the import unit on the reference host.
IMPORT_REFERENCE_S = 0.14
#: Far above any import; a hung child fails the run instead of hanging.
IMPORT_TIMEOUT_S = 120


def unit() -> float:
    return sum(_piece() for _ in range(3))


def _piece() -> float:
    side = 18
    neighbours = {}
    for row in range(side):
        for col in range(side):
            site = row * side + col
            neighbours[site] = [r * side + c for r, c in
                                ((row - 1, col), (row + 1, col),
                                 (row, col - 1), (row, col + 1))
                                if 0 <= r < side and 0 <= c < side]
    total = 0.0
    for source in range(0, side * side, 37):
        seen = {source: 0}
        queue = deque([source])
        while queue:
            site = queue.popleft()
            for other in neighbours[site]:
                if other not in seen:
                    seen[other] = seen[site] + 1
                    queue.append(other)
        scores = sorted(((hops * 1.5 + (site % 7) * 0.25, site)
                         for site, hops in seen.items()), reverse=True)
        total += sum(score for score, _ in scores[:50])
    pairs = {}
    for a in range(120):
        for b in range(a + 1, a + 12):
            key = (a, b % 120)
            pairs[key] = pairs.get(key, 0.0) + (a - b) ** 2 * 0.5
    return total + sum(pairs.values())


def child_import_seconds(modules: str, paths: Sequence[str] = ()) -> float:
    """Seconds a fresh interpreter spends on ``import <modules>``.

    The child times its own import, so interpreter start-up, which no
    change to the program can move, stays out.
    """
    script = ("import sys, time\n"
              f"sys.path[:0] = {list(paths)!r}\n"
              "start = time.perf_counter()\n"
              f"import {modules}\n"
              "print(time.perf_counter() - start)\n")
    completed = subprocess.run([sys.executable, "-c", script],
                               stdout=subprocess.PIPE, check=True,
                               timeout=IMPORT_TIMEOUT_S)
    return float(completed.stdout.split()[-1])


def scaled_import_seconds(module: str, paths: Sequence[str]) -> float:
    """Import time of ``module`` in a fresh interpreter, in reference-host
    seconds: divided by the import unit timed right after it."""
    program = child_import_seconds(module, paths)
    return program * IMPORT_REFERENCE_S / child_import_seconds(IMPORT_UNIT)


class EchoServer:
    """A stdlib HTTP/1.1 server that answers every GET with the same
    bytes: a unit for the host's socket, thread and HTTP-parsing speed.

    Each round trip opens a fresh connection, so the server starts a
    thread for it, as the program's server does for each request.
    """

    def __init__(self) -> None:
        body = b"x" * 2048

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-echo", daemon=True)
        self.thread.start()

    def round_trip(self) -> float:
        """Seconds of one GET on a fresh connection, body read."""
        start = time.perf_counter()
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=60)
        try:
            connection.request("GET", "/")
            connection.getresponse().read()
        finally:
            connection.close()
        return time.perf_counter() - start

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


class HostClock:
    """Calibration points taken through a run; speed factors from them.

    With an ``echo`` server, each point also times echo round trips, and
    the factor is the geometric mean of the pure-Python and the HTTP
    factors.  That is for ``serve``, whose ops spend part of their time
    in Python and part in sockets and thread hand-offs: over four groups
    of four to six runs on the reference host, some with a competing
    CPU hog, the blend kept every spread within 6.5%, while either unit
    alone let one group spread 13-21%.
    """

    def __init__(self, echo: Optional[EchoServer] = None) -> None:
        #: (perf_counter when taken, unit seconds)
        self.points: List[Tuple[float, float]] = []
        self.echo = echo
        self.http_points: List[float] = []
        self._last = float("-inf")

    def measure(self) -> None:
        best = float("inf")
        # The unit makes no reference cycles; with the collector off, the
        # size of the workload's heap cannot leak into its time.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                start = time.perf_counter()
                unit()
                best = min(best, time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        if self.echo is not None:
            self.http_points.append(statistics.median(
                self.echo.round_trip() for _ in range(HTTP_REPEATS)))
        self._last = time.perf_counter()
        self.points.append((self._last, best))

    def maybe_measure(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    def scale(self) -> float:
        """Factor turning this run's seconds into reference-host seconds."""
        factor = REFERENCE_S / statistics.median(unit_s for _, unit_s
                                                 in self.points)
        if not self.http_points:
            return factor
        return math.sqrt(factor * HTTP_REFERENCE_S
                         / statistics.median(self.http_points))
