"""``serve``: the HTTP service with a fleet worker, driven by one client.

Set-up starts ``build_server(..., workers=0)`` on a fresh temporary
store in one thread, so every job must be claimed by a fleet worker.
The benchmark's thread is both the client and that worker: after each
submit it calls ``FleetWorker.run(max_jobs=1)``, which claims the job
just queued, executes it and completes it.  No op waits on an idle poll,
and the lease outlives any op, so no heartbeat fires mid-op.

A round is 20 ops in a seeded order: 16 reads of stored results (six
store-hit ``POST /run``, six ``GET /results/<key>``, four all-hit sweep
streams of two cells) and 4 writes.  A write is a fresh ``gen-random
--quick`` cell (a new ``rng``): ``POST /run`` with ``wait: false``, the
fleet round trip, then ``GET /results/<key>``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from common import Op, kind_p50_ms
from probe import LayerView, Probe

from repro.api.circuits import CircuitStore
from repro.api.session import Session
from repro.api.store import ResultStore, canonical_json
from repro.exec.cache import CompileCache
from repro.fleet.protocol import CLAIM_PATH, COMPLETE_PATH
from repro.fleet.worker import FleetWorker
from repro.serve.http import build_server

EXPERIMENT = "gen-random"
#: Stored results set-up writes before timing; reads pick among these
#: and every result written since.
PRELOADED = 12
READS = ("run_hit",) * 6 + ("get_result",) * 6 + ("sweep_stream",) * 4
WRITES = 4
#: Every n-th write is compared with an in-process ``Session.run``.
VERIFY_EVERY = 4
#: Far longer than any op: the worker's heartbeat thread stays asleep.
LEASE_TTL_S = 600.0
READ_KINDS = ("run_hit", "get_result", "sweep_stream")


def route_slug(method: str, path: str) -> str:
    """The per-layer metric slug of one request's route."""
    bare = path.partition("?")[0]
    if method == "POST" and bare == "/run":
        return "post_run"
    if method == "GET" and bare.startswith("/results/"):
        return "get_results"
    if method == "POST" and bare == "/sweeps":
        return "post_sweeps"
    if method == "GET" and bare.startswith("/sweeps/") and \
            bare.endswith("/stream"):
        return "get_sweep_stream"
    if bare == CLAIM_PATH:
        return "fleet_claim"
    if bare == COMPLETE_PATH:
        return "fleet_complete"
    return "other"


class Workload:
    name = "serve"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.worker: Optional[FleetWorker] = None
        self.stored: Dict[int, Tuple[str, bytes]] = {}
        self.writes = 0
        self.setups = 0
        self.first_round_cache: Dict[str, int] = {}

    # -- fixture -------------------------------------------------------------

    def setup(self) -> None:
        self.setups += 1
        base = os.path.join(self.scratch, f"serve-{self.setups}")
        self.server = build_server("127.0.0.1", 0,
                                   store_dir=os.path.join(base, "store"),
                                   workers=0, quiet=True,
                                   lease_ttl=LEASE_TTL_S)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        self.cache = CompileCache()
        circuits = CircuitStore(os.path.join(base, "worker-circuits"))
        self.worker = FleetWorker(
            f"http://127.0.0.1:{self.server.port}",
            lambda: Session(jobs=1, cache=self.cache, circuits=circuits),
            worker_id="perfbench-worker")
        self.reference = Session(
            circuit_dir=os.path.join(base, "reference-circuits"))
        self.stored = {}
        self.writes = 0
        for _ in range(PRELOADED):
            value, key, body = self._write(self._next_rng())
            self.stored[value] = (key, body)
        # One read of each kind warms the read paths before timing.
        for kind in READ_KINDS:
            self._read_op(kind, random.Random(self.seed)).call()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.close()
            self.thread.join(timeout=10)
            self.server = None

    # -- HTTP ----------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload=None) -> Tuple[int, Dict[str, str], bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                                timeout=60)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), \
                response.read()
        finally:
            connection.close()

    def _expect(self, status: int, want: int, what: str, body: bytes):
        if status != want:
            raise RuntimeError(f"{what}: HTTP {status} (wanted {want}): "
                               f"{body[:200]!r}")

    # -- ops -----------------------------------------------------------------

    def _next_rng(self) -> int:
        # Distinct per write, per setup, per seed: every write is a miss.
        self.writes += 1
        return self.seed * 1_000_000 + self.setups * 10_000 + self.writes

    def _write(self, value: int) -> Tuple[int, str, bytes]:
        status, headers, body = self._request("POST", "/run", {
            "experiment": EXPERIMENT, "quick": True,
            "params": {"rng": value}, "wait": False})
        self._expect(status, 202, "POST /run (miss)", body)
        key = headers["X-Repro-Key"]
        if self.worker.run(max_jobs=1) != 1:
            raise RuntimeError("the fleet worker completed no job")
        status, _, body = self._request("GET", f"/results/{key}")
        self._expect(status, 200, "GET /results after write", body)
        return value, key, body

    def _check_write(self, output) -> Optional[str]:
        value, key, body = output
        self.stored[value] = (key, body)
        if len(self.stored) % VERIFY_EVERY == 0:
            local = canonical_json(self.reference.run(
                EXPERIMENT, quick=True, rng=value).to_dict()).encode()
            if local != body:
                return f"served result for rng={value} differs from Session.run"
        return None

    def _run_hit(self, value: int) -> Tuple[int, bytes]:
        status, headers, body = self._request("POST", "/run", {
            "experiment": EXPERIMENT, "quick": True,
            "params": {"rng": value}})
        self._expect(status, 200, "POST /run (hit)", body)
        if headers.get("X-Repro-Store") != "hit":
            raise RuntimeError("POST /run of a stored cell was not a hit")
        return value, body

    def _get_result(self, value: int) -> Tuple[int, bytes]:
        key, _ = self.stored[value]
        status, _, body = self._request("GET", f"/results/{key}")
        self._expect(status, 200, "GET /results", body)
        return value, body

    def _check_read(self, output) -> Optional[str]:
        value, body = output
        if body != self.stored[value][1]:
            return f"read of rng={value} differs from the bytes written"
        return None

    def _sweep_stream(self, values: List[int]) -> List[dict]:
        status, headers, body = self._request("POST", "/sweeps", {
            "experiment": EXPERIMENT, "quick": True,
            "axes": {"rng": values}})
        self._expect(status, 202, "POST /sweeps", body)
        sweep = json.loads(body)["id"]
        status, _, body = self._request("GET", f"/sweeps/{sweep}/stream")
        self._expect(status, 200, "GET /sweeps/<id>/stream", body)
        return [json.loads(line) for line in body.splitlines()]

    def _check_stream(self, values: List[int], events) -> Optional[str]:
        cells, summary = events[:-1], events[-1]
        if summary.get("done") != len(values) or len(cells) != len(values):
            return f"sweep stream ended with {summary}"
        by_key = {key: body for key, body in
                  (self.stored[value] for value in values)}
        for cell in cells:
            if canonical_json(cell["envelope"]).encode() != \
                    by_key.get(cell["key"]):
                return f"streamed cell {cell['key'][:16]} differs from store"
        return None

    def _read_op(self, kind: str, draw: random.Random) -> Op:
        values = sorted(self.stored)
        if kind == "sweep_stream":
            chosen = draw.sample(values, 2)
            return Op(kind, partial(self._sweep_stream, chosen),
                      partial(self._check_stream, chosen))
        value = draw.choice(values)
        call = self._run_hit if kind == "run_hit" else self._get_result
        return Op(kind, partial(call, value), self._check_read)

    def ops(self, round_index: int, traced: bool) -> Iterator[Op]:
        """The round's ops, each built just before it runs, so reads can
        pick results written earlier in the same round.  Every round
        sends the same kinds in the same order; the targets differ."""
        kinds = list(READS) + ["write"] * WRITES
        random.Random(self.seed).shuffle(kinds)
        draw = random.Random(self.seed * 7919 + round_index)
        for kind in kinds:
            if kind == "write":
                yield Op("write", partial(self._write, self._next_rng()),
                         self._check_write)
            else:
                yield self._read_op(kind, draw)

    # -- per-layer -----------------------------------------------------------

    def add_probes(self, probe: Probe) -> None:
        def route_label(method, path, *args, **kwargs):
            return f"serve.handle.{route_slug(method, path)}"

        def on_put(probe, result, args):
            store, key = args[0], args[1]
            probe.count("store.bytes_written",
                        os.path.getsize(store._file_for(key)))

        def on_handle(probe, response, args):
            # A stream's body is produced after ``handle`` returned.
            if response.stream is not None:
                response.stream = probe.timed_stream(response.stream,
                                                     route_label(*args))

        def on_claim(probe, job, args):
            probe.count("fleet.claims" if job else "fleet.idle_claims")

        # The output check's reference session is not the layer measured.
        def session_label(session, *args, **kwargs):
            return ("session.reference" if session is self.reference
                    else "session.run")

        probe.add(ResultStore, "get", "store.get")
        probe.add(ResultStore, "put", "store.put", on_put)
        probe.add(ResultStore, "record", "store.record")
        probe.add(self.server.app, "handle", route_label, on_handle)
        probe.add(Session, "run", session_label)
        probe.add(self.worker.client, "claim", "fleet.claim", on_claim)
        probe.add(self.worker.client, "complete", "fleet.complete")
        probe.add(self, "_request", "serve.client")

    def round_done(self, round_index: int) -> None:
        if round_index == 0:
            stats = self.cache.stats()
            self.first_round_cache = {
                "cache.hits": stats["memory_hits"] + stats["disk_hits"],
                "cache.misses": stats["misses"],
                "cache.memory_entries": stats["entries_in_memory"],
            }

    def layer_metrics(self, view: LayerView, samples) -> Dict[str, float]:
        values = {name: float(value)
                  for name, value in self.first_round_cache.items()}
        for name in ("store.get", "store.put", "store.record"):
            values[f"{name}.calls"] = view.calls(name)
            values[f"{name}.ms"] = view.ms(name)
        values["store.bytes_written"] = view.count("store.bytes_written")
        handled_ms = 0.0
        handled = 0
        for label in list(view.probe.calls):
            if label.startswith("serve.handle.") and \
                    not label.endswith(".raised"):
                handled_ms += view.ms(label)
                handled += view.probe.calls[label]
                if not label.endswith(".other"):
                    values[f"{label}.ms"] = view.ms(label)
        client_ms = sum(view.ms(name) for name in
                        ("serve.client", "fleet.claim", "fleet.complete"))
        rounds = view.rounds
        values["serve.http_ms"] = ((client_ms - handled_ms) * rounds / handled
                                   if handled else 0.0)
        values["fleet.claim.ms"] = view.ms("fleet.claim")
        values["fleet.complete.ms"] = view.ms("fleet.complete")
        values["fleet.claims"] = view.count("fleet.claims")
        values["fleet.idle_claims"] = view.count("fleet.idle_claims")
        values["session.run.calls"] = view.calls("session.run")
        values["session.run.ms"] = view.ms("session.run")
        _, _, body = self._request("GET", "/metrics")
        wait = json.loads(body)["latency"].get("queue_wait_seconds", {})
        wait = wait.get("all", {"count": 0, "sum": 0.0})
        values["serve.queue_wait_ms"] = (wait["sum"] * 1000.0 / wait["count"]
                                         if wait["count"] else 0.0)
        traced = [sample for sample in samples if sample.traced]
        values["serve.read_p50_ms"] = kind_p50_ms(traced, READ_KINDS)
        values["serve.write_p50_ms"] = kind_p50_ms(traced, ("write",))
        return values

    def split_latencies(self, samples) -> Dict[str, float]:
        return {"read_p50_ms": kind_p50_ms(samples, READ_KINDS),
                "write_p50_ms": kind_p50_ms(samples, ("write",))}
