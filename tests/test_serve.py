"""Tests for the serving subsystem (repro.serve).

The tentpole contract, over a real socket: a cold ``POST /run`` and a
warm ``GET /results/<key>`` return envelopes byte-identical to ``python
-m repro run X --quick --format json`` for **every** quick-preset
experiment; the warm path executes zero tasks; and N concurrent
identical requests perform exactly one execution (in-flight
deduplication plus read-through sessions).
"""

import contextvars
import dataclasses
import json
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from harness import get, post, post_text, request, wait_for
from repro.__main__ import main
from repro.api import Session, all_experiments, store_key
from repro.api.session import install_default
from repro.serve.app import Response
from repro.serve.http import (IDLE_CONNECTION_THREADS, MAX_BODY_BYTES,
                              ReproRequestHandler)
from repro.serve.jobs import DONE, FAILED, JobQueue
from test_fleet import envelope


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


def _http_error(callable_, *args, **kwargs) -> urllib.error.HTTPError:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args, **kwargs)
    return excinfo.value


def _error_message(error: urllib.error.HTTPError) -> str:
    return json.loads(error.read())["error"]


class TestEndpoints:
    def test_healthz(self, base):
        status, _, body = get(base + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_experiments_lists_every_registered_spec(self, base):
        _, _, body = get(base + "/experiments")
        listing = {spec["name"]: spec
                   for spec in json.loads(body)["experiments"]}
        assert set(listing) == set(all_experiments())
        fig10 = listing["fig10"]
        assert {p["name"] for p in fig10["params"]} == {
            p.name for p in all_experiments()["fig10"].params}
        # Tuple-valued presets render as JSON lists.
        assert fig10["quick"]["mids"] == [2.0, 3.0]
        assert fig10["result_type"] == "Fig10Result"

    def test_jobs_is_not_a_request_parameter(self, base):
        """The server's worker count is its own: no experiment lists
        ``jobs``, and a request naming it is refused like any unknown
        parameter, never run on a nested process pool."""
        _, _, body = get(base + "/experiments")
        for spec in json.loads(body)["experiments"]:
            assert "jobs" not in {p["name"] for p in spec["params"]}
        error = _http_error(post, base + "/run", experiment="validation",
                            quick=True, params={"jobs": 2})
        assert error.code == 400
        assert json.loads(error.read())["error_type"] == "TypeError"
        error = _http_error(post, base + "/sweeps",
                            experiment="ext-trapped-ion", quick=True,
                            base={"jobs": 2},
                            axes={"program_size": [10, 20]})
        assert error.code == 400
        assert json.loads(error.read())["error_type"] == "TypeError"

    def test_experiment_detail_and_unknown(self, base):
        _, _, body = get(base + "/experiments/validation")
        assert json.loads(body)["name"] == "validation"
        error = _http_error(get, base + "/experiments/fig99")
        assert error.code == 404
        assert "unknown experiment" in _error_message(error)

    def test_results_rejects_non_key_paths(self, base):
        error = _http_error(get, base + "/results/../../etc/passwd")
        assert error.code == 400
        error = _http_error(get, base + "/results/" + "a" * 64)
        assert error.code == 404

    def test_unrouted_paths_404(self, base):
        assert _http_error(get, base + "/nope").code == 404

    def test_run_request_validation(self, base):
        assert _http_error(request, base + "/run",
                           b"{ not json").code == 400

        error = _http_error(post, base + "/run", quick=True)
        assert error.code == 400
        assert "experiment" in _error_message(error)

        error = _http_error(post, base + "/run", experiment="fig99")
        assert error.code == 404

        error = _http_error(post, base + "/run", experiment="validation",
                            params={"bogus": 1})
        assert error.code == 400
        payload = json.loads(error.read())
        assert "has no parameter" in payload["error"]
        # Structured type so clients re-raise without message parsing.
        assert payload["error_type"] == "TypeError"

        # Wrong params shape is rejected even when falsy ([] / false),
        # never silently coerced into a default-params run.
        for bad_params in ([], False, ""):
            error = _http_error(post, base + "/run", experiment="validation",
                                params=bad_params)
            assert error.code == 400
            assert "JSON object" in _error_message(error)


@pytest.mark.parametrize("value", ["false", 0, 1, []],
                         ids=["string-false", "0", "1", "empty-list"])
@pytest.mark.parametrize("path, flag", [
    ("/run", "quick"), ("/run", "force"), ("/run", "wait"),
    ("/sweeps", "quick"), ("/sweeps", "force")])
def test_non_boolean_flags_are_a_400(base, path, flag, value):
    """A flag is a JSON boolean or absent/null: ``bool("false")`` would
    run the quick preset, so anything else is refused."""
    fields = {"experiment": "ext-trapped-ion", "quick": True, flag: value}
    if path == "/sweeps":
        fields["axes"] = {"program_size": [10]}
    error = _http_error(post, base + path, **fields)
    assert error.code == 400
    assert f'"{flag}" must be true or false' in _error_message(error)


class TestServingContract:
    def test_every_quick_experiment_cold_warm_and_cli_identical(
            self, base, server, capsys):
        """The acceptance criterion, for every registered experiment:
        cold POST /run, warm GET /results/<key>, warm POST /run, and the
        CLI's --format json output are all byte-identical; the warm
        paths recompute nothing."""
        store_dir = server.app.store.path
        for name in all_experiments():
            status, headers, cold = post(
                base + "/run", experiment=name, quick=True, wait=True)
            assert status == 200
            assert headers["X-Repro-Store"] == "miss"
            key = headers["X-Repro-Key"]
            assert json.loads(cold)["experiment"] == name

            _, _, warm_get = get(base + f"/results/{key}")
            assert warm_get == cold

            _, warm_headers, warm_post = post(
                base + "/run", experiment=name, quick=True, wait=True)
            assert warm_headers["X-Repro-Store"] == "hit"
            assert warm_post == cold

            # The CLI against the same store replays with zero task
            # dispatch and prints the same bytes the server returned.
            assert main(["run", name, "--quick", "--format", "json",
                         "--no-cache", "--store", store_dir]) == 0
            captured = capsys.readouterr()
            assert captured.out.encode() == cold
            assert "replayed from result store" in captured.err

    def test_cold_bytes_match_a_storeless_cli_run(self, base, capsys):
        """One full independent recompute: the server's cold envelope
        equals a fresh `run validation --quick --format json` that never
        saw the store."""
        _, _, cold = post(base + "/run", experiment="validation", quick=True,
                               wait=True)
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out.encode() == cold

    def test_warm_replay_executes_zero_tasks(self, base, server):
        """A job submitted after its key is already stored replays
        read-through: Session.tasks_executed == 0."""
        _, headers, _ = post(base + "/run", experiment="validation",
                                  quick=True, wait=True)
        key = headers["X-Repro-Key"]
        spec = all_experiments()["validation"]
        assert key == store_key("validation",
                                spec.resolved_params(quick=True))
        job, coalesced = server.app.jobs.submit(
            "validation", key, True, {}, force=False)
        assert not coalesced
        assert job.wait(timeout=30)
        assert job.status == DONE
        assert job.tasks_executed == 0

    def test_concurrent_identical_requests_execute_once(
            self, base, server, monkeypatch):
        """N concurrent identical requests -> exactly one execution."""
        from repro.api import registry

        real = registry._SPECS["validation"]
        calls = []

        def counting_runner(**kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.3)  # hold the job open so requests overlap
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=counting_runner))
        bodies = []
        errors = []

        def request_once():
            try:
                bodies.append(post(base + "/run", experiment="validation",
                                        quick=True, wait=True)[2])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=request_once)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(calls) == 1
        assert len(set(bodies)) == 1
        snapshot = server.app.metrics.snapshot()
        assert snapshot["jobs"]["coalesced"] >= 1

    def test_force_recomputes_and_skips_dedup(self, base, server,
                                              monkeypatch):
        from repro.api import registry

        real = registry._SPECS["validation"]
        calls = []

        def counting_runner(**kwargs):
            calls.append(1)
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=counting_runner))
        post(base + "/run", experiment="validation", quick=True, wait=True)
        status, headers, _ = post(base + "/run", experiment="validation",
                                       quick=True, force=True, wait=True)
        assert headers["X-Repro-Store"] == "miss"
        assert len(calls) == 2


class TestJobsEndpoint:
    def test_async_submit_then_poll_then_fetch(self, base):
        status, headers, body = post(
            base + "/run", experiment="validation", quick=True, wait=False)
        assert status == 202
        submitted = json.loads(body)
        assert submitted["coalesced"] is False
        job_id = submitted["id"]

        deadline = time.time() + 60
        while time.time() < deadline:
            _, _, job_body = get(base + f"/jobs/{job_id}")
            job = json.loads(job_body)
            if job["status"] in (DONE, FAILED):
                break
            time.sleep(0.05)
        assert job["status"] == DONE
        assert job["tasks_executed"] > 0
        assert job["wall_s"] >= 0
        _, _, envelope = get(base + job["result_url"])
        assert json.loads(envelope)["experiment"] == "validation"

    def test_unknown_job_404(self, base):
        assert _http_error(get, base + "/jobs/nope").code == 404

    def test_failed_job_surfaces_the_error(self, base, monkeypatch):
        from repro.api import registry

        real = registry._SPECS["validation"]

        def exploding_runner(**kwargs):
            raise RuntimeError("backend exploded")

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=exploding_runner))
        error = _http_error(post, base + "/run", experiment="validation",
                            quick=True, wait=True)
        assert error.code == 500
        assert "backend exploded" in _error_message(error)


class TestMetricsEndpoint:
    def test_counters_and_recent_ledger_window(self, base):
        start = time.perf_counter()
        post(base + "/run", experiment="validation", quick=True, wait=True)
        populate_wall = time.perf_counter() - start
        start = time.perf_counter()
        post(base + "/run", experiment="validation", quick=True, wait=True)
        # The warm request is a store lookup: faster than the execution
        # that populated it.
        assert time.perf_counter() - start < populate_wall
        _, _, body = get(base + "/metrics")
        metrics = json.loads(body)
        assert metrics["store"]["hits"] == 1
        assert metrics["store"]["misses"] == 1
        assert metrics["jobs"]["submitted"] == 1
        assert metrics["jobs"]["completed"] == 1
        assert metrics["queue"]["workers"] == 2
        assert metrics["requests_by_route"]["POST /run"] == 2
        recent = metrics["recent_runs"]
        # Ledger: one miss (the job's read-through session) + one
        # store-hit served by the router.
        assert recent["events"] == recent["hits"] + recent["misses"]
        assert recent["hits"] == 1 and recent["misses"] == 1


class TestJobQueueUnit:
    """Queue semantics without sockets or real experiments."""

    class FakeSession:
        def __init__(self, log, gate):
            self.log = log
            self.gate = gate
            self.tasks_executed = 7

        def run(self, experiment, quick=False, force=False, **params):
            self.log.append(self)
            if not self.gate.wait(timeout=10):  # pragma: no cover
                raise TimeoutError("gate never opened")
            result = type("FakeResult", (), {})()
            result.to_dict = envelope
            return result

    def _queue(self, log, gate, workers=2):
        return JobQueue(lambda: self.FakeSession(log, gate),
                        workers=workers)

    def test_inflight_duplicates_coalesce(self):
        log, gate = [], threading.Event()
        queue = self._queue(log, gate)
        try:
            first, coalesced_a = queue.submit("validation", "k1", False, {})
            while first.status == "queued":
                time.sleep(0.01)  # wait until a worker holds the job
            second, coalesced_b = queue.submit("validation", "k1", False, {})
            assert (coalesced_a, coalesced_b) == (False, True)
            assert second is first
            gate.set()
            assert first.wait(timeout=10)
            assert first.status == DONE
            assert first.tasks_executed == 7
            assert len(log) == 1
        finally:
            gate.set()
            queue.shutdown()

    def test_force_jobs_never_coalesce(self):
        log, gate = [], threading.Event()
        gate.set()
        queue = self._queue(log, gate)
        try:
            first, _ = queue.submit("validation", "k1", False, {})
            forced, coalesced = queue.submit("validation", "k1", False, {},
                                             force=True)
            assert coalesced is False
            assert forced is not first
            assert forced.wait(timeout=10) and first.wait(timeout=10)
        finally:
            queue.shutdown()

    def test_every_job_gets_its_own_session(self):
        log, gate = [], threading.Event()
        gate.set()
        queue = self._queue(log, gate)
        try:
            jobs = [queue.submit("validation", f"k{i}", False, {})[0]
                    for i in range(4)]
            for job in jobs:
                assert job.wait(timeout=10)
            assert len(log) == 4
            assert len(set(map(id, log))) == 4  # four distinct sessions
        finally:
            queue.shutdown()

    def test_shutdown_rejects_new_jobs_but_finishes_queued_ones(self):
        log, gate = [], threading.Event()
        queue = self._queue(log, gate, workers=1)
        job, _ = queue.submit("validation", "k1", False, {})
        gate.set()
        queue.shutdown(wait=True)
        assert job.status == DONE
        with pytest.raises(RuntimeError):
            queue.submit("validation", "k2", False, {})

    def test_worker_count_validated(self):
        # workers=0 is legal (fleet-only dispatch); negatives are not.
        with pytest.raises(ValueError):
            JobQueue(lambda: None, workers=-1)

    def test_raising_session_factory_fails_the_job_not_the_worker(self):
        calls = []

        def factory():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("factory exploded")
            gate = threading.Event()
            gate.set()
            return self.FakeSession([], gate)

        queue = JobQueue(factory, workers=1)
        try:
            doomed, _ = queue.submit("validation", "k1", False, {})
            assert doomed.wait(timeout=10)
            assert doomed.status == FAILED
            assert "factory exploded" in doomed.error
            # The worker survived and the key is no longer in flight.
            healthy, coalesced = queue.submit("validation", "k1", False, {})
            assert coalesced is False
            assert healthy.wait(timeout=10)
            assert healthy.status == DONE
        finally:
            queue.shutdown()

    def test_local_job_that_outlives_its_lease_runs_once(self):
        """The in-process loops heartbeat like fleet workers: a job held
        five lease lifetimes is never reaped and re-run."""
        sessions, gate = [], threading.Event()

        def factory():
            sessions.append(self.FakeSession([], gate))
            return sessions[-1]

        queue = JobQueue(factory, workers=1, lease_ttl=0.3)
        try:
            job, _ = queue.submit("validation", "k1", False, {})
            time.sleep(1.5)
            gate.set()
            assert job.wait(timeout=10)
            assert job.status == DONE
            assert job.attempts == 1
            assert len(sessions) == 1
            assert queue.metrics.snapshot()["fleet"]["leases_reclaimed"] == 0
        finally:
            gate.set()
            queue.shutdown()

    def test_local_loops_and_remote_claims_share_one_fifo(self):
        """Stress: four blocking loops and a non-blocking remote claimer
        drain one FIFO under a short switch interval; every job is
        claimed exactly once."""
        log, gate = [], threading.Event()
        gate.set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        queue = self._queue(log, gate, workers=4)
        remote = []
        try:
            jobs = [queue.submit("validation", f"k{i}", False, {})[0]
                    for i in range(40)]
            deadline = time.time() + 20
            while (time.time() < deadline
                   and any(job.status == "queued" for job in jobs)):
                claimed = queue.claim("remote")
                if claimed is not None:
                    remote.append(claimed)
                    queue.complete("remote", claimed.id,
                                   envelope=envelope())
            for job in jobs:
                assert job.wait(timeout=10)
            assert all(job.status == DONE for job in jobs)
            assert all(job.attempts == 1 for job in jobs)
            assert len(log) + len(remote) == len(jobs)
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()

    def test_busy_loops_keep_every_lease_under_thread_contention(self):
        """Stress: four loops, each renewing its leases from its one beat
        thread, run jobs that outlive the lease under a short switch
        interval; no lease lapses, so no job runs twice."""
        runs = []

        class SlowSession:
            def run(self, experiment, quick=False, force=False, **params):
                runs.append(experiment)
                time.sleep(0.3 + 0.1 * (len(runs) % 4))
                result = type("FakeResult", (), {})()
                result.to_dict = envelope
                return result

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        queue = JobQueue(SlowSession, workers=4, lease_ttl=0.25)
        try:
            jobs = [queue.submit("validation", f"k{i}", False, {})[0]
                    for i in range(12)]
            for job in jobs:
                assert job.wait(timeout=30)
            assert [job.status for job in jobs] == [DONE] * len(jobs)
            assert [job.attempts for job in jobs] == [1] * len(jobs)
            assert len(runs) == len(jobs)
            fleet = queue.metrics.snapshot()["fleet"]
            assert fleet["leases_reclaimed"] == 0
            assert fleet["heartbeats"] >= 2 * len(jobs)
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_keyboard_interrupt_ends_the_loop_and_the_job_reruns(self):
        """The fleet rule holds locally: a BaseException ends its claim
        loop, the unreleased lease expires, and another loop re-runs the
        job."""
        gate = threading.Event()
        gate.set()
        built = []

        def factory():
            built.append(1)
            if len(built) == 1:
                raise KeyboardInterrupt
            return self.FakeSession([], gate)

        queue = JobQueue(factory, workers=2, lease_ttl=0.3)
        try:
            job, _ = queue.submit("validation", "k1", False, {})
            assert job.wait(timeout=10)
            assert job.status == DONE
            assert job.attempts == 2
            assert queue.metrics.snapshot()["fleet"]["leases_reclaimed"] == 1
            # /metrics counts the loop that is still alive, not both.
            wait_for(lambda: queue.describe()["workers"] == 1, timeout=10)
        finally:
            queue.shutdown()


class TestSessionThreadIsolation:
    def test_two_threads_activate_independent_sessions(self, tmp_path):
        """The contextvar design under real concurrency: each thread's
        activate() is invisible to the other."""
        from repro.api.session import current_session

        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def work(name, session):
            with session.activate():
                barrier.wait()  # both threads are inside activate()
                seen[name] = current_session()
                barrier.wait()

        one = Session(jobs=1, cache_dir=str(tmp_path / "a"))
        two = Session(jobs=3, cache_dir=str(tmp_path / "b"))
        threads = [threading.Thread(target=work, args=("one", one)),
                   threading.Thread(target=work, args=("two", two))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert seen["one"] is one
        assert seen["two"] is two


def _connection_threads(before=()):
    """The live connection threads of every server in this process,
    less those in ``before``."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-conn-")
            and thread not in before]


def _read_until_closed(sock, quiet_s=5.0):
    """Every byte the server sends, until it closes the connection or
    stays silent for ``quiet_s`` seconds."""
    sock.settimeout(quiet_s)
    received = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            return received
        if not chunk:
            return received
        received += chunk


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


class TestConnectionThreads:
    """Connection threads are reused, never shared: each connection has
    a thread of its own for as long as it lasts, a finished thread waits
    for the next connection, and at most ``IDLE_CONNECTION_THREADS``
    wait at once."""

    def test_sequential_requests_reuse_a_few_threads(self, base):
        before = _connection_threads()
        for _ in range(50):
            assert get(base + "/healthz")[0] == 200
        # Every thread started is still waiting, as fewer than the cap
        # were started: one, or a few where a request arrived before
        # the last thread was back.
        assert 1 <= len(_connection_threads(before)) <= 4

    def test_parked_connections_do_not_hold_up_another(
            self, base, monkeypatch):
        from repro.api import registry

        real = all_experiments()["validation"]
        gate = threading.Event()

        def gated_runner(**kwargs):
            gate.wait(timeout=60)
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real, runner=gated_runner))
        parked = IDLE_CONNECTION_THREADS + 2
        statuses = []

        def run_and_wait():
            statuses.append(post(base + "/run", experiment="validation",
                                 quick=True, wait=True)[0])

        before = _connection_threads()
        clients = [threading.Thread(target=run_and_wait)
                   for _ in range(parked)]
        try:
            for client in clients:
                client.start()
            wait_for(lambda: len(_connection_threads(before)) >= parked,
                     timeout=30)
            start = time.monotonic()
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=10) as response:
                assert response.status == 200
            assert time.monotonic() - start < 5
            assert statuses == []
        finally:
            gate.set()
            for client in clients:
                client.join(timeout=60)
        assert statuses == [200] * parked

    def test_a_burst_leaves_at_most_the_cap_waiting(self, server):
        before = _connection_threads()
        burst = IDLE_CONNECTION_THREADS + 4
        sockets = [socket.create_connection(("127.0.0.1", server.port),
                                            timeout=30)
                   for _ in range(burst)]
        try:
            # A connection holds its thread until it sends a request.
            wait_for(lambda: len(_connection_threads(before)) == burst,
                     timeout=30)
            for sock in sockets:
                sock.sendall(HEALTHZ)
            for sock in sockets:
                assert _read_until_closed(sock).startswith(
                    b"HTTP/1.1 200 ")
        finally:
            for sock in sockets:
                sock.close()
        wait_for(lambda: len(_connection_threads(before))
                 == IDLE_CONNECTION_THREADS, timeout=30)

    def test_concurrent_clients_under_fast_thread_switching(self, base):
        """Hand-offs race threads going idle: with more clients than
        cores and a tiny switch interval, every request is answered
        once and no more than the cap stay idle."""
        before = _connection_threads()
        statuses = []
        errors = []

        def client():
            try:
                for _ in range(25):
                    statuses.append(get(base + "/healthz")[0])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        clients = [threading.Thread(target=client) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors
        assert statuses == [200] * 150
        wait_for(lambda: len(_connection_threads(before))
                 <= IDLE_CONNECTION_THREADS, timeout=30)

    def test_each_connection_starts_in_a_fresh_context(
            self, base, server, monkeypatch):
        """A contextvar set, never reset, while one request is handled
        is unset in the next request on the same thread."""
        marker = contextvars.ContextVar("marker")
        seen = []
        handle = server.app.handle

        def marking_handle(*args, **kwargs):
            seen.append((threading.current_thread(), marker.get(None)))
            marker.set("left over")
            return handle(*args, **kwargs)

        monkeypatch.setattr(server.app, "handle", marking_handle)
        for _ in range(10):
            assert get(base + "/healthz")[0] == 200
        threads = [thread for thread, _ in seen]
        assert len(set(threads)) < len(threads), "no thread was reused"
        assert [value for _, value in seen] == [None] * len(seen)

    def test_close_ends_every_waiting_thread(self, server):
        before = _connection_threads()
        sockets = [socket.create_connection(("127.0.0.1", server.port),
                                            timeout=30)
                   for _ in range(3)]
        try:
            wait_for(lambda: len(_connection_threads(before)) == 3,
                     timeout=30)
            for sock in sockets:
                sock.sendall(HEALTHZ)
                assert _read_until_closed(sock).startswith(
                    b"HTTP/1.1 200 ")
        finally:
            for sock in sockets:
                sock.close()
        waiting = _connection_threads(before)
        wait_for(lambda: len(server._idle) == 3, timeout=30)
        server.shutdown()
        server.close()
        for thread in waiting:
            thread.join(timeout=5)
            assert not thread.is_alive()


@pytest.mark.parametrize("length", ["-23", "abc", "1_0"])
def test_malformed_content_length_gets_one_response(server, length):
    """A Content-Length that is not decimal digits is a 400 that closes
    the connection, so the body is never read as the next request."""
    smuggled = (f"POST /run HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n"
                "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").encode()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(smuggled)
        reply = _read_until_closed(sock)
    assert re.findall(rb"^HTTP/1\.[01] (\d{3}) ", reply,
                      re.MULTILINE) == [b"400"]
    assert b"\r\nConnection: close\r\n" in reply
    assert b"Content-Length must be a decimal integer" in reply


def test_chunked_body_gets_one_response(server):
    """A request with a Transfer-Encoding is a 400 that closes the
    connection, so its chunked body is never read as the next
    request."""
    smuggled = (b"POST /run HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(smuggled)
        reply = _read_until_closed(sock)
    assert re.findall(rb"^HTTP/1\.[01] (\d{3}) ", reply,
                      re.MULTILINE) == [b"400"]
    assert b"\r\nConnection: close\r\n" in reply
    assert b"Transfer-Encoding is not supported" in reply


def test_oversized_body_is_a_413_left_unread(server, capfd):
    """A declared body over MAX_BODY_BYTES is refused before any of it
    is read or allocated, and the connection closes."""
    request_head = (f"POST /circuits HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {10 ** 15}\r\n\r\n").encode()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(request_head)
        reply = _read_until_closed(sock)
    assert re.findall(rb"^HTTP/1\.[01] (\d{3}) ", reply,
                      re.MULTILINE) == [b"413"]
    assert b"\r\nConnection: close\r\n" in reply
    head, _, body = reply.partition(b"\r\n\r\n")
    assert json.loads(body) == {
        "error": f"request body over {MAX_BODY_BYTES} bytes"}
    assert capfd.readouterr().err == ""


def test_a_stalled_client_releases_its_thread(server, monkeypatch):
    """A client that sends less body than it declared is dropped once a
    read blocks for the handler's timeout, and its thread goes back to
    waiting for the next connection."""
    monkeypatch.setattr(ReproRequestHandler, "timeout", 0.5)
    before = _connection_threads()
    short = (b"POST /run HTTP/1.1\r\nHost: x\r\n"
             b"Content-Length: 100\r\n\r\n{\"experiment\"")
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(short)
        start = time.monotonic()
        sock.settimeout(10)
        assert sock.recv(65536) == b""
        assert time.monotonic() - start < 10
    wait_for(lambda: len(server._idle) == 1, timeout=30)
    assert [thread for thread, _ in server._idle] \
        == _connection_threads(before)
    assert get(f"http://127.0.0.1:{server.port}/healthz")[0] == 200


class _HungUpWriter:
    """A handler's ``wfile`` after its client went away: every write
    raises ``error``."""

    def __init__(self, wfile, error):
        self._wfile = wfile
        self._error = error
        self.closed = False

    def write(self, data):
        raise self._error

    def flush(self):
        pass

    def close(self):
        self.closed = True
        self._wfile.close()


@pytest.mark.parametrize("streamed", [False, True],
                         ids=["plain", "streamed"])
@pytest.mark.parametrize("error, reported", [
    (BrokenPipeError(32, "Broken pipe"), False),
    (ConnectionResetError(104, "Connection reset by peer"), False),
    (RuntimeError("not a hang-up"), True)],
    ids=["broken-pipe", "reset", "other"])
def test_a_client_that_hung_up_is_not_an_error(
        base, server, monkeypatch, capfd, streamed, error, reported):
    """A response the client is no longer there to read ends the
    connection quietly; any other failure still reaches handle_error,
    and either way the next request is served."""
    hung_up = []
    setup = ReproRequestHandler.setup

    def hung_up_once(handler):
        setup(handler)
        if not hung_up:
            hung_up.append(handler)
            handler.wfile = _HungUpWriter(handler.wfile, error)

    monkeypatch.setattr(ReproRequestHandler, "setup", hung_up_once)
    if streamed:
        handle = server.app.handle

        def streaming_handle(method, path, body=b"", trace=None):
            if path == "/stream":
                return Response(200, b"", stream=iter([b"{}\n"]))
            return handle(method, path, body, trace=trace)

        monkeypatch.setattr(server.app, "handle", streaming_handle)
    with pytest.raises(OSError):
        get(base + ("/stream" if streamed else "/healthz"))
    assert get(base + "/healthz")[0] == 200
    err = capfd.readouterr().err
    assert ("Exception occurred during processing of request" in err) \
        == reported
    assert ("Traceback" in err) == reported


SAMPLE_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
rz(0.5) q[2];
cx q[2],q[3];
"""


def _post_circuit(base_url, text):
    status, headers, body = post_text(base_url + "/circuits", text)
    return status, headers, json.loads(body)


class TestCircuitsEndpoint:
    def test_upload_is_idempotent(self, base):
        status, headers, first = _post_circuit(base, SAMPLE_QASM)
        assert status == 200
        assert first["created"] is True
        assert first["ref"] == f"circuit:{first['digest']}"
        assert headers["X-Repro-Circuit"] == first["digest"]
        # Same content, different comments: same address, not created.
        _, _, again = _post_circuit(base, "// note\n" + SAMPLE_QASM)
        assert again["digest"] == first["digest"]
        assert again["created"] is False

    def test_get_returns_canonical_text(self, base):
        from repro.circuits import from_qasm, to_qasm

        _, _, uploaded = _post_circuit(base, SAMPLE_QASM)
        status, headers, body = get(f"{base}/circuits/{uploaded['digest']}")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body.decode("utf-8") == to_qasm(from_qasm(SAMPLE_QASM))

    def test_listing_reports_uploads(self, base):
        _, _, uploaded = _post_circuit(base, SAMPLE_QASM)
        _, _, body = get(f"{base}/circuits")
        listing = json.loads(body)["circuits"]
        assert uploaded["digest"] in {row["digest"] for row in listing}

    def test_malformed_qasm_is_a_400_with_the_line(self, base):
        error = _http_error(request, base + "/circuits",
                            b"OPENQASM 2.0;\nqreg q[2];\nbad q[0];")
        assert error.code == 400
        assert "line 3" in _error_message(error)

    def test_unknown_and_malformed_digest(self, base):
        assert _http_error(get, f"{base}/circuits/{'ab' * 32}").code == 404
        assert _http_error(get, f"{base}/circuits/nothex").code == 400

    def test_run_against_digest_cold_then_warm(self, base):
        """The acceptance path: POST /circuits, then POST /run naming
        the digest — cold computes, warm replays byte-identically from
        the store."""
        _, _, uploaded = _post_circuit(base, SAMPLE_QASM)
        params = {"workload": uploaded["ref"], "mids": [2.0]}
        status, cold_headers, cold = post(
            base + "/run", experiment="workload-metrics", quick=True,
            params=params, wait=True)
        assert status == 200
        assert cold_headers["X-Repro-Store"] == "miss"
        status, warm_headers, warm = post(
            base + "/run", experiment="workload-metrics", quick=True,
            params=params, wait=True)
        assert warm_headers["X-Repro-Store"] == "hit"
        assert warm == cold
        envelope = json.loads(cold)
        assert envelope["data"]["fields"]["workload"] == uploaded["ref"]
        assert envelope["data"]["fields"]["realized_size"] == 4

    def test_run_against_unknown_digest_is_a_400(self, base):
        error = _http_error(
            post, base + "/run", experiment="workload-metrics", quick=True,
            params={"workload": f"circuit:{'ab' * 32}"}, wait=True)
        assert error.code == 400
        assert "upload" in _error_message(error)

    @pytest.mark.parametrize("where", ["base", "axes"])
    def test_sweep_over_unknown_digest_is_a_400(self, base, where):
        """A digest the server never stored is refused before any cell
        is queued, whether the sweep fixes it or sweeps over it."""
        ref = f"circuit:{'cd' * 32}"
        fields = {"base": {"mids": [2.0]}, "axes": {"rng": [0, 1]}}
        if where == "base":
            fields["base"]["workload"] = ref
        else:
            fields["axes"]["workload"] = ["bv", ref]

        def counts():
            metrics = json.loads(get(f"{base}/metrics")[2])
            return metrics["jobs"]["submitted"], metrics["sweeps"]["submitted"]

        before = counts()
        error = _http_error(post, base + "/sweeps",
                            experiment="workload-metrics", quick=True,
                            **fields)
        assert error.code == 400
        payload = json.loads(error.read())
        assert payload["error_type"] == "KeyError"
        assert "upload" in payload["error"]
        assert counts() == before

    def test_sweep_over_uploaded_circuit_dedups_cells(self, base):
        """A sweep whose cells name an uploaded digest expands, runs,
        and replays against the store like any named-benchmark sweep."""
        from repro.api import RemoteSession, SweepSpec

        _, _, uploaded = _post_circuit(base, SAMPLE_QASM)
        remote = RemoteSession(base)
        spec = SweepSpec("workload-metrics", axes={"rng": (0, 1)},
                         base={"workload": uploaded["ref"],
                               "mids": (2.0,)}, quick=True)
        first = remote.run_sweep(spec)
        assert len(first.results) == 2
        again = remote.run_sweep(spec)
        assert again.to_dict() == first.to_dict()
        assert remote.hits == 2  # the overlap replayed from the store

    def test_remote_session_circuit_helpers(self, base):
        from repro.api import RemoteSession
        from repro.circuits import from_qasm, to_qasm

        remote = RemoteSession(base)
        digest = remote.upload_circuit(SAMPLE_QASM)
        assert remote.circuit_qasm(digest) == to_qasm(from_qasm(SAMPLE_QASM))
        with pytest.raises(ValueError):
            remote.upload_circuit("OPENQASM 2.0;\nqreg q[1];\nbad q[0];")
        with pytest.raises(KeyError):
            remote.circuit_qasm("ab" * 32)

    def test_metrics_reports_the_circuit_store(self, base):
        _post_circuit(base, SAMPLE_QASM)
        _, _, body = get(f"{base}/metrics")
        metrics = json.loads(body)
        assert metrics["circuit_store"]["entries"] >= 1
        assert metrics["circuits"]["uploaded"] >= 1
