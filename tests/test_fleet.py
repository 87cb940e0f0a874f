"""Tests for the distributed worker fleet (repro.fleet + repro.serve).

The acceptance contract: with the server running and fleet workers
attached, N concurrent identical ``POST /run`` requests execute exactly
one job on exactly one worker; killing the worker that holds the lease
mid-execution reclaims the lease and the job completes on the survivor,
with stored envelope bytes identical to in-process execution.  The
dead-worker shapes (claim, stop heartbeating, expire, second claimant
completes exactly once) are exercised both at queue level with a fake
clock — no sleeps — and over a real socket with a real lease timeout.
"""

import dataclasses
import functools
import json
import threading
import time
import urllib.request

import pytest

from repro.__main__ import main
from repro.api import ResultStore, Session, all_experiments
from repro.api.session import install_default
from repro.fleet import FleetWorker, LeaseLost, LeaseTable, WorkerClient
from repro.serve import build_server
from repro.serve.jobs import DONE, FAILED, QUEUED, RUNNING, JobQueue


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLeaseTable:
    def _table(self, ttl=10.0):
        clock = FakeClock()
        return LeaseTable(ttl=ttl, clock=clock), clock

    def test_grant_and_heartbeat_renew(self):
        table, clock = self._table(ttl=10.0)
        lease = table.grant("j1", "w1")
        assert lease.expires_in(clock()) == pytest.approx(10.0)
        clock.advance(8.0)
        assert table.heartbeat("j1", "w1") == pytest.approx(10.0)
        clock.advance(8.0)  # 16s after grant: alive only thanks to renewal
        assert table.heartbeat("j1", "w1") == pytest.approx(10.0)
        assert table.get("j1").heartbeats == 2

    def test_missed_heartbeats_expire_the_lease(self):
        table, clock = self._table(ttl=10.0)
        table.grant("j1", "w1")
        clock.advance(10.0)
        with pytest.raises(LeaseLost, match="expired"):
            table.heartbeat("j1", "w1")
        expired = table.pop_expired()
        assert [lease.job_id for lease in expired] == ["j1"]
        assert table.pop_expired() == []
        assert table.expired_total == 1

    def test_wrong_worker_is_rejected(self):
        table, _ = self._table()
        table.grant("j1", "w1")
        with pytest.raises(LeaseLost, match="leased to w1"):
            table.heartbeat("j1", "w2")
        with pytest.raises(LeaseLost, match="leased to w1"):
            table.release("j1", "w2")

    def test_release_then_heartbeat_is_lost(self):
        table, _ = self._table()
        table.grant("j1", "w1")
        table.release("j1", "w1")
        with pytest.raises(LeaseLost, match="no lease"):
            table.heartbeat("j1", "w1")

    def test_live_lease_cannot_be_double_granted(self):
        table, clock = self._table(ttl=10.0)
        table.grant("j1", "w1")
        with pytest.raises(LeaseLost, match="already leased"):
            table.grant("j1", "w2")
        clock.advance(11.0)  # ...but an expired one can be re-granted
        lease = table.grant("j1", "w2")
        assert lease.worker == "w2"

    def test_release_after_expiry_is_lost(self):
        table, clock = self._table(ttl=5.0)
        table.grant("j1", "w1")
        clock.advance(6.0)
        with pytest.raises(LeaseLost, match="expired"):
            table.release("j1", "w1")

    def test_describe_and_active(self):
        table, clock = self._table(ttl=5.0)
        table.grant("j1", "w1")
        table.grant("j2", "w2")
        clock.advance(6.0)
        table.grant("j3", "w3")
        assert table.active() == 1
        held = table.describe()["held"]
        assert [entry["job"] for entry in held] == ["j3"]

    def test_ttl_validated(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0)


@functools.lru_cache(maxsize=None)
def _envelope_json() -> str:
    return json.dumps(Session().run("validation", quick=True).to_dict())


def envelope():
    """A fresh copy of a real ``validation`` envelope, as it travels
    over JSON: the queue refuses a completion that
    ``ExperimentResult.from_dict`` rejects."""
    return json.loads(_envelope_json())


class TestJobQueueFleet:
    """Fleet dispatch at queue level: fake clock, no sockets, no sleeps."""

    def _queue(self, tmp_path, ttl=10.0):
        store = ResultStore(str(tmp_path / "store"))
        queue = JobQueue(lambda: None, workers=0, store=store,
                         lease_ttl=ttl)
        clock = FakeClock()
        queue.leases = LeaseTable(ttl=ttl, clock=clock)
        return queue, clock, store

    def test_claim_on_empty_queue_returns_none(self, tmp_path):
        queue, _, _ = self._queue(tmp_path)
        try:
            assert queue.claim("w1") is None
        finally:
            queue.shutdown()

    def test_claim_execute_complete_lifecycle(self, tmp_path):
        queue, _, store = self._queue(tmp_path)
        try:
            job, coalesced = queue.submit("validation", "k1", True, {})
            assert not coalesced and job.status == QUEUED
            claimed = queue.claim("w1")
            assert claimed is job
            assert (job.status, job.worker, job.attempts) == (RUNNING,
                                                              "w1", 1)
            assert queue.claim("w2") is None  # nothing else queued
            assert queue.heartbeat("w1", job.id) > 0
            queue.complete("w1", job.id, envelope=envelope(),
                           wall_s=1.5, tasks_executed=42)
            assert job.status == DONE
            assert job.wait(timeout=5)
            assert job.envelope == envelope()
            assert (job.wall_s, job.tasks_executed) == (1.5, 42)
            # The envelope landed in the shared store under the job key.
            assert store.get("k1") == envelope()
            snapshot = queue.metrics.snapshot()["fleet"]
            assert snapshot["claims"] == 1
            assert snapshot["completions"] == 1
            assert snapshot["leases_reclaimed"] == 0
        finally:
            queue.shutdown()

    def test_duplicate_submit_coalesces_onto_leased_job(self, tmp_path):
        queue, _, _ = self._queue(tmp_path)
        try:
            job, _ = queue.submit("validation", "k1", True, {})
            queue.claim("w1")
            duplicate, coalesced = queue.submit("validation", "k1", True, {})
            assert coalesced and duplicate is job
        finally:
            queue.shutdown()

    def test_error_complete_fails_the_job(self, tmp_path):
        queue, _, store = self._queue(tmp_path)
        try:
            job, _ = queue.submit("validation", "k1", True, {})
            queue.claim("w1")
            queue.complete("w1", job.id, error="RuntimeError: boom")
            assert job.status == FAILED
            assert job.error == "RuntimeError: boom"
            assert store.get("k1") is None
            # The key is no longer in flight: a resubmit starts fresh.
            retry, coalesced = queue.submit("validation", "k1", True, {})
            assert not coalesced and retry is not job
        finally:
            queue.shutdown()

    def test_dead_worker_reclaim_completes_exactly_once(self, tmp_path):
        """The satellite shape: claim, stop heartbeating, expire; the
        second worker claims and completes the same job exactly once,
        and the first worker's late result is refused."""
        queue, clock, store = self._queue(tmp_path, ttl=10.0)
        try:
            job, _ = queue.submit("validation", "k1", True, {})
            assert queue.claim("w1") is job
            clock.advance(5.0)
            queue.heartbeat("w1", job.id)   # w1 was alive at first...
            clock.advance(10.0)             # ...then silently died
            with pytest.raises(LeaseLost):
                queue.heartbeat("w1", job.id)
            assert queue.reap_expired() == 1
            assert (job.status, job.worker) == (QUEUED, None)
            survivor = queue.claim("w2")
            assert survivor is job and job.attempts == 2
            # The zombie wakes up and tries to report — refused.
            with pytest.raises(LeaseLost):
                queue.complete("w1", job.id, envelope=envelope())
            assert job.status == RUNNING
            queue.complete("w2", job.id, envelope=envelope())
            assert job.status == DONE and job.worker == "w2"
            # ...and the survivor's completion was the only one.
            with pytest.raises(LeaseLost, match="already completed"):
                queue.complete("w2", job.id, envelope=envelope())
            assert store.get("k1") == envelope()
            snapshot = queue.metrics.snapshot()["fleet"]
            assert snapshot["claims"] == 2
            assert snapshot["completions"] == 1
            assert snapshot["leases_reclaimed"] == 1
            fleet = queue.describe_fleet()
            assert fleet["workers"]["w1"]["leases_lost"] == 1
            assert fleet["workers"]["w2"]["completions"] == 1
        finally:
            queue.shutdown()

    def test_reclaimed_job_releases_waiters_only_once_done(self, tmp_path):
        queue, clock, _ = self._queue(tmp_path, ttl=10.0)
        try:
            job, _ = queue.submit("validation", "k1", True, {})
            queue.claim("w1")
            clock.advance(11.0)
            queue.reap_expired()
            assert not job.wait(timeout=0.05)  # reclaim is not completion
            queue.claim("w2")
            queue.complete("w2", job.id, envelope=envelope())
            assert job.wait(timeout=5)
        finally:
            queue.shutdown()

    def test_heartbeat_unknown_job_is_key_error(self, tmp_path):
        queue, _, _ = self._queue(tmp_path)
        try:
            with pytest.raises(KeyError):
                queue.heartbeat("w1", "nope")
            with pytest.raises(KeyError):
                queue.complete("w1", "nope", envelope={})
        finally:
            queue.shutdown()

    def test_claim_after_shutdown_returns_none(self, tmp_path):
        queue, _, _ = self._queue(tmp_path)
        queue.submit("validation", "k1", True, {})
        queue.shutdown()
        assert queue.claim("w1") is None

    def test_local_threads_and_leases_coexist(self, tmp_path):
        """Hybrid mode: a queue with local workers still accepts fleet
        completions for jobs a remote worker claimed first."""
        gate = threading.Event()

        class GatedSession:
            tasks_executed = 0

            def run(self, experiment, quick=False, force=False, **params):
                gate.wait(timeout=10)
                result = type("R", (), {})()
                result.to_dict = lambda: envelope()
                return result

        store = ResultStore(str(tmp_path / "store"))
        queue = JobQueue(GatedSession, workers=1, store=store)
        try:
            # Local thread takes the first job and parks on the gate.
            local_job, _ = queue.submit("validation", "k-local", True, {})
            deadline = time.time() + 5
            while local_job.status == QUEUED and time.time() < deadline:
                time.sleep(0.01)
            # A remote worker claims the second job meanwhile.
            remote_job, _ = queue.submit("validation", "k-remote", True, {})
            assert queue.claim("w1") is remote_job
            queue.complete("w1", remote_job.id, envelope=envelope())
            gate.set()
            assert local_job.wait(timeout=10) and remote_job.wait(timeout=10)
            assert local_job.status == DONE and remote_job.status == DONE
        finally:
            gate.set()
            queue.shutdown()


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, dict(response.headers), response.read()


def _post(base, path, **payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


def _wait_for_job(base, job_id, timeout=60):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, _, body = _get(base + f"/jobs/{job_id}")
        job = json.loads(body)
        if job["status"] in (DONE, FAILED):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


LEASE_TTL = 1.0


class TestFleetOverHTTP:
    """The full stack: fleet-only server (workers=0), real sockets,
    in-process FleetWorker pull loops."""

    @pytest.fixture
    def server(self, tmp_path):
        srv = build_server("127.0.0.1", 0, str(tmp_path / "store"),
                           str(tmp_path / "cache"), workers=0, quiet=True,
                           lease_ttl=LEASE_TTL)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.close()
        thread.join(timeout=5)

    @pytest.fixture
    def base(self, server):
        return f"http://127.0.0.1:{server.port}"

    def _worker(self, base, tmp_path, name, **kwargs):
        """A FleetWorker with its own store/cache (nothing shared with
        the server except HTTP), proving results travel the wire."""
        def session_factory():
            return Session(jobs=1,
                           cache_dir=str(tmp_path / f"{name}-cache"),
                           store_dir=str(tmp_path / f"{name}-store"))

        kwargs.setdefault("poll_interval", 0.05)
        return FleetWorker(base, session_factory, worker_id=name, **kwargs)

    def test_fleet_worker_executes_submitted_job(self, base, server,
                                                 tmp_path, capsys):
        status, headers, body = _post(base, "/run", experiment="validation",
                                      quick=True, wait=False)
        assert status == 202
        job_id = json.loads(body)["id"]
        key = headers["X-Repro-Key"]

        worker = self._worker(base, tmp_path, "w-solo")
        done = worker.run(max_jobs=1)
        assert done == 1 and worker.jobs_done == 1

        job = _wait_for_job(base, job_id)
        assert job["status"] == DONE
        assert job["worker"] == "w-solo"
        assert job["tasks_executed"] > 0

        # The envelope the worker shipped over HTTP is served by the
        # server byte-identical to a fresh storeless CLI run.
        _, _, served = _get(base + f"/results/{key}")
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out.encode() == served

    def test_wait_true_post_blocks_until_fleet_completion(self, base,
                                                          tmp_path):
        worker = self._worker(base, tmp_path, "w-wait")
        thread = threading.Thread(target=worker.run,
                                  kwargs={"max_jobs": 1}, daemon=True)
        thread.start()
        try:
            status, headers, body = _post(base, "/run",
                                          experiment="validation",
                                          quick=True, wait=True)
            assert status == 200
            assert headers["X-Repro-Store"] == "miss"
            assert json.loads(body)["experiment"] == "validation"
        finally:
            worker.stop_event.set()
            thread.join(timeout=10)

    def test_concurrent_identical_posts_one_execution_one_worker(
            self, base, server, tmp_path, monkeypatch):
        """Acceptance: N concurrent identical POST /run requests execute
        exactly one job on exactly one worker."""
        from repro.api import registry

        real = registry._SPECS["validation"]
        calls = []

        def counting_runner(**kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.2)
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=counting_runner))
        workers = [self._worker(base, tmp_path, f"w-{i}") for i in range(2)]
        threads = [threading.Thread(target=w.run, daemon=True)
                   for w in workers]
        for thread in threads:
            thread.start()
        bodies, errors = [], []

        def request_once():
            try:
                bodies.append(_post(base, "/run", experiment="validation",
                                    quick=True, wait=True)[2])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        requesters = [threading.Thread(target=request_once)
                      for _ in range(6)]
        try:
            for thread in requesters:
                thread.start()
            for thread in requesters:
                thread.join(timeout=60)
            assert not errors
            assert len(calls) == 1          # one execution...
            assert len(set(bodies)) == 1    # ...one payload for everyone
            # Waiters wake when the server finalizes the job, a moment
            # before the worker's complete() response lands — poll.
            deadline = time.time() + 5
            while (sum(w.jobs_done for w in workers) < 1
                   and time.time() < deadline):
                time.sleep(0.01)
            assert sum(w.jobs_done for w in workers) == 1  # ...one worker
        finally:
            for worker in workers:
                worker.stop_event.set()
            for thread in threads:
                thread.join(timeout=10)
        snapshot = server.app.metrics.snapshot()
        assert snapshot["jobs"]["coalesced"] >= 1
        assert snapshot["fleet"]["completions"] == 1

    def test_killed_worker_mid_lease_job_completes_on_survivor(
            self, base, server, tmp_path, capsys):
        """Acceptance: the worker holding the lease dies without a
        word (SIGKILL semantics: claim, then silence); the lease
        expires, the job requeues, and the survivor completes it —
        bytes identical to in-process execution."""
        # The "victim" claims by hand and then never speaks again.
        victim = WorkerClient(base, "w-victim")
        status, headers, body = _post(base, "/run", experiment="validation",
                                      quick=True, wait=False)
        job_id = json.loads(body)["id"]
        key = headers["X-Repro-Key"]
        claimed = victim.claim()
        assert claimed is not None and claimed["id"] == job_id
        assert claimed["attempt"] == 1
        assert claimed["lease_ttl_s"] == LEASE_TTL

        survivor = self._worker(base, tmp_path, "w-survivor")
        thread = threading.Thread(target=survivor.run,
                                  kwargs={"max_jobs": 1}, daemon=True)
        thread.start()
        try:
            job = _wait_for_job(base, job_id, timeout=60)
        finally:
            survivor.stop_event.set()
            thread.join(timeout=10)
        assert job["status"] == DONE
        assert job["worker"] == "w-survivor"
        assert job["attempts"] == 2

        # The zombie's late completion is refused (409 LeaseLost).
        with pytest.raises(LeaseLost):
            victim.complete(job_id, envelope={"experiment": "validation"})

        # Stored bytes identical to a fresh in-process CLI run.
        _, _, served = _get(base + f"/results/{key}")
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out.encode() == served

        metrics = json.loads(_get(base + "/metrics")[2])
        assert metrics["fleet"]["leases_reclaimed"] == 1
        assert metrics["fleet"]["claims"] == 2
        assert metrics["fleet"]["completions"] == 1
        workers = metrics["fleet_workers"]["workers"]
        assert workers["w-victim"]["leases_lost"] == 1
        assert workers["w-survivor"]["completions"] == 1

    def test_failed_execution_reports_failed_job(self, base, tmp_path,
                                                 monkeypatch):
        import dataclasses as dc

        from repro.api import registry

        real = registry._SPECS["validation"]

        def exploding_runner(**kwargs):
            raise RuntimeError("fleet backend exploded")

        monkeypatch.setitem(registry._SPECS, "validation",
                            dc.replace(real, runner=exploding_runner))
        _, _, body = _post(base, "/run", experiment="validation",
                           quick=True, wait=False)
        job_id = json.loads(body)["id"]
        worker = self._worker(base, tmp_path, "w-fail")
        worker.run(max_jobs=1)
        job = _wait_for_job(base, job_id)
        assert job["status"] == FAILED
        assert "fleet backend exploded" in job["error"]

    def test_claim_validation(self, base):
        request = urllib.request.Request(
            base + "/fleet/claim", data=b"{}",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "worker" in json.loads(excinfo.value.read())["error"]

    def test_heartbeat_unknown_job_404(self, base):
        client = WorkerClient(base, "w-x")
        with pytest.raises(RuntimeError, match="404"):
            client.heartbeat("nope")

    def test_idle_claim_returns_null_job(self, base):
        assert WorkerClient(base, "w-idle").claim() is None


class TestWorkerCLI:
    """One full-process smoke: `serve --port 0 --jobs 0` plus
    `python -m repro worker --max-jobs 1` in real subprocesses."""

    def test_worker_process_drains_a_job(self, tmp_path):
        import os
        import pathlib
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(__file__).parent.parent / "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "server-store"), "--no-cache",
             "--jobs", "0", "--quiet"],
            env=env, stderr=subprocess.PIPE, text=True)
        worker = None
        try:
            first = server.stderr.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", first).group(1))
            base = f"http://127.0.0.1:{port}"
            _, headers, body = _post(base, "/run", experiment="validation",
                                     quick=True, wait=False)
            job_id = json.loads(body)["id"]
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--server", base, "--jobs", "1", "--max-jobs", "1",
                 "--store", str(tmp_path / "worker-store"), "--no-cache",
                 "--poll", "0.1", "--id", "w-cli", "--quiet"],
                env=env, stderr=subprocess.PIPE, text=True)
            _, worker_err = worker.communicate(timeout=120)
            assert worker.returncode == 0, worker_err
            assert "drained: 1 job(s) completed" in worker_err
            job = _wait_for_job(base, job_id)
            assert job["status"] == DONE
            assert job["worker"] == "w-cli"
            key = headers["X-Repro-Key"]
            assert _get(base + f"/results/{key}")[0] == 200
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=15) == 130
        finally:
            for process in (worker, server):
                if process is not None and process.poll() is None:
                    process.kill()
            server.stderr.close()
            if worker is not None and worker.stderr:
                worker.stderr.close()

    def test_worker_argument_validation(self, capsys):
        assert main(["worker", "--server", "http://x", "--jobs", "0",
                     "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["worker", "--server", "ftp://x", "--no-cache"]) == 2
        assert "--server" in capsys.readouterr().err


import urllib.error  # noqa: E402  (used by TestFleetOverHTTP above)


class TestFleetCircuitFetch:
    """Content-addressed workloads across the fleet: a worker whose
    local circuit store has never seen a digest fetches it from the
    server, verifies it, caches it, and completes the job with envelope
    bytes identical to a local run holding the same circuit."""

    QASM = ("OPENQASM 2.0;\n"
            "qreg q[4];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
            "rz(0.25) q[2];\n"
            "cx q[2],q[3];\n")

    @pytest.fixture
    def server(self, tmp_path):
        srv = build_server("127.0.0.1", 0, str(tmp_path / "store"),
                           str(tmp_path / "cache"), workers=0, quiet=True,
                           lease_ttl=LEASE_TTL)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.close()
        thread.join(timeout=5)

    @pytest.fixture
    def base(self, server):
        return f"http://127.0.0.1:{server.port}"

    def _upload(self, base):
        request = urllib.request.Request(
            base + "/circuits", data=self.QASM.encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
            method="POST")
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())["digest"]

    def _worker(self, base, tmp_path, name):
        from repro.api.circuits import CircuitStore

        circuits = CircuitStore(str(tmp_path / f"{name}-circuits"))

        def session_factory():
            return Session(jobs=1,
                           cache_dir=str(tmp_path / f"{name}-cache"),
                           store_dir=str(tmp_path / f"{name}-store"),
                           circuits=circuits)

        worker = FleetWorker(base, session_factory, worker_id=name,
                             poll_interval=0.05)
        return worker, circuits

    def test_empty_store_worker_fetches_and_matches_local_run(
            self, base, tmp_path):
        digest = self._upload(base)
        params = {"workload": f"circuit:{digest}", "mids": [2.0]}
        status, headers, body = _post(base, "/run",
                                      experiment="workload-metrics",
                                      quick=True, params=params, wait=False)
        assert status == 202
        job_id = json.loads(body)["id"]
        key = headers["X-Repro-Key"]

        worker, circuits = self._worker(base, tmp_path, "w-fetch")
        assert not circuits.has(digest)  # genuinely cold
        assert worker.run(max_jobs=1) == 1

        job = _wait_for_job(base, job_id)
        assert job["status"] == DONE
        # The fetched program landed in the worker's local store, byte-
        # identical to the server's canonical text.
        assert circuits.has(digest)
        _, _, served_qasm = _get(base + f"/circuits/{digest}")
        assert circuits.get_qasm(digest) == served_qasm.decode("utf-8")

        # Envelope bytes == a purely local run holding the same circuit.
        local = Session(circuit_dir=str(tmp_path / "local-circuits"))
        assert local.circuits.add(self.QASM) == digest
        local_result = local.run("workload-metrics", quick=True,
                                 workload=f"circuit:{digest}", mids=(2.0,))
        _, _, served = _get(base + f"/results/{key}")
        from repro.api.store import canonical_json

        assert served.decode("utf-8") == canonical_json(
            local_result.to_dict())

    def test_second_job_reuses_the_cached_circuit(self, base, tmp_path):
        digest = self._upload(base)
        worker, circuits = self._worker(base, tmp_path, "w-warm")
        for rng in (0, 1):
            params = {"workload": f"circuit:{digest}", "mids": [2.0],
                      "rng": rng}
            _post(base, "/run", experiment="workload-metrics",
                  quick=True, params=params, wait=False)
        assert worker.run(max_jobs=2) == 2
        assert worker.jobs_done == 2
        assert circuits.stats()["entries"] == 1  # fetched exactly once

    def test_fetch_of_unknown_digest_is_a_runtime_error(self, base):
        client = WorkerClient(base, "w-miss")
        with pytest.raises(RuntimeError, match="404"):
            client.fetch_circuit("ab" * 32)

    def test_mismatched_fetch_is_refused(self, base, tmp_path,
                                         monkeypatch):
        """A server returning bytes that do not digest to what the job
        named must fail the job, not execute the wrong program."""
        digest = self._upload(base)
        params = {"workload": f"circuit:{digest}", "mids": [2.0]}
        _, _, body = _post(base, "/run", experiment="workload-metrics",
                           quick=True, params=params, wait=False)
        job_id = json.loads(body)["id"]

        worker, circuits = self._worker(base, tmp_path, "w-tamper")
        monkeypatch.setattr(
            WorkerClient, "fetch_circuit",
            lambda self, d: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
        assert worker.run(max_jobs=1) == 1
        job = _wait_for_job(base, job_id)
        assert job["status"] == FAILED
        assert "digest" in job["error"]
