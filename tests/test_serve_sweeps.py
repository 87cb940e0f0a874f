"""Tests for sweep-as-a-service (repro.serve.sweeps + the /sweeps routes).

The contracts under test, transport-free and over a real socket:

* ``POST /sweeps`` expands server-side and fans out one job per cell;
  two overlapping grids execute each shared cell exactly once (store
  short-circuit + in-flight dedup).
* ``GET /sweeps/<id>/stream`` delivers each cell's envelope the moment
  it finalizes, and those envelopes re-render byte-identically to the
  CLI's ``--format json`` output.
* Edge cases: a disconnecting stream consumer leaks nothing, a
  restarted server answers a resubmitted sweep entirely from its store
  (zero tasks), and an all-hit sweep streams instantly in canonical
  cell order.
"""

import dataclasses
import json
import time
import types

import pytest

from repro.__main__ import main
from repro.api import RemoteRunError, Session, SweepSpec
from repro.api.session import install_default
from repro.api.store import ResultStore, canonical_json
from repro.exec.cache import CompileCache
from repro.serve.app import ServeApp
from repro.serve.jobs import DONE, JobQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.sweeps import SweepRecord, SweepTable


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


FAST = "ext-trapped-ion"


def _build_app(store_dir, workers=2):
    store = ResultStore(str(store_dir))
    cache = CompileCache(None)
    metrics = ServeMetrics()
    jobs = JobQueue(lambda: Session(jobs=1, cache=cache, store=store),
                    workers=workers, metrics=metrics, store=store)
    return ServeApp(store=store, jobs=jobs, metrics=metrics)


@pytest.fixture
def app(tmp_path):
    built = _build_app(tmp_path / "store")
    yield built
    built.jobs.shutdown(wait=True)


def _post_sweep(app, **payload):
    return app.handle("POST", "/sweeps", json.dumps(payload).encode())


def _sweep_body(experiment=FAST, **extra):
    return {"experiment": experiment, "quick": True, **extra}


def _stream_lines(app, sweep_id):
    response = app.handle("GET", f"/sweeps/{sweep_id}/stream")
    assert response.stream is not None
    return [json.loads(chunk) for chunk in response.stream]


class TestSubmitAndStatus:
    def test_submit_expands_and_reports_cells(self, app):
        response = _post_sweep(
            app, **_sweep_body(axes={"program_size": [10, 20]}))
        assert response.status == 202
        payload = json.loads(response.body)
        assert payload["total"] == 2
        assert [cell["index"] for cell in payload["cells"]] == [0, 1]
        assert all(len(cell["key"]) == 64 for cell in payload["cells"])
        assert response.headers["X-Repro-Sweep"] == payload["id"]

        status = app.handle("GET", f"/sweeps/{payload['id']}")
        assert status.status == 200
        described = json.loads(status.body)
        assert described["total"] == 2
        assert described["stream_url"].endswith(
            f"/sweeps/{payload['id']}/stream")

    def test_validation_errors(self, app):
        assert app.handle("POST", "/sweeps", b"{ nope").status == 400
        assert _post_sweep(app, experiment="fig99").status == 404
        response = _post_sweep(
            app, **_sweep_body(axes={"bogus": [1]}))
        assert response.status == 400
        assert json.loads(response.body)["error_type"] == "TypeError"
        response = _post_sweep(
            app, **_sweep_body(axes={"program_size": []}))
        assert response.status == 400
        assert json.loads(response.body)["error_type"] == "ValueError"
        assert app.handle("GET", "/sweeps/nope").status == 404
        assert app.handle("GET", "/sweeps/nope/stream").status == 404

    def test_stream_yields_each_cell_then_summary(self, app):
        sweep_id = json.loads(_post_sweep(
            app, **_sweep_body(axes={"program_size": [10, 20]})).body)["id"]
        lines = _stream_lines(app, sweep_id)
        assert len(lines) == 3
        cells, summary = lines[:-1], lines[-1]
        assert {record["index"] for record in cells} == {0, 1}
        for record in cells:
            assert record["status"] == DONE
            assert record["envelope"]["experiment"] == FAST
        assert summary == {"sweep": sweep_id, "total": 2, "done": 2,
                           "failed": 0}


class TestDedupAndReplay:
    def test_overlapping_sweeps_execute_shared_cell_once(
            self, app, monkeypatch):
        """Two grids sharing a cell -> that cell runs exactly once."""
        from repro.api import registry

        real = registry._SPECS[FAST]
        calls = []

        def counting_runner(**kwargs):
            calls.append(kwargs.get("program_size"))
            time.sleep(0.3)  # hold jobs open so the sweeps overlap
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, FAST,
                            dataclasses.replace(real,
                                                runner=counting_runner))
        first = json.loads(_post_sweep(
            app, **_sweep_body(axes={"program_size": [10, 20]})).body)
        second = json.loads(_post_sweep(
            app, **_sweep_body(axes={"program_size": [20, 30]})).body)
        for sweep_id in (first["id"], second["id"]):
            assert app.sweeps.get(sweep_id).wait(timeout=60)
        # Four distinct keys across both grids, three executions: the
        # shared program_size=20 cell ran exactly once.
        assert sorted(calls) == [10, 20, 30]
        snapshot = app.metrics.snapshot()["sweeps"]
        assert snapshot["submitted"] == 2
        assert snapshot["cells_total"] == 4
        assert snapshot["cells_hit"] + snapshot["cells_queued"] == 4
        # The shared cell either coalesced onto the in-flight job or
        # (if the first sweep finished first) hit the store.
        assert snapshot["cells_coalesced"] + snapshot["cells_hit"] >= 1
        # Both sweeps streamed the same envelope for the shared key.
        shared_key = SweepSpec(FAST, axes={"program_size": (20,)},
                               quick=True).keys()[0]
        envelopes = []
        for sweep_id in (first["id"], second["id"]):
            for record in _stream_lines(app, sweep_id)[:-1]:
                if record["key"] == shared_key:
                    envelopes.append(canonical_json(record["envelope"]))
        assert len(envelopes) == 2 and envelopes[0] == envelopes[1]

    def test_all_hit_sweep_streams_instantly_in_canonical_order(
            self, app):
        body = _sweep_body(axes={"program_size": [10, 20]})
        first = json.loads(_post_sweep(app, **body).body)
        assert app.sweeps.get(first["id"]).wait(timeout=60)

        jobs_before = app.metrics.snapshot()["jobs"]["submitted"]
        resubmitted = json.loads(_post_sweep(app, **body).body)
        # Every cell finalized inside the POST: nothing touched the
        # queue, and the stream replays in canonical cell order.
        assert resubmitted["completed"] == 2
        assert all(cell["source"] == "store"
                   for cell in resubmitted["cells"])
        assert app.metrics.snapshot()["jobs"]["submitted"] == jobs_before
        assert app.metrics.snapshot()["sweeps"]["cells_hit"] == 2
        lines = _stream_lines(app, resubmitted["id"])
        assert [record["index"] for record in lines[:-1]] == [0, 1]
        assert all(record["tasks_executed"] == 0
                   for record in lines[:-1])
        # Same envelope per cell key as the computing pass; only the
        # lifecycle metadata (source, job id, wall time) differs.
        cold = _stream_lines(app, first["id"])
        assert ({r["key"]: r["envelope"] for r in lines[:-1]}
                == {r["key"]: r["envelope"] for r in cold[:-1]})

    def test_force_requeues_stored_cells(self, app):
        body = _sweep_body(axes={"program_size": [10]})
        first = json.loads(_post_sweep(app, **body).body)
        assert app.sweeps.get(first["id"]).wait(timeout=60)
        jobs_before = app.metrics.snapshot()["jobs"]["submitted"]
        forced = json.loads(_post_sweep(app, force=True, **body).body)
        assert app.sweeps.get(forced["id"]).wait(timeout=60)
        assert app.metrics.snapshot()["jobs"]["submitted"] == \
            jobs_before + 1

    def test_restarted_server_answers_sweep_from_store(self, tmp_path):
        """A new app over the same store dir = a server restart: the
        resubmitted sweep finalizes from stored cells, zero tasks."""
        body = _sweep_body(axes={"program_size": [10, 20]})
        before = _build_app(tmp_path / "store")
        try:
            first = json.loads(_post_sweep(before, **body).body)
            assert before.sweeps.get(first["id"]).wait(timeout=60)
        finally:
            before.jobs.shutdown(wait=True)

        after = _build_app(tmp_path / "store")
        try:
            resumed = json.loads(_post_sweep(after, **body).body)
            assert resumed["completed"] == 2
            assert all(cell["source"] == "store"
                       for cell in resumed["cells"])
            assert after.metrics.snapshot()["jobs"]["submitted"] == 0
            lines = _stream_lines(after, resumed["id"])
            assert all(record["tasks_executed"] == 0
                       for record in lines[:-1])
        finally:
            after.jobs.shutdown(wait=True)


class _MissingStore:
    """A result store every cell misses."""

    def replay(self, key, experiment, trace=None):
        return None


class _HeldJobs:
    """A job queue that runs nothing: a sweep's jobs finish when the
    test calls :meth:`finish`."""

    def __init__(self):
        self.metrics = ServeMetrics()
        self._jobs = {}

    def submit(self, experiment, key, quick, params, force=False):
        job = types.SimpleNamespace(
            id=f"job-{len(self._jobs)}", status=DONE, envelope={},
            error=None, tasks_executed=1, wall_s=0.0)
        self._jobs[job.id] = [job, None]
        return job, False

    def on_done(self, job, callback):
        self._jobs[job.id][1] = callback

    def finish(self, record):
        for state in record.cells:
            job, callback = self._jobs[state.job_id]
            callback(job)


class TestRetention:
    """The table keeps every unfinished sweep and the ``max_finished``
    finished sweeps submitted last, whatever order they finish in."""

    def _table(self):
        jobs = _HeldJobs()
        return SweepTable(_MissingStore(), jobs, max_finished=2), jobs

    def test_keeps_the_unfinished_and_the_last_submitted_finished(self):
        table, jobs = self._table()
        spec = SweepSpec(FAST, quick=True)
        a, b, c, d, e = (table.submit(spec) for _ in range(5))

        def tracked(*records):
            return [record for record in records
                    if table.get(record.id) is not None]

        for record in (c, a, e):
            jobs.finish(record)
        # Pruning happens on submit: a is the earliest-submitted of
        # the three finished sweeps.
        assert tracked(a, b, c, d, e) == [a, b, c, d, e]
        f = table.submit(spec)
        assert tracked(a, b, c, d, e, f) == [b, c, d, e, f]
        for record in (f, b, d):
            jobs.finish(record)
        g = table.submit(spec)
        assert tracked(a, b, c, d, e, f, g) == [e, f, g]
        assert table.describe() == {"tracked": 3, "active": 1}

    def test_a_submit_reads_no_other_sweep(self, monkeypatch):
        table, jobs = self._table()
        spec = SweepSpec(FAST, quick=True)
        for _ in range(20):
            jobs.finish(table.submit(spec))
        asked = []
        monkeypatch.setattr(SweepRecord, "finished",
                            lambda record: asked.append(record) or True)
        for _ in range(20):
            table.submit(spec)
        assert asked == []


class TestStreamLifecycle:
    def test_disconnected_consumer_leaks_nothing(self, app, monkeypatch):
        """Closing the stream mid-sweep must not leak jobs: the cells
        finish under queue ownership and the record stays pollable."""
        from repro.api import registry

        real = registry._SPECS[FAST]

        def slow_runner(**kwargs):
            time.sleep(0.2)
            return real.runner(**kwargs)

        monkeypatch.setitem(registry._SPECS, FAST,
                            dataclasses.replace(real, runner=slow_runner))
        sweep_id = json.loads(_post_sweep(
            app, **_sweep_body(axes={"program_size": [10, 20, 30]})).body
        )["id"]
        response = app.handle("GET", f"/sweeps/{sweep_id}/stream")
        first_line = next(response.stream)
        assert json.loads(first_line)["status"] == DONE
        response.stream.close()  # the client hung up

        record = app.sweeps.get(sweep_id)
        assert record.wait(timeout=60)
        queue = app.jobs.describe()
        assert queue["in_flight"] == 0
        assert queue["by_status"].get("queued", 0) == 0
        assert queue["by_status"].get("running", 0) == 0
        # A later consumer still gets the full history.
        lines = _stream_lines(app, sweep_id)
        assert lines[-1]["done"] == 3

    def test_envelope_matches_cli_json_bytes(self, app, tmp_path,
                                             capsys):
        """The streamed envelope re-renders byte-identically to
        ``python -m repro run --format json`` for the same cell."""
        out = tmp_path / "cli.json"
        assert main(["run", "validation", "--quick", "--no-cache",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        sweep_id = json.loads(_post_sweep(
            app, experiment="validation", quick=True).body)["id"]
        lines = _stream_lines(app, sweep_id)
        assert len(lines) == 2
        streamed = canonical_json(lines[0]["envelope"])
        assert streamed.encode() == out.read_bytes()


class TestRemoteSessionSweeps:
    def test_run_sweep_matches_local_session(self, remote, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        over_the_wire = remote.run_sweep(spec)
        local = Session(store_dir=str(tmp_path / "local")).run_sweep(spec)
        assert canonical_json(over_the_wire.to_dict()) == \
            canonical_json(local.to_dict())
        assert remote.misses == 2 and remote.hits == 0

        # Replay: the server answers from its store, counted as hits.
        replayed = remote.run_sweep(spec)
        assert remote.hits == 2
        assert canonical_json(replayed.to_dict()) == \
            canonical_json(local.to_dict())

    def test_iter_sweep_streams_incrementally(self, remote):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        seen = []
        for cell, result in remote.iter_sweep(spec):
            seen.append(cell.index)
            assert result.to_dict()["experiment"] == FAST
        assert sorted(seen) == [0, 1]

    def test_error_mapping(self, remote):
        with pytest.raises(KeyError):
            remote.run_sweep(_unknown_spec())
        with pytest.raises(KeyError):
            remote.sweep("nope")

    def test_failed_cell_raises_remote_run_error(self, remote, server,
                                                 monkeypatch):
        from repro.api import registry

        real = registry._SPECS["validation"]

        def broken_runner(**kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=broken_runner))
        with pytest.raises(RemoteRunError) as excinfo:
            remote.run_sweep(SweepSpec("validation", quick=True))
        assert "injected failure" in str(excinfo.value)


def _unknown_spec():
    """A spec whose experiment the *server* will not know: build it
    against a registered name, then point it at an unknown one."""
    spec = SweepSpec("validation", quick=True)
    spec.experiment = "fig99"
    return spec
