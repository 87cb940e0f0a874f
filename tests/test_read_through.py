"""One read-through path and one compile-cache layer.

Every store hit goes through :meth:`ResultStore.replay` and every miss
through :meth:`ResultStore.save`, so ``Session.run``, ``POST /run``,
sweep cells and fleet completion agree on what a hit is: a stored entry
that ``ExperimentResult.from_dict`` rejects is a miss everywhere, and
the result computed next replaces it.  The fleet refuses an envelope
that does not decode (or names another experiment) before anything is
stored.

The compiled-metrics memo lives on the session's compile cache, so a
fresh session with its own cache does — and reports — its own work.
"""

import json

import pytest

from repro.api import Session
from repro.api.registry import get_experiment
from repro.api.session import install_default
from repro.api.store import ResultStore, canonical_json, store_key
from repro.api.sweep import SweepSpec
from repro.exec.cache import CompileCache
from repro.serve.app import ServeApp
from repro.serve.jobs import DONE, RUNNING, JobQueue
from repro.serve.metrics import ServeMetrics


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


#: Valid JSON object, not a result envelope.
BOGUS = {"bogus": 1}


def _key(experiment, **params):
    spec = get_experiment(experiment)
    return store_key(experiment,
                     spec.resolved_params(quick=True, overrides=params))


def _envelope(experiment, **params):
    """A fresh run's envelope as it travels over JSON."""
    result = Session().run(experiment, quick=True, **params)
    return json.loads(canonical_json(result.to_dict()))


def _fleet_app(tmp_path):
    """A fleet-only server (no local job threads), transport-free."""
    store = ResultStore(str(tmp_path / "store"))
    cache = CompileCache(None)
    metrics = ServeMetrics()
    jobs = JobQueue(lambda: Session(jobs=1, cache=cache, store=store),
                    workers=0, metrics=metrics, store=store)
    return ServeApp(store=store, jobs=jobs, metrics=metrics)


@pytest.fixture
def app(tmp_path):
    built = _fleet_app(tmp_path)
    yield built
    built.jobs.shutdown(wait=True)


def _post(app, path, **payload):
    response = app.handle("POST", path, json.dumps(payload).encode())
    return response, json.loads(response.body) if response.body else None


def _claim(app, worker="w1"):
    _, body = _post(app, "/fleet/claim", worker=worker)
    assert body["job"] is not None
    return body["job"]


def _complete(app, job_id, envelope, worker="w1"):
    return _post(app, "/fleet/complete", worker=worker, job=job_id,
                 envelope=envelope)


class TestUndecodableEntryIsAMiss:
    """``Session.run``'s side of this contract is
    ``tests/test_api_store.py``'s corrupt- and stale-entry tests."""

    def test_post_run_queues_and_the_fleet_result_replaces_it(self, app):
        key = _key("validation")
        app.store.put(key, BOGUS)
        response, body = _post(app, "/run", experiment="validation",
                               quick=True)
        assert response.status == 202
        assert response.headers["X-Repro-Store"] == "miss"
        assert app.store.ledger_entries() == []  # no phantom hit line

        claimed = _claim(app)
        assert claimed["id"] == body["id"]
        envelope = _envelope("validation")
        response, _ = _complete(app, claimed["id"], envelope)
        assert response.status == 200
        assert app.store.get(key) == envelope
        assert [entry["hit"] for entry in app.store.ledger_entries()] \
            == [False]

        response, _ = _post(app, "/run", experiment="validation",
                            quick=True)
        assert response.status == 200
        assert response.headers["X-Repro-Store"] == "hit"
        assert response.body == canonical_json(envelope).encode()

    def test_sweep_cell_queues_and_the_fleet_result_replaces_it(self, app):
        spec = SweepSpec("ext-trapped-ion", axes={"program_size": [10]},
                         quick=True)
        cell_key = spec.cells()[0].key
        app.store.put(cell_key, BOGUS)
        _, body = _post(app, "/sweeps", experiment="ext-trapped-ion",
                        quick=True, axes={"program_size": [10]})
        assert body["completed"] == 0
        assert "job" in body["cells"][0]  # queued, not served
        assert app.store.ledger_entries() == []

        claimed = _claim(app)
        envelope = _envelope("ext-trapped-ion", program_size=10)
        response, _ = _complete(app, claimed["id"], envelope)
        assert response.status == 200
        record = app.sweeps.get(body["id"])
        assert record.wait(timeout=10)
        assert record.describe()["cells"][0]["source"] == "computed"
        assert app.store.get(cell_key) == envelope


class TestFleetCompletion:
    def test_forced_rerun_replaces_a_differing_entry(self, app):
        key = _key("ext-trapped-ion")
        # Decodable, same experiment, different bytes.
        app.store.put(key, _envelope("ext-trapped-ion", program_size=10))
        response, _ = _post(app, "/run", experiment="ext-trapped-ion",
                            quick=True, force=True)
        assert response.status == 202
        claimed = _claim(app)
        assert claimed["force"] is True
        envelope = _envelope("ext-trapped-ion")
        _complete(app, claimed["id"], envelope)
        assert app.store.get(key) == envelope
        assert [entry["hit"] for entry in app.store.ledger_entries()] \
            == [False]

    def test_identical_bytes_are_not_saved_twice(self, app):
        """A worker on a shared filesystem already landed (and ledgered)
        these exact bytes: the server adds no second record."""
        key = _key("validation")
        envelope = _envelope("validation")
        app.store.put(key, envelope)
        _post(app, "/run", experiment="validation", quick=True, force=True)
        _complete(app, _claim(app)["id"], envelope)
        assert app.store.get(key) == envelope
        assert app.store.ledger_entries() == []

    @pytest.mark.parametrize("bad", [
        BOGUS,
        "foreign",  # decodable, but another experiment's envelope
    ])
    def test_bad_envelope_is_a_400_and_stores_nothing(self, app, bad):
        if bad == "foreign":
            bad = _envelope("ext-trapped-ion")
        key = _key("validation")
        _post(app, "/run", experiment="validation", quick=True)
        job_id = _claim(app)["id"]

        response, body = _complete(app, job_id, bad)
        assert response.status == 400
        assert body["error_type"] == "ValueError"
        assert app.jobs.get(job_id).status == RUNNING
        assert app.store.get(key) is None
        # The lease stands: the same worker can still report properly.
        response, _ = _post(app, "/fleet/heartbeat", worker="w1",
                            job=job_id)
        assert response.status == 200
        response, _ = _complete(app, job_id, _envelope("validation"))
        assert response.status == 200
        assert app.jobs.get(job_id).status == DONE

    def test_queue_level_refusal_names_the_mismatch(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        queue = JobQueue(lambda: None, workers=0, store=store)
        try:
            job, _ = queue.submit("validation", "k1", True, {})
            queue.claim("w1")
            with pytest.raises(ValueError, match="not a repro.experiment"):
                queue.complete("w1", job.id, envelope=dict(BOGUS))
            with pytest.raises(ValueError, match="'ext-trapped-ion'"):
                queue.complete("w1", job.id,
                               envelope=_envelope("ext-trapped-ion"))
            assert store.get("k1") is None and job.status == RUNNING
        finally:
            queue.shutdown()


def test_fresh_session_does_its_own_compile_work(tmp_path, monkeypatch):
    """Session A's work never answers for session B: B compiles, counts
    and persists on its own cache, with the same figure text."""
    first = Session(cache_dir=str(tmp_path / "a"))
    expected = first.run("fig3", quick=True).format()

    from repro.core import compiler as compiler_module

    real_compile = compiler_module.compile_circuit
    compiles = []

    def counting_compile(*args, **kwargs):
        compiles.append(1)
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(compiler_module, "compile_circuit",
                        counting_compile)
    second = Session(cache_dir=str(tmp_path / "b"))
    assert second.run("fig3", quick=True).format() == expected
    assert second.tasks_executed > 0
    assert compiles and second.cache_stats()["misses"] == len(compiles)
    assert second.cache.disk_stats()["entries"] > 0
