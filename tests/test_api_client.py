"""Tests for RemoteSession (repro.api.client).

The contract: ``RemoteSession.run`` is shape-compatible with
``Session.run`` — same call signature, same decoded
:class:`ExperimentResult` — with server-side errors mapped back onto
the exceptions the local session would raise.
"""

import pytest

from repro.api import (
    ExperimentResult,
    RemoteRunError,
    Session,
    SweepSpec,
    all_experiments,
)
from repro.api.client import ServerError, _local_error
from repro.api.session import install_default


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


class TestRun:
    def test_remote_result_equals_local_result(self, remote):
        local = Session().run("validation", quick=True)
        result = remote.run("validation", quick=True)
        assert isinstance(result, ExperimentResult)
        assert result == local
        assert result.format() == local.format()

    def test_hit_miss_counters_mirror_the_store(self, remote):
        remote.run("validation", quick=True)
        remote.run("validation", quick=True)
        assert (remote.misses, remote.hits) == (1, 1)

    def test_force_is_a_miss(self, remote):
        remote.run("validation", quick=True)
        remote.run("validation", quick=True, force=True)
        assert (remote.misses, remote.hits) == (2, 0)

    def test_params_flow_through(self, remote):
        result = remote.run("fig10", benchmarks=["cnu"], mids=[2.0],
                            program_size=12, trials=1)
        local = Session().run("fig10", benchmarks=("cnu",), mids=(2.0,),
                              program_size=12, trials=1)
        assert result == local


class TestErrorMapping:
    def test_unknown_experiment_is_key_error(self, remote):
        with pytest.raises(KeyError, match="unknown experiment"):
            remote.run("fig99")

    def test_bad_parameter_is_type_error(self, remote):
        with pytest.raises(TypeError, match="has no parameter"):
            remote.run("validation", bogus=1)

    def test_failed_execution_is_remote_run_error(self, remote,
                                                  monkeypatch):
        import dataclasses

        from repro.api import registry

        real = registry._SPECS["validation"]

        def exploding_runner(**kwargs):
            raise RuntimeError("backend exploded")

        monkeypatch.setitem(registry._SPECS, "validation",
                            dataclasses.replace(real,
                                                runner=exploding_runner))
        with pytest.raises(RemoteRunError, match="backend exploded"):
            remote.run("validation", quick=True)

    def test_missing_result_is_key_error(self, remote):
        with pytest.raises(KeyError):
            remote.result("a" * 64)

    def test_unknown_circuit_digest_is_key_error_like_local(self, remote):
        """The server's 400 names ``KeyError``; a local Session raises
        the same class for the same parameters."""
        ref = "circuit:" + "ab" * 32
        with pytest.raises(KeyError, match="upload"):
            Session().run("workload-metrics", quick=True, workload=ref)
        with pytest.raises(KeyError, match="upload"):
            remote.run("workload-metrics", quick=True, workload=ref)

    def test_sweep_over_unknown_circuit_digest_is_key_error(self, remote):
        spec = SweepSpec("workload-metrics", quick=True,
                         axes={"workload": ("bv", "circuit:" + "cd" * 32)})
        with pytest.raises(KeyError, match="upload"):
            next(remote.iter_sweep(spec))

    def test_submit_maps_errors_like_run(self, remote):
        with pytest.raises(KeyError, match="unknown experiment"):
            remote.submit("nope")
        with pytest.raises(TypeError, match="has no parameter"):
            remote.submit("validation", bogus=1)

    def test_malformed_lookup_ids_are_misses(self, remote):
        """A 400 on a read by id (malformed id) is a ``KeyError``."""
        with pytest.raises(KeyError):
            remote.result("not-a-key")
        with pytest.raises(KeyError):
            remote.circuit_qasm("not-a-digest")


@pytest.mark.parametrize("status, error_type, method, expected", [
    (400, "KeyError", "POST", KeyError),
    (400, "TypeError", "POST", TypeError),
    (400, "ValueError", "POST", ValueError),
    (400, None, "POST", ValueError),
    (409, None, "POST", ValueError),
    (404, None, "POST", KeyError),
    (404, None, "GET", KeyError),
    (400, "ValueError", "GET", KeyError),
    (400, "LeaseLost", "POST", ValueError),
    (500, None, "POST", RemoteRunError),
    (503, "ValueError", "GET", RemoteRunError),
])
def test_one_mapping_from_server_errors(status, error_type, method,
                                        expected):
    error = _local_error(ServerError(status, "why", error_type), method)
    assert type(error) is expected
    assert "why" in str(error)


class TestReadOnlyViews:
    def test_experiments_mirror_the_registry(self, remote):
        listing = remote.experiments()
        assert set(listing) == set(all_experiments())
        assert listing["validation"]["doc"]

    def test_submit_then_poll_job(self, remote):
        import time

        submitted = remote.submit("validation", quick=True)
        deadline = time.time() + 60
        while time.time() < deadline:
            job = remote.job(submitted["id"])
            if job["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert job["status"] == "done"
        envelope = remote.result(job["key"])
        assert envelope["experiment"] == "validation"

    def test_unknown_job_is_key_error(self, remote):
        with pytest.raises(KeyError):
            remote.job("nope")

    def test_metrics_round_trip(self, remote):
        remote.run("validation", quick=True)
        metrics = remote.metrics()
        assert metrics["jobs"]["completed"] == 1
        assert "uptime_s" in metrics

    def test_repr_names_the_endpoint(self, remote):
        assert remote.base_url in repr(remote)


class TestTransientGetRetry:
    """Idempotent GETs retry once on transient transport failures;
    everything else (HTTP error responses, POSTs) surfaces immediately."""

    def _flaky_urlopen(self, monkeypatch, fail_times, error_factory):
        import urllib.request

        real = urllib.request.urlopen
        calls = []

        def flaky(request, timeout=None):
            calls.append(request.get_full_url())
            if len(calls) <= fail_times:
                raise error_factory()
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        return calls

    def test_get_retries_once_on_connection_error(self, remote,
                                                  monkeypatch):
        import urllib.error

        calls = self._flaky_urlopen(
            monkeypatch, 1,
            lambda: urllib.error.URLError(ConnectionResetError("reset")))
        metrics = remote.metrics()
        assert "uptime_s" in metrics
        assert len(calls) == 2              # failed once, retried once

    def test_get_retries_once_on_timeout(self, remote, monkeypatch):
        calls = self._flaky_urlopen(monkeypatch, 1,
                                    lambda: TimeoutError("timed out"))
        assert "validation" in remote.experiments()
        assert len(calls) == 2

    def test_get_gives_up_after_one_retry(self, remote, monkeypatch):
        import urllib.error

        calls = self._flaky_urlopen(
            monkeypatch, 2,
            lambda: urllib.error.URLError(ConnectionResetError("reset")))
        with pytest.raises(urllib.error.URLError):
            remote.metrics()
        assert len(calls) == 2              # exactly one retry, no loop

    def test_http_error_response_is_not_retried(self, remote,
                                                monkeypatch):
        import urllib.request

        real = urllib.request.urlopen
        calls = []

        def counting(request, timeout=None):
            calls.append(request.get_full_url())
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", counting)
        with pytest.raises(KeyError):
            remote.result("0" * 64)         # 404: the server spoke
        assert len(calls) == 1

    def test_post_is_never_retried(self, remote, monkeypatch):
        import urllib.error

        calls = self._flaky_urlopen(
            monkeypatch, 1,
            lambda: urllib.error.URLError(ConnectionResetError("reset")))
        with pytest.raises(urllib.error.URLError):
            remote.run("validation", quick=True)
        assert len(calls) == 1              # a POST may not be idempotent
