"""Tests for the session-scoped execution API (repro.api.session).

The tentpole contract: two differently-configured sessions coexist in
one process, execution policy is resolved from the *active* session (no
process-wide mutable globals), and experiments run through a session
pick up its jobs / cache / RNG policy.
"""

import pytest

from repro.api import Session, current_session, default_session, install_default
from repro.core.config import CompilerConfig
from repro.exec.cache import CACHE_DIR_ENV, cached_compile
from repro.exec.keys import derive_seed
from repro.experiments import fig10_loss_tolerance
from repro.hardware.topology import Topology
from repro.loss.runner import ShotSpec, run_shot_specs
from repro.workloads.registry import build_circuit


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


def _inputs():
    circuit = build_circuit("bv", 6)
    topology = Topology.square(5, 3.0)
    config = CompilerConfig(max_interaction_distance=3.0)
    return circuit, topology, config


class TestIsolation:
    def test_two_sessions_with_distinct_cache_dirs(self, tmp_path):
        """The headline requirement: two sessions, different cache dirs,
        one process — state never leaks between them."""
        a = Session(jobs=1, cache_dir=str(tmp_path / "a"))
        b = Session(jobs=2, cache_dir=str(tmp_path / "b"))
        circuit, topology, config = _inputs()

        with a.activate():
            assert current_session() is a
            program_a = cached_compile(circuit, topology, config)
        with b.activate():
            assert current_session() is b
            program_b = cached_compile(circuit, topology, config)

        # Each session compiled independently into its own tiers.
        assert program_a is not program_b
        assert a.cache.stats()["misses"] == 1
        assert b.cache.stats()["misses"] == 1
        assert a.cache.disk_stats()["entries"] == 1
        assert b.cache.disk_stats()["entries"] == 1
        assert a.cache.path != b.cache.path
        # ... but produced identical artifacts.
        assert program_a.schedule == program_b.schedule

    def test_two_sessions_with_different_jobs(self, tmp_path):
        serial = Session(jobs=1, cache_dir=str(tmp_path))
        parallel = Session(jobs=2, cache_dir=str(tmp_path))
        specs = [ShotSpec(strategy="always reload", benchmark="bv",
                          program_size=6, grid_side=5, mid=3.0,
                          max_shots=10, seed=derive_seed("t=s"))]
        with serial.activate():
            assert current_session().jobs == 1
            one = run_shot_specs(specs)
        with parallel.activate():
            assert current_session().jobs == 2
            two = run_shot_specs(specs)
        assert one == two  # worker count never changes results

    def test_nested_activation_restores_outer(self):
        outer, inner = Session(jobs=3), Session(jobs=5)
        with outer.activate():
            with inner.activate():
                assert current_session() is inner
            assert current_session() is outer
        assert current_session() is not outer

    def test_activation_restores_on_exception(self):
        session = Session()
        with pytest.raises(RuntimeError):
            with session.activate():
                raise RuntimeError("boom")
        assert current_session() is not session


class TestDefaultSession:
    def test_default_built_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        install_default(None)
        assert default_session().cache.path == str(tmp_path)

    def test_default_memory_only_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        install_default(None)
        assert default_session().cache.path is None

    def test_install_default_returns_previous(self):
        first = default_session()
        replacement = Session(jobs=4)
        assert install_default(replacement) is first
        assert default_session() is replacement


class TestSessionConstruction:
    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            Session(jobs=0)

    def test_cache_and_cache_dir_mutually_exclusive(self, tmp_path):
        from repro.exec.cache import CompileCache

        with pytest.raises(ValueError):
            Session(cache=CompileCache(None), cache_dir=str(tmp_path))

    def test_shared_cache_object(self):
        from repro.exec.cache import CompileCache

        shared = CompileCache(None)
        a, b = Session(cache=shared), Session(cache=shared)
        assert a.cache is b.cache


class TestRunExperiment:
    TINY = dict(benchmarks=("cnu",), mids=(2.0,), program_size=12, trials=1)

    def test_run_by_name(self):
        result = Session().run("fig10", **self.TINY)
        assert type(result).__name__ == "Fig10Result"
        assert ("cnu", "recompile", 2.0) in result.cells

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            Session().run("fig99")

    def test_unknown_parameter(self):
        with pytest.raises(TypeError, match="no parameter"):
            Session().run("fig10", not_a_param=1)

    def test_quick_preset_applies(self):
        from repro.api import get_experiment

        spec = get_experiment("fig10")
        assert spec.quick["trials"] == 2
        # quick keys are a subset of the declared parameter schema
        assert set(spec.quick) <= set(spec.param_defaults())

    def test_session_seed_policy(self):
        """``run(..., rng=N)`` is the one way to pick an experiment's base
        seed, and the default keeps the driver's own."""
        seeded = Session().run("fig10", rng=7, **self.TINY)
        explicit = fig10_loss_tolerance.run(rng=7, **self.TINY)
        assert seeded.cells.keys() == explicit.cells.keys()
        assert all(
            seeded.cells[k].losses_sustained == explicit.cells[k].losses_sustained
            for k in seeded.cells
        )
        default = Session().run("fig10", **self.TINY)
        baseline = fig10_loss_tolerance.run(**self.TINY)
        assert all(
            default.cells[k].losses_sustained == baseline.cells[k].losses_sustained
            for k in default.cells
        )

    def test_every_spec_has_doc_and_result_type(self):
        from repro.api import ExperimentResult, all_experiments

        specs = all_experiments()
        assert len(specs) == 24
        for name, spec in specs.items():
            assert spec.doc, name
            assert issubclass(spec.result_type, ExperimentResult), name
            assert spec.result_type.experiment_name == name
            assert set(spec.quick) <= {p.name for p in spec.params}, name


class TestTaskAccounting:
    def test_run_tasks_counts_dispatched_tasks(self):
        from repro.exec.engine import run_tasks

        session = Session()
        with session.activate():
            run_tasks(len, [(1, 2), (3,)])
        assert session.tasks_executed == 2
        with Session().activate():
            run_tasks(len, [(4,)])
        assert session.tasks_executed == 2

    def test_experiment_run_dispatches_tasks(self):
        session = Session()
        session.run("fig10", **TestRunExperiment.TINY)
        assert session.tasks_executed > 0


class TestWorkerInheritance:
    def test_workers_share_session_disk_cache(self, tmp_path):
        """Spawn workers compile into the session's cache directory, so a
        later session over the same directory reads their artifacts."""
        specs = [ShotSpec(strategy="always reload", benchmark="bv",
                          program_size=6, grid_side=5, mid=3.0,
                          max_shots=5, seed=derive_seed(f"w={i}"))
                 for i in range(2)]
        with Session(jobs=2, cache_dir=str(tmp_path)).activate():
            run_shot_specs(specs)
        reader = Session(cache_dir=str(tmp_path))
        circuit, topology, config = _inputs()
        with reader.activate():
            cached_compile(circuit, topology, config)
        assert reader.cache.stats()["disk_hits"] == 1
        assert reader.cache.stats()["misses"] == 0
