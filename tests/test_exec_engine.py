"""Tests for the sweep engine (repro.exec.engine).

Parallel runs use real spawn-based worker processes, so the tests keep
the workloads tiny; the invariant checked everywhere is the engine's
contract — results in task order, identical at any worker count.
Execution policy comes from the active :class:`repro.api.Session`.
"""

import os

import pytest

from repro.api.session import Session, install_default
from repro.exec import engine
from repro.exec.keys import derive_seed
from repro.loss.runner import ShotSpec, run_shot_spec, run_shot_specs
from repro.obs import SpanBuffer, Tracer, activate, new_trace_id


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolate every test from the process default session."""
    saved = install_default(None)
    yield
    install_default(saved)


def test_results_preserve_task_order():
    keys = [f"task={i}" for i in range(20)]
    assert engine.run_tasks(derive_seed, keys) == [
        derive_seed(k) for k in keys
    ]


def test_session_jobs_validate():
    with pytest.raises(ValueError):
        Session(jobs=0)


def _tiny_specs():
    base = dict(benchmark="bv", program_size=6, grid_side=5, mid=3.0,
                max_shots=15)
    return [
        ShotSpec(strategy="always reload", seed=derive_seed("s=ar"), **base),
        ShotSpec(strategy="virtual remapping", seed=derive_seed("s=vr"), **base),
        ShotSpec(strategy="reroute", seed=derive_seed("s=rr"), **base),
    ]


def test_parallel_equals_serial(tmp_path):
    """jobs=2 spawn workers reproduce jobs=1 results bit-for-bit."""
    specs = _tiny_specs()
    with Session(cache_dir=str(tmp_path)).activate():
        serial = run_shot_specs(specs)
    with Session(jobs=2, cache_dir=str(tmp_path)).activate():
        parallel = run_shot_specs(specs)
    assert parallel == serial  # RunResult dataclass equality: full timelines


def test_run_shot_spec_is_self_contained():
    with Session().activate():
        spec = _tiny_specs()[0]
        first = run_shot_spec(spec)
        second = run_shot_spec(spec)
    assert first == second
    assert first.shots_attempted == 15


def test_task_exceptions_propagate():
    with pytest.raises(KeyError):
        engine.run_tasks(
            run_shot_spec,
            [ShotSpec(strategy="no such strategy", benchmark="bv",
                      program_size=6, grid_side=5, mid=3.0, max_shots=1,
                      seed=0)],
        )


def _interrupt_on_second_task(task):
    if task >= 1:
        raise KeyboardInterrupt
    return task


class TestInterruptCleanup:
    """Satellite: an interrupted sweep must not litter the shared cache
    directory with orphaned .tmp-* files (the CLI layer turns the
    re-raised KeyboardInterrupt into exit code 130)."""

    def _plant_orphan(self, cache_dir):
        import os

        shard = cache_dir / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        orphan = shard / ".tmp-orphan.pkl"
        orphan.write_bytes(b"x" * 64)
        os.utime(orphan, (1, 1))  # a long-dead writer's leftovers
        return orphan

    def test_inline_interrupt_reclaims_temp_files(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        orphan = self._plant_orphan(tmp_path)
        in_flight = tmp_path / "ab" / ".tmp-live.pkl"
        in_flight.write_bytes(b"x")  # another process, mid-write now
        with pytest.raises(KeyboardInterrupt), session.activate():
            engine.run_tasks(_interrupt_on_second_task, [0, 1, 2])
        assert not orphan.exists()
        # The grace window protects a concurrent live writer's file.
        assert in_flight.exists()

    def test_parallel_interrupt_reclaims_temp_files(self, tmp_path):
        """A KeyboardInterrupt surfacing from the worker pool takes the
        same cleanup path: cancel, drain, sweep."""
        session = Session(jobs=2, cache_dir=str(tmp_path))
        orphan = self._plant_orphan(tmp_path)
        with pytest.raises(KeyboardInterrupt), session.activate():
            engine.run_tasks(_interrupt_on_second_task, [0, 1, 2, 3])
        assert not orphan.exists()

    def test_interrupt_without_disk_cache_is_harmless(self):
        session = Session()  # memory-only cache: nothing to sweep
        with pytest.raises(KeyboardInterrupt), session.activate():
            engine.run_tasks(_interrupt_on_second_task, [0, 1])

    def test_other_exceptions_do_not_sweep(self, tmp_path):
        """Only an interrupt triggers the reclaim sweep: an ordinary
        task failure must not delete even a long-dead writer's temp
        file (that is gc/prune/clear's job)."""
        session = Session(cache_dir=str(tmp_path))
        shard = tmp_path / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        in_flight = shard / ".tmp-live.pkl"
        in_flight.write_bytes(b"x")

        def explode(task):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError), session.activate():
            engine.run_tasks(explode, [0])
        assert in_flight.exists()


def test_explicit_session_overrides_current(tmp_path):
    """The innermost activated session runs the tasks, not an outer one."""
    dedicated = Session(jobs=1, cache_dir=str(tmp_path))
    with Session().activate(), dedicated.activate():
        results = engine.run_tasks(run_shot_spec, _tiny_specs()[:1])
    assert results[0].shots_attempted == 15
    # The compile went through the dedicated session's cache.
    assert dedicated.cache.stats()["misses"] >= 1


# -- Session.jobs picks inline or a spawn pool --------------------------------

def _pid_task(task):
    return os.getpid()


class TestBackendSeam:
    def _backend(self, session, tasks):
        """The ``backend`` attribute of the ``tasks`` span one run records."""
        sink = SpanBuffer()
        with activate(Tracer(sink), new_trace_id()), session.activate():
            engine.run_tasks(_pid_task, tasks)
        [span] = [s for s in sink.records if s["name"] == "tasks"]
        return span["attrs"]["backend"]

    def test_resolution_order(self):
        """The innermost activated session's ``jobs`` decides, per call;
        outside any, the process default session's."""
        assert engine.run_tasks(_pid_task, [0, 1]) == [os.getpid()] * 2
        with Session(jobs=2).activate(), Session(jobs=1).activate():
            assert engine.run_tasks(_pid_task, [0, 1]) == [os.getpid()] * 2

    def test_session_jobs_pick_the_default_backend(self):
        """The ``tasks`` span names the path each run took."""
        assert self._backend(Session(jobs=1), [0, 1, 2]) == "inline"
        assert self._backend(Session(jobs=2), [0, 1, 2]) == "spawn-pool"

    def test_spawn_pool_backend_runs_out_of_process(self, tmp_path):
        with Session(jobs=2, cache_dir=str(tmp_path)).activate():
            pids = engine.run_tasks(_pid_task, [0, 1, 2, 4])
        assert os.getpid() not in pids

    def test_spawn_pool_single_task_degrades_to_inline(self):
        """A one-task sweep never pays spawn cost, whatever the jobs."""
        session = Session(jobs=8)
        with session.activate():
            pids = engine.run_tasks(_pid_task, [0])
        assert pids == [os.getpid()]
        assert self._backend(session, [0]) == "inline"
