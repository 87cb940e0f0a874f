"""Tests for the sweep engine (repro.exec.engine).

Parallel runs use real spawn-based worker processes, so the tests keep
the workloads tiny; the invariant checked everywhere is the engine's
contract — results in task order, identical at any worker count.
Execution policy comes from the active :class:`repro.api.Session`.
"""

import pytest

from repro.api.session import Session, install_default
from repro.exec import engine
from repro.exec.keys import derive_seed
from repro.loss.runner import ShotSpec, run_shot_spec, run_shot_specs


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolate every test from the process default session."""
    saved = install_default(None)
    yield
    install_default(saved)


def test_results_preserve_task_order():
    keys = [f"task={i}" for i in range(20)]
    assert engine.run_tasks(derive_seed, keys, jobs=1) == [
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
    with Session(cache_dir=str(tmp_path)).activate():
        specs = _tiny_specs()
        serial = run_shot_specs(specs, jobs=1)
        parallel = run_shot_specs(specs, jobs=2)
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
            jobs=1,
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
        with pytest.raises(KeyboardInterrupt):
            engine.run_tasks(_interrupt_on_second_task, [0, 1, 2],
                             session=session)
        assert not orphan.exists()
        # The grace window protects a concurrent live writer's file.
        assert in_flight.exists()

    def test_parallel_interrupt_reclaims_temp_files(self, tmp_path):
        """A KeyboardInterrupt surfacing from the worker pool takes the
        same cleanup path: cancel, drain, sweep."""
        session = Session(jobs=2, cache_dir=str(tmp_path))
        orphan = self._plant_orphan(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            engine.run_tasks(_interrupt_on_second_task, [0, 1, 2, 3],
                             session=session)
        assert not orphan.exists()

    def test_interrupt_without_disk_cache_is_harmless(self):
        session = Session()  # memory-only cache: nothing to sweep
        with pytest.raises(KeyboardInterrupt):
            engine.run_tasks(_interrupt_on_second_task, [0, 1],
                             session=session)

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

        with pytest.raises(RuntimeError):
            engine.run_tasks(explode, [0], session=session)
        assert in_flight.exists()


def test_explicit_session_overrides_current(tmp_path):
    """run_tasks(session=...) uses that session, not the active one."""
    dedicated = Session(jobs=1, cache_dir=str(tmp_path))
    with Session().activate():
        results = engine.run_tasks(
            run_shot_spec, _tiny_specs()[:1], session=dedicated
        )
    assert results[0].shots_attempted == 15
    # The compile went through the dedicated session's cache.
    assert dedicated.cache.stats()["misses"] >= 1


# -- the ExecBackend seam ----------------------------------------------------

import os  # noqa: E402

from repro.exec import (  # noqa: E402
    ExecBackend,
    InlineBackend,
    SpawnPoolBackend,
    resolve_backend,
)
from repro.exec.engine import INLINE  # noqa: E402


def _pid_task(task):
    return os.getpid()


class TestBackendSeam:
    def test_resolution_order(self):
        """Explicit jobs > pinned session backend > session.jobs."""
        pinned = SpawnPoolBackend(4)
        session = Session(jobs=8, backend=pinned)
        assert resolve_backend(session) is pinned
        assert resolve_backend(session, jobs=1) is INLINE
        explicit = resolve_backend(session, jobs=3)
        assert isinstance(explicit, SpawnPoolBackend)
        assert explicit.jobs == 3

    def test_session_jobs_pick_the_default_backend(self):
        assert resolve_backend(Session(jobs=1)) is INLINE
        fanned = resolve_backend(Session(jobs=3))
        assert isinstance(fanned, SpawnPoolBackend)
        assert fanned.jobs is None  # inherits session.jobs at run time

    def test_backend_names(self):
        assert InlineBackend().name == "inline"
        assert SpawnPoolBackend().name == "spawn-pool"
        assert isinstance(INLINE, ExecBackend)

    def test_backend_must_look_like_a_backend(self):
        with pytest.raises(TypeError):
            Session(backend=42)

    def test_pinned_inline_backend_wins_over_jobs(self):
        """A Session with jobs=4 but an InlineBackend pinned runs every
        task in this process — the backend is the policy, not jobs."""
        session = Session(jobs=4, backend=InlineBackend())
        pids = engine.run_tasks(_pid_task, [0, 1, 2], session=session)
        assert set(pids) == {os.getpid()}

    def test_spawn_pool_backend_runs_out_of_process(self, tmp_path):
        session = Session(jobs=1, cache_dir=str(tmp_path),
                          backend=SpawnPoolBackend(2))
        pids = engine.run_tasks(_pid_task, [0, 1, 2, 4], session=session)
        assert os.getpid() not in pids

    def test_spawn_pool_single_task_degrades_to_inline(self):
        """A one-task sweep never pays spawn cost, whatever the pool."""
        session = Session(jobs=1, backend=SpawnPoolBackend(8))
        pids = engine.run_tasks(_pid_task, [0], session=session)
        assert pids == [os.getpid()]

    def test_pinned_spawn_backend_matches_inline_results(self, tmp_path):
        """The seam contract: same bytes out of either backend."""
        with Session(cache_dir=str(tmp_path)).activate():
            specs = _tiny_specs()
            inline = run_shot_specs(specs, jobs=1)
        pooled_session = Session(cache_dir=str(tmp_path),
                                 backend=SpawnPoolBackend(2))
        with pooled_session.activate():
            pooled = run_shot_specs(specs)
        assert pooled == inline

    def test_repr_names_pinned_backend(self):
        session = Session(jobs=1, backend=SpawnPoolBackend(2))
        assert "SpawnPoolBackend(jobs=2)" in repr(session)
