"""Parallel sweep execution: task grids, deterministic seeding, and a
persistent compile cache.

The subsystem has three parts:

* :mod:`repro.exec.keys` — canonical content keys for compilations and
  sweep tasks, plus spawn-safe per-task seed derivation;
* :mod:`repro.exec.cache` — a two-tier (memory + on-disk) compile cache
  shared by every figure driver, strategy, and worker process;
* :mod:`repro.exec.engine` — ``run_tasks``: execute a flat task list
  through an :class:`ExecBackend` (inline or spawn-pool) with results
  returned in task order;
* :mod:`repro.exec.grid` — ``grid_map``: the declarative layer every
  experiment driver routes through — cells in, canonical keys and
  derived seeds stamped, results out in grid order.

Execution *policy* (worker count, which cache, RNG base) lives on
:class:`repro.api.Session` objects; the engine and cache resolve the
active session per call.

The invariant the whole package exists to uphold: **any worker count
produces bitwise-identical results**, because every task's randomness is
derived from its canonical key and compile artifacts are content-
addressed.
"""

from repro.exec.cache import (
    CompileCache,
    cached_compile,
    get_cache,
    get_cache_dir,
)
from repro.exec.engine import (
    ExecBackend,
    InlineBackend,
    SpawnPoolBackend,
    current_jobs,
    resolve_backend,
    run_tasks,
)
from repro.exec.grid import cell_key, grid_map
from repro.exec.keys import (
    SCHEMA_VERSION,
    compile_key,
    derive_seed,
    task_grid,
    task_key,
)

__all__ = [
    "SCHEMA_VERSION",
    "CompileCache",
    "ExecBackend",
    "InlineBackend",
    "SpawnPoolBackend",
    "cached_compile",
    "cell_key",
    "compile_key",
    "current_jobs",
    "derive_seed",
    "grid_map",
    "get_cache",
    "get_cache_dir",
    "resolve_backend",
    "run_tasks",
    "task_grid",
    "task_key",
]
