"""Parallel sweep execution: task grids, deterministic seeding, and a
persistent compile cache.

The subsystem has three parts:

* :mod:`repro.exec.keys` — canonical content keys for compilations and
  sweep tasks, plus spawn-safe per-task seed derivation;
* :mod:`repro.exec.cache` — a two-tier (memory + on-disk) compile cache
  shared by every figure driver, strategy, and worker process;
* :mod:`repro.exec.engine` — ``run_tasks``: execute a flat task list
  inline or over a spawn pool, as the session's ``jobs`` says, with
  results returned in task order;
* :mod:`repro.exec.grid` — ``grid_map``: the declarative layer every
  experiment driver routes through — cells in, canonical keys and
  derived seeds stamped, results out in grid order.

Execution *policy* (worker count, which cache) lives on
:class:`repro.api.Session` objects; the engine and cache resolve the
active session per call.

The invariant the whole package exists to uphold: **any worker count
produces bitwise-identical results**, because every task's randomness is
derived from its canonical key and compile artifacts are content-
addressed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.exec.cache": ["CompileCache", "cached_compile", "get_cache"],
    "repro.exec.engine": ["run_tasks"],
    "repro.exec.grid": ["cell_key", "grid_map"],
    "repro.exec.keys": [
        "SCHEMA_VERSION",
        "compile_key",
        "derive_seed",
        "task_grid",
        "task_key",
    ],
})

__all__ = [
    "SCHEMA_VERSION",
    "CompileCache",
    "cached_compile",
    "cell_key",
    "compile_key",
    "derive_seed",
    "grid_map",
    "get_cache",
    "run_tasks",
    "task_grid",
    "task_key",
]
