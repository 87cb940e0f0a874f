"""Registry-wide contracts of the task-grid refactor.

Two invariants, enforced for *every* registered experiment so no future
driver can quietly regress to a serial, cache-bypassing loop:

1. **No compile escapes the session cache.**  Running any experiment
   under a session must route every single compilation through
   ``cached_compile`` — instrumented by counting raw ``compile_circuit``
   invocations and asserting the count equals the session cache's
   recorded misses (a direct compile would inflate the count without a
   matching miss).
2. **Worker count changes nothing.**  Each newly-gridded driver must
   produce identical results at ``jobs=1`` and ``jobs=2`` over a shared
   cold-then-warm disk cache — compared on both the formatted text and
   the full ``to_dict`` envelope, so even non-rendered fields cannot
   drift.
"""

import sys

import pytest

from repro.api import Session, all_experiments
from repro.api.registry import get_experiment
from repro.api.session import install_default


@pytest.fixture(autouse=True)
def fresh_state():
    saved = install_default(None)
    yield
    install_default(saved)


def test_no_driver_imports_the_raw_compiler():
    """Drivers must compile via the session cache, never directly; a
    module-level ``compile_circuit`` import would dodge the
    instrumentation below."""
    for name, spec in all_experiments().items():
        module = sys.modules[spec.runner.__module__]
        assert not hasattr(module, "compile_circuit"), (
            f"experiment {name!r} ({module.__name__}) imports "
            "compile_circuit directly; route it through "
            "repro.exec.cache.cached_compile"
        )


@pytest.mark.parametrize("name", sorted(all_experiments()))
def test_every_compile_goes_through_the_session_cache(name, monkeypatch):
    from repro.core import compiler as compiler_module

    real_compile = compiler_module.compile_circuit
    calls = {"count": 0}

    def counting_compile(*args, **kwargs):
        calls["count"] += 1
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(compiler_module, "compile_circuit",
                        counting_compile)
    session = Session(jobs=1)
    session.run(name, quick=True)
    stats = session.cache_stats()
    # Every physical compilation must have been preceded by a lookup on
    # THIS session's cache (= a recorded miss); compiles dodging the
    # cache leave the left side larger.
    assert calls["count"] == stats["misses"], (
        f"experiment {name!r}: {calls['count']} compilations but only "
        f"{stats['misses']} session-cache misses — some compile bypassed "
        "the session cache"
    )


#: Reduced parameter sets for the drivers gridded in this PR — small
#: enough that running each twice (serial + 2 workers) stays cheap.
GRIDDED_QUICK = {
    "ablation-lookahead": dict(benchmarks=("bv",), mids=(1.0, 3.0),
                               program_size=12, windows=(1, 3)),
    "ablation-zones": dict(benchmarks=("qaoa",), program_size=12),
    "ablation-margin": dict(program_size=16, trials=1,
                            margins=(1.0, 2.0)),
    "ext-scaling": dict(grid_sides=(4, 6)),
    "ext-ejection": dict(shots=20),
    "ext-geometry": dict(benchmarks=("bv",), grid_side=4),
    "ext-trapped-ion": dict(benchmarks=("bv",), program_size=10),
    "ext-noisy-validation": dict(benchmarks=("bv",), program_size=6,
                                 shots=60),
    "fig14": dict(target_shots=5, program_size=12),
    "validation": dict(),
}


@pytest.mark.parametrize("name", sorted(GRIDDED_QUICK))
def test_newly_gridded_driver_identical_at_jobs_1_and_2(name, tmp_path):
    params = GRIDDED_QUICK[name]
    spec = get_experiment(name)
    # Parallel first, on a COLD shared cache: workers must read the
    # compile artifacts the parent pinned, not race to measure their own.
    with Session(jobs=2, cache_dir=str(tmp_path)).activate():
        parallel = spec.run(**params)
    with Session(jobs=1, cache_dir=str(tmp_path)).activate():
        serial = spec.run(**params)
    assert parallel.format() == serial.format()
    assert parallel.to_dict() == serial.to_dict()
