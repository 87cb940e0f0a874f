"""Determinism regression: worker count must never change results.

Every sweep task derives its RNG seed from its canonical task key, and
compile artifacts (including their measured compile times) are pinned by
the persistent cache — so a figure regenerated with ``--jobs 1`` and
``--jobs 4`` over a shared cache directory must produce *identical*
formatted output, event for event.
"""

import pytest

from repro.analysis import architectures
from repro.api.session import Session, install_default
from repro.experiments import fig10_loss_tolerance, fig12_overhead, fig13_sensitivity


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolate every test from the process default session."""
    saved = install_default(None)
    yield
    install_default(saved)


def test_fig12_quick_identical_at_jobs_1_and_4(tmp_path):
    """The satellite requirement verbatim: fig12 --quick, --jobs 1 vs
    --jobs 4, byte-identical formatted output."""
    quick = dict(mids=(3.0, 4.0), shots=60, program_size=16)
    # Parallel first, on a COLD cache: workers must read the compile
    # artifacts the parent pinned, not race to measure their own.
    with Session(jobs=4, cache_dir=str(tmp_path)).activate():
        parallel = fig12_overhead.run(**quick)
    with Session(jobs=1, cache_dir=str(tmp_path)).activate():
        serial = fig12_overhead.run(**quick)
    assert parallel.format() == serial.format()
    assert parallel.runs == serial.runs  # full timelines, not just text


def test_fig13_identical_at_any_jobs(tmp_path):
    quick = dict(mids=(4.0,), factors=(1.0, 10.0), shots_per_run=60,
                 program_size=16)
    with Session(jobs=1, cache_dir=str(tmp_path)).activate():
        serial = fig13_sensitivity.run(**quick)
    with Session(jobs=2, cache_dir=str(tmp_path)).activate():
        parallel = fig13_sensitivity.run(**quick)
    assert parallel.format() == serial.format()
    assert parallel.shots_before_reload == serial.shots_before_reload


def test_fig10_identical_at_any_jobs(tmp_path):
    quick = dict(benchmarks=("cnu",), mids=(3.0,), program_size=12,
                 trials=2)
    with Session(jobs=1, cache_dir=str(tmp_path)).activate():
        serial = fig10_loss_tolerance.run(**quick)
    with Session(jobs=2, cache_dir=str(tmp_path)).activate():
        parallel = fig10_loss_tolerance.run(**quick)
    assert parallel.format() == serial.format()
    assert {k: v.losses_sustained for k, v in parallel.cells.items()} == \
           {k: v.losses_sustained for k, v in serial.cells.items()}


def test_metrics_grid_map_matches_serial_compilation(tmp_path):
    """Metrics imported from parallel workers equal in-process compiles."""
    arch = architectures.neutral_atom_arch(mid=3.0, grid_side=6)
    points = [("bv", size, arch, 0) for size in (4, 6, 8)]

    with Session(jobs=1, cache_dir=None).activate():
        serial = [architectures.compiled_metrics(*p) for p in points]

    parallel_session = Session(jobs=2, cache_dir=str(tmp_path))
    with parallel_session.activate():
        architectures.metrics_grid_map(points)
        parallel = [architectures.compiled_metrics(*p) for p in points]

    # The workers compiled; the parent only imported their metrics.
    assert parallel_session.cache_stats()["misses"] == 0
    assert parallel == serial


def test_task_seeds_are_enumeration_order_independent():
    """Skipping grid cells (e.g. compile-small at MID 2) must not shift
    the seeds of unrelated cells — unlike sequential draws from one
    generator."""
    with Session(jobs=1, cache_dir=None).activate():
        narrow = fig12_overhead.run(
            strategies=("always reload",), mids=(3.0,),
            shots=40, program_size=16,
        )
        wide = fig12_overhead.run(
            strategies=("virtual remapping", "always reload"), mids=(3.0,),
            shots=40, program_size=16,
        )
    assert (narrow.runs[("always reload", 3.0)]
            == wide.runs[("always reload", 3.0)])
