"""Shared helpers for the figure-regeneration benchmark harness.

Each ``bench_figN.py`` regenerates the corresponding paper figure at a
reduced-but-shape-preserving scale, asserts the figure's qualitative
claim, and writes the printed rows/series to
``benchmarks/results/figN.txt`` (also echoed to stdout, visible with
``pytest -s``).

Run everything with::

    pytest benchmarks/ --bench-json BENCH_ci.json

``--bench-json FILE`` records one ``{"experiment", "wall_s",
"cache_hits"}`` entry per benchmark (the ``experiment`` value is the
benchmark's name, e.g. ``fig12_overhead``): the wall clock of the whole
test and the compile-cache hits it made.  After writing the file the
session fails if any benchmark named in ``baseline.json`` is missing or
slower than ``max_regression`` x its baseline wall time.  CI runs the
suite this way and uploads the file as a perf-trend artifact.
"""

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Committed wall-clock baselines the ``--bench-json`` gate compares to.
BASELINE = pathlib.Path(__file__).parent / "baseline.json"

#: {experiment, wall_s, cache_hits} records accumulated this session.
_BENCH_RECORDS = []


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", default=None, metavar="FILE",
        help="write one {experiment, wall_s, cache_hits} JSON record per "
             "benchmark to FILE and gate them against baseline.json",
    )


@pytest.fixture(autouse=True)
def _bench_trace(request):
    """Record wall time and compile-cache hits around each benchmark."""
    if request.config.getoption("--bench-json") is None:
        yield
        return
    from repro.exec.cache import get_cache

    cache = get_cache()
    before = cache.stats()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    after = cache.stats()
    _BENCH_RECORDS.append({
        # The benchmark's node name minus the collection prefix, e.g.
        # "ablation_compile_margin", "fig12_overhead" — benchmark
        # granularity, not registry names (the benches run the figure
        # modules at their own scales, not the registry presets).
        "experiment": request.node.name.removeprefix("test_"),
        "wall_s": round(wall, 4),
        "cache_hits": (after["memory_hits"] + after["disk_hits"]
                       - before["memory_hits"] - before["disk_hits"]),
    })


def _gate_failures(records):
    """Why ``records`` fail the harness: a malformed record, or a
    ``baseline.json`` benchmark missing or past its regression limit."""
    if not records:
        return ["no benchmark records emitted"]
    failures = [f"malformed record: {record}" for record in records
                if set(record) != {"experiment", "wall_s", "cache_hits"}]
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    fresh = {record["experiment"]: record["wall_s"] for record in records}
    limit = baseline["max_regression"]
    for name, base_wall in baseline["wall_s"].items():
        wall = fresh.get(name)
        if wall is None:
            failures.append(f"{name}: missing from the bench records")
        elif wall > limit * base_wall:
            failures.append(f"{name}: {wall:.3f}s > {limit}x baseline "
                            f"{base_wall:.3f}s")
    return failures


def pytest_sessionfinish(session):
    target = session.config.getoption("--bench-json", default=None)
    if target is None:
        return
    records = sorted(_BENCH_RECORDS, key=lambda r: r["experiment"])
    pathlib.Path(target).write_text(
        json.dumps(records, indent=2) + "\n", encoding="utf-8")
    failures = _gate_failures(records)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.line("")
    if failures:
        # Keep an earlier failure's own exit status.
        session.exitstatus = session.exitstatus or pytest.ExitCode.TESTS_FAILED
        reporter.write_sep("=", "perf regression: " + "; ".join(failures),
                           red=True)
    else:
        reporter.write_sep("=", f"{len(records)} benchmark records; "
                                "baseline gate ok", green=True)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_figure(results_dir):
    """Write a figure's formatted output to disk and echo it."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _record
