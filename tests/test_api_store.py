"""Tests for the persistent result store (repro.api.store).

The tentpole contract: ``Session(store_dir=...).run`` is read-through —
running any experiment twice recomputes nothing the second time (the
ledger records a hit, zero compiles, zero tasks dispatched) and replays
a result whose JSON envelope is byte-identical to the first run's.
Store keys are pinned by a fixture so an accidental digest-schema change
fails tier-1 instead of silently orphaning every stored result.
"""

import json
import pathlib
import time

import pytest

from repro.api import (
    ExperimentResult,
    ResultStore,
    Session,
    all_experiments,
    store_key,
)
from repro.api.session import install_default
from repro.api.store import canonical_json
from repro.exec import keys as exec_keys

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Small enough for a unit test, big enough to exercise a real grid.
TINY = dict(benchmarks=("cnu",), mids=(2.0,), program_size=12, trials=1)


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


class TestStoreKey:
    def test_quick_preset_digests_are_pinned(self):
        """Every registered experiment's --quick store key matches the
        committed fixture.  If this fails, either you changed an
        experiment's parameter schema / quick preset, or you changed the
        digest schema itself — bump RESULT_SCHEMA_VERSION or
        repro.exec.keys.SCHEMA_VERSION deliberately and regenerate
        tests/fixtures/store_keys.json, knowing every stored result is
        orphaned."""
        pinned = json.loads((FIXTURES / "store_keys.json").read_text())
        current = {name: store_key(name, spec.resolved_params(quick=True))
                   for name, spec in all_experiments().items()}
        assert current == pinned

    def test_quick_and_explicit_params_share_a_key(self):
        spec = all_experiments()["fig10"]
        explicit = store_key(
            "fig10", spec.resolved_params(overrides=dict(spec.quick)))
        assert store_key("fig10", spec.resolved_params(quick=True)) == explicit

    def test_params_change_the_key(self):
        spec = all_experiments()["fig10"]
        base = store_key("fig10", spec.resolved_params(quick=True))
        other = store_key("fig10", spec.resolved_params(
            quick=True, overrides={"trials": 3}))
        assert base != other

    def test_jobs_is_not_semantic(self):
        """The worker count is a Session setting, so no experiment takes
        it and no store key can carry it."""
        for spec in all_experiments().values():
            assert "jobs" not in spec.param_defaults(), spec.name
        spec = all_experiments()["validation"]
        with pytest.raises(TypeError, match="no parameter"):
            spec.resolved_params(overrides={"jobs": 4})

    def test_schema_version_bumps_rekey_everything(self, monkeypatch):
        spec = all_experiments()["validation"]
        params = spec.resolved_params(quick=True)
        base = store_key("validation", params)
        from repro.api import results as results_mod

        monkeypatch.setattr(results_mod, "RESULT_SCHEMA_VERSION", 999)
        rekeyed_result = store_key("validation", params)
        monkeypatch.undo()
        monkeypatch.setattr(exec_keys, "SCHEMA_VERSION", 999)
        rekeyed_exec = store_key("validation", params)
        assert base != rekeyed_result
        assert base != rekeyed_exec
        assert rekeyed_result != rekeyed_exec

    def test_unstorable_param_is_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="no canonical store form"):
            store_key("fig10", {"rng": np.random.default_rng(1)})

    def test_list_spelling_shares_the_tuple_key(self):
        """Drivers accept sequence params as lists or tuples
        interchangeably; turning a store on must neither reject nor
        re-key the list spelling."""
        spec = all_experiments()["fig10"]
        as_tuple = store_key("fig10", spec.resolved_params(
            quick=True, overrides={"mids": (2.0, 3.0)}))
        as_list = store_key("fig10", spec.resolved_params(
            quick=True, overrides={"mids": [2.0, 3.0]}))
        assert as_tuple == as_list

    def test_value_types_are_part_of_the_key(self):
        """A float, its string spelling, its int floor, and bool/int
        must all key differently — replaying the wrong stored result on
        a type mix-up would be a silent wrong answer."""
        spellings = [{"mid": 3.0}, {"mid": "3.0"}, {"mid": 3},
                     {"mid": True}, {"mid": 1}]
        digests = {store_key("x", params) for params in spellings}
        assert len(digests) == len(spellings)


class TestReadThrough:
    def test_second_run_recomputes_nothing(self, tmp_path):
        """The acceptance criterion: a replay is a pure store lookup —
        ledger hit, zero compiles, zero tasks dispatched, byte-identical
        envelope."""
        first = Session(store_dir=str(tmp_path / "store"))
        start = time.perf_counter()
        miss = first.run("fig10", **TINY)
        populate_wall = time.perf_counter() - start
        assert first.store.misses == 1 and first.store.hits == 0
        assert first.tasks_executed > 0

        second = Session(store_dir=str(tmp_path / "store"))
        start = time.perf_counter()
        hit = second.run("fig10", **TINY)
        # Reading one small JSON file beats recomputing it.
        assert time.perf_counter() - start < populate_wall
        assert second.store.hits == 1 and second.store.misses == 0
        assert second.tasks_executed == 0
        assert second.cache_stats()["misses"] == 0
        assert second.cache_stats()["memory_hits"] == 0
        assert second.cache_stats()["disk_hits"] == 0

        assert hit == miss
        assert hit.format() == miss.format()
        assert canonical_json(hit.to_dict()) == canonical_json(miss.to_dict())

        events = ResultStore(str(tmp_path / "store")).tail(100)
        assert [e["hit"] for e in events] == [False, True]
        assert {e["experiment"] for e in events} == {"fig10"}
        assert all(e["wall_s"] >= 0 and "timestamp" in e for e in events)

    def test_replayed_runner_is_never_called(self, tmp_path, monkeypatch):
        import dataclasses

        from repro.api import registry

        session = Session(store_dir=str(tmp_path))
        session.run("fig10", **TINY)
        spec = all_experiments()["fig10"]

        def explode(**kwargs):
            raise AssertionError("store hit must not re-run the driver")

        monkeypatch.setitem(registry._SPECS, "fig10",
                            dataclasses.replace(spec, runner=explode))
        replay = Session(store_dir=str(tmp_path)).run("fig10", **TINY)
        assert isinstance(replay, ExperimentResult)

    def test_force_recomputes_and_refreshes(self, tmp_path):
        session = Session(store_dir=str(tmp_path))
        session.run("fig10", **TINY)
        forced = session.run("fig10", force=True, **TINY)
        assert isinstance(forced, ExperimentResult)
        # Both events are misses: force never reads the stored entry.
        assert [e["hit"] for e in session.store.tail(100)] == [
            False, False]

    def test_without_store_behavior_is_unchanged(self):
        session = Session()
        assert session.store is None
        result = session.run("fig10", **TINY)
        assert isinstance(result, ExperimentResult)

    def test_corrupt_entry_degrades_to_miss_and_heals(self, tmp_path):
        session = Session(store_dir=str(tmp_path))
        session.run("fig10", **TINY)
        (key, path, _, _), = session.store.entries()
        with open(path, "w") as handle:
            handle.write("{ not json")

        healed = Session(store_dir=str(tmp_path))
        result = healed.run("fig10", **TINY)
        assert healed.store.misses == 1
        assert isinstance(result, ExperimentResult)
        # ... and the entry is valid again afterwards.
        assert healed.store.get(key)["experiment"] == "fig10"

    def test_stale_schema_version_entry_is_ignored(self, tmp_path):
        """An envelope stored under the right key but an old
        RESULT_SCHEMA_VERSION (e.g. written mid-upgrade) must be
        recomputed, not replayed."""
        session = Session(store_dir=str(tmp_path))
        session.run("fig10", **TINY)
        (key, path, _, _), = session.store.entries()
        envelope = json.loads(open(path).read())
        envelope["schema_version"] = 0
        session.store.put(key, envelope)

        fresh = Session(store_dir=str(tmp_path))
        result = fresh.run("fig10", **TINY)
        assert fresh.store.misses == 1 and fresh.store.hits == 0
        assert isinstance(result, ExperimentResult)

    def test_unwritable_store_degrades_to_passthrough(self, tmp_path,
                                                      monkeypatch, capsys):
        session = Session(store_dir=str(tmp_path))

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("os.makedirs", refuse)
        result = session.run("fig10", **TINY)
        assert isinstance(result, ExperimentResult)
        # The degrade is observable — once, not per event.
        assert capsys.readouterr().err.count("is not writable") == 1
        session.run("fig10", **TINY)
        assert "is not writable" not in capsys.readouterr().err

    def test_store_and_store_dir_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            Session(store=ResultStore(str(tmp_path)),
                    store_dir=str(tmp_path))


class TestLedgerTail:
    def _write_ledger(self, tmp_path, count):
        import os

        store = ResultStore(str(tmp_path))
        os.makedirs(store.path, exist_ok=True)
        with open(store.ledger_path(), "w", encoding="utf-8") as handle:
            for index in range(count):
                handle.write(json.dumps(
                    {"experiment": "x", "key": f"k{index}", "hit": False,
                     "timestamp": float(index), "wall_s": 0.0},
                    sort_keys=True) + "\n")
        return store

    def test_tail_returns_the_last_n_oldest_first(self, tmp_path):
        store = self._write_ledger(tmp_path, 10)
        assert [e["key"] for e in store.tail(3)] == ["k7", "k8", "k9"]

    def test_tail_matches_ledger_entries_suffix(self, tmp_path):
        """tail(n) must agree with a whole-file read — including
        across its internal block boundaries, hence enough entries that
        the ledger spans multiple 64 KiB read blocks."""
        store = self._write_ledger(tmp_path, 2000)
        with open(store.ledger_path(), encoding="utf-8") as handle:
            full = [json.loads(line) for line in handle]
        assert len(full) == 2000
        for n in (1, 5, 100, 1999, 2000, 5000):
            assert store.tail(n) == full[-n:]

    def test_tail_of_missing_ledger_is_empty(self, tmp_path):
        assert ResultStore(str(tmp_path)).tail(5) == []

    def test_tail_nonpositive_is_empty(self, tmp_path):
        store = self._write_ledger(tmp_path, 3)
        assert store.tail(0) == []
        assert store.tail(-1) == []

    def test_tail_skips_malformed_lines_in_the_window(self, tmp_path):
        store = self._write_ledger(tmp_path, 5)
        with open(store.ledger_path(), "a", encoding="utf-8") as handle:
            handle.write("{ torn line\n")
        tailed = store.tail(3)
        # The torn line occupies a window slot but decodes to nothing.
        assert [e["key"] for e in tailed] == ["k3", "k4"]

    def test_tail_is_bounded_not_a_full_read(self, tmp_path,
                                             monkeypatch):
        """The point of the satellite: tailing a huge ledger must not
        read the whole file."""
        store = self._write_ledger(tmp_path, 20000)
        import os

        total = os.path.getsize(store.ledger_path())
        read = []
        original = open

        class CountingHandle:
            def __init__(self, handle):
                self._handle = handle

            def read(self, *args):
                data = self._handle.read(*args)
                read.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

        def counting_open(path, *args, **kwargs):
            return CountingHandle(original(path, *args, **kwargs))

        monkeypatch.setattr("builtins.open", counting_open)
        assert len(store.tail(10)) == 10
        assert sum(read) < total / 4


class TestConcurrentPersistence:
    """Satellite: two writers racing one key through atomic replace
    never corrupt an entry, and a concurrent reader sees either a miss
    or valid bytes — never a torn envelope."""

    def _envelope(self, marker: int) -> dict:
        return {"schema": "repro.experiment-result", "schema_version": 1,
                "experiment": "race", "result_type": "RaceResult",
                "data": {"marker": marker, "pad": "x" * 2048}}

    def test_racing_writers_and_reader_never_see_torn_bytes(self,
                                                            tmp_path):
        import threading

        store = ResultStore(str(tmp_path))
        key = "ab" + "0" * 62
        valid = {canonical_json(self._envelope(m)) for m in range(2)}
        stop = threading.Event()
        failures = []

        def writer(marker):
            envelope = self._envelope(marker)
            while not stop.is_set():
                store.put(key, envelope)

        def reader():
            reads = 0
            while not stop.is_set() or reads == 0:
                envelope = ResultStore(str(tmp_path)).get(key)
                if envelope is None:
                    continue  # a miss is a legal mid-race outcome
                reads += 1
                if canonical_json(envelope) not in valid:
                    failures.append(envelope)
                    return

        threads = [threading.Thread(target=writer, args=(m,))
                   for m in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures
        # The surviving entry is one of the two written envelopes...
        assert canonical_json(store.get(key)) in valid
        # ... and the race left no orphaned temp files behind.
        import os

        shard = os.path.dirname(store._file_for(key))
        assert [name for name in os.listdir(shard)
                if name.startswith(".tmp-")] == []

    def test_racing_processes_write_without_corruption(self, tmp_path):
        """Same invariant across real process boundaries (spawn), where
        no GIL serializes the writers."""
        import multiprocessing

        key = "cd" + "1" * 62
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_hammer_store_process,
                            args=(str(tmp_path), key, marker, 40))
            for marker in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        store = ResultStore(str(tmp_path))
        envelope = store.get(key)
        assert envelope["experiment"] == "race"
        assert envelope["data"]["marker"] in (0, 1)


def _hammer_store_process(path: str, key: str, marker: int,
                          iterations: int) -> None:
    """Module-level so spawn can pickle it: write and read one key in a
    tight loop, exiting non-zero on any torn read."""
    from repro.api.store import ResultStore as Store

    store = Store(path)
    envelope = {"schema": "repro.experiment-result", "schema_version": 1,
                "experiment": "race", "result_type": "RaceResult",
                "data": {"marker": marker, "pad": "x" * 2048}}
    for _ in range(iterations):
        store.put(key, envelope)
        seen = store.get(key)
        if seen is not None and seen.get("experiment") != "race":
            raise SystemExit(3)


class TestMaintenance:
    def _fill(self, tmp_path, runs=3):
        session = Session(store_dir=str(tmp_path))
        for trials in range(1, runs + 1):
            session.run("fig10", **dict(TINY, trials=trials))
        return session.store

    def test_gc_bounds_the_directory(self, tmp_path):
        store = self._fill(tmp_path)
        assert store.stats()["entries"] == 3
        import os

        entries = sorted(store.entries(), key=lambda r: (r[3], r[1]))
        for age, (_, path, _, _) in enumerate(reversed(entries)):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        entries = sorted(store.entries(), key=lambda r: (r[3], r[1]))
        keep = entries[-1][2]  # newest entry only
        outcome = store.gc(keep)
        assert outcome["removed"] == 2
        assert outcome["remaining_entries"] == 1
        (survivor, _, _, _), = store.entries()
        assert survivor == entries[-1][0]
        # The ledger is never evicted.
        assert store.tail(1)

    def test_gc_tie_break_is_deterministic(self, tmp_path):
        import os

        store = self._fill(tmp_path)
        before = sorted(path for _, path, _, _ in store.entries())
        for path in before:
            os.utime(path, (1_000_000, 1_000_000))  # exact mtime tie
        keep_two = sum(s for _, _, s, _ in store.entries()) - 1
        outcome = store.gc(keep_two)
        assert outcome["removed"] == 1
        # With every mtime equal, the lexicographically smallest path
        # goes first — on every platform, every run.
        survivors = sorted(path for _, path, _, _ in store.entries())
        assert survivors == before[1:]

    def test_gc_under_budget_is_a_noop(self, tmp_path):
        store = self._fill(tmp_path)
        assert store.gc(10**9)["removed"] == 0
        assert store.stats()["entries"] == 3

    def test_gc_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path)).gc(-1)

    def test_get_touches_mtime_for_lru(self, tmp_path):
        import os

        store = self._fill(tmp_path, runs=2)
        old, new = sorted(store.entries(), key=lambda r: (r[3], r[1]))[:2]
        os.utime(old[1], (1, 1))
        store.get(old[0])  # a read makes it most-recently-used again
        refreshed = {key: mtime for key, _, _, mtime in store.entries()}
        assert refreshed[old[0]] > 1

    def test_peek_preserves_lru_order(self, tmp_path):
        """Inspection (store ls / show) must not refresh recency, or a
        listing right before gc would flatten the LRU order."""
        import os

        store = self._fill(tmp_path, runs=2)
        (old_key, old_path, _, _), _ = sorted(
            store.entries(), key=lambda r: (r[3], r[1]))
        os.utime(old_path, (1, 1))
        assert store.peek(old_key)["experiment"] == "fig10"
        mtimes = {key: mtime for key, _, _, mtime in store.entries()}
        assert mtimes[old_key] == 1

    def test_gc_sweeps_orphaned_temp_files(self, tmp_path):
        """A writer killed between mkstemp and os.replace leaves
        .tmp-*.json orphans that are invisible to entries(); gc must
        reclaim them or the directory stays over budget forever."""
        import os

        store = self._fill(tmp_path, runs=1)
        shard = os.path.dirname(store.entries()[0][1])
        orphan = os.path.join(shard, ".tmp-orphan.json")
        with open(orphan, "wb") as handle:
            handle.write(b"x" * 100)
        os.utime(orphan, (1, 1))  # long-dead writer

        in_flight = os.path.join(shard, ".tmp-live.json")
        with open(in_flight, "wb") as handle:
            handle.write(b"x")  # a live writer's fresh temp file

        store.gc(10**9)  # under budget: entries stay, orphan goes
        assert not os.path.exists(orphan)
        assert os.path.exists(in_flight)
        assert store.stats()["entries"] == 1
