"""Tests for the persistent compile cache (repro.exec.cache)."""

import os
import pickle

import pytest

from repro.api.session import Session, install_default
from repro.core.compiler import compile_circuit
from repro.core.config import CompilerConfig
from repro.exec import cache as exec_cache
from repro.exec.cache import CompileCache, cached_compile
from repro.exec.keys import compile_key
from repro.hardware.topology import Topology
from repro.workloads.registry import build_circuit


@pytest.fixture(autouse=True)
def fresh_default_session():
    """Isolate every test from the process default session."""
    saved = install_default(None)
    yield
    install_default(saved)


def _inputs():
    circuit = build_circuit("bv", 6)
    topology = Topology.square(5, 3.0)
    config = CompilerConfig(max_interaction_distance=3.0)
    return circuit, topology, config


def test_memory_tier_shares_one_artifact():
    circuit, topology, config = _inputs()
    with Session().activate() as session:
        first = cached_compile(circuit, topology, config)
        second = cached_compile(circuit, Topology.square(5, 3.0), config)
        assert first is second
        stats = session.cache.stats()
    assert stats["memory_hits"] == 1 and stats["misses"] == 1


def test_disk_tier_round_trip(tmp_path):
    circuit, topology, config = _inputs()
    with Session(cache_dir=str(tmp_path)).activate():
        first = cached_compile(circuit, topology, config)

    # A second process is simulated by a fresh session pointed at the
    # same directory: the program must come back from disk with
    # identical content, including the pinned compile time.
    with Session(cache_dir=str(tmp_path)).activate() as fresh:
        second = cached_compile(circuit, topology, config)
        assert fresh.cache.stats()["disk_hits"] == 1
    assert second is not first
    assert second.summary() == first.summary()
    assert second.compile_seconds == first.compile_seconds
    assert second.schedule == first.schedule


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    circuit, topology, config = _inputs()
    with Session(cache_dir=str(tmp_path)).activate() as session:
        cached_compile(circuit, topology, config)
        key = compile_key(circuit, topology, config)
        entry = session.cache.disk.file_for(key)
    with open(entry, "wb") as handle:
        handle.write(b"not a pickle")

    with Session(cache_dir=str(tmp_path)).activate() as fresh:
        program = cached_compile(circuit, topology, config)
        assert program.op_count > 0
        assert fresh.cache.stats()["disk_hits"] == 0


def test_non_program_pickle_is_a_miss(tmp_path):
    cache = CompileCache(str(tmp_path))
    target = cache.disk.file_for("ab" + "0" * 62)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "wb") as handle:
        pickle.dump({"not": "a program"}, handle)
    assert cache.lookup("ab" + "0" * 62) is None


def test_persist_false_stores_nothing(tmp_path):
    """Transient compiles (hole-pattern recompilations) must not grow
    either cache tier — their keys essentially never recur."""
    circuit, topology, config = _inputs()
    with Session(cache_dir=str(tmp_path)).activate() as session:
        cached_compile(circuit, topology, config, persist=False)
        files = [f for _, _, names in os.walk(tmp_path) for f in names]
        assert files == []
        assert session.cache.stats()["entries_in_memory"] == 0
        # ... but a transient lookup still benefits from persisted entries.
        stored = cached_compile(circuit, topology, config)
        assert cached_compile(circuit, topology, config, persist=False) is stored


def test_unwritable_cache_dir_degrades_to_memory(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, 0o500)
    try:
        circuit, topology, config = _inputs()
        with Session(cache_dir=str(blocked)).activate():
            program = cached_compile(circuit, topology, config)
            assert program.op_count > 0
    finally:
        os.chmod(blocked, 0o700)


def test_unwritable_cache_dir_warns_once(tmp_path, monkeypatch, capsys):
    """The disk tier's degrade to memory-only is announced, once."""
    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("os.makedirs", refuse)
    topology = Topology.square(5, 3.0)
    with Session(cache_dir=str(tmp_path)).activate() as session:
        for size in (4, 6):
            cached_compile(build_circuit("bv", size), topology)
        assert session.cache.stats()["misses"] == 2
    err = capsys.readouterr().err
    assert err.count("is not writable") == 1
    assert "compile cache" in err


def test_mid_mismatch_normalized_like_compile_circuit(tmp_path):
    """cached_compile must key on the *effective* config: a config whose
    MID disagrees with the topology is normalized exactly the way
    compile_circuit normalizes it, so both spellings share one entry."""
    circuit, topology, _ = _inputs()
    with Session().activate():
        stale_config = CompilerConfig(max_interaction_distance=9.0)
        via_cache = cached_compile(circuit, topology, stale_config)
        direct = compile_circuit(circuit, topology, stale_config)
        assert via_cache.summary() == direct.summary()
        again = cached_compile(
            circuit, topology, CompilerConfig(max_interaction_distance=3.0)
        )
        assert again is via_cache


def test_cached_compile_equals_direct_compile():
    circuit, topology, config = _inputs()
    with Session().activate():
        cached = cached_compile(circuit, topology, config)
    direct = compile_circuit(circuit, topology, config)
    assert cached.summary() == direct.summary()
    assert cached.schedule == direct.schedule
    assert cached.initial_layout == direct.initial_layout


def test_get_cache_resolves_active_session():
    outer = exec_cache.get_cache()
    inner_session = Session()
    with inner_session.activate():
        assert exec_cache.get_cache() is inner_session.cache
    assert exec_cache.get_cache() is outer


# -- disk-tier maintenance ----------------------------------------------------------


def _fill_cache(tmp_path, sizes=(4, 6, 8)):
    cache_dir = str(tmp_path)
    with Session(cache_dir=cache_dir).activate() as session:
        topology = Topology.square(5, 3.0)
        config = CompilerConfig(max_interaction_distance=3.0)
        for size in sizes:
            cached_compile(build_circuit("bv", size), topology, config)
        return session.cache


def test_disk_stats_counts_entries(tmp_path):
    cache = _fill_cache(tmp_path)
    stats = cache.disk_stats()
    assert stats["entries"] == 3
    assert stats["total_bytes"] > 0
    assert stats["path"] == str(tmp_path)


def test_clear_disk_removes_everything(tmp_path):
    cache = _fill_cache(tmp_path)
    assert cache.clear_disk() == 3
    assert cache.disk_stats()["entries"] == 0


def test_prune_disk_evicts_lru_first(tmp_path):
    cache = _fill_cache(tmp_path)
    entries = sorted(cache.disk.entries(), key=lambda e: (e[3], e[1]))
    # Make the recency order deterministic regardless of filesystem
    # timestamp granularity.
    for age, (_, path, _, _) in enumerate(reversed(entries)):
        os.utime(path, (1_000_000 + age, 1_000_000 + age))
    entries = sorted(cache.disk.entries(), key=lambda e: (e[3], e[1]))
    keep_bytes = entries[-1][2]  # newest entry only
    outcome = cache.prune_disk(keep_bytes)
    assert outcome["removed"] == 2
    assert outcome["remaining_entries"] == 1
    remaining = cache.disk.entries()
    assert len(remaining) == 1
    assert remaining[0][1] == entries[-1][1]


def test_prune_disk_same_mtime_ties_break_on_path(tmp_path):
    """Coarse (1s) filesystem mtimes routinely stamp entries written in
    one burst with the *same* mtime; eviction order must stay
    deterministic via the path tie-break, run after run."""
    cache = _fill_cache(tmp_path)
    paths = sorted(path for _, path, _, _ in cache.disk.entries())
    for path in paths:
        os.utime(path, (1_000_000, 1_000_000))  # exact three-way tie
    keep_two = sum(size for _, _, size, _ in cache.disk.entries()) - 1
    outcome = cache.prune_disk(keep_two)
    assert outcome["removed"] == 1
    # The lexicographically smallest path is evicted first.
    assert sorted(p for _, p, _, _ in cache.disk.entries()) == paths[1:]


def test_prune_disk_noop_under_budget(tmp_path):
    cache = _fill_cache(tmp_path)
    outcome = cache.prune_disk(10**9)
    assert outcome["removed"] == 0
    assert cache.disk_stats()["entries"] == 3


def test_clear_and_prune_sweep_orphaned_temp_files(tmp_path):
    """A writer killed between mkstemp and os.replace leaves .tmp-*
    files; maintenance must reclaim them or the tier stays over budget
    forever."""
    cache = _fill_cache(tmp_path)
    shard = os.path.dirname(cache.disk.entries()[0][1])
    orphan = os.path.join(shard, ".tmp-orphan.pkl")
    with open(orphan, "wb") as handle:
        handle.write(b"x" * 100)
    os.utime(orphan, (1, 1))  # long-dead writer

    cache.prune_disk(10**9)  # under budget: entries stay, orphan goes
    assert not os.path.exists(orphan)
    assert cache.disk_stats()["entries"] == 3

    with open(orphan, "wb") as handle:
        handle.write(b"x")
    os.utime(orphan, (1, 1))  # long-dead writer again
    cache.clear_disk()
    assert not os.path.exists(orphan)
    assert cache.disk_stats()["entries"] == 0


def test_prune_keeps_fresh_temp_files(tmp_path):
    """A temp file a live writer just created must not be swept."""
    cache = _fill_cache(tmp_path)
    shard = os.path.dirname(cache.disk.entries()[0][1])
    in_flight = os.path.join(shard, ".tmp-inflight.pkl")
    with open(in_flight, "wb") as handle:
        handle.write(b"x")
    cache.prune_disk(10**9)
    assert os.path.exists(in_flight)


def test_clear_keeps_same_second_temp_files(tmp_path):
    """The mtime-boundary regression: with 1s-granularity mtimes, a temp
    file a live writer touched in the same second as the clear used to
    fall to the `<=` cutoff and be swept mid-write.  It must survive."""
    cache = _fill_cache(tmp_path)
    shard = os.path.dirname(cache.disk.entries()[0][1])
    in_flight = os.path.join(shard, ".tmp-live-writer.pkl")
    with open(in_flight, "wb") as handle:
        handle.write(b"x")  # mtime == "now", possibly floored to 1s
    assert cache.clear_disk() == 3
    assert os.path.exists(in_flight)
    assert cache.disk_stats()["entries"] == 0
