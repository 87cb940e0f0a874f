"""Persistent, cross-process compilation cache.

Compilation dominates every sweep: the figure drivers and the shot
simulator compile the same (circuit, topology, config) points over and
over, and each fresh process used to start from zero.  This module backs
every compile with a two-tier cache:

* an **in-memory** tier (always on) deduplicating work within a process;
* an optional **on-disk** tier shared between processes and across runs,
  keyed by :func:`repro.exec.keys.compile_key`.

Disk entries are content-addressed pickles in a
:class:`repro.exec.diskutil.ShardedDir` (``<key[:2]>/<key>.pkl``,
written atomically), so concurrent workers hammering the same directory
never observe a torn entry; a corrupt or unreadable file is treated as a
miss and overwritten, and an unwritable directory degrades to the memory
tier with one stderr warning.  Because a :class:`CompiledProgram`
stores the wall-clock ``compile_seconds`` measured when it was first
built, a warm cache also pins the *measured compile time* — which is
what makes figure output containing compile durations reproducible
run-to-run.

Cached programs are shared objects: treat them as immutable (the loss
strategies replace their program, never mutate it).
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.core.config import CompilerConfig
from repro.core.result import CompiledProgram
from repro.exec.diskutil import ShardedDir
from repro.exec.keys import compile_key
from repro.hardware.topology import Topology

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class CompileCache:
    """Two-tier (memory + optional disk) store of compiled programs."""

    def __init__(self, path: Optional[str] = None):
        self.disk = (ShardedDir(path, ".pkl", "compile cache",
                                "compiled programs stay in memory only")
                     if path else None)
        self.path = self.disk.path if self.disk is not None else None
        self._memory: dict = {}
        #: :func:`repro.analysis.architectures.compiled_metrics`' memo.
        self.metrics_memo: dict = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # -- lookup/store ------------------------------------------------------------

    def lookup(self, key: str) -> Optional[CompiledProgram]:
        program = self._memory.get(key)
        if program is not None:
            self.memory_hits += 1
            return program
        program = self._read_disk(key)
        if program is not None:
            self.disk_hits += 1
            self._memory[key] = program
            return program
        self.misses += 1
        return None

    def store(self, key: str, program: CompiledProgram) -> None:
        self._memory[key] = program
        if self.disk is not None:
            self.disk.write(key, pickle.dumps(
                program, protocol=pickle.HIGHEST_PROTOCOL))

    def clear_memory(self) -> None:
        self._memory.clear()
        self.metrics_memo.clear()

    def stats(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "entries_in_memory": len(self._memory),
        }

    # -- disk tier ---------------------------------------------------------------

    def _read_disk(self, key: str) -> Optional[CompiledProgram]:
        data = self.disk.read(key) if self.disk is not None else None
        if data is None:
            return None
        try:
            program = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not isinstance(program, CompiledProgram):
            return None
        # Touch on hit so prune_disk evicts least-recently-used entries
        # first.
        self.disk.touch(key)
        return program

    # -- disk-tier maintenance ---------------------------------------------------

    def disk_entries(self) -> List[Tuple[str, int, float]]:
        """Every persisted entry as ``(path, bytes, mtime)``."""
        if self.disk is None:
            return []
        return [(path, size, mtime)
                for _, path, size, mtime in self.disk.entries()]

    def disk_stats(self) -> dict:
        if self.disk is None:
            return {"path": None, "entries": 0, "total_bytes": 0}
        return self.disk.stats()

    def clear_disk(self) -> int:
        """Delete every persisted entry (and any orphaned temp files);
        returns the number of entries removed."""
        return self.disk.clear() if self.disk is not None else 0

    def prune_disk(self, max_bytes: int) -> dict:
        """Evict least-recently-used entries until the tier fits
        ``max_bytes``; returns ``{"removed", "remaining_entries",
        "remaining_bytes"}``.

        The in-memory tier is untouched (it dies with the process); only
        the unbounded on-disk tier needs eviction.
        """
        if self.disk is None:
            return {"removed": 0, "remaining_entries": 0,
                    "remaining_bytes": 0}
        return self.disk.gc(max_bytes)


# -- session resolution ------------------------------------------------------------

# Execution state lives on repro.api.Session objects; the functions below
# read the *current* session.


def get_cache() -> CompileCache:
    """The current session's compile cache."""
    from repro.api.session import current_session

    return current_session().cache


def get_cache_dir() -> Optional[str]:
    return get_cache().path


# -- the cached compile entry point ------------------------------------------------


def cached_compile(
    circuit: Circuit,
    topology: Topology,
    config: Optional[CompilerConfig] = None,
    persist: bool = True,
    cache: Optional[CompileCache] = None,
) -> CompiledProgram:
    """``compile_circuit`` behind a compile cache.

    ``cache`` defaults to the current session's (see
    :class:`repro.api.Session`); pass one explicitly to bypass session
    resolution.  ``persist=False`` keeps the result out of the cache
    entirely (the lookup still runs) — used for mid-run recompilations
    against transient hole patterns: their keys are almost never seen
    twice, so storing them would only grow the memory tier and bloat the
    disk store without ever producing a hit.
    """
    from repro.core.compiler import compile_circuit

    if config is None:
        config = CompilerConfig(
            max_interaction_distance=topology.max_interaction_distance
        )
    if abs(config.max_interaction_distance
           - topology.max_interaction_distance) > 1e-9:
        # Mirror compile_circuit's normalization so equal effective
        # compilations share one key.
        config = config.with_mid(topology.max_interaction_distance)

    from repro.obs import trace as _trace

    if cache is None:
        cache = get_cache()
    key = compile_key(circuit, topology, config)
    with _trace.span("compile", key=key[:16]) as compile_span:
        memory_before, disk_before = cache.memory_hits, cache.disk_hits
        program = cache.lookup(key)
        if program is None:
            compile_span.set(cache="miss")
            program = compile_circuit(circuit, topology, config)
            if persist:
                cache.store(key, program)
        elif cache.memory_hits > memory_before:
            compile_span.set(cache="memory")
        elif cache.disk_hits > disk_before:
            compile_span.set(cache="disk")
    return program
