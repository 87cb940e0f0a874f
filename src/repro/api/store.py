"""Persistent, content-addressed store of experiment-result envelopes.

Repeated experiment runs are the serving-scale workload: once a
parameter set has been computed, answering it again should be an O(1)
lookup, not a recomputation.  A :class:`ResultStore` persists every
``ExperimentResult.to_dict()`` envelope under a canonical **store key**
— a SHA-256 digest of

* the experiment name,
* the *resolved* parameter mapping (declared defaults overlaid by the
  ``--quick`` preset and any overrides, canonicalized exactly the way
  sweep-task keys are — see :func:`repro.exec.keys.params_digest`),
* :data:`repro.api.results.RESULT_SCHEMA_VERSION` (envelope shape), and
* :data:`repro.exec.keys.SCHEMA_VERSION` (compiler semantics),

so bumping either schema version re-keys every run and silently orphans
stale entries instead of ever replaying them.  Execution-policy
parameters (``jobs``) stay out of the key: the determinism contract
guarantees they never change output.

Entries use the sharded layout every store shares
(:class:`repro.exec.diskutil.ShardedDir`): ``<key[:2]>/<key>.json``
files written atomically, plus an append-only run ledger
``ledger.jsonl`` — one ``{"timestamp", "experiment", "key", "hit",
"wall_s"}`` line (plus a ``"trace"`` id when tracing was active) per
read-through :meth:`ResultStore.replay` hit or :meth:`ResultStore.save`
miss — for trend inspection.
:meth:`ResultStore.gc` bounds the directory with the same LRU-by-mtime
policy (path tie-break included) as ``CompileCache.prune_disk``; entry
reads touch mtimes so replayed results stay resident.

Entries hold the canonical JSON text (``sort_keys`` + 2-space indent +
trailing newline) that ``python -m repro run X --format json`` prints,
so a stored envelope and a fresh run are byte-comparable.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api import results as _results
from repro.exec import keys as _keys
from repro.exec.diskutil import ShardedDir

#: Environment variable naming the default result-store directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: The append-only run ledger, at the store root (never an entry).
LEDGER_NAME = "ledger.jsonl"

#: Parameters that select execution policy, not experiment semantics:
#: the determinism contract pins output at any worker count, so they
#: must not fragment store keys.
NON_SEMANTIC_PARAMS = frozenset({"jobs"})


def _storable(value: Any) -> bool:
    """Whether ``value`` canonicalizes stably into a store key."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return True
    if isinstance(value, (tuple, list)):
        return all(_storable(item) for item in value)
    return callable(getattr(value, "store_form", None))


def _normalized(value: Any) -> Any:
    """Lists folded into tuples, recursively; typed workload references
    folded into their canonical string.

    Drivers treat sequence parameters interchangeably (``mids=[2.0]``
    vs ``mids=(2.0,)``), so turning a store on must not start rejecting
    — or re-keying — the list spelling of a call that already worked.
    Likewise a typed :class:`repro.workloads.ref.WorkloadRef` and its
    string spelling (``"bv@20"``, ``"circuit:<digest>"``) must share one
    key: refs arrive typed from Python callers and as strings over JSON
    (serve, fleet), and those are the *same run*.  No ``SCHEMA_VERSION``
    bump: accepting a new value type cannot re-key any existing entry —
    only changing the canonical form of an already-accepted type can
    (see :func:`repro.exec.keys.task_key`).
    """
    store_form = getattr(value, "store_form", None)
    if callable(store_form):
        return store_form()
    if isinstance(value, (tuple, list)):
        return tuple(_normalized(item) for item in value)
    return value


def _tagged(value: Any) -> Tuple[str, Any]:
    """A normalized value with its type name, floats via ``repr``.

    Result identity needs more than :func:`repro.exec.keys.task_key`'s
    seed-grade canonicalization: there a top-level float and its string
    spelling may collide harmlessly, but replaying the wrong stored
    result silently is not harmless.  Tagging every value with its type
    keeps ``3.0``, ``"3.0"``, ``3``, and ``True``/``1`` all distinct.
    """
    value = _normalized(value)
    return (type(value).__name__,
            repr(value) if isinstance(value, float) else value)


def store_key(experiment: str, params: Mapping[str, Any]) -> str:
    """Canonical digest identifying one (experiment, resolved-params) run.

    ``params`` must be the *resolved* mapping
    (:meth:`repro.api.registry.ExperimentSpec.resolved_params`), so two
    spellings of the same effective run — ``--quick`` vs its explicit
    parameters — share a key.  Raises ``ValueError`` on parameter values
    (live RNG objects, model instances) with no stable canonical form.
    """
    semantic = {name: value for name, value in params.items()
                if name not in NON_SEMANTIC_PARAMS}
    for name in sorted(semantic):
        if not _storable(semantic[name]):
            raise ValueError(
                f"parameter {name!r}={semantic[name]!r} has no canonical "
                "store form; store keys are built from str/int/float/"
                "bool/None (or tuples of them)"
            )
    return _keys.params_digest(
        (
            "repro-result",
            _results.RESULT_SCHEMA_VERSION,
            _keys.SCHEMA_VERSION,
            experiment,
        ),
        {name: _tagged(value) for name, value in semantic.items()},
    )


def canonical_json(envelope: Dict[str, Any]) -> str:
    """The byte-stable JSON text of one envelope — identical to the
    single-experiment ``--format json`` CLI output."""
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


class ResultStore:
    """On-disk store of result envelopes keyed by :func:`store_key`."""

    def __init__(self, path: str):
        self.disk = ShardedDir(path, ".json", "result store",
                               "results will be recomputed, not persisted")
        self.path = self.disk.path
        self.hits = 0
        self.misses = 0

    # -- entry i/o ---------------------------------------------------------------

    def _file_for(self, key: str) -> str:
        return self.disk.file_for(key)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored envelope for ``key``, or ``None``.

        A missing, torn, or non-JSON entry is a miss; a hit touches the
        entry's mtime so :meth:`gc` evicts least-recently-used results
        first.
        """
        envelope = self.peek(key)
        if envelope is not None:
            self.disk.touch(key)
        return envelope

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """:meth:`get` without the recency touch — for inspection tools
        (``store ls``/``show``) that must not distort LRU eviction
        order by reading."""
        data = self.disk.read(key)
        if data is None:
            return None
        try:
            envelope = json.loads(data.decode("utf-8"))
        except ValueError:
            return None
        if not isinstance(envelope, dict):
            return None
        return envelope

    def put(self, key: str, envelope: Dict[str, Any]) -> None:
        """Persist one envelope atomically.

        An unwritable store directory degrades to pass-through
        execution rather than failing the run that produced the result.
        """
        self.disk.write(key, canonical_json(envelope).encode("utf-8"))

    # -- read-through ------------------------------------------------------------

    def replay(self, key: str, experiment: str,
               trace: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The read-through hit path: the stored envelope for ``key``
        plus one hit line in the ledger — only when
        ``ExperimentResult.from_dict`` accepts it.  A stale or corrupt
        entry returns ``None``, records nothing, and is overwritten by
        the :meth:`save` of the miss that follows."""
        start = time.perf_counter()
        envelope = self.get(key)
        if envelope is None:
            return None
        try:
            _results.ExperimentResult.from_dict(envelope)
        except (TypeError, ValueError):
            return None
        self.record(key, experiment, time.perf_counter() - start, hit=True,
                    trace=trace)
        return envelope

    def save(self, key: str, experiment: str, envelope: Dict[str, Any],
             wall_s: float, trace: Optional[str] = None) -> None:
        """The read-through miss path: :meth:`put` plus one miss line in
        the ledger."""
        self.put(key, envelope)
        self.record(key, experiment, wall_s, hit=False, trace=trace)

    # -- the run ledger ----------------------------------------------------------

    def ledger_path(self) -> str:
        return os.path.join(self.path, LEDGER_NAME)

    def record(self, key: str, experiment: str, wall_s: float,
               hit: bool, trace: Optional[str] = None) -> None:
        """Append one run event to the ledger (and the counters).

        ``trace`` is the trace id of the run that produced the event,
        when tracing was on — it links a stored envelope back to its
        spans (``store ls --last`` shows it, ``repro trace show``
        expands it).  Observability only: never part of the store key.
        """
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        entry = {
            "timestamp": round(time.time(), 3),
            "experiment": experiment,
            "key": key,
            "hit": bool(hit),
            "wall_s": round(wall_s, 4),
        }
        if trace is not None:
            entry["trace"] = trace
        try:
            os.makedirs(self.path, exist_ok=True)
            with open(self.ledger_path(), "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError as error:
            # An unwritable store degrades to pass-through execution;
            # losing a trend line must not fail the run itself — but the
            # degrade is announced once on stderr.
            self.disk.warn_unwritable(error)

    @staticmethod
    def _parse_ledger_lines(lines) -> List[Dict[str, Any]]:
        entries = []
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries

    def ledger_entries(self) -> List[Dict[str, Any]]:
        """Every ledger line, oldest first (malformed lines skipped)."""
        try:
            with open(self.ledger_path(), "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        return self._parse_ledger_lines(lines)

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The valid entries among the last ``n`` ledger lines, oldest
        first — **bounded**: reads backwards from the end of the file in
        fixed-size blocks, so a long-lived server polling its recent
        activity never pays for (or holds in memory) the whole
        append-only history.  Malformed lines in the window are skipped,
        like :meth:`ledger_entries`.
        """
        if n <= 0:
            return []
        try:
            handle = open(self.ledger_path(), "rb")
        except OSError:
            return []
        block = 1 << 16
        with handle:
            handle.seek(0, os.SEEK_END)
            position = handle.tell()
            data = b""
            # n+1 newlines guarantee n complete trailing lines even when
            # the file ends mid-line (a writer between write and flush).
            while position > 0 and data.count(b"\n") <= n:
                step = min(block, position)
                position -= step
                handle.seek(position)
                data = handle.read(step) + data
        lines = data.split(b"\n")
        if position > 0:
            # The first chunk border almost certainly split a line.
            lines = lines[1:]
        tail_lines = [line for line in lines if line][-n:]
        return self._parse_ledger_lines(
            line.decode("utf-8", "replace") for line in tail_lines
        )

    # -- maintenance -------------------------------------------------------------

    def entries(self) -> List[Tuple[str, str, int, float]]:
        """Every persisted entry as ``(key, path, bytes, mtime)``."""
        return self.disk.entries()

    def stats(self) -> Dict[str, Any]:
        return self.disk.stats()

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until the entry files fit
        ``max_bytes`` — the same LRU policy as
        ``CompileCache.prune_disk`` (:meth:`repro.exec.diskutil.
        ShardedDir.gc`).  The ledger is never evicted."""
        return self.disk.gc(max_bytes)

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"
