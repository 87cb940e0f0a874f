"""Session-scoped execution policy.

A :class:`Session` owns everything that used to live in process-wide
module globals: the worker count for sweep grids, the (two-tier) compile
cache, and the base RNG policy.  Two sessions with different
configurations can coexist in one process — the prerequisite for
embedding the repro as a library in a service:

    from repro.api import Session

    fast = Session(jobs=8, cache_dir="/var/cache/repro")
    result = fast.run("fig10", quick=True)
    print(result.format())          # or result.to_dict() for JSON

Scoping uses a :mod:`contextvars` context variable, so ``activate()``
nests correctly and is safe under asyncio/threaded callers: code running
inside ``with session.activate():`` (including ``repro.exec.run_tasks``
and every ``cached_compile``) resolves *that* session.  Outside any
``activate()`` block, a lazily-constructed process **default session**
applies.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, List, Optional

from repro.api.circuits import CIRCUIT_DIR_ENV, CircuitStore
from repro.api.store import ResultStore
from repro.exec.cache import CACHE_DIR_ENV, CompileCache
from repro.obs import trace as _obs

_CURRENT: ContextVar[Optional["Session"]] = ContextVar(
    "repro_current_session", default=None
)
_DEFAULT: Optional["Session"] = None


class Session:
    """One self-contained execution configuration.

    ``jobs``
        Worker-process count for sweep grids (default 1 = inline).
    ``cache`` / ``cache_dir``
        The compile cache this session's work goes through.  Pass an
        existing :class:`CompileCache` to share a warm memory tier, or a
        directory for a fresh cache with an on-disk tier (``None`` =
        memory only).
    ``seed``
        Optional base RNG seed applied to experiments run through
        :meth:`run` that accept an ``rng`` parameter; ``None`` keeps
        each driver's own default, preserving historical output.
    ``store`` / ``store_dir``
        Optional persistent :class:`~repro.api.store.ResultStore` making
        :meth:`run` **read-through**: a previously stored run decodes
        via ``ExperimentResult.from_dict`` instead of recomputing
        (``force=True`` escapes).  ``None`` (the default) always
        recomputes.
    ``backend``
        Optional :class:`~repro.exec.engine.ExecBackend` pinning *how*
        this session's task grids execute (inline, spawn pool, ...).
        ``None`` (the default) picks inline vs. spawn-pool from
        ``jobs`` per call — the historical behavior.  A per-call
        ``run_tasks(jobs=...)`` override still wins over the pin.
    ``circuits`` / ``circuit_dir``
        The content-addressed :class:`~repro.api.circuits.CircuitStore`
        this session resolves ``circuit:<digest>`` workload references
        through.  Defaults to ``$REPRO_CIRCUIT_DIR`` or
        ``~/.cache/repro/circuits`` (nothing touches disk until a
        circuit is actually added or resolved).
    ``tracer`` / ``trace_dir``
        Optional tracing (see :mod:`repro.obs`): a directory makes every
        :meth:`run` record its spans — session, store read/write, task
        fan-out, per-task compile and shots — into an append-only JSONL
        trace under it; :attr:`last_trace_id` names the most recent one.
        ``None`` (the default) records nothing and costs nothing.
        Tracing never feeds keys, seeds, or envelopes (the
        zero-perturbation contract).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache: Optional[CompileCache] = None,
        seed: Optional[int] = None,
        store_dir: Optional[str] = None,
        store: Optional[ResultStore] = None,
        backend=None,
        circuit_dir: Optional[str] = None,
        circuits: Optional[CircuitStore] = None,
        trace_dir: Optional[str] = None,
        tracer: Optional[_obs.Tracer] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass cache or cache_dir, not both")
        if store is not None and store_dir is not None:
            raise ValueError("pass store or store_dir, not both")
        if circuits is not None and circuit_dir is not None:
            raise ValueError("pass circuits or circuit_dir, not both")
        if tracer is not None and trace_dir is not None:
            raise ValueError("pass tracer or trace_dir, not both")
        if backend is not None and not callable(getattr(backend, "run",
                                                        None)):
            raise TypeError(
                f"backend must be an ExecBackend (object with a run() "
                f"method), got {backend!r}")
        self.jobs = int(jobs)
        self.cache = cache if cache is not None else CompileCache(cache_dir)
        self.seed = None if seed is None else int(seed)
        self.store = (store if store is not None
                      else ResultStore(store_dir) if store_dir else None)
        self.backend = backend
        if circuits is None:
            if circuit_dir is None:
                circuit_dir = (os.environ.get(CIRCUIT_DIR_ENV)
                               or os.path.join(os.path.expanduser("~"),
                                               ".cache", "repro", "circuits"))
            circuits = CircuitStore(circuit_dir)
        self.circuits = circuits
        if tracer is None and trace_dir is not None:
            from repro.obs import TraceStore

            tracer = _obs.Tracer(TraceStore(trace_dir), service="session")
        self.tracer = tracer
        #: Trace id of the most recent traced :meth:`run` (``None``
        #: until one happens, or when tracing is off).
        self.last_trace_id: Optional[str] = None
        #: Sweep tasks dispatched under this session (parent-side count,
        #: any worker level) — zero across a pure store replay.
        self.tasks_executed = 0

    # -- scoping -----------------------------------------------------------------------

    @contextmanager
    def activate(self):
        """Make this the current session for the dynamic extent."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    # -- execution ---------------------------------------------------------------------

    def run_tasks(
        self, task_fn: Callable, tasks: Iterable, jobs: Optional[int] = None
    ) -> List:
        """Fan ``tasks`` over the sweep engine under this session."""
        from repro.exec.engine import run_tasks

        return run_tasks(task_fn, tasks, jobs=jobs, session=self)

    def cached_compile(self, circuit, topology, config=None,
                       persist: bool = True):
        """``compile_circuit`` behind this session's compile cache."""
        from repro.exec.cache import cached_compile

        return cached_compile(
            circuit, topology, config, persist=persist, cache=self.cache
        )

    def run(self, experiment: str, quick: bool = False,
            force: bool = False, **params):
        """Run a registered experiment under this session's policy.

        Returns the driver's :class:`~repro.api.results.ExperimentResult`.
        ``quick=True`` applies the spec's reduced-parameter preset;
        keyword arguments override individual parameters.

        With a configured result store the call is **read-through**: a
        stored envelope for this (experiment, resolved params) decodes
        via ``from_dict`` and nothing recomputes; a miss runs the
        driver, persists its envelope, and returns it.  ``force=True``
        skips the lookup but still refreshes the stored entry.  Either
        way one ledger line records the outcome.
        """
        from repro.api.registry import get_experiment

        spec = get_experiment(experiment)
        if (
            self.seed is not None
            and "rng" not in params
            and any(p.name == "rng" for p in spec.params)
        ):
            params["rng"] = self.seed
        with _obs.root_span(self.tracer, "session.run", service="session",
                            experiment=spec.name,
                            quick=bool(quick)) as run_span:
            if run_span.trace_id is not None:
                self.last_trace_id = run_span.trace_id
            if self.store is None:
                with self.activate():
                    return spec.run(quick=quick, **params)

            from repro.api.results import ExperimentResult
            from repro.api.store import store_key

            key = store_key(
                spec.name, spec.resolved_params(quick=quick,
                                                overrides=params)
            )
            start = time.perf_counter()
            if not force:
                with _obs.span("store.read", key=key[:16]) as read_span:
                    envelope = self.store.replay(key, spec.name,
                                                 trace=run_span.trace_id)
                    read_span.set(hit=envelope is not None)
                if envelope is not None:
                    run_span.set(store="hit")
                    return ExperimentResult.from_dict(envelope)
            with self.activate():
                result = spec.run(quick=quick, **params)
            run_span.set(store="miss")
            with _obs.span("store.write", key=key[:16]):
                self.store.save(key, spec.name, result.to_dict(),
                                time.perf_counter() - start,
                                trace=run_span.trace_id)
            return result

    # -- sweeps ------------------------------------------------------------------------

    def iter_sweep(self, spec, force: bool = False):
        """Run a :class:`~repro.api.sweep.SweepSpec` cell by cell,
        yielding ``(cell, result)`` as each completes.

        Every cell goes through :meth:`run`, so cells inherit this
        session's full policy — task grids fan out over the session's
        backend/jobs, and with a configured store each cell is
        **read-through** under its own cell key (a previously stored
        cell replays with zero tasks executed; ``force=True`` recomputes
        every cell).
        """
        for cell in spec.cells():
            result = self.run(spec.experiment, quick=spec.quick,
                              force=force, **dict(cell.params))
            yield cell, result

    def run_sweep(self, spec, force: bool = False):
        """Run every cell of ``spec``; the aligned
        :class:`~repro.api.sweep.SweepResult` envelope."""
        from repro.api.sweep import SweepResult

        cells = []
        results = []
        for cell, result in self.iter_sweep(spec, force=force):
            cells.append(cell)
            results.append(result)
        return SweepResult(experiment=spec.experiment, quick=spec.quick,
                           cells=tuple(cells), results=tuple(results))

    # -- introspection -----------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Replay count of this session's result store (zero without
        one).  Note the counters live on the store object: sessions
        sharing one store — the serving layer's per-job sessions —
        share the counts."""
        return self.store.hits if self.store is not None else 0

    @property
    def misses(self) -> int:
        """Miss (fresh execution) count of this session's result store
        (zero without one); see :attr:`hits` for the sharing caveat."""
        return self.store.misses if self.store is not None else 0

    def cache_stats(self) -> dict:
        """This session's compile-cache counters (per-run, not global)."""
        return self.cache.stats()

    def __repr__(self) -> str:
        where = self.cache.path or "memory"
        stored = self.store.path if self.store is not None else None
        pinned = f", backend={self.backend!r}" if self.backend else ""
        return (f"Session(jobs={self.jobs}, cache={where!r}, "
                f"seed={self.seed!r}, store={stored!r}, "
                f"circuits={self.circuits.path!r}{pinned})")


# -- current / default session resolution ------------------------------------------------


def current_session() -> Session:
    """The active session: innermost ``activate()``, else the default."""
    active = _CURRENT.get()
    return active if active is not None else default_session()


def default_session() -> Session:
    """The process default session (lazily built from the environment)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session(
            cache_dir=os.environ.get(CACHE_DIR_ENV) or None
        )
    return _DEFAULT


def install_default(session: Optional[Session]) -> Optional[Session]:
    """Replace the process default session, returning the previous one.

    ``None`` resets to "unconfigured": the next :func:`default_session`
    call rebuilds from the environment.  Used by worker initializers
    (to mirror the parent's cache policy) and test fixtures.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = session
    return previous
