"""Parallel sweep engine.

Experiment drivers describe their work as a flat list of picklable task
dicts (built with :func:`repro.exec.keys.task_grid`) plus a module-level
task function; :func:`run_tasks` executes the list inline, or fanned out
over a spawn-context ``ProcessPoolExecutor``.  The active session's
``jobs`` is the one setting that picks between them: anything that
executes task grids — the CLI, the serving layer's job queue, a fleet
worker — selects execution by configuring its session, never by
branching inside a driver.

Execution policy — worker count and compile cache — belongs to the
active :class:`repro.api.Session`; ``run_tasks`` resolves it per call,
so two differently-configured sessions can sweep concurrently in one
process.

Determinism contract: results are returned **in task order** regardless
of completion order, and every stochastic task must derive its RNG seed
from its canonical task key (:func:`repro.exec.keys.derive_seed`), never
from a shared sequential stream.  Under that contract ``jobs=1`` and
``jobs=N`` are bitwise-identical.

The spawn context (rather than fork) is deliberate: workers start from a
clean interpreter, so results cannot depend on whatever compile caches
or RNG state the parent had accumulated — the same guarantee a fresh CLI
run gets.  Workers inherit the session's on-disk cache directory so all
processes share compile work.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional


def _worker_init(cache_dir: Optional[str],
                 circuit_dir: Optional[str] = None,
                 trace: Optional[tuple] = None) -> None:
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group.  Workers must not also raise KeyboardInterrupt mid-task
    # (half-written state, a traceback storm, and a pool that can hang
    # in shutdown): the parent alone handles the interrupt, cancels the
    # pending futures, and lets the workers exit via pool shutdown.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Mirror the parent session's cache policy exactly — including
    # "disabled".  A worker must not fall back to REPRO_CACHE_DIR from
    # the inherited environment when the parent session explicitly runs
    # without a disk cache.  The circuit store is mirrored the same way
    # so a task resolving a circuit:<digest> workload reads the parent's
    # store, not the environment default.
    from repro.api.session import Session, install_default

    install_default(Session(jobs=1, cache_dir=cache_dir,
                            circuit_dir=circuit_dir))

    # Re-establish the parent's trace context: ContextVars do not cross
    # the spawn boundary, so the parent ships (sink dir, trace id,
    # parent span id) explicitly and the worker appends spans to the
    # same on-disk trace for its whole lifetime.
    if trace is not None:
        from repro.obs import Tracer, TraceStore, install

        sink_path, trace_id, parent_span = trace
        install(Tracer(TraceStore(sink_path), service="task"),
                trace_id, parent_span)


def _reclaim_interrupted_temp_files(cache) -> None:
    """Sweep ``.tmp-*`` files after an interrupted sweep.

    Called only once every writer this run owned has stopped (inline
    execution, or after ``pool.shutdown(wait=True)``), so any temp file
    of ours still on disk is an orphan from a writer that died between
    creating it and ``os.replace``.  The cache directory is shared,
    though: another process (a server, a second CLI run) may be
    mid-write right now, and deleting *its* temp file would silently
    lose that persist (``os.replace`` failures degrade to memory-only).
    The same one-second grace as ``CompileCache.clear_disk`` protects
    such writers at any mtime granularity; an orphan of ours younger
    than that survives to the next maintenance pass (``gc``/``prune``/
    ``clear``) instead.
    """
    if cache is not None and cache.disk is not None:
        cache.disk.sweep_temp_files(max_age_seconds=1.0)


def _run_pool(task_fn: Callable, tasks: List, session, jobs: int) -> List:
    """Fan ``tasks`` over a spawn-context pool of ``jobs`` workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs import trace as _trace

    # Trace context crosses the spawn boundary only when the sink is
    # a directory workers can append to themselves (an in-memory
    # buffer in the parent is unreachable from another process).
    worker_trace = None
    active = _trace.current()
    if active is not None:
        sink_path = getattr(active.tracer.sink, "path", None)
        if sink_path is not None:
            worker_trace = (sink_path, active.trace_id, active.span_id)

    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_worker_init,
        initargs=(session.cache.path, session.circuits.path, worker_trace),
    )
    try:
        futures = [pool.submit(task_fn, task) for task in tasks]
        return [future.result() for future in futures]
    except BaseException as error:
        # Fail fast: don't let a 200-cell grid grind on for minutes
        # after cell 3 has already doomed the sweep.
        pool.shutdown(wait=True, cancel_futures=True)
        if isinstance(error, KeyboardInterrupt):
            # Every worker has exited: reclaim the temp files of any
            # writer the interrupt killed mid-write, so Ctrl-C leaves
            # no orphaned .tmp-* litter in the shared cache directory.
            _reclaim_interrupted_temp_files(session.cache)
        raise
    finally:
        pool.shutdown(wait=True)


def run_tasks(task_fn: Callable, tasks: Iterable) -> List:
    """Run ``task_fn`` over every task, returning results in task order.

    The active :class:`repro.api.Session` supplies the worker count and
    the cache directory workers share.  ``session.jobs == 1``, or a list
    of at most one task, runs inline in the calling thread; otherwise a
    spawn pool of ``min(jobs, len(tasks))`` workers runs it, so
    ``task_fn`` must be a module-level callable and each task picklable
    (spawned workers re-import the module).  A task raising an
    exception propagates it to the caller.
    """
    from repro.api.session import current_session
    from repro.obs import trace as _trace

    session = current_session()
    tasks = list(tasks)
    # Parent-side dispatch counter: a store-replayed experiment must be
    # able to prove it executed zero tasks.
    session.tasks_executed += len(tasks)
    jobs = min(session.jobs, len(tasks))
    with _trace.span("tasks", backend="spawn-pool" if jobs > 1 else "inline",
                     count=len(tasks)):
        if jobs > 1:
            return _run_pool(task_fn, tasks, session, jobs)
        try:
            return [task_fn(task) for task in tasks]
        except KeyboardInterrupt:
            _reclaim_interrupted_temp_files(session.cache)
            raise
