"""Server-side sweep tracking: per-cell fan-out over the job queue.

A ``POST /sweeps`` expands its :class:`repro.api.sweep.SweepSpec`
server-side and becomes one :class:`SweepRecord`: every cell either
short-circuits on a result-store hit or fans out as one
:class:`repro.serve.jobs.Job` — riding the queue's in-flight
deduplication, so two users' overlapping grids execute each shared cell
exactly once, and fleet workers claim cells like any other job (the
ROADMAP's cell-level distribution, with no new protocol).

The record keeps a **completion-order log** of cell indices guarded by
one condition variable; any number of stream consumers
(``GET /sweeps/<id>/stream``) replay that log from the top and then
block for the next completion, so a late subscriber sees the full
history and a live one is woken the moment a cell finalizes.  Cells are
processed in canonical order at submission, which is why a sweep whose
cells all hit the store streams instantly *in canonical cell order*.

Nothing here owns execution: jobs belong to the queue, envelopes to the
store.  Dropping a stream consumer (client disconnect) therefore leaks
nothing — the generator dies, the jobs finish under queue ownership,
and the record remains pollable.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional

from repro.api.store import ResultStore
from repro.api.sweep import SweepCell, SweepSpec
from repro.obs import trace as _obs
from repro.serve.jobs import DONE, FAILED, Job, JobQueue
from repro.serve.metrics import ServeMetrics

#: Cell states reuse the job-lifecycle vocabulary; a cell is "queued"
#: until its job (or store short-circuit) finalizes it.
QUEUED = "queued"


class _CellState:
    """One cell's observable progress inside a sweep record."""

    __slots__ = ("cell", "status", "source", "job_id", "coalesced",
                 "envelope", "error", "tasks_executed", "wall_s")

    def __init__(self, cell: SweepCell):
        self.cell = cell
        self.status = QUEUED
        #: "store" (submission-time hit) or "computed" (queue job).
        self.source: Optional[str] = None
        self.job_id: Optional[str] = None
        self.coalesced = False
        self.envelope: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.tasks_executed: Optional[int] = None
        self.wall_s: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            **self.cell.describe(),
            "status": self.status,
        }
        if self.source is not None:
            payload["source"] = self.source
        if self.job_id is not None:
            payload["job"] = self.job_id
        if self.coalesced:
            payload["coalesced"] = True
        if self.error is not None:
            payload["error"] = self.error
        if self.tasks_executed is not None:
            payload["tasks_executed"] = self.tasks_executed
        return payload


class SweepRecord:
    """One submitted sweep: cells, their lifecycle, a completion log."""

    def __init__(self, sweep_id: str, spec: SweepSpec, force: bool):
        self.id = sweep_id
        self.spec = spec
        self.force = force
        self.created_at = time.time()
        self.cells: List[_CellState] = [_CellState(cell)
                                        for cell in spec.cells()]
        self._cond = threading.Condition()
        #: Cell indices in the order they finalized — the stream replay
        #: log every consumer reads from the top.
        self._completed: List[int] = []

    # -- lifecycle ---------------------------------------------------------------

    def _finish_cell(self, state: _CellState, status: str, source: str,
                     envelope: Optional[Dict[str, Any]] = None,
                     error: Optional[str] = None,
                     tasks_executed: Optional[int] = None,
                     wall_s: Optional[float] = None) -> None:
        with self._cond:
            if state.status in (DONE, FAILED):
                return  # one job can finalize a cell only once
            state.status = status
            state.source = source
            state.envelope = envelope
            state.error = error
            state.tasks_executed = tasks_executed
            state.wall_s = wall_s
            self._completed.append(state.cell.index)
            self._cond.notify_all()

    def _cell_job_done(self, state: _CellState, job: Job) -> None:
        """The queue's done-callback for one cell's job."""
        if job.status == DONE:
            self._finish_cell(state, DONE, "computed",
                              envelope=job.envelope,
                              tasks_executed=job.tasks_executed,
                              wall_s=job.wall_s)
        else:
            self._finish_cell(state, FAILED, "computed",
                              error=job.error or "job failed",
                              tasks_executed=job.tasks_executed,
                              wall_s=job.wall_s)

    # -- observation -------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.cells)

    def finished(self) -> bool:
        with self._cond:
            return len(self._completed) >= self.total

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every cell finalized; ``True`` unless timed out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._completed) < self.total:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining if remaining is not None else 0.5)
        return True

    def describe(self) -> Dict[str, Any]:
        """The JSON shape of ``GET /sweeps/<id>``."""
        with self._cond:
            by_status: Dict[str, int] = {}
            for state in self.cells:
                by_status[state.status] = by_status.get(state.status, 0) + 1
            completed = len(self._completed)
            detail = [state.describe() for state in self.cells]
        return {
            "id": self.id,
            "experiment": self.spec.experiment,
            "quick": self.spec.quick,
            "force": self.force,
            "total": self.total,
            "completed": completed,
            "by_status": dict(sorted(by_status.items())),
            "cells": detail,
            "stream_url": f"/sweeps/{self.id}/stream",
        }

    def events(self) -> Iterator[Dict[str, Any]]:
        """Yield one record per cell **in completion order**, blocking
        until the next cell finalizes; ends after the last cell.

        Safe for any number of concurrent consumers: each replays the
        completion log from the top (already-finished cells stream
        immediately) and then waits on the shared condition.
        """
        delivered = 0
        while delivered < self.total:
            with self._cond:
                while len(self._completed) <= delivered:
                    self._cond.wait(0.5)
                index = self._completed[delivered]
                state = self.cells[index]
                payload = state.describe()
            delivered += 1
            if state.envelope is not None:
                payload["envelope"] = state.envelope
            yield payload

    def summary(self) -> Dict[str, Any]:
        """The stream's terminal line: outcome counts, no envelopes."""
        with self._cond:
            failed = sum(1 for state in self.cells
                         if state.status == FAILED)
            done = sum(1 for state in self.cells if state.status == DONE)
        return {
            "sweep": self.id,
            "total": self.total,
            "done": done,
            "failed": failed,
        }


class SweepTable:
    """Every live sweep, keyed by id, over one store + one job queue."""

    def __init__(self, store: ResultStore, jobs: JobQueue,
                 metrics: Optional[ServeMetrics] = None,
                 max_finished: int = 256):
        if max_finished < 1:
            raise ValueError(f"max_finished must be >= 1, got {max_finished}")
        self.store = store
        self.jobs = jobs
        self.metrics = metrics if metrics is not None else jobs.metrics
        self._max_finished = max_finished
        self._lock = threading.Lock()
        self._sweeps: Dict[str, SweepRecord] = {}

    def submit(self, spec: SweepSpec, force: bool = False) -> SweepRecord:
        """Expand ``spec`` into one job per cell (store hits short-
        circuit; misses ride the queue's in-flight dedup)."""
        record = SweepRecord(uuid.uuid4().hex[:12], spec, force)
        with self._lock:
            self._sweeps[record.id] = record
            self._prune_finished_locked()
        self.metrics.count("sweeps_submitted")
        self.metrics.count("sweep_cells_total", record.total)
        for state in record.cells:
            cell = state.cell
            if not force:
                # Same contract as a POST /run store hit: ledger the
                # replay, count it, never touch the queue.
                envelope = self.store.replay(cell.key, spec.experiment,
                                             trace=_obs.current_trace_id())
                if envelope is not None:
                    self.metrics.count("sweep_cells_hit")
                    record._finish_cell(state, DONE, "store",
                                        envelope=envelope,
                                        tasks_executed=0)
                    continue
            job, coalesced = self.jobs.submit(
                spec.experiment, cell.key, spec.quick, dict(cell.params),
                force=force)
            state.job_id = job.id
            state.coalesced = coalesced
            self.metrics.count("sweep_cells_queued")
            if coalesced:
                self.metrics.count("sweep_cells_coalesced")
            self.jobs.on_done(
                job, lambda job, state=state:
                record._cell_job_done(state, job))
        return record

    def get(self, sweep_id: str) -> Optional[SweepRecord]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def describe(self) -> Dict[str, Any]:
        """Table-level state for ``GET /metrics``."""
        with self._lock:
            records = list(self._sweeps.values())
        active = sum(1 for record in records if not record.finished())
        return {"tracked": len(records), "active": active}

    def _prune_finished_locked(self) -> None:
        finished = [sweep_id for sweep_id, record in self._sweeps.items()
                    if record.finished()]
        for sweep_id in finished[:max(0,
                                      len(finished) - self._max_finished)]:
            del self._sweeps[sweep_id]
