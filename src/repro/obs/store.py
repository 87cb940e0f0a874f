"""Append-only JSONL trace sink — where spans land on disk.

Layout is the one every store shares
(:class:`repro.exec.diskutil.ShardedDir`): one file per trace, sharded
as ``<trace_id[:2]>/<trace_id>.jsonl``, each line one span
record (see :func:`repro.obs.trace.span_record`).  Appends are
line-atomic on POSIX (single ``write`` of one ``\\n``-terminated line in
append mode), so concurrent emitters — the server's request threads,
the job queue, spawn-pool workers on the same host — interleave whole
records, never torn ones.

Like the result store, an unwritable directory degrades to dropping
spans with a single stderr warning: observability must never fail the
run it is observing.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Tuple

from repro.exec.diskutil import ShardedDir
from repro.obs.trace import is_trace_id

#: Environment variable naming the default trace-sink directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


class TraceStore:
    """On-disk trace sink: one JSONL file per trace id."""

    def __init__(self, path: str):
        self.disk = ShardedDir(path, ".jsonl", "trace store",
                               "spans will be dropped")
        self.path = self.disk.path

    # -- writing -----------------------------------------------------------------

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one span record to its trace's file."""
        trace_id = record.get("trace")
        if not is_trace_id(trace_id):
            return
        target = self.disk.file_for(trace_id)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            line = json.dumps(record, sort_keys=True) + "\n"
            with open(target, "a", encoding="utf-8") as handle:
                handle.write(line)
        except OSError as error:
            self.disk.warn_unwritable(error)

    def ingest(self, records, observer=None) -> int:
        """Append a batch of externally-produced records (``POST
        /trace``); malformed entries are skipped, not fatal.  Returns
        the number of records accepted.  ``observer`` (if given) is
        called with each accepted record — the serving layer tees
        remote span durations into its latency histograms this way, so
        a fleet-only server still fills its compile histogram."""
        accepted = 0
        for record in records:
            if not isinstance(record, dict):
                continue
            if not is_trace_id(record.get("trace")):
                continue
            if not isinstance(record.get("name"), str):
                continue
            # A non-finite time would reach /metrics and GET /trace as
            # a JSON ``Infinity``/``NaN``, which strict parsers refuse.
            if not all(is_finite_number(record.get(field))
                       for field in ("start", "duration_s")):
                continue
            self.emit(record)
            if observer is not None:
                observer(record)
            accepted += 1
        return accepted

    # -- reading -----------------------------------------------------------------

    def read(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every span of one trace, sorted by start time (stable on the
        span id so concurrent same-stamp spans order deterministically).
        Empty when the trace is unknown; a line that is not UTF-8 or
        not a JSON object is skipped."""
        data = self.disk.read(trace_id) if is_trace_id(trace_id) else None
        if data is None:
            return []
        spans = []
        for line in data.splitlines():
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                continue
            if isinstance(record, dict):
                spans.append(record)
        spans.sort(key=lambda s: (s.get("start", 0.0), str(s.get("span"))))
        return spans

    def traces(self) -> List[Tuple[str, int, float]]:
        """Every stored trace as ``(trace_id, spans_bytes, mtime)``,
        least recently written first."""
        rows = [(trace_id, size, mtime)
                for trace_id, _, size, mtime in self.disk.entries()
                if is_trace_id(trace_id)]
        rows.sort(key=lambda row: (row[2], row[0]))
        return rows

    def stats(self) -> Dict[str, Any]:
        rows = self.traces()
        return {
            "path": self.path,
            "traces": len(rows),
            "total_bytes": sum(size for _, size, _ in rows),
        }

    def __repr__(self) -> str:
        return f"TraceStore({self.path!r})"


def is_finite_number(value) -> bool:
    """Whether ``value`` is a non-bool number with a finite float value
    (an int too large for a float has none)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
