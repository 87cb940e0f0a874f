"""One sharded, atomic, content-addressed directory.

Four on-disk stores share the ``<root>/<key[:2]>/<key><suffix>``
layout: the compile cache's disk tier (``repro.exec.cache``, pickles),
the result store (``repro.api.store``, canonical JSON envelopes), the
circuit store (``repro.api.circuits``, canonical QASM) and the trace
store (``repro.obs.store``, append-only JSONL).  :class:`ShardedDir`
owns that layout and every policy around it; each store is a codec that
picks its suffix and turns its values into bytes and back.

* Writes are atomic: a ``.tmp-*`` file in the entry's shard, then
  ``os.replace``, so concurrent writers never expose a torn entry.  A
  failed write is dropped with one stderr warning per directory — a
  store that cannot persist degrades, it never fails the caller.
* Reads never touch mtimes; callers :meth:`~ShardedDir.touch` only once
  an entry decoded, so a corrupt file never looks recently used.
* :meth:`~ShardedDir.gc` evicts least-recently-used entries (mtime
  order, exact ties broken on path so coarse 1 s timestamps stay
  deterministic) after reclaiming temp files orphaned by writers that
  died mid-write.

A layout or durability fix therefore lands in all four stores at once.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: Prefix marking an in-flight atomic write (``tempfile.mkstemp``).
TEMP_PREFIX = ".tmp-"


class ShardedDir:
    """Files named ``<key><suffix>`` sharded by the key's first two
    characters under ``path``.

    ``label`` and ``consequence`` only shape the warn-once line printed
    when a write fails: ``[<label> <path> is not writable (<error>);
    <consequence>]``.
    """

    def __init__(self, path: str, suffix: str, label: str,
                 consequence: str):
        self.path = os.path.abspath(path)
        self.suffix = suffix
        self.label = label
        self.consequence = consequence
        self._warned_unwritable = False

    def file_for(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + self.suffix)

    # -- entry i/o ---------------------------------------------------------------

    def read(self, key: str) -> Optional[bytes]:
        """The entry's bytes, or ``None`` when it cannot be read.  Does
        not touch the file."""
        try:
            with open(self.file_for(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def touch(self, key: str) -> None:
        """Mark ``key`` recently used, so :meth:`gc` evicts it last."""
        try:
            os.utime(self.file_for(key))
        except OSError:
            pass

    def has(self, key: str) -> bool:
        return os.path.exists(self.file_for(key))

    def write(self, key: str, data: bytes) -> None:
        """Persist ``data`` under ``key`` atomically (temp file +
        ``os.replace``); on failure warn once and drop the write."""
        target = self.file_for(key)
        directory = os.path.dirname(target)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=directory, prefix=TEMP_PREFIX, suffix=self.suffix
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_path, target)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self.warn_unwritable(error)

    def warn_unwritable(self, error: OSError) -> None:
        """One stderr line the first time persistence fails — the
        degrade must be observable, or an unwritable volume silently
        loses every write."""
        if self._warned_unwritable:
            return
        self._warned_unwritable = True
        print(f"[{self.label} {self.path} is not writable ({error}); "
              f"{self.consequence}]", file=sys.stderr)

    # -- listing -----------------------------------------------------------------

    def entries(self) -> List[Tuple[str, str, int, float]]:
        """Every entry as ``(key, path, bytes, mtime)``, in-flight temp
        files skipped; a concurrently deleted file is silently dropped."""
        rows = []
        for dirpath, _, filenames in os.walk(self.path):
            for name in filenames:
                if (not name.endswith(self.suffix)
                        or name.startswith(TEMP_PREFIX)):
                    continue
                target = os.path.join(dirpath, name)
                try:
                    info = os.stat(target)
                except OSError:
                    continue
                rows.append((name[:-len(self.suffix)], target,
                             info.st_size, info.st_mtime))
        return rows

    def stats(self) -> Dict[str, object]:
        rows = self.entries()
        return {
            "path": self.path,
            "entries": len(rows),
            "total_bytes": sum(size for _, _, size, _ in rows),
        }

    def resolve(self, prefix: str) -> Optional[str]:
        """The one stored key starting with ``prefix``, or ``None``;
        ``KeyError`` carrying the sorted candidates when several do.  A
        prefix that is itself a stored key resolves without a walk."""
        # Keys are alphanumeric, so a separator or ".." never reaches
        # a file outside the directory.
        if prefix.isalnum() and self.has(prefix):
            return prefix
        matches = sorted(key for key, _, _, _ in self.entries()
                         if key.startswith(prefix))
        if len(matches) > 1:
            raise KeyError(matches)
        return matches[0] if matches else None

    # -- maintenance -------------------------------------------------------------

    def sweep_temp_files(self, max_age_seconds: float) -> None:
        """Remove ``.tmp-*`` leftovers from writers that died mid-write.

        ``max_age_seconds`` guards against deleting a temp file a live
        concurrent writer is still about to ``os.replace``.  The
        comparison is strict: filesystem mtimes can be as coarse as one
        second, so a file stamped in the same second as the cutoff must
        count as *newer* than it, or a just-created temp file would be
        swept out from under its writer.
        """
        cutoff = time.time() - max_age_seconds
        for dirpath, _, filenames in os.walk(self.path):
            for name in filenames:
                if not name.startswith(TEMP_PREFIX):
                    continue
                target = os.path.join(dirpath, name)
                try:
                    if os.stat(target).st_mtime < cutoff:
                        os.unlink(target)
                except OSError:
                    pass

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Unlink least-recently-used entries until they fit
        ``max_bytes``; returns ``{"removed", "remaining_entries",
        "remaining_bytes"}``.

        Eviction order is (mtime, path): coarse (1 s) filesystem mtimes
        routinely produce exact ties between files written in one burst,
        and the path tie-break keeps the order deterministic across runs
        and platforms.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        # Orphans from killed writers never become entries, so evicting
        # only entries could leave the directory over budget forever.
        self.sweep_temp_files(max_age_seconds=3600.0)
        rows = sorted((mtime, path, size)
                      for _, path, size, mtime in self.entries())
        total = sum(size for _, _, size in rows)
        removed = 0
        for _, target, size in rows:
            if total <= max_bytes:
                break
            try:
                os.unlink(target)
            except OSError:
                continue
            total -= size
            removed += 1
        return {
            "removed": removed,
            "remaining_entries": len(rows) - removed,
            "remaining_bytes": total,
        }

    def clear(self) -> int:
        """Delete every entry (and orphaned temp files); returns the
        number of entries removed."""
        removed = 0
        for _, target, _, _ in self.entries():
            try:
                os.unlink(target)
                removed += 1
            except OSError:
                pass
        # One second of grace covers the coarsest common mtime
        # granularity: a temp file a live writer touched in the same
        # second as this clear survives and becomes (or replaces) an
        # entry; genuinely orphaned ones fall to the next maintenance
        # pass.
        self.sweep_temp_files(max_age_seconds=1.0)
        return removed
