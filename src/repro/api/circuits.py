"""Content-addressed on-disk store of uploaded circuits.

The circuit-side sibling of :class:`repro.api.store.ResultStore`: a
:class:`CircuitStore` persists user-supplied programs under their
canonical gate-stream digest (:func:`repro.circuits.digest.
circuit_digest`), so a ``circuit:<digest>`` workload reference resolves
to the same program on any machine that holds the bytes — the server,
a fleet worker's local cache, a developer laptop.

What is stored is the **canonical QASM text** (``to_qasm(from_qasm(
upload))``), not the upload verbatim: comments, blank lines, and
whitespace are not part of program identity, so two uploads differing
only in those collapse to one entry, and ``GET /circuits/<digest>``
returns byte-identical text everywhere.  Entries live in a
:class:`repro.exec.diskutil.ShardedDir` (``<digest[:2]>/<digest>.qasm``,
the layout every store shares): writes are atomic, re-adding an existing
digest is a no-op (idempotent uploads), and :meth:`gc` bounds the
directory with the shared LRU-by-mtime policy.

Reads re-verify: :meth:`get` re-digests the parsed circuit and treats a
mismatch (torn write, tampered file, bytes that are not UTF-8) as a
miss rather than silently running the wrong program under a
right-looking name.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.digest import circuit_digest, is_circuit_digest
from repro.circuits.qasm import from_qasm, to_qasm
from repro.exec.diskutil import ShardedDir

#: Environment variable naming the default circuit-store directory.
CIRCUIT_DIR_ENV = "REPRO_CIRCUIT_DIR"

#: The circuit store when neither a directory nor ``CIRCUIT_DIR_ENV`` is
#: given (``~`` expanded where it is opened).
DEFAULT_CIRCUIT_DIR = os.path.join("~", ".cache", "repro", "circuits")


class CircuitStore:
    """On-disk circuits keyed by canonical gate-stream digest."""

    def __init__(self, path: str):
        self.disk = ShardedDir(path, ".qasm", "circuit store",
                               "uploads will not persist")
        self.path = self.disk.path

    # -- ingestion ---------------------------------------------------------------

    def add(self, qasm_text: str) -> str:
        """Ingest QASM text; returns the digest.  Idempotent.

        Parses through :func:`repro.circuits.qasm.from_qasm` (so every
        validation error it raises applies here) and stores the
        canonical re-serialization.  Propagates ``ValueError`` on
        malformed programs; an unwritable directory degrades to
        in-memory-only (the digest is still returned, nothing persists).
        """
        return self.add_circuit(from_qasm(qasm_text))

    def add_circuit(self, circuit: Circuit) -> str:
        """Ingest an in-memory circuit; returns the digest.  Idempotent."""
        digest = circuit_digest(circuit)
        if not self.disk.has(digest):
            self.disk.write(digest, to_qasm(circuit).encode("utf-8"))
        return digest

    # -- retrieval ---------------------------------------------------------------

    def get_qasm(self, digest: str) -> Optional[str]:
        """The stored canonical QASM text for ``digest``, or ``None``
        (also for an entry that is not UTF-8)."""
        if not is_circuit_digest(digest):
            return None
        data = self.disk.read(digest)
        if data is None:
            return None
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def get(self, digest: str) -> Optional[Circuit]:
        """The circuit stored under ``digest``, or ``None``.

        Verified: the parsed circuit must re-digest to ``digest``; a
        corrupt or tampered entry is a miss, never a wrong program.  A
        hit touches mtime so :meth:`gc` evicts least-recently-used
        entries first.
        """
        text = self.get_qasm(digest)
        if text is None:
            return None
        try:
            circuit = from_qasm(text)
        except ValueError:
            return None
        if circuit_digest(circuit) != digest:
            return None
        self.disk.touch(digest)
        return circuit

    def has(self, digest: str) -> bool:
        return is_circuit_digest(digest) and self.disk.has(digest)

    # -- maintenance -------------------------------------------------------------

    def entries(self) -> List[Tuple[str, str, int, float]]:
        """Every stored circuit as ``(digest, path, bytes, mtime)``."""
        return self.disk.entries()

    def stats(self) -> Dict[str, Any]:
        return self.disk.stats()

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used circuits until the store fits
        ``max_bytes`` (shared policy: :meth:`repro.exec.diskutil.
        ShardedDir.gc`)."""
        return self.disk.gc(max_bytes)

    def __repr__(self) -> str:
        return f"CircuitStore({self.path!r})"
