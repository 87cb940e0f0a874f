"""Content identity of circuits: the canonical gate-stream digest.

An uploaded program needs a name before anything else can happen to it
— store keys, in-flight dedup, fleet distribution all identify work by
stable strings.  :func:`circuit_digest` gives every circuit that name: a
SHA-256 over the **gate stream as written** — ``num_qubits`` plus each
gate's ``(name, qubits, params)`` in insertion order, floats rendered
via ``repr`` so the digest is identical in any process.

This is deliberately *not* :func:`repro.exec.keys.circuit_fingerprint`:

* The fingerprint canonicalizes away same-layer gate order because it
  identifies a **compilation** — two semantically-equal spellings may
  share compile work.
* The digest preserves insertion order because it identifies a
  **program as uploaded** — the content address of the artifact a user
  handed us, the way a git blob hashes bytes, not meaning.

The digest is versioned by :data:`CIRCUIT_DIGEST_VERSION`, **not** by
``repro.exec.keys.SCHEMA_VERSION``: program identity must survive
compiler-semantics bumps (the same upload keeps its address forever),
while any result computed *from* it is keyed through ``store_key``,
which does include ``SCHEMA_VERSION``.  Bump
:data:`CIRCUIT_DIGEST_VERSION` only if the encoding below changes what
two circuits hash equal — which orphans every stored circuit, so don't.
"""

from __future__ import annotations

import hashlib
import re
from typing import Optional

from repro.circuits.circuit import Circuit

#: Bump only when the digest encoding itself changes shape (re-addresses
#: every stored circuit; see module docstring).
CIRCUIT_DIGEST_VERSION = 1

#: The workload-reference spelling of a digest: ``circuit:<64 hex>``.
CIRCUIT_REF_PREFIX = "circuit:"

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


def circuit_digest(circuit: Circuit) -> str:
    """The canonical SHA-256 hex digest of ``circuit``'s gate stream.

    Sensitive to register size, gate names, operand order, parameter
    values (``repr``-rendered floats), and the insertion order of the
    gates; insensitive to everything else (object identity, how the
    circuit was built).
    """
    payload = (
        "repro-circuit",
        CIRCUIT_DIGEST_VERSION,
        circuit.num_qubits,
        tuple(
            (gate.name, gate.qubits,
             tuple(repr(float(p)) for p in gate.params))
            for gate in circuit
        ),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def is_circuit_digest(text: object) -> bool:
    """Whether ``text`` is a well-formed digest (64 lowercase hex)."""
    return isinstance(text, str) and bool(_DIGEST_RE.match(text))


def parse_circuit_ref(text: object) -> Optional[str]:
    """The digest inside a ``circuit:<digest>`` reference, else ``None``.

    A string that *starts* like a reference but carries a malformed
    digest raises ``ValueError`` — silently treating it as a benchmark
    name would misroute a typo into the registry.
    """
    if not isinstance(text, str) or not text.startswith(CIRCUIT_REF_PREFIX):
        return None
    digest = text[len(CIRCUIT_REF_PREFIX):]
    if not is_circuit_digest(digest):
        raise ValueError(
            f"malformed circuit reference {text!r}: expected "
            f"'{CIRCUIT_REF_PREFIX}<64 lowercase hex digits>'"
        )
    return digest
