"""Canonical keys for compilation caching and sweep-task seeding.

Every repeated computation in the library is identified by a *canonical
key*: a stable string derived from the semantic content of its inputs,
never from object identity, memory layout, or process state.  Two
properties matter:

* **Stability** — the same (circuit, topology, config) yields the same
  key in any process, on any run, after any restart.  Keys are built
  from primitive values (ints, floats via ``repr``, strings) and hashed
  with SHA-256.
* **Canonicalization** — gate-list orderings that cannot change program
  semantics (reordering gates *within* one ASAP dependency layer) map to
  the same key, while any change to the circuit's semantics, the grid,
  the interaction distance, the hole pattern, or any compiler knob maps
  to a distinct key.

The same machinery derives per-task RNG seeds for the sweep engine:
``derive_seed`` hashes a task's canonical key, so a task's random stream
depends only on *which* task it is — not on scheduling order, worker
count, or how many draws other tasks made.  That is what makes sweeps
bitwise-reproducible at any ``--jobs`` level.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.core.compiler import LoweredCircuit
from repro.core.config import CompilerConfig
from repro.hardware.topology import Topology

#: Bump to invalidate every persisted cache entry (schema or compiler
#: semantics change).
SCHEMA_VERSION = 2


# -- fingerprints ------------------------------------------------------------------


def circuit_fingerprint(circuit: Circuit) -> Tuple:
    """Canonical form of a circuit: gates grouped by ASAP layer.

    Within one dependency layer no two gates share a qubit, so their
    relative list order is semantically irrelevant; each layer is sorted
    into a canonical order.  Across layers, order is the dependency
    structure itself and is preserved.
    """
    gates = circuit.gates
    layers = []
    for layer_indices in circuit.layers():
        layer = sorted(
            (gates[i].name, gates[i].qubits, gates[i].params)
            for i in layer_indices
        )
        layers.append(tuple(layer))
    return ("circuit", circuit.num_qubits, tuple(layers))


def topology_fingerprint(topology: Topology) -> Tuple:
    """Canonical form of a device: grid shape, MID, and hole pattern."""
    return (
        "topology",
        topology.grid.rows,
        topology.grid.cols,
        repr(float(topology.max_interaction_distance)),
        tuple(sorted(topology.lost_sites)),
    )


def config_fingerprint(config: CompilerConfig) -> Tuple:
    """Canonical form of a compiler configuration: every field, by name."""
    fields = []
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        value = getattr(config, field.name)
        if isinstance(value, float):
            value = repr(value)
        fields.append((field.name, value))
    return ("config", tuple(fields))


# -- keys --------------------------------------------------------------------------


def _digest(payload: Tuple) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def compile_key(
    circuit: Union[Circuit, LoweredCircuit],
    topology: Topology,
    config: CompilerConfig,
) -> str:
    """Content hash identifying one compilation.

    Invalidation rules: the key changes whenever the circuit semantics,
    the grid dimensions, the interaction distance, the set of lost
    sites, any :class:`CompilerConfig` field, or :data:`SCHEMA_VERSION`
    changes — and only then.  A :class:`LoweredCircuit` keys as its
    source circuit, with the fingerprint it computed once.
    """
    if isinstance(circuit, LoweredCircuit):
        fingerprint = circuit.source_fingerprint
    else:
        fingerprint = circuit_fingerprint(circuit)
    return _digest((
        "repro-compile",
        SCHEMA_VERSION,
        fingerprint,
        topology_fingerprint(topology),
        config_fingerprint(config),
    ))


def task_key(**params) -> str:
    """Canonical key for one sweep task, from primitive keyword params.

    Floats are rendered with ``repr`` so 3.0 and 3 stay distinct from
    3.5 but identical across processes.

    Values carrying a callable ``store_form()`` (typed workload
    references — :class:`repro.workloads.ref.WorkloadRef`) canonicalize
    to that string, so the typed object and its string spelling
    (``"bv@20"``, ``"circuit:<digest>"``) produce the same key.

    **SCHEMA_VERSION rules:** adding acceptance of a *new* value type
    (as here) needs no bump — no pre-existing key ever contained such a
    value, so every named-benchmark key is unchanged.  A bump is
    required only when the canonicalization of an *already-accepted*
    type changes (e.g. a different float rendering), which would silently
    re-key existing results.
    """
    parts = []
    for name in sorted(params):
        value = params[name]
        store_form = getattr(value, "store_form", None)
        if callable(store_form):
            value = store_form()
        if isinstance(value, float):
            value = repr(value)
        parts.append(f"{name}={value!r}")
    return ";".join(parts)


def params_digest(namespace: Tuple, params: Dict) -> str:
    """Content hash of a parameter mapping under a namespace tuple.

    Shares :func:`task_key`'s canonicalization (sorted names, floats via
    ``repr``) so every layer that identifies work by its parameters —
    sweep-task seeding and the persistent result store alike — agrees on
    what makes two parameter sets "the same".  ``namespace`` carries the
    consumer's own invariants (schema versions, experiment name) into
    the digest.
    """
    return _digest((namespace, task_key(**params)))


def derive_seed(key: str, base: int = 0) -> int:
    """Deterministic 63-bit seed for the task identified by ``key``.

    Seeds depend only on (key, base): spawn-safe, restart-stable, and
    independent of the order tasks are scheduled or completed in.
    """
    digest = hashlib.sha256(
        repr(("repro-seed", int(base), key)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# -- task grids --------------------------------------------------------------------


def task_grid(**axes: Iterable) -> List[Dict]:
    """Flatten named axes into a task list (cartesian product).

    ``task_grid(mid=(2.0, 3.0), strategy=("a", "b"))`` yields four dicts
    in deterministic row-major order (last axis fastest), ready to fan
    out over the sweep engine.

    This ordering is a public contract: :class:`repro.api.SweepSpec`
    expands its (name-sorted) axes through this exact function, so a
    sweep's canonical cell order — relied on by the result stream and
    by client/server expansion agreement — is this row-major order.
    """
    names = list(axes)
    tasks: List[Dict] = [{}]
    for name in names:
        values = list(axes[name])
        tasks = [dict(t, **{name: v}) for t in tasks for v in values]
    return tasks
