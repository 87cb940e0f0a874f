"""`WorkloadRef`: the one seam every experiment sources circuits through.

A workload used to *be* a registry name — every driver called
``get_benchmark(name).circuit(size)`` and only the §III-B suite could
ever run.  A :class:`WorkloadRef` widens that to three spellings:

* ``"bv"`` — a named family, sized by the experiment's own parameter;
* ``"bv@20"`` — a named family pinned to a size in the ref itself;
* ``"circuit:<64 hex>"`` — a content-addressed uploaded program,
  resolved through the active session's circuit store.

Refs canonicalize to their string spelling for store keying via
:meth:`WorkloadRef.store_form` (duck-typed by ``repro.exec.keys`` and
``repro.api.store``), so the typed object and the JSON string spell the
same store key and uploaded-circuit runs dedup/replay exactly like
named-benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.circuits.circuit import Circuit
from repro.circuits.digest import CIRCUIT_REF_PREFIX, parse_circuit_ref
from repro.utils.rng import RngLike
from repro.workloads.registry import BENCHMARKS, get_benchmark


@dataclass(frozen=True)
class WorkloadRef:
    """A reference to a runnable program: named family or circuit digest."""

    family: Optional[str] = None
    size: Optional[int] = None
    digest: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.family is None) == (self.digest is None):
            raise ValueError(
                "WorkloadRef needs exactly one of family= or digest="
            )
        if self.digest is not None and self.size is not None:
            raise ValueError(
                "a circuit digest fixes the program; size= does not apply"
            )

    @staticmethod
    def parse(value: Union[str, "WorkloadRef"]) -> "WorkloadRef":
        """Parse ``"fam"``, ``"fam@N"``, or ``"circuit:<digest>"``.

        Raises ``ValueError`` naming the bad input and the known
        families; a malformed ``circuit:`` ref propagates its own error
        rather than being misread as a family name.
        """
        if isinstance(value, WorkloadRef):
            return value
        if not isinstance(value, str):
            raise ValueError(
                f"expected a workload reference string, got {value!r}"
            )
        digest = parse_circuit_ref(value)
        if digest is not None:
            return WorkloadRef(digest=digest)
        family, sep, size_text = value.partition("@")
        family = family.strip().lower()
        if family not in BENCHMARKS:
            raise ValueError(
                f"unknown workload {value!r}: expected one of "
                f"{sorted(BENCHMARKS)}, 'family@size', or "
                f"'{CIRCUIT_REF_PREFIX}<digest>'"
            )
        if not sep:
            return WorkloadRef(family=family)
        try:
            size = int(size_text)
        except ValueError:
            raise ValueError(
                f"malformed workload size in {value!r}: expected "
                "'family@<integer>'"
            ) from None
        return WorkloadRef(family=family, size=size)

    def store_form(self) -> str:
        """The canonical string this ref keys as (see module docstring)."""
        return str(self)

    def __str__(self) -> str:
        if self.digest is not None:
            return CIRCUIT_REF_PREFIX + self.digest
        if self.size is not None:
            return f"{self.family}@{self.size}"
        return str(self.family)


def resolve_circuit(workload: Union[str, WorkloadRef],
                    num_qubits: Optional[int] = None,
                    rng: RngLike = 0) -> Circuit:
    """Build or fetch the circuit a workload reference names.

    Named families build through the registry exactly as before
    (byte-identical circuits, same rng contract).  A size embedded in
    the ref (``"fam@N"``) wins over ``num_qubits``.  Circuit digests
    resolve through the active session's :class:`~repro.api.circuits.
    CircuitStore`; a digest the store has never seen raises ``KeyError``
    telling the caller to upload it first.
    """
    ref = WorkloadRef.parse(workload)
    if ref.digest is not None:
        from repro.api.session import current_session

        circuit = current_session().circuits.get(ref.digest)
        if circuit is None:
            raise KeyError(
                f"circuit {ref.digest} is not in the session's circuit "
                "store; upload it first (repro circuits add / "
                "POST /circuits)"
            )
        return circuit
    size = ref.size if ref.size is not None else num_qubits
    if size is None:
        raise ValueError(
            f"workload {ref} carries no size; pass num_qubits or use "
            "'family@size'"
        )
    return get_benchmark(ref.family).circuit(size, rng=rng)


def iter_circuit_digests(params: Mapping[str, object]) -> Iterator[str]:
    """Yield every circuit digest referenced anywhere in ``params``.

    Walks nested tuples/lists/dicts so serve-side validation and fleet
    prefetch see digests wherever a param schema puts them.  Malformed
    ``circuit:`` strings raise (same contract as :func:`parse_circuit_ref`).
    """
    def walk(value: object) -> Iterator[str]:
        if isinstance(value, WorkloadRef):
            if value.digest is not None:
                yield value.digest
            return
        if isinstance(value, str):
            digest = parse_circuit_ref(value)
            if digest is not None:
                yield digest
            return
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from walk(item)
            return
        if isinstance(value, Mapping):
            for item in value.values():
                yield from walk(item)

    for value in params.values():
        yield from walk(value)
