"""Gate intermediate representation.

A :class:`Gate` is an immutable application of a named operation to a tuple
of qubit indices, optionally with real parameters (rotation angles).  The
compiler cares about *structural* properties — arity, operand set, whether
the gate entangles — while the statevector simulator consults
:mod:`repro.circuits.gate_library` for the actual unitaries.

Multiqubit gates (three or more operands) are first-class citizens because
native execution of e.g. Toffoli is one of the neutral-atom architecture's
headline features (paper §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Gate names the hardware treats as qubit-state measurement.  Measured
#: qubits are subject to readout atom loss (paper §VI).
MEASUREMENT_NAMES = frozenset({"measure"})


@dataclass(frozen=True)
class Gate:
    """One gate application.

    Attributes:
        name: Lower-case operation mnemonic (``"cx"``, ``"ccx"``, ``"rz"`` ...).
        qubits: Operand qubit indices; order matters (controls before
            targets by convention).
        params: Real parameters, e.g. rotation angles in radians.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operand in gate {self.name}: {self.qubits}")
        if not self.qubits:
            raise ValueError(f"gate {self.name} has no operands")

    @property
    def arity(self) -> int:
        """Number of operand qubits."""
        return len(self.qubits)

    @property
    def is_measurement(self) -> bool:
        return self.name in MEASUREMENT_NAMES

    @property
    def is_multiqubit(self) -> bool:
        """True for gates on two or more qubits (requires Rydberg coupling)."""
        return self.arity >= 2

    @property
    def is_swap(self) -> bool:
        return self.name == "swap"

    def __str__(self) -> str:
        params = ""
        if self.params:
            params = "(" + ", ".join(f"{p:.4g}" for p in self.params) + ")"
        operands = ", ".join(str(q) for q in self.qubits)
        return f"{self.name}{params} {operands}"


# -- Constructors for the common gate set ----------------------------------
# These read better at call sites than Gate("cx", (a, b)) and centralize
# operand-order conventions.


def x(q: int) -> Gate:
    return Gate("x", (q,))


def y(q: int) -> Gate:
    return Gate("y", (q,))


def z(q: int) -> Gate:
    return Gate("z", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def t(q: int) -> Gate:
    return Gate("t", (q,))


def tdg(q: int) -> Gate:
    return Gate("tdg", (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate("rx", (q,), (theta,))


def rz(theta: float, q: int) -> Gate:
    return Gate("rz", (q,), (theta,))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def cphase(theta: float, control: int, target: int) -> Gate:
    return Gate("cphase", (control, target), (theta,))


def rzz(theta: float, a: int, b: int) -> Gate:
    return Gate("rzz", (a, b), (theta,))


def ccx(control_a: int, control_b: int, target: int) -> Gate:
    """Toffoli: the paper's flagship native three-qubit gate."""
    return Gate("ccx", (control_a, control_b, target))


def measure(q: int) -> Gate:
    return Gate("measure", (q,))
