"""Unitary-level tests for all gate decompositions."""

import pytest

from repro.circuits import Circuit, decompose_circuit
from repro.circuits.decompose import (
    decompose_ccx,
    decompose_ccz,
    decompose_cswap,
    decompose_gate,
    decompose_mcx,
    decompose_swap,
)
from repro.circuits.gates import Gate, ccx, cx, x
from repro.sim import circuits_equivalent, run
from repro.sim.equivalence import equivalent_on_clean_ancillas


def as_circuit(n, gate_list):
    return Circuit(n, gate_list)


class TestExactEquivalence:
    def test_swap_is_three_cx(self):
        gates = decompose_swap(0, 1)
        assert len(gates) == 3
        assert all(g.name == "cx" for g in gates)
        assert circuits_equivalent(as_circuit(2, [Gate("swap", (0, 1))]),
                                   as_circuit(2, gates))

    def test_toffoli_six_cnots(self):
        gates = decompose_ccx(0, 1, 2)
        assert sum(1 for g in gates if g.name == "cx") == 6
        assert circuits_equivalent(as_circuit(3, [ccx(0, 1, 2)]),
                                   as_circuit(3, gates))

    def test_toffoli_operand_order(self):
        # Different operand order must stay equivalent.
        gates = decompose_ccx(2, 0, 1)
        assert circuits_equivalent(as_circuit(3, [ccx(2, 0, 1)]),
                                   as_circuit(3, gates))

    def test_ccz(self):
        assert circuits_equivalent(as_circuit(3, [Gate("ccz", (0, 1, 2))]),
                                   as_circuit(3, decompose_ccz(0, 1, 2)))

    def test_cswap(self):
        assert circuits_equivalent(as_circuit(3, [Gate("cswap", (0, 1, 2))]),
                                   as_circuit(3, decompose_cswap(0, 1, 2)))

    def test_mcx_three_controls(self):
        gates = decompose_mcx([0, 1, 2], 3, ancillas=[4])
        assert equivalent_on_clean_ancillas(
            as_circuit(5, [Gate("c3x", (0, 1, 2, 3))]),
            as_circuit(5, gates), [4])

    def test_mcx_four_controls(self):
        gates = decompose_mcx([0, 1, 2, 3], 4, ancillas=[5, 6])
        assert equivalent_on_clean_ancillas(
            as_circuit(7, [Gate("c4x", (0, 1, 2, 3, 4))]),
            as_circuit(7, gates), [5, 6])


class TestMcxValidation:
    def test_too_few_controls(self):
        with pytest.raises(ValueError):
            decompose_mcx([0, 1], 2, ancillas=[3])

    def test_too_few_ancillas(self):
        with pytest.raises(ValueError):
            decompose_mcx([0, 1, 2, 3], 4, ancillas=[5])

    def test_ancillas_restored(self):
        gates = decompose_mcx([0, 1, 2], 3, ancillas=[4])
        sv = run(as_circuit(5, gates), "11100")
        # Controls all on: target flips, ancilla back to 0.
        assert sv.most_likely_bitstring() == "11110"


class TestDecomposeGate:
    def test_small_gate_passthrough(self):
        assert decompose_gate(cx(0, 1)) == [cx(0, 1)]
        assert decompose_gate(x(0)) == [x(0)]

    def test_swap_lowered(self):
        lowered = decompose_gate(Gate("swap", (0, 1)))
        assert all(g.name == "cx" for g in lowered)

    def test_unknown_wide_gate_rejected(self):
        with pytest.raises(ValueError):
            decompose_gate(Gate("mystery", (0, 1, 2)))

    def test_cnx_needs_ancillas(self):
        with pytest.raises(ValueError):
            decompose_gate(Gate("c3x", (0, 1, 2, 3)))


class TestDecomposeCircuit:
    def test_keeps_swaps_by_default(self):
        c = decompose_circuit(as_circuit(2, [Gate("swap", (0, 1))]))
        assert c[0].is_swap

    def test_lowers_swaps_on_request(self):
        c = decompose_circuit(as_circuit(2, [Gate("swap", (0, 1))]),
                              keep_swaps=False)
        assert all(g.name == "cx" for g in c)

    def test_lowers_toffoli(self):
        src = as_circuit(3, [ccx(0, 1, 2)])
        lowered = decompose_circuit(src, max_arity=2)
        assert max(g.arity for g in lowered) == 2
        assert circuits_equivalent(src, lowered)

    def test_native_mode_keeps_toffoli(self):
        src = as_circuit(3, [ccx(0, 1, 2)])
        kept = decompose_circuit(src, max_arity=3)
        assert kept[0].name == "ccx"

    def test_grows_register_for_mcx(self):
        src = as_circuit(5, [Gate("c4x", (0, 1, 2, 3, 4))])
        lowered = decompose_circuit(src, max_arity=2)
        assert lowered.num_qubits == 7  # 2 ancillas appended
        assert max(g.arity for g in lowered) == 2

    def test_mcx_then_full_lowering_equivalent(self):
        src = as_circuit(5, [Gate("c4x", (0, 1, 2, 3, 4))])
        lowered = decompose_circuit(src, max_arity=3)
        padded = Circuit(lowered.num_qubits, src.gates)
        ancillas = list(range(5, lowered.num_qubits))
        assert equivalent_on_clean_ancillas(padded, lowered, ancillas)

    def test_mcx_lowered_all_the_way_to_two_qubit(self):
        src = as_circuit(5, [Gate("c4x", (0, 1, 2, 3, 4))])
        lowered = decompose_circuit(src, max_arity=2)
        assert max(g.arity for g in lowered) == 2
        padded = Circuit(lowered.num_qubits, src.gates)
        ancillas = list(range(5, lowered.num_qubits))
        assert equivalent_on_clean_ancillas(padded, lowered, ancillas)

    def test_invalid_max_arity(self):
        with pytest.raises(ValueError):
            decompose_circuit(Circuit(2), max_arity=1)
