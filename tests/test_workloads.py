"""Semantic tests for all five benchmark generators."""

import pytest

from repro.circuits import Circuit
from repro.sim import run
from repro.workloads import (
    BENCHMARKS,
    BENCHMARK_ORDER,
    bernstein_vazirani,
    build_circuit,
    cnu,
    cuccaro_adder,
    get_benchmark,
    qaoa_maxcut,
    random_graph,
)
from repro.workloads.cnu import cnu_expected_toffolis, cnu_from_total_qubits
from repro.workloads.cuccaro import (
    cuccaro_from_total_qubits,
    decode_sum as cuccaro_decode,
    encode_operands as cuccaro_encode,
)
from repro.workloads.qaoa import cut_value, expected_cut
from repro.workloads.qft_adder import (
    decode_sum as qft_decode,
    encode_operands as qft_encode,
    qft_adder,
    qft_adder_from_total_qubits,
)


class TestBernsteinVazirani:
    def test_recovers_all_ones_secret(self):
        sv = run(bernstein_vazirani(7))
        # 6 data qubits read the secret; ancilla returns to 0.
        assert sv.most_likely_bitstring() == "1111110"
        assert max(sv.probabilities()) == pytest.approx(1.0)

    @pytest.mark.parametrize("secret", ["101", "000", "011", "111"])
    def test_recovers_arbitrary_secret(self, secret):
        sv = run(bernstein_vazirani(4, secret=secret))
        assert sv.most_likely_bitstring() == secret + "0"

    def test_gate_count_scales_linearly(self):
        # All-ones oracle: one CX per data qubit.
        c = bernstein_vazirani(20)
        assert c.gate_counts()["cx"] == 19

    def test_fully_serial_oracle(self):
        # Every CX shares the ancilla: oracle depth equals data size.
        c = bernstein_vazirani(10)
        assert c.depth() >= 9

    def test_size_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(1)
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="10")  # wrong length
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="12x")


class TestCuccaroAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (5, 6), (7, 7), (3, 4)])
    def test_three_bit_addition(self, a, b):
        circuit = cuccaro_adder(3)
        sv = run(circuit, cuccaro_encode(a, b, 3))
        bits = sv.most_likely_bitstring()
        assert cuccaro_decode(bits, 3) == a + b
        assert max(sv.probabilities()) == pytest.approx(1.0)

    def test_a_register_restored(self):
        circuit = cuccaro_adder(2)
        sv = run(circuit, cuccaro_encode(2, 1, 2))
        bits = sv.most_likely_bitstring()
        from repro.workloads.cuccaro import cuccaro_registers
        _, _, a_qubits, _ = cuccaro_registers(2)
        a_read = sum(int(bits[a_qubits[k]]) << k for k in range(2))
        assert a_read == 2

    def test_carry_out(self):
        circuit = cuccaro_adder(2)
        sv = run(circuit, cuccaro_encode(3, 3, 2))
        assert cuccaro_decode(sv.most_likely_bitstring(), 2) == 6

    def test_toffoli_census(self):
        # One MAJ + one UMA per bit, each containing one Toffoli.
        c = cuccaro_adder(5)
        assert c.gate_counts()["ccx"] == 10

    def test_no_parallelism(self):
        c = cuccaro_adder(4)
        # Mean gates per logical layer: essentially a serial ripple.
        assert len(c) / c.depth() < 1.2

    def test_from_total_qubits(self):
        c = cuccaro_from_total_qubits(30)
        assert c.num_qubits == 30
        with pytest.raises(ValueError):
            cuccaro_from_total_qubits(3)

    def test_operand_range_check(self):
        with pytest.raises(ValueError):
            cuccaro_encode(8, 0, 3)


class TestCnu:
    def test_flips_only_on_all_controls(self):
        circuit = cnu(4)
        n = circuit.num_qubits
        on = run(circuit, "1111" + "0" * (n - 4)).most_likely_bitstring()
        assert on[-1] == "1"  # target flipped
        assert on[4:-1] == "0" * (n - 5)  # ancillas restored
        off = run(circuit, "1101" + "0" * (n - 4)).most_likely_bitstring()
        assert off[-1] == "0"

    def test_toffoli_count_matches_tree(self):
        for k in (2, 3, 5, 8):
            c = cnu(k)
            assert c.gate_counts()["ccx"] == cnu_expected_toffolis(k)

    def test_logarithmic_depth(self):
        import math
        c = cnu(16)
        # Tree of 16 controls: ~2*log2(16)+1 layers.
        assert c.depth() <= 2 * math.ceil(math.log2(16)) + 3

    def test_high_parallelism(self):
        c = cnu(16)
        assert len(c) / c.depth() > 2.0

    def test_total_qubits(self):
        assert cnu(10).num_qubits == 20
        assert cnu_from_total_qubits(30).num_qubits == 30
        with pytest.raises(ValueError):
            cnu(1)


class TestQftAdder:
    @pytest.mark.parametrize("a,b,n", [(0, 0, 2), (1, 2, 2), (3, 3, 2),
                                       (5, 6, 3), (7, 1, 3), (4, 4, 3)])
    def test_modular_addition(self, a, b, n):
        circuit = qft_adder(n)
        sv = run(circuit, qft_encode(a, b, n))
        assert qft_decode(sv.most_likely_bitstring(), n) == (a + b) % (2**n)
        assert max(sv.probabilities()) == pytest.approx(1.0, abs=1e-9)

    def test_a_register_unchanged(self):
        sv = run(qft_adder(3), qft_encode(5, 2, 3))
        bits = sv.most_likely_bitstring()
        assert int(bits[:3], 2) == 5

    def test_highly_parallel(self):
        c = qft_adder(8)
        assert len(c) / c.depth() > 1.5

    def test_from_total_qubits(self):
        assert qft_adder_from_total_qubits(20).num_qubits == 20


class TestQaoa:
    def test_graph_density(self):
        edges = random_graph(20, edge_density=0.1, rng=0)
        assert len(edges) == round(0.1 * 20 * 19 / 2)

    def test_graph_edges_valid(self):
        edges = random_graph(15, rng=3)
        assert all(0 <= u < v < 15 for u, v in edges)

    def test_graph_deterministic_by_seed(self):
        assert random_graph(12, rng=5) == random_graph(12, rng=5)
        assert random_graph(12, rng=5) != random_graph(12, rng=6)

    def test_circuit_structure(self):
        edges = [(0, 1), (1, 2)]
        c = qaoa_maxcut(3, edges=edges)
        counts = c.gate_counts()
        assert counts["h"] == 3
        assert counts["rzz"] == 2
        assert counts["rx"] == 3

    def test_multiple_layers(self):
        c = qaoa_maxcut(3, edges=[(0, 1)], layers=2)
        assert c.gate_counts()["rzz"] == 2

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            qaoa_maxcut(3, edges=[(0, 3)])

    def test_cut_value(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        assert cut_value("010", edges) == 2
        assert cut_value("000", edges) == 0

    def test_expected_cut_beats_random_on_triangle(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        sv = run(qaoa_maxcut(3, edges=edges, gamma=0.3, beta=1.3))
        value = expected_cut(sv.probabilities(), edges, 3)
        random_value = expected_cut([1 / 8] * 8, edges, 3)
        assert value > random_value


class TestRegistry:
    def test_all_benchmarks_listed(self):
        assert set(BENCHMARK_ORDER) == set(BENCHMARKS)
        assert len(BENCHMARK_ORDER) == 5

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_build_all(self, name):
        circuit = build_circuit(name, 12)
        assert isinstance(circuit, Circuit)
        assert circuit.num_qubits <= 12
        assert len(circuit) > 0

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_min_size_enforced(self):
        with pytest.raises(ValueError):
            get_benchmark("cuccaro").circuit(3)

    def test_multiqubit_flags(self):
        assert get_benchmark("cnu").uses_multiqubit_gates
        assert get_benchmark("cuccaro").uses_multiqubit_gates
        assert not get_benchmark("bv").uses_multiqubit_gates

    def test_qaoa_randomized_flag(self):
        assert get_benchmark("qaoa").randomized
