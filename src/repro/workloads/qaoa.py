"""QAOA for MAX-CUT on sparse random graphs.

The paper's near-term benchmark (§III-B): one QAOA layer for MAX-CUT on
Erdos-Renyi-style random graphs with a fixed edge density of 0.1.  The
cost layer is a ``ZZ`` rotation per edge (native two-qubit gate here; the
CX-RZ-CX lowering is available through the standard decomposition path),
followed by an ``RX`` mixer on every qubit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import h, rx, rzz
from repro.utils.rng import RngLike, ensure_rng

#: The paper's fixed edge density for QAOA graphs.
DEFAULT_EDGE_DENSITY = 0.1


def random_graph(
    num_nodes: int,
    edge_density: float = DEFAULT_EDGE_DENSITY,
    rng: RngLike = 0,
) -> List[Tuple[int, int]]:
    """Sample an undirected graph with ~``density`` fraction of all edges.

    We draw exactly ``round(density * C(n, 2))`` distinct edges so every
    sampled instance has the same size — this keeps the benchmark's gate
    count a deterministic function of ``num_nodes`` up to edge identity,
    matching the paper's "fixed edge density" framing.
    """
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError(f"edge density out of range: {edge_density}")
    generator = ensure_rng(rng)
    all_pairs = [
        (u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)
    ]
    num_edges = int(round(edge_density * len(all_pairs)))
    if num_edges == 0 and num_nodes >= 2:
        num_edges = 1  # Keep at least one interaction so the benchmark is nontrivial.
    chosen = generator.choice(len(all_pairs), size=num_edges, replace=False)
    return [all_pairs[int(i)] for i in sorted(chosen)]


def qaoa_maxcut(
    num_qubits: int,
    edges: Optional[List[Tuple[int, int]]] = None,
    gamma: float = 0.7,
    beta: float = 0.3,
    layers: int = 1,
    rng: RngLike = 0,
) -> Circuit:
    """One-or-more-layer QAOA MAX-CUT ansatz.

    ``edges=None`` samples a random graph at the paper's 0.1 density using
    ``rng``.  Angles default to fixed representative values — the compiler
    metrics depend only on circuit structure, not the angles.
    """
    if num_qubits < 2:
        raise ValueError("QAOA needs at least 2 qubits")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if edges is None:
        edges = random_graph(num_qubits, rng=rng)
    for u, v in edges:
        if not (0 <= u < num_qubits and 0 <= v < num_qubits and u != v):
            raise ValueError(f"bad edge ({u}, {v})")

    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.append(h(q))
    for layer in range(layers):
        layer_gamma = gamma * (layer + 1) / layers
        layer_beta = beta * (1 - layer / (2 * layers))
        for u, v in edges:
            circuit.append(rzz(2.0 * layer_gamma, u, v))
        for q in range(num_qubits):
            circuit.append(rx(2.0 * layer_beta, q))
    return circuit


def cut_value(bits: str, edges: List[Tuple[int, int]]) -> int:
    """MAX-CUT objective of an assignment bitstring."""
    return sum(1 for u, v in edges if bits[u] != bits[v])


def expected_cut(probabilities, edges: List[Tuple[int, int]], num_qubits: int) -> float:
    """Expectation of the cut value under an outcome distribution.

    ``probabilities`` is indexable by basis-state integer (big-endian).
    """
    total = 0.0
    for index in range(1 << num_qubits):
        p = float(probabilities[index])
        if p < 1e-15:
            continue
        bits = format(index, f"0{num_qubits}b")
        total += p * cut_value(bits, edges)
    return total
