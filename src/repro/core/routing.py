"""SWAP selection for long-distance gates (§III-A).

When a frontier gate's operands exceed the MID, the router proposes one
SWAP moving an operand strictly closer to its partners, scored by the
paper's displacement-aware function:

    s(u, h) = sum_v [d(phi(u), phi(v)) - d(h, phi(v))] * w(u, v)
            + sum_v [d(h, phi(v)) - d(phi(u), phi(v))] * w(phi^-1(h), v)

The first term rewards moving ``u`` toward its future partners; the second
penalizes dragging the displaced qubit ``phi^-1(h)`` away from *its*
future partners.  The chosen ``h`` must be *strictly closer to the most
immediate interaction*, guaranteeing progress.

:func:`propose_swap` computes the score inline, the one place it is
written.  For each operand ``u`` it builds ``u``'s partner rows once,
``(v, phi(v), w(u, v), d(phi(u), phi(v)))`` in the weight map's order, and
every candidate ``h`` of ``u`` sums over those rows, skipping the
displaced qubit (the two trade places, so their distance is unchanged).
The displaced qubit's term reads its partners from the same weight map.
Terms are added in partner order, so scores are the same floats as a
per-candidate evaluation of the formula.

A BFS fallback handles hole-riddled topologies (recompilation after atom
loss) where no Euclidean-closer neighbor exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.weights import InteractionWeights
from repro.hardware.topology import Topology


@dataclass(frozen=True)
class SwapProposal:
    """A candidate SWAP between two sites, with its routing score."""

    site_a: int
    site_b: int
    score: float
    #: True when chosen by the BFS fallback rather than the greedy score.
    via_path_fallback: bool = False

    @property
    def sites(self) -> Tuple[int, int]:
        return (self.site_a, self.site_b)


def propose_swap(
    gate_qubits: Sequence[int],
    phi: Dict[int, int],
    inverse_phi: Dict[int, int],
    topology: Topology,
    weights: InteractionWeights,
) -> Optional[SwapProposal]:
    """Best single SWAP bringing one operand of the gate closer.

    Evaluates every operand ``u`` against every active neighbor ``h`` of
    its site that strictly reduces ``u``'s maximum distance to the gate's
    other operands, scoring each by the paper's function.  Falls back to
    one hop along a BFS path when the Euclidean-greedy candidate set is
    empty (possible on topologies with holes).  Returns ``None`` only when
    even BFS finds no way to bring the operands together.
    """
    grid = topology.grid
    rows = grid.distance_rows()
    ntable = grid.neighbor_table(topology.max_interaction_distance)
    lost = topology.lost_view
    lookup_displaced = inverse_phi.get
    site_of = phi.get
    # Unrolled partner handling for the 2- and 3-operand gates the native
    # set produces (a genexpr max() per candidate dominates otherwise);
    # gates with repeated operands fall back to the generic path.
    arity = len(gate_qubits)
    if arity == 2:
        if gate_qubits[0] == gate_qubits[1]:
            arity = -1
    elif arity == 3:
        qa, qb, qc = gate_qubits
        if qa == qb or qa == qc or qb == qc:
            arity = -1
    else:
        arity = -1
    per_qubit = weights._per_qubit
    best_a = best_b = -1
    best_score = 0.0
    have_best = False
    for u in gate_qubits:
        site_u = phi[u]
        row_u = rows[site_u]
        p0 = p1 = -1
        partner_sites: Tuple[int, ...] = ()
        if arity == 2:
            p0 = phi[gate_qubits[1] if u == gate_qubits[0] else gate_qubits[0]]
            span_limit = row_u[p0] - 1e-9
        elif arity == 3:
            qa, qb, qc = gate_qubits
            if u == qa:
                p0, p1 = phi[qb], phi[qc]
            elif u == qb:
                p0, p1 = phi[qa], phi[qc]
            else:
                p0, p1 = phi[qa], phi[qb]
            d0, d1 = row_u[p0], row_u[p1]
            span_limit = (d0 if d0 >= d1 else d1) - 1e-9
        else:
            partner_sites = tuple(phi[v] for v in gate_qubits if v != u)
            span_limit = max(row_u[p] for p in partner_sites) - 1e-9
        # u's partner rows (v, site_v, w(u, v), d(site_u, site_v)), built
        # at u's first surviving candidate and shared by the rest.
        u_rows: Optional[List[Tuple[int, int, float, float]]] = None
        for h in ntable[site_u]:
            if h in lost:
                continue
            # Geometry first: the strict-progress span test eliminates
            # nearly every candidate, so it runs before the (costlier)
            # same-gate-operand lookup.  Both checks are side-effect-free
            # filters, so the surviving candidate set is order-independent.
            row_h = rows[h]
            if arity == 2:
                if row_h[p0] >= span_limit:
                    continue
            elif arity == 3:
                d0, d1 = row_h[p0], row_h[p1]
                if (d0 if d0 >= d1 else d1) >= span_limit:
                    continue
            elif max(row_h[p] for p in partner_sites) >= span_limit:
                continue
            displaced = lookup_displaced(h)
            if displaced in gate_qubits:
                # Swapping two operands of the same gate permutes them but
                # leaves the operand site set (and the span) unchanged.
                continue
            if u_rows is None:
                u_rows = [(v, phi[v], weight, row_u[phi[v]])
                          for v, weight in per_qubit.get(u, {}).items()
                          if v != u and v in phi]
            # The score, term by term in partner order: u moves from
            # site_u to h.  A partner that is the displaced qubit trades
            # places with u, so its distance is unchanged and it adds
            # nothing.
            score = 0.0
            for v, site_v, weight, d_uv in u_rows:
                if v != displaced:
                    score += (d_uv - row_h[site_v]) * weight
            if displaced is not None:
                # The displaced qubit moves from h to site_u; a move away
                # from its own partners counts against the SWAP.
                for v, weight in per_qubit.get(displaced, {}).items():
                    if v == displaced or v == u:
                        continue
                    site_v = site_of(v)
                    if site_v is not None:
                        score += (row_h[site_v] - row_u[site_v]) * weight
            if (not have_best or score > best_score or (
                score == best_score and (site_u, h) < (best_a, best_b)
            )):
                best_a, best_b, best_score = site_u, h, score
                have_best = True
    if have_best:
        return SwapProposal(best_a, best_b, best_score)
    return _bfs_fallback(gate_qubits, phi, topology)


def _bfs_fallback(
    gate_qubits: Sequence[int],
    phi: Dict[int, int],
    topology: Topology,
) -> Optional[SwapProposal]:
    """One hop along a shortest active path between the farthest operand
    pair.  Returns ``None`` when the pair is disconnected."""
    # Pick the farthest pair; walk u one hop toward v.
    rows = topology.grid.distance_rows()
    best_pair: Optional[Tuple[int, int]] = None
    best_dist = -1.0
    for i, u in enumerate(gate_qubits):
        row_u = rows[phi[u]]
        for v in gate_qubits[i + 1:]:
            dist = row_u[phi[v]]
            if dist > best_dist:
                best_dist = dist
                best_pair = (u, v)
    if best_pair is None:
        return None
    site_u, site_v = phi[best_pair[0]], phi[best_pair[1]]
    path = topology.shortest_path(site_u, site_v)
    if path is None or len(path) < 3:
        # No path, or the operands are already direct neighbors (swapping
        # a pair with itself would achieve nothing).
        return None
    return SwapProposal(site_u, path[1], 0.0, via_path_fallback=True)


def reroute_path_swaps(
    site_a: int,
    site_b: int,
    topology: Topology,
) -> Optional[List[Tuple[int, int]]]:
    """SWAP chain bringing the atom at ``site_a`` within the MID of
    ``site_b``, used by the Minor Rerouting loss strategy (§VI).

    Walks a shortest active path and swaps until the moving atom's current
    site is within interaction distance of ``site_b``.  Returns the list
    of (from, to) swaps, possibly empty when already in range, or ``None``
    when no path exists.
    """
    if topology.distance(site_a, site_b) <= topology.max_interaction_distance + 1e-9:
        return [] if topology.is_active(site_a) and topology.is_active(site_b) else None
    path = topology.shortest_path(site_a, site_b)
    if path is None:
        return None
    swaps: List[Tuple[int, int]] = []
    current = site_a
    for nxt in path[1:]:
        if topology.distance(current, site_b) <= topology.max_interaction_distance + 1e-9:
            break
        swaps.append((current, nxt))
        current = nxt
    return swaps
