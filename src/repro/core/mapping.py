"""Initial placement of program qubits onto grid sites (§III-A).

Greedy weighted placement: the heaviest-interacting pair is seated
adjacently at the device center; every subsequent qubit (ordered by total
weight to already-placed qubits, heaviest first) takes the free site
minimizing

    s(u, h) = sum_{mapped v} d(h, phi(v)) * w(u, v)

i.e. close to its frequent partners.  Qubits with no interactions fill in
center-outward.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.weights import InteractionWeights
from repro.hardware.topology import Topology


class MappingError(RuntimeError):
    """Raised when the program cannot be placed on the device."""


def initial_mapping(
    order: Sequence[int],
    topology: Topology,
    weights: InteractionWeights,
) -> Dict[int, int]:
    """Place the program qubits in ``order`` onto active sites.

    ``order`` is :func:`placement_order` of ``weights`` (it depends on no
    topology, so callers compute it once per lowering).  Returns a dict
    program qubit -> site.  Raises :class:`MappingError` when the device
    has too few active atoms.
    """
    active = set(topology.active_sites())
    if len(order) > len(active):
        raise MappingError(
            f"program needs {len(order)} qubits but only "
            f"{len(active)} atoms remain"
        )

    center_order = [
        s for s in topology.grid.sites_by_center_distance() if s in active
    ]
    mapping: Dict[int, int] = {}
    free: Set[int] = set(active)

    for qubit in order:
        if not mapping:
            # First qubit of the heaviest pair: dead center.
            site = center_order[0]
        else:
            site = _best_site(qubit, mapping, free, topology, weights, center_order)
        mapping[qubit] = site
        free.discard(site)
    return mapping


def placement_order(num_qubits: int, weights: InteractionWeights) -> List[int]:
    """Qubits ordered for placement: heaviest pair first, then greedily by
    weight to the already-ordered set, isolated qubits last."""
    remaining = set(range(num_qubits))
    order: List[int] = []
    if len(weights) > 0:
        u, v = weights.heaviest_pair()
        order.extend([u, v])
        remaining.discard(u)
        remaining.discard(v)
        ordered = set(order)
        # Per-qubit partner views are stable; fetch them once.  The
        # weight totals are still re-summed from scratch each round in
        # partner-dict order, so float accumulation matches the naive
        # rebuild bit for bit.
        partner_items = {q: list(weights.partners(q).items()) for q in remaining}
        while remaining:
            best_qubit: Optional[int] = None
            best_weight = -1.0
            for qubit in remaining:
                total = sum(
                    w for p, w in partner_items[qubit] if p in ordered
                )
                if total > best_weight or (
                    total == best_weight
                    and (best_qubit is None or qubit < best_qubit)
                ):
                    best_weight = total
                    best_qubit = qubit
            assert best_qubit is not None
            order.append(best_qubit)
            ordered.add(best_qubit)
            remaining.discard(best_qubit)
    else:
        order = sorted(remaining)
        remaining = set()
    return order


def _best_site(
    qubit: int,
    mapping: Dict[int, int],
    free: Set[int],
    topology: Topology,
    weights: InteractionWeights,
    center_order: List[int],
) -> int:
    """Free site minimizing the paper's placement score for ``qubit``."""
    partners = weights.partners(qubit)
    mapped_partners = [
        (mapping[v], w) for v, w in partners.items() if v in mapping
    ]
    if not mapped_partners:
        # No signal: take the most central free site.
        for site in center_order:
            if site in free:
                return site
        raise MappingError("no free site available")

    rows = topology.grid.distance_rows()
    best_site = None
    best_score = float("inf")
    for site in free:
        row = rows[site]
        score = 0.0
        for partner_site, weight in mapped_partners:
            score += row[partner_site] * weight
            # Only a partial sum already above the best is conclusive: one
            # that ties may still grow, and a tie wins on the lower site.
            if score > best_score:
                break
        if score < best_score or (score == best_score and (
            best_site is None or site < best_site
        )):
            best_score = score
            best_site = site
    assert best_site is not None
    return best_site
