"""Output checks written independently of the compiler.

``schedule_problems`` replays a compiled schedule from its initial
layout and reports every way it breaks the compiler's contract; an empty
list means the program is valid.  It shares no code with
``repro.core`` beyond reading the program and topology objects.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: Slack for comparing Euclidean distances against the MID.
EPSILON = 1e-9


def _span(sites: Sequence[int], cols: int) -> float:
    """Largest pairwise Euclidean distance among grid sites."""
    points = [divmod(site, cols) for site in sites]
    best = 0.0
    for i, (row_a, col_a) in enumerate(points):
        for row_b, col_b in points[i + 1:]:
            best = max(best, math.hypot(row_a - row_b, col_a - col_b))
    return best


def schedule_problems(program, topology, limit: int = 10) -> List[str]:
    """Replay ``program`` on ``topology``; the contract violations found.

    Checks that every op touches active sites only, that multi-qubit ops
    span at most the MID, that no site is used twice in one timestep,
    that each source gate runs exactly once where its qubits sit and in
    per-qubit program order, and that the SWAPs applied to the initial
    layout reproduce the final layout.
    """
    problems: List[str] = []

    def report(message: str) -> None:
        if len(problems) < limit:
            problems.append(message)

    cols = topology.grid.cols
    mid = topology.max_interaction_distance
    gates = list(program.source)
    layout: Dict[int, int] = dict(program.initial_layout)
    holder: Dict[int, int] = {site: qubit for qubit, site in layout.items()}
    if len(holder) != len(layout):
        report("initial layout maps two qubits to one site")
    ran_at: List[Optional[int]] = [None] * len(gates)

    for timestep, ops in enumerate(program.schedule):
        used = set()
        swaps = []
        for op in ops:
            if op.timestep != timestep:
                report(f"op {op} filed under timestep {timestep}")
            for site in op.sites:
                if not topology.is_active(site):
                    report(f"t{timestep}: {op.name} uses inactive site {site}")
                if site in used:
                    report(f"t{timestep}: site {site} used twice")
                used.add(site)
            if len(op.sites) >= 2 and _span(op.sites, cols) > mid + EPSILON:
                report(f"t{timestep}: {op.name} at {op.sites} spans more "
                       f"than the MID {mid}")
            if op.gate is None:
                if len(op.sites) != 2:
                    report(f"t{timestep}: SWAP on {len(op.sites)} sites")
                else:
                    swaps.append(op.sites)
                continue
            index = op.source_index
            if index is None or not 0 <= index < len(gates):
                report(f"t{timestep}: {op.name} has no source gate")
                continue
            if ran_at[index] is not None:
                report(f"source gate {index} scheduled twice")
                continue
            ran_at[index] = timestep
            gate = gates[index]
            if op.gate != gate:
                report(f"t{timestep}: op {op.gate} is not source gate "
                       f"{index} ({gate})")
                continue
            where = tuple(layout.get(qubit, -1) for qubit in gate.qubits)
            if tuple(op.sites) != where:
                report(f"t{timestep}: gate {index} ran at {op.sites} but its "
                       f"qubits sit at {where}")
        # SWAPs take effect between timesteps; they touch disjoint sites
        # (checked above), so applying them one by one is the same.
        for site_a, site_b in swaps:
            qubit_a = holder.pop(site_a, None)
            qubit_b = holder.pop(site_b, None)
            if qubit_a is not None:
                layout[qubit_a] = site_b
                holder[site_b] = qubit_a
            if qubit_b is not None:
                layout[qubit_b] = site_a
                holder[site_a] = qubit_b

    missing = [index for index, step in enumerate(ran_at) if step is None]
    if missing:
        report(f"{len(missing)} source gates never scheduled "
               f"(first: {missing[0]})")
    last_step: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        step = ran_at[index]
        if step is None:
            continue
        for qubit in gate.qubits:
            if step <= last_step.get(qubit, -1):
                report(f"gate {index} on qubit {qubit} runs at t{step}, not "
                       "after the qubit's previous gate")
            last_step[qubit] = step
    if layout != dict(program.final_layout):
        report("SWAPs applied to the initial layout do not give the final "
               "layout")
    return problems
