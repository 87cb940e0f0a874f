"""Routing decisions pinned by digest.

Every case compiles one benchmark family at one size and MID on a 10x10
grid, either whole or with 20 seeded atoms lost, and hashes what the
router decided: the initial and final layouts and every scheduled op
(gate, sites, timestep, source index).  A compile that raises records
its error type and message instead.  One livelocked recompile pins the
exact ``SchedulingStalledError`` message.

Speedups in the router, the lookahead weights or the scheduler must
leave every digest unchanged.  After a deliberate change to routing
decisions, regenerate the fixture and read the diff before committing::

    PYTHONPATH=src python tests/test_routing_digests.py
    git diff tests/fixtures/routing_digests.json
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.core.compiler import compile_circuit
from repro.core.config import CompilerConfig
from repro.core.errors import CompilationError
from repro.hardware.topology import Topology
from repro.workloads.registry import build_circuit

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "routing_digests.json"

FAMILIES = ("bv", "cnu", "cuccaro", "qft-adder", "qaoa")
SIZES = (10, 30)
MIDS = (1.0, 2.0, 3.0, 5.0)
GRID_SIDE = 10
LOST_SITES = tuple(sorted(random.Random(2021).sample(range(GRID_SIDE ** 2),
                                                     20)))
HOLE_PATTERNS = {"whole": (), "lost20": LOST_SITES}

#: cnu at 20 qubits, MID 2, with these 37 atoms lost: the BFS fallback
#: swaps two operands of one Toffoli back and forth until the budget.
STALLED_HOLES = (0, 1, 4, 8, 11, 15, 16, 17, 18, 20, 21, 22, 23, 29, 30,
                 35, 44, 46, 47, 48, 49, 50, 52, 53, 56, 61, 62, 63, 68,
                 69, 80, 87, 90, 94, 96, 97, 99)


def case_name(family: str, size: int, mid: float, holes: str) -> str:
    return f"{family}/{size}/mid{mid:g}/{holes}"


def compiled_digest(family: str, size: int, mid: float, lost) -> str:
    """SHA-256 of the routing decisions, or ``Error: message``."""
    topology = Topology.square(GRID_SIDE, mid)
    for site in lost:
        topology.remove_atom(site)
    config = CompilerConfig(max_interaction_distance=mid)
    try:
        program = compile_circuit(build_circuit(family, size), topology,
                                  config)
    except CompilationError as error:
        return f"{type(error).__name__}: {error}"
    digest = hashlib.sha256()
    digest.update(repr(sorted(program.initial_layout.items())).encode())
    digest.update(repr(sorted(program.final_layout.items())).encode())
    for step in program.schedule:
        for op in step:
            gate = (None if op.gate is None
                    else (op.gate.name, op.gate.qubits, op.gate.params))
            digest.update(repr((gate, op.sites, op.timestep,
                                op.source_index)).encode())
    return digest.hexdigest()


def all_digests():
    digests = {
        case_name(family, size, mid, holes): compiled_digest(
            family, size, mid, lost)
        for family in FAMILIES
        for size in SIZES
        for mid in MIDS
        for holes, lost in HOLE_PATTERNS.items()
    }
    digests["stalled"] = compiled_digest("cnu", 20, 2.0, STALLED_HOLES)
    return digests


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("holes", sorted(HOLE_PATTERNS))
@pytest.mark.parametrize("mid", MIDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_routing_decisions_match_the_pinned_digests(pinned, family, mid,
                                                    holes):
    for size in SIZES:
        name = case_name(family, size, mid, holes)
        assert compiled_digest(family, size, mid,
                               HOLE_PATTERNS[holes]) == pinned[name], name


def test_a_livelocked_compile_raises_the_pinned_message(pinned):
    assert pinned["stalled"].startswith(
        "SchedulingStalledError: no progress after")
    assert compiled_digest("cnu", 20, 2.0, STALLED_HOLES) == pinned["stalled"]


def test_the_fixture_names_exactly_the_cases(pinned):
    assert len(pinned) == len(FAMILIES) * len(SIZES) * len(MIDS) * 2 + 1


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
