"""The shared shape of every session-like execution surface.

:class:`SessionProtocol` is the structural contract both
:class:`repro.api.Session` (local execution) and
:class:`repro.api.RemoteSession` (execution proxied to a ``repro
serve`` endpoint) satisfy: ``run`` one experiment, ``run_sweep`` /
``iter_sweep`` a parameter grid, and expose ``hits`` / ``misses``
outcome counters.  Call sites written against this protocol can swap a
local session for a remote one — "a backend = a Session policy" — with
no shape change, and ``tests/test_api_sweep.py`` asserts the two
implementations' signatures stay identical so the surfaces cannot
drift apart again.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Tuple, runtime_checkable

from repro.api.results import ExperimentResult
from repro.api.sweep import SweepCell, SweepResult, SweepSpec


@runtime_checkable
class SessionProtocol(Protocol):
    """What it means to be a session, local or remote.

    Semantics every implementation upholds:

    * ``run`` blocks until the experiment's result exists and returns a
      decoded :class:`ExperimentResult`; ``KeyError`` for an unknown
      experiment, ``TypeError``/``ValueError`` for invalid parameters.
    * ``run_sweep`` executes every cell of a :class:`SweepSpec` and
      returns the aligned :class:`SweepResult`; ``iter_sweep`` yields
      each ``(cell, result)`` pair as it completes instead of blocking
      on the slowest cell.
    * ``hits`` / ``misses`` count result-store outcomes observed by
      this surface's calls (a session with no store reports zeros).
    """

    @property
    def hits(self) -> int: ...

    @property
    def misses(self) -> int: ...

    def run(self, experiment: str, quick: bool = False,
            force: bool = False, **params) -> ExperimentResult: ...

    def run_sweep(self, spec: SweepSpec,
                  force: bool = False) -> SweepResult: ...

    def iter_sweep(
        self, spec: SweepSpec, force: bool = False,
    ) -> Iterator[Tuple[SweepCell, ExperimentResult]]: ...
