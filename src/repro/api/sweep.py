"""First-class parameter sweeps: the SweepSpec / SweepResult contract.

The paper's experiments are all parameter sweeps, and every layer below
this one already speaks cells — ``grid_map`` fans a driver's grid over
the engine, the result store keys each (experiment, resolved-params)
run, the serving layer dedups in-flight work by that key.  What was
missing is a *public* object describing a sweep, so those layers can
fan out, dedup, and stream at **cell** granularity instead of
whole-experiment granularity.

A :class:`SweepSpec` is an experiment name plus a parameter grid::

    from repro.api import Session, SweepSpec

    spec = SweepSpec("ext-trapped-ion", axes={"program_size": (10, 20)},
                     quick=True)
    result = Session(store_dir="/tmp/store").run_sweep(spec)
    for cell, experiment_result in result:
        print(cell.params, experiment_result.format())

Expansion is **canonical**: axes are ordered by name and the grid is
their cartesian product in row-major order (last axis fastest, exactly
:func:`repro.exec.keys.task_grid`), so two clients describing the same
grid — whatever order they wrote the axes in — expand to the same cells
in the same order.  Every cell carries its own
:func:`repro.api.store.store_key` over the cell's *resolved* parameter
mapping — the same digest the result store and the serving layer use —
which is what makes cell results replayable and dedupable for free:
a sweep cell and the equivalent single ``Session.run`` share one key,
one stored envelope, one in-flight job.

Validation happens at construction, with the registry's conventions: an
unknown axis or base parameter raises ``TypeError`` naming the unknown
key and the known set (:meth:`ExperimentSpec.validate_params`), a
malformed axis raises ``ValueError``, and a value with no canonical
store form is rejected by :func:`store_key` before anything runs.

A :class:`SweepResult` is the schema-versioned envelope around the
per-cell results, with ``to_dict``/``from_dict`` mirroring
:class:`~repro.api.results.ExperimentResult` — bump
:data:`SWEEP_SCHEMA_VERSION` when its layout changes shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.api.results import ExperimentResult

#: Envelope identifier for serialized sweep results.
SWEEP_SCHEMA = "repro.sweep-result"

#: Bump when the sweep envelope layout changes shape.
SWEEP_SCHEMA_VERSION = 1


def json_flag(payload: Mapping[str, Any], name: str) -> bool:
    """``payload[name]`` read as an on/off flag: absent or ``null`` is
    ``False``, and any value that is not a JSON boolean raises
    ``ValueError`` (``bool("false")`` would read as ``True``)."""
    value = payload.get(name)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ValueError(f'"{name}" must be true or false, got {value!r}')
    return value


def _normalized(value: Any) -> Any:
    """Lists folded into tuples, recursively — the store's equivalence
    (``mids=[2.0]`` == ``mids=(2.0,)``), applied up front so a spec
    rebuilt from its JSON wire form expands to identical cells."""
    if isinstance(value, (tuple, list)):
        return tuple(_normalized(item) for item in value)
    return value


def _jsonable(value: Any) -> Any:
    """The JSON spelling of a normalized parameter value (tuples become
    lists; everything else is already a JSON primitive)."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid point of a sweep.

    ``params`` is the per-cell override mapping (the spec's ``base``
    overlaid by this cell's axis values); ``resolved`` is the full
    effective parameter mapping
    (:meth:`ExperimentSpec.resolved_params`); ``key`` is the cell's
    result-store digest — identical to the key of the equivalent
    single-experiment run by construction.
    """

    index: int
    params: Dict[str, Any]
    resolved: Dict[str, Any]
    key: str

    def describe(self) -> Dict[str, Any]:
        """The JSON shape of this cell used on the wire."""
        return {
            "index": self.index,
            "params": {name: _jsonable(value)
                       for name, value in self.params.items()},
            "key": self.key,
        }


class SweepSpec:
    """A validated, canonically-ordered parameter sweep of one experiment.

    ``axes``
        Mapping of parameter name to a non-empty sequence of values;
        the grid is the cartesian product.  Exact repeats within an
        axis are dropped (they would name the same cell twice).
    ``base``
        Fixed parameter overrides applied to every cell.  A name cannot
        be both an axis and a base override.
    ``quick``
        Apply the experiment's registered ``--quick`` preset underneath
        ``base`` and the axis values, exactly like ``Session.run``.
    """

    def __init__(self, experiment: str,
                 axes: Optional[Mapping[str, Any]] = None,
                 base: Optional[Mapping[str, Any]] = None,
                 quick: bool = False):
        from repro.api.registry import get_experiment
        from repro.api.store import store_key

        spec = get_experiment(experiment)  # KeyError on an unknown name
        axes = dict(axes or {})
        base = dict(base or {})
        overlap = sorted(set(axes) & set(base))
        if overlap:
            raise ValueError(
                f"parameter(s) {', '.join(map(repr, overlap))} appear in "
                "both axes and base; a sweep parameter is one or the other"
            )
        # The registry's error convention: unknown names raise TypeError
        # naming the unknown key and the known set.
        spec.validate_params({name: None for name in (*axes, *base)})
        normalized_axes: Dict[str, Tuple[Any, ...]] = {}
        for name in sorted(axes):
            values = axes[name]
            if isinstance(values, (str, bytes)) or not hasattr(values,
                                                               "__iter__"):
                raise ValueError(
                    f"axis {name!r} must be a sequence of values, got "
                    f"{values!r}"
                )
            seen: List[str] = []
            kept: List[Any] = []
            for value in values:
                value = _normalized(value)
                marker = repr(value)
                if marker in seen:
                    continue
                seen.append(marker)
                kept.append(value)
            if not kept:
                raise ValueError(f"axis {name!r} has no values")
            normalized_axes[name] = tuple(kept)
        self.experiment = experiment
        self.axes: Dict[str, Tuple[Any, ...]] = normalized_axes
        self.base: Dict[str, Any] = {name: _normalized(value)
                                     for name, value in base.items()}
        self.quick = bool(quick)
        # Expand eagerly: every validation error — including a value
        # with no canonical store form — surfaces at construction, not
        # mid-sweep.
        from repro.exec.keys import task_grid

        combos = task_grid(**self.axes) if self.axes else [{}]
        cells = []
        for index, combo in enumerate(combos):
            params = dict(self.base)
            params.update(combo)
            resolved = spec.resolved_params(quick=self.quick,
                                            overrides=params)
            cells.append(SweepCell(
                index=index,
                params=params,
                resolved=resolved,
                key=store_key(experiment, resolved),
            ))
        self._cells: Tuple[SweepCell, ...] = tuple(cells)

    def cells(self) -> Tuple[SweepCell, ...]:
        """Every grid point, in canonical order (axes sorted by name,
        cartesian product row-major, last axis fastest)."""
        return self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def keys(self) -> Tuple[str, ...]:
        """The cells' store keys, in canonical cell order."""
        return tuple(cell.key for cell in self._cells)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON wire form (``POST /sweeps`` request body)."""
        return {
            "experiment": self.experiment,
            "axes": {name: [_jsonable(value) for value in values]
                     for name, values in self.axes.items()},
            "base": {name: _jsonable(value)
                     for name, value in self.base.items()},
            "quick": self.quick,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` (re-validating fully)."""
        if not isinstance(payload, Mapping):
            raise TypeError(f"expected a sweep spec object, got "
                            f"{type(payload).__name__}")
        experiment = payload.get("experiment")
        if not isinstance(experiment, str):
            raise ValueError('a sweep spec needs an "experiment" name')
        # Shape-check before any falsy coercion: a wrong-shaped "axes"
        # ([], false, "") must be rejected, not silently emptied.
        axes = payload.get("axes")
        base = payload.get("base")
        axes = {} if axes is None else axes
        base = {} if base is None else base
        if not isinstance(axes, Mapping):
            raise ValueError('"axes" must be an object mapping parameter '
                             "names to value arrays")
        if not isinstance(base, Mapping):
            raise ValueError('"base" must be an object of parameter '
                             "overrides")
        return cls(experiment, axes=axes, base=base,
                   quick=json_flag(payload, "quick"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepSpec):
            return NotImplemented
        return self.keys() == other.keys() and self.quick == other.quick

    def __repr__(self) -> str:
        axes = ", ".join(f"{name}×{len(values)}"
                         for name, values in self.axes.items())
        return (f"SweepSpec({self.experiment!r}, cells={len(self)}"
                f"{', ' + axes if axes else ''}"
                f"{', quick' if self.quick else ''})")


@dataclass
class SweepResult:
    """Every cell's result, aligned with the spec's canonical order.

    Iterating yields ``(cell, result)`` pairs; ``to_dict`` returns the
    schema-versioned envelope whose per-cell ``result`` entries are the
    cells' own ``ExperimentResult.to_dict()`` envelopes — each one
    byte-identical (through ``canonical_json``) to the equivalent
    single-experiment ``--format json`` output.
    """

    experiment: str
    quick: bool
    cells: Tuple[SweepCell, ...]
    results: Tuple[ExperimentResult, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.results):
            raise ValueError(
                f"{len(self.cells)} cells but {len(self.results)} results"
            )

    def __iter__(self) -> Iterator[Tuple[SweepCell, ExperimentResult]]:
        return iter(zip(self.cells, self.results))

    def __len__(self) -> int:
        return len(self.cells)

    def format(self) -> str:
        """Per-cell figure text, each under a one-line cell header."""
        blocks = []
        for cell, result in self:
            params = ", ".join(f"{name}={value!r}"
                               for name, value in cell.params.items())
            blocks.append(f"== {self.experiment}[{params}] ==\n"
                          + result.format())
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SWEEP_SCHEMA,
            "schema_version": SWEEP_SCHEMA_VERSION,
            "experiment": self.experiment,
            "quick": self.quick,
            "cells": [
                {**cell.describe(), "result": result.to_dict()}
                for cell, result in self
            ],
        }

    @classmethod
    def from_pairs(
        cls, spec: SweepSpec,
        pairs: Iterable[Tuple[SweepCell, ExperimentResult]],
    ) -> "SweepResult":
        """The result of ``spec`` from its ``(cell, result)`` pairs in
        any order (a server streams them in completion order), aligned
        to the canonical cell order."""
        ordered = sorted(pairs, key=lambda pair: pair[0].index)
        return cls(experiment=spec.experiment, quick=spec.quick,
                   cells=tuple(cell for cell, _ in ordered),
                   results=tuple(result for _, result in ordered))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Reconstruct from a :meth:`to_dict` envelope.

        Cell keys are re-derived from the registry (never trusted from
        the payload), so a stale envelope whose parameters no longer
        resolve — a removed driver parameter, a schema bump — fails
        loudly instead of replaying under the wrong identity.
        """
        from repro.api.registry import get_experiment
        from repro.api.store import store_key

        if not isinstance(payload, Mapping):
            raise TypeError(f"expected a sweep envelope dict, got "
                            f"{type(payload).__name__}")
        if payload.get("schema") != SWEEP_SCHEMA:
            raise ValueError(
                f"not a {SWEEP_SCHEMA} payload: "
                f"schema={payload.get('schema')!r}"
            )
        version = payload.get("schema_version")
        if version != SWEEP_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported sweep schema version {version!r} "
                f"(expected {SWEEP_SCHEMA_VERSION})"
            )
        experiment = payload.get("experiment")
        if not isinstance(experiment, str):
            raise ValueError('sweep envelope needs an "experiment" name')
        spec = get_experiment(experiment)
        entries = payload.get("cells")
        if not isinstance(entries, list):
            raise ValueError('sweep envelope needs a "cells" array')
        quick = json_flag(payload, "quick")
        cells = []
        results = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise ValueError(f"cell {index} is not an object")
            params = {name: _normalized(value)
                      for name, value in (entry.get("params") or {}).items()}
            resolved = spec.resolved_params(quick=quick, overrides=params)
            cells.append(SweepCell(
                index=index, params=params, resolved=resolved,
                key=store_key(experiment, resolved),
            ))
            results.append(ExperimentResult.from_dict(entry.get("result")))
        return cls(experiment=experiment, quick=quick,
                   cells=tuple(cells), results=tuple(results))
