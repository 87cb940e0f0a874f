"""Declarative task grids: canonical keys + derived seeds + the engine.

``run_tasks`` (:mod:`repro.exec.engine`) executes any flat task list, but
every driver used to hand-roll the same three steps around it: build a
canonical :func:`repro.exec.keys.task_key` per cell, derive the cell's
RNG seed from that key, and zip results back into grid order.
:func:`grid_map` owns those steps, so a driver is reduced to

* a **cell**: one frozen dataclass (or plain dict) of picklable
  parameters describing one grid point;
* a **task function**: a module-level callable mapping one cell to one
  result, reading its randomness only from the cell's ``seed`` field;
* a **reduction**: plain serial code folding the returned list into the
  driver's result object.

The determinism contract is inherited from the keys module: a cell's
seed depends only on the *identity* of the cell (its primitive fields,
under an experiment namespace) and the caller's base seed — never on
enumeration order, worker count, or how many draws other cells made.
Adding or removing grid cells therefore cannot shift the seeds of the
cells that remain.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.exec.engine import run_tasks
from repro.exec.keys import derive_seed, task_key

#: Field types admissible in a cell's canonical key.  Everything else —
#: model objects, architectures, arrays — rides along to the task
#: function but stays out of the key (and so cannot perturb seeds).
_KEYABLE_TYPES = (str, int, float, bool, type(None))

#: The cell field grid_map owns: it is overwritten with the key-derived
#: seed and never participates in the key itself.
SEED_FIELD = "seed"


def _is_keyable(value) -> bool:
    if isinstance(value, _KEYABLE_TYPES):
        return True
    if isinstance(value, tuple):
        return all(_is_keyable(item) for item in value)
    return False


def _cell_fields(cell) -> Dict:
    """A cell's fields as a plain mapping (dataclass or dict alike)."""
    if dataclasses.is_dataclass(cell) and not isinstance(cell, type):
        return {f.name: getattr(cell, f.name)
                for f in dataclasses.fields(cell)}
    if isinstance(cell, dict):
        return dict(cell)
    raise TypeError(
        f"grid cells must be dataclass instances or dicts, got {type(cell)!r}"
    )


def cell_key(
    experiment: str,
    cell,
    key_fields: Optional[Sequence[str]] = None,
) -> str:
    """The canonical key identifying one grid cell.

    ``key_fields=None`` selects every primitive field automatically
    (minus ``seed``); pass an explicit tuple to pin the key schema —
    required when a driver must stay byte-compatible with seeds derived
    before a field was added.
    """
    fields = _cell_fields(cell)
    fields.pop(SEED_FIELD, None)
    if key_fields is None:
        names = [name for name, value in fields.items() if _is_keyable(value)]
    else:
        names = list(key_fields)
        for name in names:
            if name not in fields:
                raise KeyError(
                    f"key field {name!r} missing from cell {cell!r}")
            if not _is_keyable(fields[name]):
                raise TypeError(
                    f"key field {name!r} has non-primitive value "
                    f"{fields[name]!r}; keys must be built from "
                    "str/int/float/bool/None (or tuples of them)")
    return task_key(experiment=experiment,
                    **{name: fields[name] for name in names})


def _seeded(cell, seed: int):
    if dataclasses.is_dataclass(cell) and not isinstance(cell, type):
        return dataclasses.replace(cell, **{SEED_FIELD: seed})
    task = dict(cell)
    task[SEED_FIELD] = seed
    return task


def grid_map(
    task_fn: Callable,
    cells: Iterable,
    *,
    experiment: str,
    base_seed: int = 0,
    key_fields: Optional[Sequence[str]] = None,
) -> List:
    """Run ``task_fn`` over every cell, results in cell order.

    Each cell (a frozen dataclass with a ``seed`` field, or a dict) is
    stamped with ``seed = derive_seed(cell_key(experiment, cell,
    key_fields), base_seed)`` and fanned out over
    :func:`repro.exec.engine.run_tasks` under the active
    :class:`repro.api.Session`, whose ``jobs`` sets the worker count.
    ``task_fn`` must be module-level and each stamped cell picklable
    when running with more than one worker.

    Whatever the caller put in ``seed`` is overwritten — the field
    belongs to grid_map, which is what makes ``jobs=1`` and ``jobs=N``
    bitwise-identical for stochastic tasks.  Deterministic tasks simply
    ignore it.
    """
    tasks = [
        _seeded(cell, derive_seed(cell_key(experiment, cell, key_fields),
                                  base=base_seed))
        for cell in cells
    ]
    return run_tasks(task_fn, tasks)
