"""Per-layer timing from outside the program.

A :class:`Probe` replaces a layer's public function with a timing
wrapper while a traced round runs, and puts the original back after it.
Nothing inside ``src/`` changes: the wrappers sit on the module
attribute the caller looks up (``repro.core.scheduler.propose_swap``,
not ``repro.core.routing.propose_swap``, because the scheduler imported
the name), on a class, or on one object.

Each thread keeps a stack of open calls, so a wrapped call nested in
another wrapped call is subtracted from the outer call's self time.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

Label = Union[str, Callable[..., str]]
After = Optional[Callable[["Probe", Any, tuple], None]]


class Probe:
    """Call counts, wall and self time per label, plus free counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        #: Counters bumped by ``after`` hooks (fallbacks, timesteps, ...).
        self.counts: Counter = Counter()
        self._targets: List[Tuple[Any, str, Label, After]] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, owner: Any, attr: str, label: Label,
            after: After = None) -> None:
        """Time ``owner.attr`` under ``label`` while installed.

        ``label`` may be a function of the call's arguments (to split
        one method by strategy or route).  ``after(probe, result, args)``
        runs after each call that returned.
        """
        self._targets.append((owner, attr, label, after))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def install(self) -> None:
        for owner, attr, label, after in self._targets:
            original = getattr(owner, attr)
            owned = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, label, after))
            self._saved.append((owner, attr, original, owned))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def timed_stream(self, stream: Iterator, name: str) -> Iterator:
        """``stream``, with the time spent producing each item added to
        ``name`` (a response body drained after its handler returned)."""
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    with self._lock:
                        self.seconds[name] += elapsed
                        self.self_seconds[name] += elapsed
                yield item
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def snapshot(self) -> Dict[str, Counter]:
        with self._lock:
            return {"calls": Counter(self.calls),
                    "seconds": Counter(self.seconds),
                    "self_seconds": Counter(self.self_seconds),
                    "counts": Counter(self.counts)}

    # -- internals -----------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, label: Label,
              after: After) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            stack = probe._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                probe._record(name, start, stack, raised=True)
                raise
            probe._record(name, start, stack, raised=False)
            if after is not None:
                after(probe, result, args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _record(self, name: str, start: float, stack: List[float],
                raised: bool) -> None:
        elapsed = time.perf_counter() - start
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - children
            if raised:
                self.calls[name + ".raised"] += 1
                self.seconds[name + ".raised"] += elapsed


class LayerView:
    """Reads a probe as per-layer metrics.

    Counts come from the first round alone (``first``), so they repeat
    exactly for one seed however many rounds the host allowed.  Times are
    totals over all traced rounds divided by their number: milliseconds
    spent in the layer per round.
    """

    def __init__(self, probe: Probe, first: Dict[str, Counter],
                 traced_rounds: int):
        self.probe = probe
        self.first = first
        self.rounds = max(1, traced_rounds)

    def calls(self, name: str) -> float:
        return float(self.first["calls"][name])

    def count(self, name: str) -> float:
        return float(self.first["counts"][name])

    def ms(self, name: str) -> float:
        return self.probe.seconds[name] * 1000.0 / self.rounds

    def self_ms(self, name: str) -> float:
        return self.probe.self_seconds[name] * 1000.0 / self.rounds

    def ratio(self, part: float, whole: float) -> float:
        return part / whole if whole else 0.0
