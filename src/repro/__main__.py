"""Command-line entry point: regenerate any experiment by name.

Usage::

    python -m repro list
    python -m repro run fig3
    python -m repro run fig12 --quick
    python -m repro run all --quick --jobs 4 --cache-dir /tmp/repro-cache
    python -m repro run fig3 --quick --format json --out fig3.json
    python -m repro run fig3 --quick --store /tmp/repro-store
    python -m repro sweep ext-trapped-ion --quick --axis program_size=10,20
    python -m repro sweep fig3 --axis mids=2,4 --server http://host:8000
    python -m repro run workload-metrics --circuit prog.qasm --quick
    python -m repro circuits add prog.qasm
    python -m repro circuits add prog.qasm --server http://host:8000
    python -m repro circuits ls
    python -m repro circuits show DIGEST
    python -m repro cache stats
    python -m repro cache prune --max-size 256
    python -m repro store ls
    python -m repro store ls --last 20
    python -m repro store show KEY --format json
    python -m repro store gc --max-size 64
    python -m repro serve --port 8000 --store /tmp/repro-store --jobs 2
    python -m repro serve --port 8000 --store /shared/store --jobs 0
    python -m repro worker --server http://host:8000 --store /shared/store
    python -m repro run fig3 --quick --trace-dir /tmp/repro-traces
    python -m repro serve --port 8000 --jobs 0 --trace-dir /shared/traces
    python -m repro trace ls --trace-dir /tmp/repro-traces
    python -m repro trace show TRACE_ID --format json

Every run executes under a :class:`repro.api.Session` built from the
flags — no process-global execution state.  ``--format text`` (the
default) prints the figure text exactly as always; ``--format json``
emits the result's schema-stable ``to_dict()`` envelope, which
round-trips through ``ExperimentResult.from_dict``.  ``run all
--format json`` emits one JSON object mapping each experiment name to
its envelope (decode each value individually).  ``--out FILE`` writes
the payload to a file instead of stdout.

``--quick`` applies each experiment's registered reduced-parameter
preset, small enough for a fast smoke pass (``tests/test_determinism.py``
runs every preset at two worker counts).

``--jobs N`` fans sweep grids out over N worker processes; any N
produces identical figure text because every task seeds its RNG from its
canonical key.  ``--cache-dir`` points the persistent compile cache at a
directory shared by workers and future runs; ``--store DIR`` makes runs
read-through against a persistent result store (``--force`` recomputes
and refreshes the stored entry).  Figure output goes to stdout and
timing diagnostics to stderr, so redirected output is byte-comparable
between runs sharing a warm cache — or replayed from the store.

``run`` and ``sweep`` take the same execution flags (``--quick``,
``--format``, ``--out``, ``--jobs``, ``--cache-dir``, ``--no-cache``,
``--store``, ``--force``, ``--circuit-dir``, ``--trace-dir``), declared
once; ``--cache-dir`` and ``--no-cache`` mean the same in ``serve`` and
``worker`` too.

``sweep`` runs a parameter grid as one :class:`repro.api.SweepSpec`:
each ``--axis name=v1,v2,...`` contributes one grid dimension, ``--set
name=value`` fixes a parameter across every cell, and the grid expands
canonically (axes sorted by name, cartesian product).  Per-cell
progress goes to stderr as cells complete; stdout carries the final
:class:`~repro.api.SweepResult` (``--format json`` emits its
schema-versioned envelope, whose per-cell ``result`` entries are
byte-identical to the equivalent ``run --format json``).  With
``--server URL`` the grid is submitted to a serving endpoint instead —
the server dedups cells against its store and in-flight jobs, and the
CLI consumes the streamed results as they finalize.

``circuits`` manages the content-addressed circuit store: ``add``
ingests an OpenQASM 2.0 file (locally, or — with ``--server`` — into a
serving endpoint via ``POST /circuits``) and prints its digest; ``ls``
and ``show`` inspect stored programs.  ``run EXP --circuit FILE`` is the
one-step spelling: the file is ingested and its ``circuit:<digest>``
reference is injected as the experiment's circuit parameter (the
experiment must declare exactly one).

``--trace-dir DIR`` turns on end-to-end tracing (:mod:`repro.obs`):
the run (or each served request chain) gets a trace id, every timed
stage — store read/write, task fan-out, per-task compiles, shot
kernels, queue wait, lease lifetime — lands as one span in an
append-only JSONL store under DIR, and the id is printed to stderr as
``[trace <id>]``.  Tracing is observability only: ``--format json``
output is byte-identical with it on or off.  ``trace ls`` / ``trace
show`` browse a trace directory; a serving endpoint started with
``--trace-dir`` also answers ``GET /trace/<id>``.

``store show``, ``circuits show`` and ``trace show`` resolve their
argument the same way: a full key or any unique prefix of one.  No match
and an ambiguous prefix each print one stderr line (the latter naming
the 16-character candidates) and exit 2.

``serve`` starts the HTTP serving layer (:mod:`repro.serve`) over a
result store: cached results are answered from disk, misses run on a
background job queue.  The first stderr line is machine-parseable —
``[serve] listening on http://HOST:PORT`` — so scripts binding ``--port
0`` (an ephemeral port; no more races for fixed ones) can read back the
address.  ``--jobs 0`` starts no local execution threads: jobs wait for
``worker`` processes, which pull them over the :mod:`repro.fleet`
protocol (lease + heartbeat; a killed worker's jobs are reclaimed and
re-run elsewhere).  Ctrl-C anywhere exits with the conventional SIGINT
status 130 after cleaning up (no orphaned cache temp files).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.api import ExperimentResult, Session, all_experiments
from repro.api.circuits import (CIRCUIT_DIR_ENV, DEFAULT_CIRCUIT_DIR,
                                CircuitStore)
from repro.api.store import ResultStore, STORE_DIR_ENV, canonical_json
from repro.exec.cache import CACHE_DIR_ENV
from repro.obs import TRACE_DIR_ENV

#: Default on-disk compile cache for CLI runs (override with --cache-dir,
#: the REPRO_CACHE_DIR environment variable, or disable with --no-cache).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro", "compile")

#: Default result-store directory for the `store` subcommand (override
#: with --store-dir or the REPRO_STORE_DIR environment variable; `run`
#: only uses a store when --store DIR is passed explicitly).
DEFAULT_STORE_DIR = os.path.join("~", ".cache", "repro", "results")

#: Default trace directory for the `trace` subcommand (override with
#: --trace-dir or the REPRO_TRACE_DIR environment variable; `run`,
#: `sweep`, and `serve` only record spans when --trace-dir is passed
#: explicitly — tracing is opt-in per invocation).
DEFAULT_TRACE_DIR = os.path.join("~", ".cache", "repro", "traces")


#: Each on-disk directory's environment variable and default.
_DIRS = {
    "cache": (CACHE_DIR_ENV, DEFAULT_CACHE_DIR),
    "store": (STORE_DIR_ENV, DEFAULT_STORE_DIR),
    "circuits": (CIRCUIT_DIR_ENV, DEFAULT_CIRCUIT_DIR),
    "traces": (TRACE_DIR_ENV, DEFAULT_TRACE_DIR),
}


def _resolve_dir(kind: str, flag, disabled: bool = False):
    """The ``kind`` directory: ``flag``, else its environment variable,
    else its default under ``~/.cache/repro``; ``None`` if disabled."""
    if disabled:
        return None
    env_var, default = _DIRS[kind]
    return flag or os.environ.get(env_var) or os.path.expanduser(default)


def _add_qasm_file(path: str, add):
    """Read the OpenQASM file at ``path`` and return ``add(text)`` (a
    digest); ``None`` after a one-line stderr diagnostic when the file
    cannot be read or does not validate."""
    try:
        with open(path, encoding="utf-8") as handle:
            qasm_text = handle.read()
    except OSError as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return None
    try:
        return add(qasm_text)
    except ValueError as error:
        # The line-attributed QASM validation message, verbatim.
        print(f"{path}: {error}", file=sys.stderr)
        return None


def _timed_run(session: Session, name: str, quick: bool,
               force: bool = False, overrides=None):
    """Run one experiment, emitting the timing diagnostic to stderr.

    stdout stays reserved for the (deterministic) result payload, so two
    runs can be compared byte-for-byte.  The diagnostic is attributed to
    *this* run under *this* session: store hits are marked, and the
    cache counters a caller reads afterwards belong to the session
    actually activated here — never to the process default session.
    """
    store = session.store
    hits_before = store.hits if store is not None else 0
    start = time.perf_counter()
    result = session.run(name, quick=quick, force=force,
                         **(overrides or {}))
    elapsed = time.perf_counter() - start
    replayed = store is not None and store.hits > hits_before
    print(f"[{name} "
          f"{'replayed from result store' if replayed else 'regenerated'} "
          f"in {elapsed:.1f}s"
          f"{' (quick parameters)' if quick else ''}]",
          file=sys.stderr)
    if session.last_trace_id is not None:
        # The handle to paste into `trace show` / GET /trace/<id>; on
        # stderr so traced and untraced stdout stay byte-identical.
        print(f"[trace {session.last_trace_id}]", file=sys.stderr)
    return result


def _emit(payload: str, out) -> None:
    """Write ``payload`` to stdout or FILE — identical bytes either way
    (modulo the guaranteed trailing newline), so redirected stdout and
    --out are interchangeable.  Missing parent directories of FILE are
    created."""
    if not payload.endswith("\n"):
        payload += "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        parent = os.path.dirname(os.path.abspath(out))
        os.makedirs(parent, exist_ok=True)
        # newline='' disables platform newline translation, keeping the
        # file byte-comparable with redirected stdout on every OS.
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)


def _local_session(args):
    """The :class:`Session` a local ``run``/``sweep`` executes under,
    built from their shared flags; ``None`` after a stderr line when
    ``--jobs`` is below 1."""
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return None
    return Session(
        jobs=args.jobs,
        cache_dir=_resolve_dir("cache", args.cache_dir, args.no_cache),
        store_dir=args.store,
        circuit_dir=_resolve_dir("circuits", args.circuit_dir),
        trace_dir=args.trace_dir,
    )


def _cmd_run(args) -> int:
    session = _local_session(args)
    if session is None:
        return 2
    specs = all_experiments()
    if args.experiment != "all" and args.experiment not in specs:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(sorted(specs))}", file=sys.stderr)
        return 2
    names = list(specs) if args.experiment == "all" else [args.experiment]

    overrides = {}
    if args.circuit is not None:
        if args.experiment == "all":
            print("--circuit needs one named experiment, not 'all'",
                  file=sys.stderr)
            return 2
        spec = specs[args.experiment]
        if len(spec.circuit_params) != 1:
            which = (f"declares {len(spec.circuit_params)} circuit "
                     f"parameters" if spec.circuit_params
                     else "takes no circuit parameter")
            print(f"experiment {args.experiment!r} {which}; --circuit "
                  "needs exactly one (try workload-metrics)",
                  file=sys.stderr)
            return 2
        digest = _add_qasm_file(args.circuit, session.circuits.add)
        if digest is None:
            return 2
        overrides = {spec.circuit_params[0]: f"circuit:{digest}"}
        print(f"[circuit {args.circuit} -> circuit:{digest[:16]}… "
              f"in {session.circuits.path}]", file=sys.stderr)
    stats_before = session.cache_stats()
    if args.format == "text" and args.out is None:
        # Streaming text path: byte-identical to the historical CLI.
        for name in names:
            result = _timed_run(session, name, args.quick, args.force,
                                overrides)
            print(result.format())
            print()
        _print_cache_stats(session, stats_before)
        return 0

    if args.format == "text":
        # Same bytes as the streaming stdout mode (format() + blank
        # separator per figure), so `--out f.txt` == `> f.txt`.
        payload = "".join(
            _timed_run(session, name, args.quick, args.force,
                       overrides).format()
            + "\n\n"
            for name in names
        )
    else:
        payloads = {
            name: _timed_run(session, name, args.quick, args.force,
                             overrides).to_dict()
            for name in names
        }
        document = (payloads[names[0]] if args.experiment != "all"
                    else payloads)
        # canonical_json is the one spelling of the envelope bytes: the
        # store persists it and `store show --format json` prints it,
        # so stored bytes == stdout bytes by construction.
        payload = canonical_json(document)
    try:
        _emit(payload, args.out)
    except OSError as error:
        print(f"cannot write {args.out}: {error}", file=sys.stderr)
        return 2
    _print_cache_stats(session, stats_before)
    return 0


def _parse_sweep_value(text: str):
    """One axis/override value: a Python literal when it parses as one
    (numbers, tuples, None, quoted strings), the raw string otherwise —
    so ``mids=2,4`` sweeps ints while ``name=foo`` stays a string."""
    import ast

    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_axis(text: str):
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise ValueError(
            f"--axis expects NAME=V1,V2,... got {text!r}")
    return name, tuple(_parse_sweep_value(value)
                       for value in values.split(","))


def _parse_override(text: str):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise ValueError(f"--set expects NAME=VALUE, got {text!r}")
    return name, _parse_sweep_value(value)


def _cmd_sweep(args) -> int:
    from repro.api import RemoteRunError, RemoteSession, SweepSpec

    try:
        axes = dict(_parse_axis(axis) for axis in args.axis or [])
        base = dict(_parse_override(item) for item in args.set or [])
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        spec = SweepSpec(args.experiment, axes=axes, base=base,
                         quick=args.quick)
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(sorted(all_experiments()))}",
              file=sys.stderr)
        return 2
    except (TypeError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.server is not None:
        # With tracing requested, spans buffer client-side and export to
        # the server's trace store (POST /trace) — there is no local dir.
        session = RemoteSession(args.server,
                                trace=args.trace_dir is not None)
    else:
        session = _local_session(args)
        if session is None:
            return 2
    from repro.obs import trace as _obs

    hits_before = session.hits
    start = time.perf_counter()
    pairs = []
    try:
        # Local or remote, the SessionProtocol surface is the same:
        # iterate cells as they complete, diagnostics to stderr only.
        # One sweep-level root span ties every local cell to a single
        # trace id (a RemoteSession mints its own in iter_sweep).
        with _obs.root_span(getattr(session, "tracer", None),
                            "session.sweep", service="session",
                            experiment=spec.experiment, cells=len(spec),
                            quick=bool(spec.quick)):
            for cell, result in session.iter_sweep(spec, force=args.force):
                pairs.append((cell, result))
                params = ", ".join(f"{name}={value!r}"
                                   for name, value in cell.params.items())
                print(f"[cell {len(pairs)}/{len(spec)} "
                      f"{spec.experiment}[{params}] done]", file=sys.stderr)
    except RemoteRunError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    from repro.api import SweepResult

    sweep_result = SweepResult.from_pairs(spec, pairs)
    replayed = session.hits - hits_before
    print(f"[sweep {spec.experiment}: {len(spec)} cell(s) in "
          f"{time.perf_counter() - start:.1f}s — {replayed} replayed, "
          f"{len(spec) - replayed} computed"
          f"{' (quick parameters)' if args.quick else ''}]",
          file=sys.stderr)
    trace_id = getattr(session, "last_trace_id", None)
    if trace_id is not None:
        print(f"[trace {trace_id}]", file=sys.stderr)
    payload = (canonical_json(sweep_result.to_dict())
               if args.format == "json" else sweep_result.format())
    try:
        _emit(payload, args.out)
    except OSError as error:
        print(f"cannot write {args.out}: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_list() -> int:
    for name, spec in sorted(all_experiments().items()):
        print(f"{name:22s} {spec.doc}")
    return 0


def _lru_shrink(megabytes: float, shrink, noun: str, path) -> int:
    """``cache prune`` / ``store gc``: shrink to ``--max-size MB`` and
    report; exit 2 unless it is a finite number >= 0 (not nan or inf)."""
    budget = megabytes * 1e6
    if not math.isfinite(budget) or budget < 0:
        print("--max-size must be a finite number >= 0", file=sys.stderr)
        return 2
    outcome = shrink(int(budget))
    print(f"removed {outcome['removed']} least-recently-used {noun}; "
          f"{outcome['remaining_entries']} remain "
          f"({outcome['remaining_bytes'] / 1e6:.2f} MB) in {path}")
    return 0


def _cmd_cache(args) -> int:
    # _resolve_dir always lands on a concrete directory (flag, env,
    # or the default), so cache.path is never None here.
    session = Session(cache_dir=_resolve_dir("cache", args.cache_dir))
    cache = session.cache

    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"cache directory: {stats['path']}")
        print(f"entries:         {stats['entries']}")
        print(f"total size:      {stats['total_bytes'] / 1e6:.2f} MB")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear_disk()
        print(f"removed {removed} entries from {cache.path}")
        return 0
    if args.cache_command == "prune":
        return _lru_shrink(args.max_size, cache.prune_disk, "entries",
                           cache.path)
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _resolve_prefix(disk, prefix: str, arg: str, noun: str, missing: str):
    """The one key in ``disk`` that ``prefix`` (the ``show`` argument
    ``arg``, normalized) names; ``None`` after printing ``missing`` or
    the ambiguity line to stderr."""
    try:
        key = disk.resolve(prefix)
    except KeyError as error:
        print(f"{noun} prefix {arg!r} is ambiguous: "
              f"{', '.join(k[:16] for k in error.args[0])}", file=sys.stderr)
        return None
    if key is None:
        print(missing, file=sys.stderr)
    return key


def _workload_column(envelope) -> str:
    """The ``store ls`` workload-reference column for one envelope.

    Workload-driven results carry the reference they compiled in a
    ``workload`` field of their encoded dataclass; everything else (the
    fixed-suite figures) shows ``-``.  Uploaded-circuit references are
    shortened to ``circuit:<8 hex>…`` to keep the listing one line per
    entry.
    """
    data = envelope.get("data")
    fields = data.get("fields", {}) if isinstance(data, dict) else {}
    workload = fields.get("workload")
    if not isinstance(workload, str) or not workload:
        return "-"
    if workload.startswith("circuit:"):
        return f"circuit:{workload[len('circuit:'):][:8]}…"
    return workload


def _cmd_circuits(args) -> int:
    if args.circuits_command == "add" and args.server is not None:
        from repro.api import RemoteSession

        try:
            digest = _add_qasm_file(
                args.file, RemoteSession(args.server).upload_circuit)
        except OSError as error:
            print(f"cannot reach {args.server}: {error}", file=sys.stderr)
            return 2
        if digest is None:
            return 2
        print(f"circuit:{digest}")
        return 0

    circuits = CircuitStore(_resolve_dir("circuits", args.circuit_dir))

    if args.circuits_command == "add":
        digest = _add_qasm_file(args.file, circuits.add)
        if digest is None:
            return 2
        # stdout carries exactly the reference to paste into --set /
        # --axis / params; diagnostics stay on stderr.
        print(f"circuit:{digest}")
        print(f"[stored in {circuits.path}]", file=sys.stderr)
        return 0

    if args.circuits_command == "ls":
        for digest, _, size, _ in sorted(circuits.entries()):
            print(f"circuit:{digest}  {size / 1e3:8.1f} kB")
        stats = circuits.stats()
        print(f"{stats['entries']} stored circuit(s), "
              f"{stats['total_bytes'] / 1e6:.2f} MB in {stats['path']}")
        return 0

    if args.circuits_command == "show":
        digest = args.digest
        if digest.startswith("circuit:"):
            digest = digest[len("circuit:"):]
        digest = _resolve_prefix(
            circuits.disk, digest, args.digest, "digest",
            f"no stored circuit matches {args.digest!r} in {circuits.path}")
        if digest is None:
            return 2
        text = circuits.get_qasm(digest)
        if text is None:
            print(f"stored circuit {digest[:16]}… is unreadable",
                  file=sys.stderr)
            return 2
        # The canonical QASM bytes — identical to GET /circuits/<digest>.
        sys.stdout.write(text)
        return 0
    raise AssertionError(
        f"unhandled circuits command {args.circuits_command!r}")


def _cmd_store(args) -> int:
    store = ResultStore(_resolve_dir("store", args.store_dir))

    if args.store_command == "ls" and args.last is not None:
        if args.last < 1:
            print("--last must be >= 1", file=sys.stderr)
            return 2
        # The bounded tail reader: a huge store's recent activity view
        # must not walk every entry or slurp the whole ledger.
        events = store.tail(args.last)
        for event in events:
            outcome = "hit " if event.get("hit") else "miss"
            trace = event.get("trace")
            # Traced runs stamp their ledger row; the short prefix here
            # pastes straight into `trace show` (prefixes resolve).
            trace_column = (f"  trace {trace[:12]}"
                            if isinstance(trace, str) and trace else "")
            print(f"{outcome}  {event.get('experiment', '?'):22s} "
                  f"{str(event.get('key', '?'))[:16]}  "
                  f"{event.get('wall_s', 0.0):8.3f}s{trace_column}")
        print(f"last {len(events)} run(s) recorded in {store.ledger_path()}")
        return 0

    if args.store_command == "ls":
        rows = sorted(store.entries(), key=lambda r: (r[3], r[1]))
        for key, _, size, _ in rows:
            # peek, not get: a listing must not refresh every entry's
            # recency and flatten the LRU order gc evicts by.
            envelope = store.peek(key) or {}
            experiment = envelope.get("experiment", "?")
            workload = _workload_column(envelope)
            print(f"{key}  {experiment:22s} {workload:28s} "
                  f"{size / 1e3:8.1f} kB")
        stats = store.stats()
        print(f"{stats['entries']} stored result(s), "
              f"{stats['total_bytes'] / 1e6:.2f} MB in {stats['path']}")
        return 0

    if args.store_command == "show":
        key = _resolve_prefix(
            store.disk, args.key, args.key, "key",
            f"no stored result matches key {args.key!r} in {store.path}")
        if key is None:
            return 2
        envelope = store.peek(key)
        if envelope is None:
            print(f"stored entry {key} is unreadable", file=sys.stderr)
            return 2
        try:
            result = ExperimentResult.from_dict(envelope)
        except (TypeError, ValueError) as error:
            print(f"cannot decode stored entry {key[:16]}…: {error}",
                  file=sys.stderr)
            return 2
        if args.format == "json":
            # Byte-identical to `run <x> --format json` for this entry.
            sys.stdout.write(canonical_json(envelope))
        else:
            print(result.format())
        return 0

    if args.store_command == "gc":
        return _lru_shrink(args.max_size, store.gc, "results", store.path)
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _span_depths(spans):
    """Tree depth per span id, for the indented ``trace show`` view.
    Orphaned parents (spans recorded elsewhere and never exported) and
    cycles (corrupt files) both land safely at their last known depth."""
    by_id = {span.get("span"): span for span in spans}
    depths = {}
    for span in spans:
        depth, parent, seen = 0, span.get("parent"), set()
        while parent in by_id and parent not in seen:
            seen.add(parent)
            depth += 1
            parent = by_id[parent].get("parent")
        depths[span.get("span")] = depth
    return depths


def _cmd_trace(args) -> int:
    from repro.obs import TraceStore

    traces = TraceStore(_resolve_dir("traces", args.trace_dir))

    if args.trace_command == "ls":
        rows = traces.traces()
        for trace_id, _, _ in rows:
            spans = traces.read(trace_id)
            root = next((span for span in spans
                         if span.get("parent") is None), None)
            label = root.get("name", "?") if root is not None else "?"
            services = sorted({span.get("service", "?") for span in spans})
            print(f"{trace_id}  {len(spans):4d} span(s)  {label:14s} "
                  f"[{', '.join(services)}]")
        stats = traces.stats()
        print(f"{stats['traces']} recorded trace(s), "
              f"{stats['total_bytes'] / 1e3:.1f} kB in {stats['path']}")
        return 0

    if args.trace_command == "show":
        trace_id = _resolve_prefix(
            traces.disk, args.id.strip(), args.id, "trace",
            f"no recorded trace matches {args.id!r} in {traces.path}")
        if trace_id is None:
            return 2
        spans = traces.read(trace_id)
        if args.format == "json":
            # The same shape GET /trace/<id> serves, canonical bytes.
            sys.stdout.write(canonical_json({
                "trace": trace_id,
                "count": len(spans),
                "spans": spans,
            }))
            return 0
        print(f"trace {trace_id}  {len(spans)} span(s)")
        depths = _span_depths(spans)
        for span in spans:
            attrs = span.get("attrs") or {}
            attr_text = " ".join(f"{name}={value!r}" for name, value
                                 in sorted(attrs.items()))
            print(f"{'  ' * depths.get(span.get('span'), 0)}"
                  f"{span.get('name', '?')}  "
                  f"[{span.get('service', '?')}]  "
                  f"{float(span.get('duration_s', 0.0)) * 1e3:10.3f} ms"
                  f"{'  ' + attr_text if attr_text else ''}")
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _install_service_signal_handlers() -> None:
    """SIGINT/SIGTERM → KeyboardInterrupt for long-lived commands.

    Non-interactive shells start backgrounded children with SIGINT set
    to SIG_IGN, and Python then never installs its KeyboardInterrupt
    handler — `kill -INT` on a `serve &` would be silently ignored.  A
    long-lived process must be stoppable, so re-install the default
    handler; SIGTERM (the service-manager spelling of "stop") takes the
    same clean-shutdown path.
    """
    import signal

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _raise_interrupt)


def _cmd_serve(args) -> int:
    if args.jobs < 0:
        print("--jobs must be >= 0 (0 = fleet workers only)",
              file=sys.stderr)
        return 2
    if args.lease_ttl <= 0:
        print("--lease-ttl must be > 0", file=sys.stderr)
        return 2

    from repro.serve.http import build_server

    _install_service_signal_handlers()

    try:
        server = build_server(
            host=args.host,
            port=args.port,
            store_dir=_resolve_dir("store", args.store),
            cache_dir=_resolve_dir("cache", args.cache_dir, args.no_cache),
            workers=args.jobs,
            quiet=args.quiet,
            lease_ttl=args.lease_ttl,
            circuit_dir=args.circuit_dir,
            trace_dir=args.trace_dir,
        )
    except OSError as error:
        # Port in use, privileged port, unresolvable host: one stderr
        # line and the conventional CLI failure status, not a traceback.
        print(f"cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    # The FIRST stderr line, flushed, machine-parseable: with --port 0
    # the kernel picked the port, and test/smoke scripts read it from
    # here instead of racing each other for fixed port numbers.
    print(f"[serve] listening on http://{host}:{port}", file=sys.stderr,
          flush=True)
    print(f"[serving experiments on http://{host}:{port} — "
          f"store {server.app.store.path}, "
          f"{args.jobs} local job worker(s)"
          f"{' (fleet workers only)' if args.jobs == 0 else ''}; "
          "endpoints: /experiments /results/<key> /run /jobs/<id> "
          "/sweeps[/<id>[/stream]] /circuits[/<digest>] "
          "/metrics /healthz "
          "/fleet/claim|heartbeat|complete"
          f"{' /trace[/<id>]' if args.trace_dir is not None else ''}; "
          "stop with Ctrl-C]", file=sys.stderr)
    try:
        server.serve_forever()
    finally:
        # Runs on Ctrl-C too: stop accepting connections, drain the job
        # queue, and only then let the KeyboardInterrupt propagate to
        # main()'s exit-code handler.
        server.close()
    return 0


def _cmd_worker(args) -> int:
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if not args.server.startswith(("http://", "https://")):
        print(f"--server must be an http(s) URL, got {args.server!r}",
              file=sys.stderr)
        return 2
    import threading

    from repro.exec.cache import CompileCache
    from repro.fleet.worker import FleetWorker, default_worker_id

    _install_service_signal_handlers()

    # One shared compile cache + result store per process; each job
    # still executes under its own read-through Session, mirroring the
    # server's in-process job queue exactly.  Point --store at the same
    # directory the server serves (shared filesystem) and results are
    # visible to every node the moment they land.
    cache = CompileCache(_resolve_dir("cache", args.cache_dir, args.no_cache))
    store = ResultStore(_resolve_dir("store", args.store))
    # One local circuit store per worker process: digests a job names
    # but this node lacks are fetched from the server once, then served
    # from here (content-addressed, so cross-node sharing is safe).
    circuits = CircuitStore(_resolve_dir("circuits", args.circuit_dir))

    def session_factory():
        return Session(jobs=1, cache=cache, store=store, circuits=circuits)

    stop = threading.Event()
    workers = []
    for slot in range(args.jobs):
        if args.id is not None:
            worker_id = args.id if args.jobs == 1 else f"{args.id}-{slot}"
        else:
            worker_id = default_worker_id(slot if args.jobs > 1 else None)
        workers.append(FleetWorker(
            args.server, session_factory, worker_id=worker_id,
            poll_interval=args.poll, claim_delay=args.claim_delay,
            quiet=args.quiet, stop_event=stop,
        ))
    print(f"[worker] {len(workers)} claim loop(s) polling {args.server} — "
          f"store {store.path}, cache {cache.path or 'memory'}; "
          "stop with Ctrl-C]", file=sys.stderr, flush=True)
    threads = [
        threading.Thread(target=worker.run, daemon=True,
                         kwargs={"max_jobs": args.max_jobs},
                         name=f"repro-fleet-claim-{worker.worker_id}")
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    try:
        # Ctrl-C lands here; daemon claim loops die with the process
        # and any leased job is reclaimed by the server after ttl.
        for thread in threads:
            while thread.is_alive():
                thread.join(timeout=0.2)
    finally:
        stop.set()
    done = sum(worker.jobs_done for worker in workers)
    print(f"[worker] drained: {done} job(s) completed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures and extensions.",
    )
    # Flags that mean the same in several commands are declared once,
    # in parent parsers the commands inherit.
    cache_dir_parent = argparse.ArgumentParser(add_help=False)
    cache_dir_parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="compile-cache directory (default: $REPRO_CACHE_DIR, else "
             "~/.cache/repro/compile)",
    )
    compile_cache_parent = argparse.ArgumentParser(
        add_help=False, parents=[cache_dir_parent])
    compile_cache_parent.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk compile cache (memory-only)",
    )
    circuit_dir_parent = argparse.ArgumentParser(add_help=False)
    circuit_dir_parent.add_argument(
        "--circuit-dir", default=None, metavar="DIR",
        help="circuit-store directory circuit:<digest> references "
             "resolve from (default: $REPRO_CIRCUIT_DIR, else "
             "~/.cache/repro/circuits)",
    )
    run_parent = argparse.ArgumentParser(
        add_help=False, parents=[compile_cache_parent, circuit_dir_parent])
    run_parent.add_argument(
        "--quick", action="store_true",
        help="apply the experiment's reduced-parameter preset (a fast "
             "smoke run)",
    )
    run_parent.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: the rendered figure (default); json: the "
             "schema-stable result envelope",
    )
    run_parent.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the payload to FILE instead of stdout",
    )
    run_parent.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for each task grid (default 1; output is "
             "identical at any N whenever the on-disk cache is enabled "
             "— see README for the --no-cache caveat)",
    )
    run_parent.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent result store: replay a previously stored result "
             "instead of recomputing, persist fresh results",
    )
    run_parent.add_argument(
        "--force", action="store_true",
        help="recompute even when a stored result exists, and refresh "
             "the stored entry",
    )
    run_parent.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record an end-to-end trace into DIR (append-only JSONL; "
             "browse with `trace show`); stdout stays byte-identical "
             "with tracing on or off",
    )

    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser(
        "run", parents=[run_parent], help="run one experiment",
        description="Run one experiment ('all': every experiment; "
                    "--format json then emits one object mapping each "
                    "name to its envelope).")
    run_parser.add_argument(
        "experiment",
        help="an experiment name (see 'list'), or 'all'",
    )
    run_parser.add_argument(
        "--circuit", default=None, metavar="FILE",
        help="ingest FILE (OpenQASM 2.0) into the circuit store and run "
             "the experiment against its circuit:<digest> reference "
             "(the experiment must declare exactly one circuit "
             "parameter, e.g. workload-metrics)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[run_parent],
        help="run a parameter grid over one experiment",
        description="Run a parameter grid over one experiment.  "
                    "--format json emits the schema-versioned SweepResult "
                    "envelope.  --jobs, --cache-dir, --no-cache, --store "
                    "and --circuit-dir apply to local runs only.")
    sweep_parser.add_argument(
        "experiment", help="an experiment name (see 'list')",
    )
    sweep_parser.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2,...",
        help="one grid dimension: a parameter name and its comma-"
             "separated values (repeatable; values parse as Python "
             "literals, falling back to strings)",
    )
    sweep_parser.add_argument(
        "--set", action="append", metavar="NAME=VALUE",
        help="fix a parameter to one value across every cell "
             "(repeatable)",
    )
    sweep_parser.add_argument(
        "--server", default=None, metavar="URL",
        help="submit the sweep to a running `repro serve` endpoint and "
             "stream per-cell results instead of executing locally; "
             "with --trace-dir, spans export to the server's trace "
             "store (POST /trace) and DIR is not written",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or shrink the on-disk compile cache")
    cache_sub = cache_parser.add_subparsers(
        dest="cache_command", required=True)
    cache_sub.add_parser("stats", parents=[cache_dir_parent],
                         help="entry count and total size")
    cache_sub.add_parser("clear", parents=[cache_dir_parent],
                         help="delete every persisted entry")
    prune_parser = cache_sub.add_parser(
        "prune", parents=[cache_dir_parent],
        help="evict least-recently-used entries over a size cap")
    prune_parser.add_argument(
        "--max-size", type=float, required=True, metavar="MB",
        help="target size of the disk tier, in megabytes",
    )

    circuits_parser = subparsers.add_parser(
        "circuits",
        help="manage the content-addressed circuit store")
    circuits_sub = circuits_parser.add_subparsers(
        dest="circuits_command", required=True)
    circuits_add = circuits_sub.add_parser(
        "add", parents=[circuit_dir_parent],
        help="ingest an OpenQASM 2.0 file; prints circuit:<digest> "
             "(idempotent)")
    circuits_add.add_argument("file", help="path to an OpenQASM 2.0 file")
    circuits_add.add_argument(
        "--server", default=None, metavar="URL",
        help="upload to a running `repro serve` endpoint "
             "(POST /circuits) instead of the local store",
    )
    circuits_sub.add_parser(
        "ls", parents=[circuit_dir_parent],
        help="list stored circuits (digest, size)")
    circuits_show = circuits_sub.add_parser(
        "show", parents=[circuit_dir_parent],
        help="print one stored circuit's canonical QASM by digest "
             "(unique prefixes accepted)")
    circuits_show.add_argument(
        "digest", help="circuit digest or circuit:<digest>, or a unique "
                       "prefix of one")

    store_parser = subparsers.add_parser(
        "store", help="inspect or shrink the persistent result store")
    store_dir_parent = argparse.ArgumentParser(add_help=False)
    store_dir_parent.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="result-store directory (default: $REPRO_STORE_DIR, else "
             "~/.cache/repro/results)",
    )
    store_sub = store_parser.add_subparsers(
        dest="store_command", required=True)
    ls_parser = store_sub.add_parser(
        "ls", parents=[store_dir_parent],
        help="list stored results (key, experiment, size)")
    ls_parser.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="instead of the entry listing, show the last N runs from "
             "the ledger (bounded read — safe on a huge store)",
    )
    show_parser = store_sub.add_parser(
        "show", parents=[store_dir_parent],
        help="print one stored result by key (unique prefixes accepted)")
    show_parser.add_argument("key", help="store key, or a unique prefix")
    show_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: the decoded figure text (default); json: the stored "
             "envelope, byte-identical to `run --format json`",
    )
    gc_parser = store_sub.add_parser(
        "gc", parents=[store_dir_parent],
        help="evict least-recently-used results over a size cap")
    gc_parser.add_argument(
        "--max-size", type=float, required=True, metavar="MB",
        help="target size of the stored entries, in megabytes",
    )

    serve_parser = subparsers.add_parser(
        "serve", parents=[compile_cache_parent],
        help="serve experiments over HTTP (see repro.serve)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8000, metavar="P",
        help="listen port (default 8000; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory served from and persisted into "
             "(default: $REPRO_STORE_DIR, else ~/.cache/repro/results)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="concurrent experiment jobs (in-process claim loops; each "
             "job's sweep grid runs inline; 0 = no local execution, "
             "jobs wait for fleet workers)",
    )
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="seconds a fleet worker's job lease survives without a "
             "heartbeat before the job is reclaimed (default 15)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-request access log on stderr",
    )
    serve_parser.add_argument(
        "--circuit-dir", default=None, metavar="DIR",
        help="circuit-store directory uploads land in and digest "
             "references resolve from (default: <store>/circuits)",
    )
    serve_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable end-to-end tracing: request/queue/execution spans "
             "(and spans exported by clients and fleet workers) land "
             "in DIR, browsable via GET /trace/<id> and `trace show`",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="browse recorded traces (see repro.obs)")
    trace_dir_parent = argparse.ArgumentParser(add_help=False)
    trace_dir_parent.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace directory (default: $REPRO_TRACE_DIR, else "
             "~/.cache/repro/traces)",
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True)
    trace_sub.add_parser(
        "ls", parents=[trace_dir_parent],
        help="list recorded traces (id, span count, root span)")
    trace_show = trace_sub.add_parser(
        "show", parents=[trace_dir_parent],
        help="print one trace's spans as an indented tree "
             "(unique id prefixes accepted)")
    trace_show.add_argument(
        "id", help="trace id, or a unique prefix of one")
    trace_show.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: indented span tree (default); json: the same "
             "payload GET /trace/<id> serves",
    )

    worker_parser = subparsers.add_parser(
        "worker", parents=[compile_cache_parent, circuit_dir_parent],
        help="join a serve endpoint's worker fleet (see repro.fleet)")
    worker_parser.add_argument(
        "--server", required=True, metavar="URL",
        help="the serve endpoint to pull jobs from "
             "(e.g. http://127.0.0.1:8000)",
    )
    worker_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent claim loops in this process (default 1; each "
             "claimed job's sweep grid runs inline)",
    )
    worker_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory results are persisted into — point "
             "it at the server's store (shared filesystem) so replays "
             "are free fleet-wide (default: $REPRO_STORE_DIR, else "
             "~/.cache/repro/results)",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="idle-claim poll interval in seconds (default 0.5)",
    )
    worker_parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after each claim loop completes N jobs "
             "(default: run until stopped)",
    )
    worker_parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker id reported to the server (default: host-pid)",
    )
    worker_parser.add_argument(
        "--claim-delay", type=float, default=0.0, metavar="S",
        help="sleep S seconds between claiming a job and executing it — "
             "fault-injection aid for fleet drills (kill a worker that "
             "holds a lease but has not finished)",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-job log on stderr",
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "circuits":
            return _cmd_circuits(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        return _cmd_run(args)
    except KeyboardInterrupt:
        # The engine has already cancelled its workers and reclaimed
        # cache temp files by the time the interrupt reaches here;
        # exit with the conventional SIGINT status instead of a
        # traceback.
        print("[interrupted]", file=sys.stderr)
        return 130


def _print_cache_stats(session: Session, before=None) -> None:
    stats = session.cache_stats()
    if before is not None:
        # Attribute exactly this batch of runs: a long-lived (library)
        # session may arrive with counters from earlier work, and those
        # must not be re-reported here.
        stats = {field: stats[field] - before.get(field, 0)
                 for field in ("memory_hits", "disk_hits", "misses")}
    where = session.cache.path or "memory only"
    # The counters are this run's parent-process activity under the
    # session actually activated for the run (never the process default
    # session); with --jobs > 1 most compiles (and their cache hits)
    # happen inside workers, whose counters die with the worker
    # processes.
    print(f"[compile cache ({where}), this run: "
          f"{stats['memory_hits']} memory hits, "
          f"{stats['disk_hits']} disk hits, {stats['misses']} misses]",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
