"""Public execution API: sessions, the experiment registry, and the
structured result contract.

This package is the seam between the reproduction's internals and
anything that embeds it — the CLI, services, notebooks:

* :class:`Session` — owns the worker count (``jobs``, the one knob
  that picks inline or spawn-pool execution) and the compile cache, so
  differently-configured runs coexist in one process;
* :class:`ExperimentSpec` / :func:`all_experiments` — the declarative
  registry every figure, ablation, and extension driver registers into;
* :class:`ExperimentResult` — ``format()`` for the byte-stable figure
  text plus ``to_dict()``/``from_dict()`` for schema-stable JSON;
* :class:`ResultStore` / :func:`store_key` — the persistent
  content-addressed store of result envelopes behind read-through
  ``Session(store_dir=...).run``;
* :class:`CircuitStore` — its circuit-side sibling: uploaded programs
  stored under their canonical gate-stream digest, resolvable as
  ``circuit:<digest>`` workload references in any experiment;
* :class:`SweepSpec` / :class:`SweepResult` — first-class parameter
  sweeps: a validated grid that expands canonically into per-cell store
  keys, run via ``Session.run_sweep`` / ``iter_sweep`` (or streamed
  from a server through :class:`RemoteSession`);
* :class:`RemoteSession` — the same ``run()``/``run_sweep()`` surface
  backed by a ``python -m repro serve`` endpoint instead of local
  execution — both satisfy :class:`SessionProtocol`.

``__all__`` below is the supported surface; anything underscored or
absent from it is internal and may change without notice.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api.circuits": ["CircuitStore"],
    "repro.api.client": ["RemoteRunError", "RemoteSession"],
    "repro.api.protocol": ["SessionProtocol"],
    "repro.api.registry": [
        "ExperimentSpec",
        "ParamSpec",
        "all_experiments",
        "get_experiment",
        "register_experiment",
    ],
    "repro.api.results": [
        "RESULT_SCHEMA",
        "RESULT_SCHEMA_VERSION",
        "ExperimentResult",
    ],
    "repro.api.serialize": ["serializable"],
    "repro.api.session": [
        "Session",
        "current_session",
        "default_session",
        "install_default",
    ],
    "repro.api.store": ["ResultStore", "store_key"],
    "repro.api.sweep": [
        "SWEEP_SCHEMA",
        "SWEEP_SCHEMA_VERSION",
        "SweepCell",
        "SweepResult",
        "SweepSpec",
    ],
})

__all__ = [
    "RESULT_SCHEMA",
    "RESULT_SCHEMA_VERSION",
    "SWEEP_SCHEMA",
    "SWEEP_SCHEMA_VERSION",
    "CircuitStore",
    "ExperimentResult",
    "ExperimentSpec",
    "ParamSpec",
    "RemoteRunError",
    "RemoteSession",
    "ResultStore",
    "Session",
    "SessionProtocol",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "all_experiments",
    "current_session",
    "default_session",
    "get_experiment",
    "install_default",
    "register_experiment",
    "serializable",
    "store_key",
]
