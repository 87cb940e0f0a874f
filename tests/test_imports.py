"""Start-up imports: what a fresh process loads before its first op.

Package ``__init__``s resolve their exports on first use
(:mod:`repro._lazy`), so importing a leaf module or running a
maintenance command loads only what it runs.  Each check starts a fresh
interpreter and reads its ``sys.modules``; the last test restores an
eager re-export in a copy of the package and sees the checks fail.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules of the HTTP client, the spawn pool, the statevector simulator
#: and the Prometheus exposition: no leaf import needs them.
HEAVY = ("urllib.request", "http.client", "ssl", "multiprocessing",
         "concurrent.futures", "repro.sim", "repro.api.client",
         "repro.obs.prometheus")
#: A maintenance command needs neither the numeric stack nor the loss
#: simulator either.
NOT_FOR_MAINTENANCE = HEAVY + ("numpy", "repro.loss")

#: ``CHILD OUT import MODULE`` imports MODULE; ``CHILD OUT repro ARGS``
#: runs ``python -m repro ARGS``.  Either way the sorted module names go
#: to the file OUT.
CHILD = """\
import json, runpy, sys
out, kind, *args = sys.argv[1:]
if kind == "import":
    __import__(args[0])
else:
    sys.argv = ["repro", *args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert not exit.code, exit.code
with open(out, "w") as file:
    json.dump(sorted(sys.modules), file)
"""


def loaded(src, tmp_path, forbidden, kind, *args):
    """The ``forbidden`` modules a fresh interpreter holds after
    ``kind args`` (see :data:`CHILD`), with ``src`` on its path."""
    out = tmp_path / "modules.json"
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONPATH=str(src), HOME=str(tmp_path))
    subprocess.run([sys.executable, "-c", CHILD, str(out), kind, *args],
                   env=env, cwd=tmp_path, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    modules = set(json.loads(out.read_text()))
    return [name for name in forbidden if name in modules]


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A result store with one envelope and a compile cache with one
    program, so the maintenance commands list real entries."""
    from repro.api.session import Session
    from repro.api.store import ResultStore
    from repro.core.compiler import compile_circuit
    from repro.core.config import CompilerConfig
    from repro.exec.cache import CompileCache
    from repro.hardware.topology import Topology
    from repro.workloads.registry import build_circuit

    root = tmp_path_factory.mktemp("populated")
    envelope = Session().run("validation", quick=True).to_dict()
    ResultStore(str(root / "store")).put("ab" * 32, envelope)
    program = compile_circuit(build_circuit("bv", 4),
                              Topology.square(3, 2.0),
                              CompilerConfig(max_interaction_distance=2.0))
    CompileCache(str(root / "cache")).store("cd" * 32, program)
    return root


def maintenance_commands(root):
    return [("--help",),
            ("store", "ls", "--store-dir", str(root / "store")),
            ("cache", "stats", "--cache-dir", str(root / "cache"))]


@pytest.mark.parametrize("module", ["repro.loss", "repro.core.compiler"])
def test_a_leaf_import_loads_no_heavy_module(module, tmp_path):
    assert loaded(SRC, tmp_path, HEAVY, "import", module) == []


@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["help", "store-ls", "cache-stats"])
def test_maintenance_commands_load_only_what_they_run(index, tmp_path,
                                                      populated):
    argv = maintenance_commands(populated)[index]
    assert loaded(SRC, tmp_path, NOT_FOR_MAINTENANCE, "repro", *argv) == []


@pytest.mark.parametrize("package, eager, found", [
    ("api", "from repro.api.client import RemoteSession\n",
     ["urllib.request", "http.client", "repro.api.client"]),
    ("core", "from repro.core.validation import check_compiled\n",
     ["repro.sim"]),
    ("hardware", "from repro.hardware.loss import LossModel\n",
     ["numpy"]),
], ids=["api-client", "core-validation", "hardware-loss"])
def test_an_eager_reexport_fails_the_checks(package, eager, found, tmp_path,
                                            populated):
    """The checks above see a heavy import as soon as one package
    re-exports eagerly again."""
    copy = tmp_path / "src"
    shutil.copytree(SRC / "repro", copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = copy / "repro" / package / "__init__.py"
    init.write_text(init.read_text(encoding="utf-8") + eager,
                    encoding="utf-8")
    for argv in maintenance_commands(populated):
        reported = loaded(copy, tmp_path, NOT_FOR_MAINTENANCE, "repro",
                          *argv)
        assert set(found) <= set(reported), (argv, reported)
