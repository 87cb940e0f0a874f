"""Source hygiene checks over ``src/repro``, on the standard library only.

No linter ships with the project, so the lint rules the tree keeps are
checked here with ``ast``:

* no unused module-level import.  An import counts as used when its
  bound name appears anywhere in the module as a name (string
  annotations included) or in ``__all__``.  Package ``__init__.py``
  files (re-exports), ``from __future__`` and statements marked
  ``# noqa: F401`` are exempt.
* no code without a caller: every ``def`` and ``class`` under
  ``src/repro`` is referred to in code somewhere in the sources, tests,
  benchmarks or examples.  A reference is a name the code loads, an
  attribute it reads or writes, or a name it imports
  (:func:`code_references`).  Comments, docstrings, strings (``getattr``
  lookups included) and names that are only assigned are not
  references, and neither are a package ``__init__.py``'s imports: a
  re-export only passes a name on.  Dunders are exempt, and so are the
  hooks a library calls by name, listed in ``FRAMEWORK_CALLBACKS``.
* no code only tests reach: the same rule without ``tests/``, unless
  ``TEST_ORACLES`` says why a test needs the definition.  Both
  allow-lists fail when an entry no longer needs its exemption.

One more check keeps every HTTP request of the serve-protocol clients in
one function, and two keep the lazy package exports honest: every name
in a package's ``__all__`` resolves, and no name a package exports
through ``lazy_exports`` is also a submodule's name (importing the
submodule would shadow the export).
"""

import ast
import importlib
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
#: Where a name in ``src/repro`` may be used.
CALLER_ROOTS = ("src", "tests", "perfbench", "benchmarks", "examples")

#: Definitions only tests reach that stay: API the README documents,
#: references a test checks other code against, or values a paper-claim
#: test reads.
TEST_ORACLES = {
    "circuit_qasm": "README documents RemoteSession.circuit_qasm",
    "decode_sum": "reads a Cuccaro/QFT adder's sum to check the circuit",
    "expected_cut": "QAOA cut expectation the workload test checks",
    "cnu_expected_toffolis": "Toffoli count the CNU builder is checked "
                             "against",
    "probability_of": "statevector probability the simulator tests read",
    "is_unitary_gate": "which gates the statevector simulator accepts",
    "max_parallel_gates": "zone semantics checked against the paper's "
                          "Fig 1",
    "success_ratio_to_random": "the Fig 7 margin over random outcomes",
    "expected_losses_per_shot": "loss-model rate the sampler is checked "
                                "against",
    "swap_advantage": "2D-vs-1D SWAP claim (ext-geometry)",
    "reloads_per_success": "reload claim (ext-ejection-readout)",
    "std_fraction": "loss-tolerance spread claim (fig10 runner)",
    "circuits_equivalent": "statevector equivalence the decomposition "
                           "tests check circuits against",
    "equivalent_on_clean_ancillas": "the same check for decompositions "
                                    "that borrow ancillas",
    "SessionProtocol": "README documents the surface Session and "
                       "RemoteSession share",
    "validate_exposition": "README documents the in-tree check of the "
                           "Prometheus exposition",
    "conflict": "pairwise zone overlap the compiled schedules are checked "
                "against (test_properties.py)",
}

#: Methods a library calls by a name it looks up, so no code here names
#: them.
FRAMEWORK_CALLBACKS = {
    "log_message": "http.server calls ReproHandler.log_message for each "
                   "request it logs",
    "process_request": "socketserver calls ReproHTTPServer.process_request "
                       "for each connection it accepts",
}


def _module_imports(tree):
    """Top-level import statements, including those under a module-level
    ``if``/``try`` (never inside a function or class)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)


def _bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            names.append(alias.asname)
        else:
            names.append(alias.name.split(".")[0])
    return names


def _is_all(node):
    """Whether ``node`` assigns the module's ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif _is_all(node):
            used.update(constant.value for constant in ast.walk(node.value)
                        if isinstance(constant, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path):
    """``(line, name)`` for each unused module-level import in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    unused = []
    for node in _module_imports(tree):
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in statement):
            continue
        unused.extend((node.lineno, name) for name in _bound_names(node)
                      if name not in used)
    return unused


def test_scanner_flags_only_unused_imports(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import re  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from collections import OrderedDict as Ordered\n"
        "from decimal import Decimal\n"
        "__all__ = ['Decimal']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n",
        encoding="utf-8")
    assert unused_imports(module) == [(2, "json"), (5, "List"),
                                      (6, "Ordered")]


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def lazy_names(init):
    """The names a package ``__init__.py`` exports through
    ``repro._lazy.lazy_exports``: every string its mapping lists."""
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    return [constant.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            for names in node.args[1].values
            for constant in ast.walk(names)
            if isinstance(constant, ast.Constant)]


def shadowed_exports(init):
    """Lazy exports of ``init``'s package that share a submodule's name.
    Importing the submodule binds the module under that name in the
    package, so the export would then read as the module."""
    package = init.parent
    submodules = ({path.stem for path in package.glob("*.py")}
                  | {path.parent.name
                     for path in package.glob("*/__init__.py")})
    return sorted(set(lazy_names(init)) & submodules)


def test_scanner_flags_exports_a_submodule_shadows(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    for path in ("__init__.py", "mod.py", "qft_adder.py", "sub/__init__.py"):
        (package / path).touch()
    (package / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(globals(), {\n"
        "    'pkg.mod': ['build', 'qft_adder'],\n"
        "    'pkg.sub': ['sub', 'Sub'],\n"
        "})\n",
        encoding="utf-8")
    assert lazy_names(package / "__init__.py") == [
        "build", "qft_adder", "sub", "Sub"]
    assert shadowed_exports(package / "__init__.py") == ["qft_adder", "sub"]


def _package_inits():
    return sorted(SRC.rglob("__init__.py"))


def test_no_lazy_export_shares_a_submodule_name():
    found = [f"{init.relative_to(SRC.parent)}: {name}"
             for init in _package_inits()
             for name in shadowed_exports(init)]
    assert not found, "lazy exports a submodule shadows:\n" + "\n".join(found)


def test_every_package_export_resolves():
    """Each name in each package's ``__all__`` is an attribute of the
    package, lazy ones included, and ``dir()`` lists it."""
    missing = []
    for init in _package_inits():
        parts = init.parent.relative_to(SRC.parent).parts
        package = importlib.import_module(".".join(parts))
        for name in getattr(package, "__all__", ()):
            if not hasattr(package, name) or name not in dir(package):
                missing.append(f"{package.__name__}.{name}")
    assert not missing, "unresolved exports:\n" + "\n".join(missing)


def code_references(path):
    """The names the code in ``path`` refers to: every name it loads,
    every attribute it reads or writes, and every name it imports,
    except the imports of a package ``__init__.py`` (re-exports)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reexports = path.name == "__init__.py"
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and not reexports):
            names.update(alias.name.rpartition(".")[2]
                         for alias in node.names)
    return names


def uncalled_definitions(package, roots):
    """``(path, line, name)`` of each ``def``/``class`` under ``package``
    that no ``.py`` file under ``roots`` refers to in code
    (:func:`code_references`).  Dunders are exempt."""
    referenced = set()
    for root in roots:
        for path in root.rglob("*.py"):
            referenced |= code_references(path)
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced:
                found.append((path, node.lineno, name))
    return sorted(found)


def test_scanner_flags_only_definitions_without_callers(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.x = helper()\n"
        "    def orphan_method(self):\n"
        "        pass\n"
        "    def called_method(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return getattr(Used, 'looked_up')  # not commented_out()\n"
        "def looked_up():\n"
        "    pass\n"
        "def commented_out():\n"
        "    pass\n"
        "def tested():\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "def shadowed():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n",
        encoding="utf-8")
    # A re-export passes the name on; it does not call it.
    (package / "__init__.py").write_text(
        "from pkg.mod import Used, reexported\n"
        "__all__ = ['Used', 'reexported']\n",
        encoding="utf-8")
    # An attribute and an import are references.
    (package / "use.py").write_text(
        "from pkg.mod import imported\n"
        "Used().called_method()\n",
        encoding="utf-8")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Used, tested\n"
        "shadowed = 1  # a local that only shares the name\n",
        encoding="utf-8")
    # A name only in a string (looked_up), only in a comment
    # (commented_out) or only assigned (shadowed) has no caller, though
    # each occurs as a word.
    found = uncalled_definitions(package, [tmp_path / "src", tests])
    assert [(line, name) for _, line, name in found] == [
        (4, "orphan_method"), (10, "looked_up"), (12, "commented_out"),
        (16, "Orphan"), (18, "shadowed"), (20, "reexported")]
    # Without the tests, what only they reach shows.
    found = uncalled_definitions(package, [tmp_path / "src"])
    assert [(line, name) for _, line, name in found] == [
        (4, "orphan_method"), (10, "looked_up"), (12, "commented_out"),
        (14, "tested"), (16, "Orphan"), (18, "shadowed"),
        (20, "reexported")]


def test_every_definition_has_a_caller():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path, line, name in uncalled_definitions(
                 SRC, [REPO / root for root in CALLER_ROOTS])
             if name not in FRAMEWORK_CALLBACKS]
    assert not found, "definitions nothing uses:\n" + "\n".join(found)


def test_no_definition_only_tests_reach():
    roots = [REPO / root for root in CALLER_ROOTS if root != "tests"]
    found = uncalled_definitions(SRC, roots)
    exempt = {**TEST_ORACLES, **FRAMEWORK_CALLBACKS}
    unexplained = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                   for path, line, name in found if name not in exempt]
    assert not unexplained, "definitions only tests reach:\n" + "\n".join(
        unexplained)
    stale = set(exempt) - {name for _, _, name in found}
    assert not stale, f"listed but no longer test-only: {sorted(stale)}"


def test_one_transport_for_every_client():
    """``repro.api.client.open_url`` is the one place in ``src`` that
    opens an HTTP request or decodes an error status."""
    client = SRC / "api" / "client.py"
    open_url = next(node for node in ast.parse(client.read_text()).body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "open_url")
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else getattr(node, "id", None))
            if name not in ("urlopen", "HTTPError"):
                continue
            if (path == client
                    and open_url.lineno <= node.lineno <= open_url.end_lineno):
                continue
            outside.append(f"{path.relative_to(SRC.parent)}:{node.lineno}: "
                           f"{name}")
    assert not outside, "HTTP outside open_url:\n" + "\n".join(outside)
