"""Source hygiene checks over ``src/repro``, on the standard library only.

No linter ships with the project, so the lint rules the tree keeps are
checked here with ``ast``:

* no unused module-level import.  An import counts as used when its
  bound name appears anywhere in the module as a name (string
  annotations included) or in ``__all__``.  Package ``__init__.py``
  files (re-exports), ``from __future__`` and statements marked
  ``# noqa: F401`` are exempt.
* no code without a caller: every ``def`` and ``class`` under
  ``src/repro`` is named somewhere besides its own definition, in the
  sources, tests, benchmarks or examples.  Dunders are exempt, and a
  package ``__init__.py``'s imports and ``__all__`` are not uses: a
  re-export only passes a name on.
* no code only tests reach: outside ``tests/`` too, unless
  ``TEST_ORACLES`` says why a test needs it, or ``AWAITING_DELETION``
  names it.  The scanner counts words, so a test-side local variable
  that shares a name hides the definition from the first check; this
  one never reads the tests.

One more check keeps every HTTP request of the serve-protocol clients in
one function.
"""

import ast
import pathlib
import re
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
#: Where a name in ``src/repro`` may be used.
CALLER_ROOTS = ("src", "tests", "perfbench", "benchmarks", "examples")

#: Definitions only tests reach that stay: documented API, references
#: a test checks other code against, or values a paper-claim test reads.
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
                           "and optimizer tests check circuits against",
    "equivalent_on_clean_ancillas": "the same check for decompositions "
                                    "that borrow ancillas",
}

#: Reached only by their own unit tests; each goes, with that test, in
#: a later change (ROADMAP 7(d)).
AWAITING_DELETION = {
    "size_curve": "repro.analysis.success",
    "circuit_ref": "repro.circuits.digest",
    "optimize_circuit": "repro.circuits.optimize",
    "optimization_report": "repro.circuits.optimize",
    "point_in_disk": "repro.utils.geometry",
    "disks_overlap": "repro.utils.geometry",
    "ghz_circuit": "repro.workloads.random_circuits",
    "qft_circuit": "repro.workloads.random_circuits",
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


def _caller_text(path):
    """The text of ``path`` whose words count as uses: all of it, less
    a package ``__init__.py``'s imports and ``__all__``."""
    text = path.read_text(encoding="utf-8")
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    reexports = list(_module_imports(tree))
    reexports += [node for node in tree.body if _is_all(node)]
    for node in reexports:
        for index in range(node.lineno - 1, node.end_lineno):
            lines[index] = ""
    return "\n".join(lines)


def uncalled_definitions(package, roots):
    """``(path, line, name)`` of each ``def``/``class`` under ``package``
    whose name appears in no ``.py`` file under ``roots`` except at its
    own definitions.  A name counts wherever it occurs as a word —
    code, strings (``getattr``, probes) and comments alike — except in
    a package's re-exports (:func:`_caller_text`)."""
    words = Counter()
    for root in roots:
        for path in root.rglob("*.py"):
            words.update(re.findall(r"\w+", _caller_text(path)))
    defined = Counter()
    first = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            defined[name] += 1
            first.setdefault(name, (path, node.lineno))
    return sorted((*first[name], name) for name, count in defined.items()
                  if words[name] <= count)


def test_scanner_flags_only_definitions_without_callers(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.x = helper()\n"
        "    def orphan_method(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return getattr(Used, 'looked_up')\n"
        "def looked_up():\n"
        "    pass\n"
        "def tested():\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "def shadowed():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n",
        encoding="utf-8")
    # A re-export passes the name on; it does not call it.
    (package / "__init__.py").write_text(
        "from pkg.mod import Used, reexported\n"
        "__all__ = ['Used', 'reexported']\n",
        encoding="utf-8")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Used, tested\n"
        "shadowed = 1  # a local that only shares the name\n",
        encoding="utf-8")
    found = uncalled_definitions(package, [tmp_path / "src", tests])
    assert [(line, name) for _, line, name in found] == [
        (4, "orphan_method"), (12, "Orphan"), (16, "reexported")]
    # Without the tests, what only they reach (or seem to) shows.
    found = uncalled_definitions(package, [tmp_path / "src"])
    assert [(line, name) for _, line, name in found] == [
        (4, "orphan_method"), (10, "tested"), (12, "Orphan"),
        (14, "shadowed"), (16, "reexported")]


def test_every_definition_has_a_caller():
    found = uncalled_definitions(SRC, [REPO / root for root in CALLER_ROOTS])
    assert not found, "definitions nothing uses:\n" + "\n".join(
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path, line, name in found)


def test_no_definition_only_tests_reach():
    roots = [REPO / root for root in CALLER_ROOTS if root != "tests"]
    found = uncalled_definitions(SRC, roots)
    unexplained = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                   for path, line, name in found
                   if name not in TEST_ORACLES
                   and name not in AWAITING_DELETION]
    assert not unexplained, "definitions only tests reach:\n" + "\n".join(
        unexplained)
    stale = (set(TEST_ORACLES) | set(AWAITING_DELETION)) - {
        name for _, _, name in found}
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
