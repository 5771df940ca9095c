"""Every function, method and class of the package has a caller that is not
a unit test.

A definition in ``src/qcoorbit`` earns its place when its name is used as
code (a name or an attribute read, not text in a string or a docstring)
outside its own body, in one of:

- another part of the package (the re-exports of ``__init__.py`` do not
  count);
- the acceptance battery ``tests/test_acceptance.py``;
- the benchmark, ``perfbench/*.py``.

``ALLOWED`` names the exceptions, each with its reason.

The check matches by name only, so it has two blind spots.  It skips dunder
methods, which Python calls through operators and protocols (an unused
``__pow__`` passes).  And a name that two definitions share counts as used
when either one is: ``Minors.coaction`` would pass without a caller of its
own, because ``HopfContext.coaction`` has callers.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcoorbit"
CALLERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# name -> why it stays although only unit tests call it
ALLOWED = {
    "diag_coinv_keys": "reference oracle: the torus-coinvariant keys that "
                       "the image tests compare the image truncation with",
    "coordinate_truncation_dimension": "reference oracle: the closed-form "
                                       "count of the coordinate truncation",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _uses(tree) -> Counter:
    """How often each name is read as code in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def _definitions(tree, prefix):
    """(qualified name, node) of every function, method and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            qualname = f"{prefix}.{node.name}"
            yield qualname, node
            yield from _definitions(node, qualname)


def _uncalled():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    uses = {name: _uses(tree) for name, tree in modules.items()}
    outside = sum((_uses(_parse(p)) for p in CALLERS), Counter())
    found = []
    for modname, tree in modules.items():
        others = sum((u for m, u in uses.items() if m != modname), outside)
        for qualname, node in _definitions(tree, modname):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            rest = others[name] + uses[modname][name] - _uses(node)[name]
            if rest == 0:
                found.append(qualname)
    return found


def test_every_definition_has_a_caller():
    uncalled = [q for q in _uncalled() if q.rsplit(".", 1)[1] not in ALLOWED]
    assert not uncalled, (
        "defined in src/qcoorbit but used by no other part of the package, "
        "no acceptance test and no benchmark file: " + ", ".join(uncalled))


def test_allowlist_is_current():
    # every exception is still defined, and still has no other caller
    uncalled = {q.rsplit(".", 1)[1] for q in _uncalled()}
    assert set(ALLOWED) <= uncalled
