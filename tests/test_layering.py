"""Each dpdplab module imports only modules of lower layers.

The layers, lowest first: ``instance``, ``neural`` and the package root,
which holds only ``__version__`` and imports nothing; ``routing``;
``demand``; ``env``; ``policy`` and ``baselines``; ``cli``; ``__main__``.
Modules on one layer do not import each other.  Imports inside functions
count too.

The benchmark's tracer wraps dpdplab functions by name; every name it
patches must still resolve, so a refactor that renames one fails here and
not only in the benchmark's own tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dpdplab

PACKAGE = Path(dpdplab.__file__).parent
ROOT = "__init__"
PERFBENCH_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

LAYERS = {
    "instance": 0,
    "neural": 0,
    ROOT: 0,
    "routing": 1,
    "demand": 2,
    "env": 3,
    "policy": 4,
    "baselines": 4,
    "cli": 5,
    "__main__": 6,
}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    """The dpdplab modules a module's AST imports, by stem; the package
    root itself is ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dpdplab":
                    found.add(parts[1] if len(parts) > 1 else ROOT)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "dpdplab":
                    continue
                base = parts[1:]
            else:
                base = (node.module or "").split(".") if node.module else []
            if base:
                found.add(base[0])
            else:
                # ``from . import x``: a module when x names one, else the root.
                for alias in node.names:
                    found.add(alias.name if alias.name in LAYERS else ROOT)
    return found


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    upward = sorted(m for m in imported_modules(tree) if LAYERS[m] >= LAYERS[module])
    assert not upward, f"{module} (layer {LAYERS[module]}) imports {upward}"


def test_function_level_imports_are_seen():
    tree = ast.parse("def f():\n    from . import demand as d\n    from .env import run_episode\n")
    assert imported_modules(tree) == {"demand", "env"}


def traced_names() -> list[tuple[str, str]]:
    """(owner, attribute) of every tuple in the list that ``patches()`` in
    the benchmark's ``layers.py`` returns, read from its AST."""
    tree = ast.parse(PERFBENCH_LAYERS.read_text(encoding="utf-8"))
    patches = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "patches")
    returned = next(n for n in ast.walk(patches) if isinstance(n, ast.Return)).value
    return [(ast.unparse(t.elts[0]), t.elts[1].value) for t in returned.elts]


def unresolved(names: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The (owner, attribute) pairs whose ``dpdplab.<module>[.<class>]``
    owner or attribute does not exist."""
    missing = []
    for owner, attr in names:
        _, module, *classes = owner.split(".")
        obj = importlib.import_module(f"dpdplab.{module}")
        for name in classes:
            obj = getattr(obj, name, None)
        if not hasattr(obj, attr):
            missing.append((owner, attr))
    return missing


def test_perfbench_traced_names_resolve():
    names = traced_names()
    assert ("dpdplab.routing", "simulate_timeline") in names
    assert ("dpdplab.policy.QNetwork", "q_values") in names
    assert unresolved(names) == []
    assert unresolved([("dpdplab.routing", "walk_route"), ("dpdplab.policy.Planner", "step")]) == [
        ("dpdplab.routing", "walk_route"),
        ("dpdplab.policy.Planner", "step"),
    ]
