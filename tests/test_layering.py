"""Each dpdplab module imports only modules of lower layers.

The layers, lowest first: ``instance``, ``neural`` and the package root,
which holds only ``__version__`` and imports nothing; ``routing``;
``demand``; ``env``; ``policy`` and ``baselines``; ``cli``; ``__main__``.
Modules on one layer do not import each other.  Imports inside functions
count too.

The episode validator and the test oracles are judges independent of the
planner, so they share no code with ``routing`` beyond its action-kind
constants (and, for the oracles, the ``Route`` value they read).

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
ORACLES = Path(__file__).resolve().with_name("oracles.py")
ROUTING_CONSTANTS = {"PICKUP", "DELIVER"}

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


def names_from_routing(tree: ast.AST) -> set[str]:
    """The names a module's AST binds to ``routing`` or to names imported from it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.asname or a.name.split(".")[0] for a in node.names if a.name == "dpdplab.routing")
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, "routing"), (0, "dpdplab.routing")):
                found.update(a.asname or a.name for a in node.names)
            elif (node.level, node.module) in ((1, None), (0, "dpdplab")):
                found.update(a.asname or a.name for a in node.names if a.name == "routing")
    return found


def test_routing_names_are_seen():
    tree = ast.parse(
        "from .routing import PICKUP, _walk as w\nfrom . import routing\nimport dpdplab.routing as r\n"
        "def f():\n    from dpdplab.routing import Route\n"
    )
    assert names_from_routing(tree) == {"PICKUP", "w", "routing", "r", "Route"}


def test_validator_shares_only_constants_with_routing():
    tree = ast.parse((PACKAGE / "baselines.py").read_text(encoding="utf-8"))
    validator = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "validate_routes")
    used = {n.id for n in ast.walk(validator) if isinstance(n, ast.Name)}
    assert used & names_from_routing(tree) <= ROUTING_CONSTANTS


def test_oracles_share_only_constants_and_route_with_routing():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    assert names_from_routing(tree) <= ROUTING_CONSTANTS | {"Route"}


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
