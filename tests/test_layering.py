"""Each dpdplab module imports only modules of lower layers.

The layers, lowest first: ``instance`` and ``neural``; ``routing``;
``demand``; ``env``; ``policy`` and ``baselines`` (with the package root,
which re-exports the lower layers); ``cli``.  Modules on one layer do not
import each other.  Imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import dpdplab

PACKAGE = Path(dpdplab.__file__).parent
ROOT = "__init__"

LAYERS = {
    "instance": 0,
    "neural": 0,
    "routing": 1,
    "demand": 2,
    "env": 3,
    "policy": 4,
    "baselines": 4,
    ROOT: 4,
    "cli": 5,
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
