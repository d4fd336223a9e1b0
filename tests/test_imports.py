"""Import hygiene: no module imports a name it never uses, the package's
``__all__`` matches what it binds, and every name the benchmark's tracer
wraps still exists.

A standard-library stand-in for a linter's unused-import rule. Names listed
in a module's ``__all__`` count as used (re-exports), and ``from __future__``
imports are compiler directives, so they are skipped.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import coopevo

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/coopevo", "tests", "demos", "tools", "perfbench")


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every imported name the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: np.ndarray):\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("folder", SCANNED)
def test_no_unused_imports(folder):
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / folder).glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_package_all_lists_exactly_its_public_names():
    bound = {
        name
        for name, value in vars(coopevo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(coopevo.__all__) == sorted(bound)
    assert len(coopevo.__all__) == len(set(coopevo.__all__))


def test_perfbench_patch_points_exist(monkeypatch):
    # the benchmark's traced run wraps coopevo functions and methods by
    # name; a refactor that drops one of them fails here, not only in the
    # benchmark's own slow self-test. Nothing is written under perfbench/.
    from coopevo import shade, surrogate_cc

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    originals = (shade.mutate_crossover, vars(surrogate_cc.SurrogateCC)["step"])
    try:
        import layers
        import spans

        tracer = spans.Tracer()
        try:
            layers.install(tracer)
            assert tracer._patches
            assert shade.mutate_crossover is not originals[0]
        finally:
            tracer.restore()
    finally:
        sys.modules.pop("layers", None)
        sys.modules.pop("spans", None)
    assert (shade.mutate_crossover, vars(surrogate_cc.SurrogateCC)["step"]) == originals
