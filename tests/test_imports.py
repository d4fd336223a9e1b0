"""Import hygiene: no module imports a name it never uses, the package's
``__all__`` matches what it binds, every name the benchmark's tracer
wraps still exists, no path loads ``scipy.spatial`` (``sacc`` loads only
scipy's compiled distance kernels),
``benchmarks.check_integer`` is the package's one integer test,
``benchmarks.float_array`` its one array-shape check, ``runtime`` the
only module outside ``benchmarks`` that calls the objective, and ``shade``
free of every package module but ``benchmarks``.

A standard-library stand-in for a linter's unused-import rule. Names listed
in a module's ``__all__`` count as used (re-exports), and ``from __future__``
imports are compiler directives, so they are skipped.
"""

import ast
import inspect
import json
import os
import re
import subprocess
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


def package_imports(path: Path) -> set[str]:
    """The coopevo modules that the module at ``path`` imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "")
            elif (node.module or "").split(".")[0] == "coopevo":
                found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] for a in node.names
                      if a.name.split(".")[0] == "coopevo"}
    return found


def test_shade_imports_no_package_module_but_benchmarks():
    # SHADE sees a sub-problem only as its box; which variables it owns,
    # the decomposition and the run are the callers' business
    assert package_imports(ROOT / "src/coopevo/runtime.py") >= {"decomposition", "shade"}
    assert package_imports(ROOT / "src/coopevo/shade.py") == {"benchmarks"}


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


# the spellings of "an integer, bool excluded, numpy integers accepted"
INTEGER_TEST = re.compile(r"\bis bool\b|isinstance\(.*\bbool\b|np\.integer")
# the spellings of "this array has the wrong shape"
SHAPE_TEST = re.compile(r"\.(shape(\[[^]]*\])?|ndim)\s*!=|np\.shape\(.*\)\s*!=")


def scan_package(pattern: re.Pattern, owner: str | None = None) -> tuple[list[str], list[str]]:
    """The files that define ``owner``, and every line of ``src/coopevo``
    outside it that ``pattern`` finds (every line, with no ``owner``)."""
    found, owners = [], []
    for path in sorted((ROOT / "src/coopevo").glob("*.py")):
        source = path.read_text()
        spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == owner
        ]
        owners += [path.name] * len(spans)
        found += [
            f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line) and not any(a <= number <= b for a, b in spans)
        ]
    return owners, found


def test_check_integer_is_the_only_integer_test():
    assert scan_package(INTEGER_TEST, "check_integer") == (["benchmarks.py"], [])


def test_shape_scan_finds_each_spelling():
    for line in ("if x.shape != (n,):", "if a.ndim != 2", "if a.shape[1] != s:",
                 "if np.shape(rot) != (m, m):"):
        assert SHAPE_TEST.search(line), line
    assert not SHAPE_TEST.search("p, s = pop.shape")


def test_float_array_is_the_only_shape_test():
    assert scan_package(SHAPE_TEST, "float_array") == (["benchmarks.py"], [])


# the spellings of "call the objective": the function itself, its full
# evaluation or its group terms
OBJECTIVE_CALL = re.compile(r"\bfn\(|\.(evaluate|terms)\(")


def test_only_runtime_calls_the_objective():
    # every objective call a run makes is charged, through runtime's x0 and
    # evaluate_rows, or is adopt's uncharged refresh of the context's terms;
    # perfbench's traced run checks that charged evaluations and evaluate
    # calls agree, so no optimizer may call the objective on its own
    for line in ("f = self.fn(x)", "fn.evaluate(x, known=known)", "self.fn.terms(x0)"):
        assert OBJECTIVE_CALL.search(line), line
    assert not OBJECTIVE_CALL.search("self.fn.known(terms, groups); loss_fn(x)")
    _, found = scan_package(OBJECTIVE_CALL)
    allowed = ("src/coopevo/benchmarks.py:", "src/coopevo/runtime.py:")
    assert [line for line in found if not line.startswith(allowed)] == []


# Each case runs in a fresh interpreter, with BLAS pinned to one thread, and
# reports the modules it ended with. shade-cc never trains a surrogate, so
# its paths load neither scipy.spatial nor numpy.ma (which np.unique and
# np.median import at their first call). sacc loads scipy's distance kernels
# from their file, not through scipy.spatial, so its paths load neither
# scipy.spatial nor the scipy.sparse it would pull in.
SHADE_CC_PATHS = {
    "import": "import coopevo",
    "run": (
        "from coopevo import harness\n"
        "harness.run_experiment(harness.ExperimentConfig(\n"
        "    functions=('f01',), dim=20, algorithm='shade-cc', budget=300, runs=2))"
    ),
    "help": (
        "import contextlib, io\n"
        "from coopevo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    cli.main(['--help'])"
    ),
}
SACC_PATHS = {
    "config": (
        "from coopevo import harness\n"
        "harness.ExperimentConfig(functions=('f01',), dim=20, algorithm='sacc', budget=600)"
    ),
    "run": (
        "from coopevo import harness\n"
        "harness.run_experiment(harness.ExperimentConfig(\n"
        "    functions=('f01',), dim=20, algorithm='sacc', budget=600, runs=2))"
    ),
}


def modules_after(code: str, tmp_path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", SHADE_CC_PATHS)
def test_shade_cc_paths_load_neither_scipy_spatial_nor_numpy_ma(case, tmp_path):
    loaded = modules_after(SHADE_CC_PATHS[case], tmp_path)
    assert "coopevo.rbf" in loaded
    assert not {"scipy.spatial", "numpy.ma"} & loaded


@pytest.mark.parametrize("case", SACC_PATHS)
def test_sacc_paths_load_neither_scipy_spatial_nor_scipy_sparse(case, tmp_path):
    loaded = modules_after(SACC_PATHS[case], tmp_path)
    assert "coopevo.rbf" in loaded
    assert [name for name in loaded if name.startswith(("scipy.spatial", "scipy.sparse"))] == []
