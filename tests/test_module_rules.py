"""Module-boundary rules of the package source, checked with ``ast``.

* A private name (leading underscore) is not imported from another module of
  the package: a helper that two modules need is public in one of them.
* Every ``__all__`` entry names something its module defines or imports at
  the top level.
* Every ``module.function`` that the benchmark traces (``TARGETS`` in
  ``perfbench/run.py``) is a public callable of ``varest.<module>``: a traced
  run reports a missing one as ``null``, which the benchmark cannot compare.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varest").glob("*.py"))
BENCHMARK_RUNNER = ROOT / "perfbench" / "run.py"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    bad = [f"{path.name}:{node.lineno}: {alias.name}"
           for node in ast.walk(_tree(path))
           if isinstance(node, ast.ImportFrom)
           and (node.level > 0 or (node.module or "").split(".")[0] == "varest")
           for alias in node.names if alias.name.startswith("_")]
    assert not bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_defined(path):
    tree = _tree(path)
    assert not [name for name in _exported(tree) if name not in _top_level_names(tree)]


def _traced_targets(path):
    for node in _tree(path).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no TARGETS")


def _missing_targets(targets):
    missing = []
    for target in targets:
        module, name = target.split(".")
        fn = getattr(importlib.import_module(f"varest.{module}"), name, None)
        if name.startswith("_") or not callable(fn):
            missing.append(target)
    return missing


def test_benchmark_targets_are_public_callables():
    targets = _traced_targets(BENCHMARK_RUNNER)
    assert targets
    assert not _missing_targets(targets)


def test_rules_catch_violations(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from .kernels import _helper\n__all__ = ['missing', '_helper']\n")
    with pytest.raises(AssertionError):
        test_no_private_import_across_modules(path)
    with pytest.raises(AssertionError):
        test_all_names_defined(path)
    runner = tmp_path / "run.py"
    runner.write_text('TARGETS = ("model.build_w", "model.no_such_function",\n'
                      '    "kernels._row_sums_and_square_sums", "model.SINGULARITY_RTOL")\n')
    assert _missing_targets(_traced_targets(runner)) == [
        "model.no_such_function", "kernels._row_sums_and_square_sums", "model.SINGULARITY_RTOL"]
