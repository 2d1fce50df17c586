"""Module-boundary rules of the package source, checked with ``ast``.

* A private name (leading underscore) is not imported, neither from another
  module of the package nor from any other package, numpy included: a helper
  that two modules need is public in one of them, and another package's
  private names may change under any release.
* Every ``__all__`` entry names something its module defines or imports at
  the top level.
* The package raises no plain ``ValueError`` or ``TypeError``: every error
  it raises derives from ``VarestError`` (``InvalidInput`` is also a
  ``ValueError``).  ``cli.py`` defines no exception class: bad input is an
  ``InvalidInput`` wherever it is found.
* ``model.py`` calls ``np.isfinite`` only in ``float_array``, the one decoder
  of the value types' numeric arrays, so no constructor keeps its own copy
  of the finite rule.
* Nothing sorts rows but the canonical order of ``LabeledDataset``: every
  reduction over observations is a plain sum over rows in that order.
  ``kernels`` calls no ``sort``, ``argsort`` or ``lexsort``, and the package
  calls them only at the sites in ``SORT_SITES``, each for its stated reason.
* The n x n self-product ``a @ a.T`` (the same expression on both sides) is
  formed only at the sites in ``SELF_PRODUCT_SITES``: every row-pair
  reduction goes through ``kernels.gram``.
* Every input CSV is read by one strict reader: ``csv.reader`` is called only
  at the site in ``CSV_READER_SITES``, which alone opens a file with
  ``errors="surrogateescape"``, so every data and records file names a bad
  byte or a malformed row by the same rule.
* ``zeroboost`` dispatches no estimator ids: it takes its initial as
  ``"naive"`` or a callable, imports only ``ZEROBOOST_ESTIMATORS`` from
  ``estimators`` and nothing from ``selection`` or ``model.build_w``, and
  defines no id table; the named initials live in ``harness``.
* Every ``module.function`` that the benchmark traces (``TARGETS`` in
  ``perfbench/run.py``) is a public callable of ``varest.<module>``: a traced
  run reports a missing one as ``null``, which the benchmark cannot compare.
  Run through the CLI under the benchmark's own tracer, every target is
  called and every per-layer measure still fits its target's arguments.
* ``import varest.cli`` loads none of ``DEFERRED_MODULES``: only a parallel
  run or a bootstrap uses them, so they are imported where they are used.
* Each config type in ``CONFIG_TYPES`` checks its fields when it is built:
  its ``__post_init__`` starts with ``check_fields(self, ...)``, the one
  field checker.  ``cli.py`` compares none of the flags in ``OPTION_FLAGS``
  against a bound or a set, so the CLI keeps no copy of an option's rule.
"""

import ast
import builtins
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varest").glob("*.py"))
BENCHMARK_RUNNER = ROOT / "perfbench" / "run.py"
BENCHMARK_TRACER = ROOT / "perfbench" / "tracer.py"
BUILTIN_ERRORS = ("ValueError", "TypeError")
SORTS = ("sort", "argsort", "lexsort")
# (module, function) -> what it sorts.
SORT_SITES = {
    ("model.py", "_canonical_rows"): "the dataset's rows, into their canonical order",
    ("selection.py", "gap_select"): "the per-column estimates, for their order statistics",
    ("harness.py", "_summary_row"): "the replication values of a summary, which have no "
                                    "row order of their own",
}

# (module, function) -> what its ``a @ a.T`` reduces.
SELF_PRODUCT_SITES = {
    ("kernels.py", "gram"): "the rows of W, or of X with the columns scaled by Y for t_full",
}

# (module, function) -> what its ``csv.reader`` reads.
CSV_READER_SITES = {
    ("harness.py", "csv_rows"): "every input CSV: records files and the CLI's data files",
}

# Modules a CLI call imports only when it runs on worker processes or draws resamples.
DEFERRED_MODULES = ("multiprocessing", "concurrent.futures", "numpy.random")

# (module, class) of each config dataclass, which checks its own fields when built.
CONFIG_TYPES = {("model.py", "CovariateModel"), ("simgen.py", "ScenarioConfig"),
                ("harness.py", "HarnessOptions"), ("zeroboost.py", "BootstrapConfig")}
# The ``args`` attributes whose values only ``HarnessOptions`` checks.
OPTION_FLAGS = ("boot", "initial", "select_split_fraction", "select_cap")

# Builtin exception names and the package's own, any of which a class that derives from
# an exception names among its bases.
EXCEPTION_NAMES = {name for name, value in vars(builtins).items()
                   if isinstance(value, type) and issubclass(value, BaseException)}
EXCEPTION_NAMES |= {node.name for node in ast.walk(ast.parse(
    (ROOT / "src" / "varest" / "errors.py").read_text())) if isinstance(node, ast.ClassDef)}
# (module, function) -> why it calls ``np.isfinite``.
MODEL_FINITE_SITES = {
    ("model.py", "float_array"): "every numeric array a value type takes",
}

ZEROBOOST = ROOT / "src" / "varest" / "zeroboost.py"
ZEROBOOST_ESTIMATORS = {"EstimateReport", "naive_tau2", "sigma2_from"}
ID_TABLE_NAMES = {"INITIAL_IDS", "_INITIALS", "resolve_initial"}


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


def _private_imports(path):
    """Every imported name or module path part of ``path`` that starts with an underscore."""
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        bad += [f"{path.name}:{node.lineno}: {name}" for name in names if name.startswith("_")]
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert not _private_imports(path)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_defined(path):
    tree = _tree(path)
    assert not [name for name in _exported(tree) if name not in _top_level_names(tree)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_only_varest_errors(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                bad.append(f"{path.name}:{node.lineno}: {exc.id}")
    assert not bad


def _exception_classes(path):
    """``line: name`` of every class of ``path`` that names an exception among its bases."""
    return [f"{node.lineno}: {node.name}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.ClassDef)
            and any((getattr(base, "id", None) or getattr(base, "attr", None)) in EXCEPTION_NAMES
                    for base in node.bases)]


def test_cli_defines_no_exception_class():
    assert _exception_classes(ROOT / "src" / "varest" / "cli.py") == []


def _is_isfinite(node):
    """A call of ``np.isfinite``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite" and getattr(node.func.value, "id", None) == "np")


def test_model_checks_finite_input_in_one_decoder():
    assert _sites(ROOT / "src" / "varest" / "model.py", _is_isfinite) == list(MODEL_FINITE_SITES)


def _sites(path, matches):
    """``(module, enclosing function)`` of every node of ``path`` for which ``matches`` holds."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                sites.append((path.name, function))
            visit(child, function)

    visit(_tree(path), "<module>")
    return sites


def _is_sort(node):
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) in SORTS


def _is_self_product(node):
    """``a @ a.T`` with the same expression ``a`` on both sides."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.right, ast.Attribute) and node.right.attr == "T"
            and ast.dump(node.left) == ast.dump(node.right.value))


def _sort_sites(path):
    """``(module, enclosing function)`` of every call of a numpy sort in ``path``."""
    return _sites(path, _is_sort)


def _self_product_sites(path):
    """``(module, enclosing function)`` of every ``a @ a.T`` in ``path``."""
    return _sites(path, _is_self_product)


def test_kernels_sort_nothing():
    assert _sort_sites(ROOT / "src" / "varest" / "kernels.py") == []


def test_only_sorts_are_the_listed_sites():
    sites = {site for path in MODULES for site in _sort_sites(path)}
    assert sites == set(SORT_SITES)


def test_sort_rule_catches_violations(tmp_path):
    path = tmp_path / "kernels.py"
    path.write_text("import numpy as np\n"
                    "def f(a):\n    a.sort(axis=-1)\n    return np.argsort(a)\n"
                    "ORDER = np.lexsort([[1.0]])\n")
    assert _sort_sites(path) == [("kernels.py", "f"), ("kernels.py", "f"),
                                 ("kernels.py", "<module>")]


def test_only_self_products_are_the_listed_sites():
    sites = {site for path in MODULES for site in _self_product_sites(path)}
    assert sites == set(SELF_PRODUCT_SITES)


def _is_csv_reader(node):
    """A call of ``csv.reader``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reader" and getattr(node.func.value, "id", None) == "csv")


def _surrogateescape_count(path):
    """How many string constants of ``path`` are ``"surrogateescape"``."""
    return sum(isinstance(node, ast.Constant) and node.value == "surrogateescape"
               for node in ast.walk(_tree(path)))


def test_one_csv_reader():
    sites = [site for path in MODULES for site in _sites(path, _is_csv_reader)]
    assert sites == list(CSV_READER_SITES)
    assert sum(_surrogateescape_count(path) for path in MODULES) == 1


def _zeroboost_violations(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    bad = sorted(imported.get("estimators", set()) - ZEROBOOST_ESTIMATORS)
    bad += sorted(imported.get("selection", set()))
    bad += sorted(imported.get("model", set()) & {"build_w"})
    return bad + sorted(_top_level_names(tree) & ID_TABLE_NAMES)


def test_zeroboost_dispatches_no_estimator_ids():
    assert _zeroboost_violations(ZEROBOOST) == []


def _field_checked_classes(path):
    """``(module, class)`` of every class of ``path`` whose ``__post_init__`` starts
    with a ``check_fields(self, ...)`` call."""
    checked = set()
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                first = item.body[0]
                call = first.value if isinstance(first, ast.Expr) else None
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_fields"
                        and call.args and getattr(call.args[0], "id", None) == "self"):
                    checked.add((path.name, node.name))
    return checked


def _option_comparisons(path):
    """``line: args.<flag>`` of each comparison in ``path`` reading a flag in ``OPTION_FLAGS``."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Attribute) and side.attr in OPTION_FLAGS
                        and getattr(side.value, "id", None) == "args"):
                    found.append(f"{node.lineno}: args.{side.attr}")
    return found


def test_config_types_check_their_fields():
    checked = set().union(*(_field_checked_classes(path) for path in MODULES))
    assert CONFIG_TYPES <= checked


def test_cli_keeps_no_option_rule():
    assert _option_comparisons(ROOT / "src" / "varest" / "cli.py") == []


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


def _load_benchmark_module(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _benchmark_calls(tmp_path):
    """Argv of a `table`-like, a `bootstrap`-like and a `csv-estimate`-like call at n = p = 20."""
    g = np.random.default_rng(0)
    x = g.standard_normal((20, 20))
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    np.savetxt(data, np.column_stack([x @ np.full(20, 0.3) + g.standard_normal(20), x]),
               delimiter=",", header="y," + ",".join(f"x{j + 1}" for j in range(20)),
               comments="")
    model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
    simulate = ["simulate", "--n", "20", "--p", "20", "--tau2", "2", "--tau2b", "1.32",
                "--sigma2", "1", "--b-size", "5", "--reps", "2", "--seed", "3",
                "--workers", "1", "--records-out", str(tmp_path / "r.csv"),
                "--summary-out", str(tmp_path / "s.csv")]
    return [
        [*simulate, "--estimators", "naive,single,selection,oracle"],
        [*simulate, "--estimators", "empirical", "--boot", "20"],
        ["estimate", "--data", str(data), "--model", str(model), "--estimators",
         "naive,dicker,full,single,selection", "--variance", "tilde",
         "--out", str(tmp_path / "e.csv")],
    ]


def test_benchmark_measures_fit_their_targets(tmp_path):
    import varest.cli

    tracer_module = _load_benchmark_module(BENCHMARK_TRACER)
    run = _load_benchmark_module(BENCHMARK_RUNNER)
    tracer = tracer_module.Tracer(run.TARGETS, run.MEASURES, run.ON_ENTER)
    tracer.dataset = (0, 0)  # the generate_dataset hook updates a (call, rep) pair
    try:
        tracer.install()
        codes = [varest.cli.main(argv) for argv in _benchmark_calls(tmp_path)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert tracer.absent == []
    assert tracer.broken == set()
    assert sorted(set(run.TARGETS) - set(tracer.summary())) == []


def _loaded_on_import(module, src=ROOT / "src"):
    """The ``DEFERRED_MODULES`` that ``import <module>`` loads in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
            f"print([m for m in {DEFERRED_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return ast.literal_eval(proc.stdout)


def test_cli_import_defers_pool_and_random():
    assert _loaded_on_import("varest.cli") == []


def test_rules_catch_violations(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from .kernels import _helper\n__all__ = ['missing', '_helper']\n"
                    "def f(x):\n    if x:\n        raise ValueError('bad')\n"
                    "    raise TypeError\n")
    with pytest.raises(AssertionError):
        test_no_private_import_across_modules(path)
    numpy_private = tmp_path / "draws.py"
    numpy_private.write_text("from __future__ import annotations\n"
                             "from numpy.random.bit_generator import ISeedSequence\n"
                             "from numpy.random.bit_generator import _coerce_to_uint32_array\n"
                             "from numpy.random._pcg64 import PCG64\n"
                             "import numpy._core.multiarray\n")
    assert _private_imports(numpy_private) == [
        "draws.py:3: _coerce_to_uint32_array", "draws.py:4: _pcg64", "draws.py:5: _core"]
    with pytest.raises(AssertionError):
        test_all_names_defined(path)
    with pytest.raises(AssertionError):
        test_raises_only_varest_errors(path)
    classes = tmp_path / "cli.py"
    classes.write_text("import errors\nclass _ConfigError(Exception):\n    pass\n"
                       "class Wrapped(errors.InvalidInput, KeyError):\n    pass\n"
                       "class Plain:\n    pass\nclass Parser(argparse.ArgumentParser):\n"
                       "    pass\n")
    assert _exception_classes(classes) == ["2: _ConfigError", "4: Wrapped"]
    finite = tmp_path / "model.py"
    finite.write_text("import math\nimport numpy as np\n"
                      "def float_array(a):\n    return np.isfinite(a).all()\n"
                      "class Model:\n    def __post_init__(self):\n"
                      "        if not np.all(np.isfinite(self.m4)) or math.isfinite(1.0):\n"
                      "            raise E\n")
    assert _sites(finite, _is_isfinite) == [("model.py", "float_array"),
                                            ("model.py", "__post_init__")]
    zeroboost = tmp_path / "zeroboost.py"
    zeroboost.write_text("from .estimators import EstimateReport, t_full\n"
                         "from .model import LabeledDataset, build_w\n"
                         "def f():\n    from .selection import t_gamma\n"
                         "INITIAL_IDS = ('naive',)\n")
    assert _zeroboost_violations(zeroboost) == ["t_full", "t_gamma", "build_w", "INITIAL_IDS"]
    products = tmp_path / "estimators.py"
    products.write_text("def t_full(ds):\n    a = ds.x @ ds.x.T\n    return a @ a.T\n"
                        "def fine(ds, b):\n    return ds.x @ ds.y.T, b @ ds.x.T, ds.x.T @ ds.x\n")
    assert _self_product_sites(products) == [("estimators.py", "t_full")] * 2
    readers = tmp_path / "cli.py"
    readers.write_text("import csv\n"
                       "def load(fh):\n    return csv.reader(fh, strict=True)\n"
                       "def by_line(path):\n    fh = open(path, errors='surrogateescape')\n"
                       "    return list(csv.reader(fh)), csv.writer(fh)\n")
    assert _sites(readers, _is_csv_reader) == [("cli.py", "load"), ("cli.py", "by_line")]
    assert _surrogateescape_count(readers) == 1
    runner = tmp_path / "run.py"
    runner.write_text('TARGETS = ("model.build_w", "model.no_such_function",\n'
                      '    "kernels._row_sums_and_square_sums", "model.SINGULARITY_RTOL")\n')
    assert _missing_targets(_traced_targets(runner)) == [
        "model.no_such_function", "kernels._row_sums_and_square_sums", "model.SINGULARITY_RTOL"]
    configs = tmp_path / "harness.py"
    configs.write_text("class HarnessOptions:\n    def __post_init__(self):\n"
                       "        if self.boot < 2:\n            raise InvalidInput('boot')\n"
                       "        check_fields(self, InvalidInput)\n"
                       "class Checked:\n    def __post_init__(self):\n"
                       "        check_fields(self, InvalidInput)\n")
    assert _field_checked_classes(configs) == {("harness.py", "Checked")}
    rules = tmp_path / "cli.py"
    rules.write_text("def options(args, estimators):\n"
                     "    if args.boot < 2 or args.initial not in IDS:\n        raise E\n"
                     "    if 0.0 < args.select_split_fraction < 1.0 and args.select_cap is None:\n"
                     "        return args.boot, args.workers < 1, other.boot > 2\n")
    assert _option_comparisons(rules) == ["2: args.boot", "2: args.initial",
                                          "4: args.select_split_fraction", "4: args.select_cap"]
    eager = tmp_path / "eager"
    eager.mkdir()
    (eager / "eager.py").write_text("import numpy.random\nfrom concurrent.futures import "
                                    "ProcessPoolExecutor\n")
    assert _loaded_on_import("eager", eager) == list(DEFERRED_MODULES)
