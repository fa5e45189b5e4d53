"""The package namespace re-exports exactly the library modules' names,
every import and module-level name of the library is used, the library
runs on numpy alone and never loads numpy.polynomial, the CLI reads
without numpy.random, and its records compare by identity."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specmeasure
from specmeasure import (
    BivariateSample,
    asym_logistic_model,
    cauchy_quadrant_model,
    empirical_spectral_measure,
    mise_sweep,
    pickands_function,
    select_extremes,
)


def test_all_is_the_union_of_the_library_modules():
    names = {"__version__"}
    for info in pkgutil.iter_modules(specmeasure.__path__):
        if info.name != "cli":
            names.update(importlib.import_module(f"specmeasure.{info.name}").__all__)
    assert sorted(specmeasure.__all__) == sorted(names)
    for name in specmeasure.__all__:
        assert getattr(specmeasure, name) is not None, name


def test_every_import_of_the_library_is_used():
    # a name that a module imports is read in it or exported by its __all__
    for path in sorted(Path(specmeasure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        name = "specmeasure" if path.stem == "__init__" else f"specmeasure.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        assert imported <= used | exported, (path.name, sorted(imported - used - exported))


def test_every_module_level_name_of_the_library_is_used():
    # a function, class or name that a module defines at its top level is
    # read somewhere in the library (an import of it counts) or exported by
    # its module's __all__
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(specmeasure.__file__).parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for stem, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        name = "specmeasure" if stem == "__init__" else f"specmeasure.{stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ())) | {"__all__"}
        assert defined <= read | exported, (stem, sorted(defined - read - exported))


@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial"])
def test_library_never_imports(module, tmp_path):
    # the test extra installs scipy, and numpy loads numpy.polynomial on
    # first use, so only a fresh process shows an import
    code = (
        "import sys\n"
        "import specmeasure, specmeasure.cli\n"
        "from specmeasure import cauchy_quadrant_model, mise_sweep\n"
        "for p in (1.0, 3.0):  # a closed-form truth, and one integrated by parts\n"
        "    mise_sweep(cauchy_quadrant_model(p), 200, 2, [10, 20], seed=1)\n"
        "from specmeasure import asym_logistic_model, cauchy_fullplane_model, mixture_model\n"
        "for p in (1.0, 3.0, float('inf')):  # every family's tables\n"
        "    for model in (asym_logistic_model(1.5, p=p), cauchy_fullplane_model(p),\n"
        "                  mixture_model(0.5, p=p)):\n"
        "        model.cdf_integrals(0.5)\n"
        "data, out = sys.argv[1:]\n"
        "run = specmeasure.cli.run_cli\n"
        "assert run(['simulate', '--model', 'cauchy-quadrant', '--n', '200', '--seed', '3',\n"
        "            '--output', data]) == 0\n"
        "for command in ('estimate', 'pickands'):\n"
        "    assert run([command, '--k', '20', '--input', data, '--output', out]) == 0\n"
        f"print({module!r} in sys.modules)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "False"


def test_cli_reads_without_numpy_random(tmp_path):
    # numpy.random costs megabytes of memory and milliseconds to load, and
    # reading, ranking, estimating and writing draw nothing
    code = (
        "import sys\n"
        "import specmeasure, specmeasure.cli\n"
        "data, out = sys.argv[1:]\n"
        "with open(data, 'w') as handle:\n"
        "    handle.write('x1,x2\\n')\n"
        "    for i in range(1, 501):\n"
        "        handle.write(f'{(i * 37) % 503 + 1 / i},{(i * 91) % 509 + i / 7}\\n')\n"
        "for command in ('estimate', 'pickands'):\n"
        "    assert specmeasure.cli.run_cli([command, '--k', '40', '--input', data,\n"
        "                                    '--output', out]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "False"


def _fresh_interpreter(code: str, tmp_path) -> str:
    """The stripped stdout of ``code`` run in a new interpreter, with a data
    and an output path under ``tmp_path`` as its arguments."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-c", code, str(tmp_path / "data.csv"), str(tmp_path / "out.csv")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _selection():
    sample = cauchy_quadrant_model().sample(50, np.random.default_rng(1))
    return select_extremes(sample, 10, 1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BivariateSample(np.zeros((3, 2))),
        _selection,
        lambda: empirical_spectral_measure(_selection()),
        lambda: pickands_function(empirical_spectral_measure(_selection())),
        lambda: mise_sweep(cauchy_quadrant_model(), 50, 2, [5, 10], seed=1),
        lambda: asym_logistic_model(2.0),
    ],
    ids=["sample", "selection", "measure", "pickands", "mise-table", "model"],
)
def test_records_holding_arrays_compare_by_identity(build):
    # equal values, distinct objects: no elementwise comparison, and each hashes
    a, b = build(), build()
    assert (a == b) is False
    assert (a == a) is True
    assert {a: 1, b: 2}[a] == 1
