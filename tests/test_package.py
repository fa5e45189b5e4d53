"""The package namespace re-exports exactly the library modules' names,
and the library runs on numpy alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import specmeasure


def test_all_is_the_union_of_the_library_modules():
    names = {"__version__"}
    for info in pkgutil.iter_modules(specmeasure.__path__):
        if info.name != "cli":
            names.update(importlib.import_module(f"specmeasure.{info.name}").__all__)
    assert sorted(specmeasure.__all__) == sorted(names)
    for name in specmeasure.__all__:
        assert getattr(specmeasure, name) is not None, name


def test_library_never_imports_scipy(tmp_path):
    # the test extra installs scipy, so only a fresh process shows an import
    code = (
        "import sys\n"
        "import specmeasure, specmeasure.cli\n"
        "from specmeasure import cauchy_quadrant_model, mise_sweep\n"
        "for p in (1.0, 3.0):  # a closed-form truth, and one integrated by parts\n"
        "    mise_sweep(cauchy_quadrant_model(p), 200, 2, [10, 20], seed=1)\n"
        "data, out = sys.argv[1:]\n"
        "run = specmeasure.cli.run_cli\n"
        "assert run(['simulate', '--model', 'cauchy-quadrant', '--n', '200', '--seed', '3',\n"
        "            '--output', data]) == 0\n"
        "for command in ('estimate', 'pickands'):\n"
        "    assert run([command, '--k', '20', '--input', data, '--output', out]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-c", code, str(tmp_path / "data.csv"), str(tmp_path / "out.csv")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
