"""Every narrative demo script and every README example runs to completion
against the source tree."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from specmeasure.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def readme_blocks(heading, language):
    """The ``language`` code blocks of the README section under ``heading``."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.findall(rf"```{language}\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_readme_examples_run(tmp_path, monkeypatch):
    (quick_start,) = readme_blocks("Quick start (Python)", "python")
    namespace = {}
    exec(quick_start, namespace)
    assert namespace["mele"].moment_sums() == pytest.approx((1.0, 1.0), rel=0, abs=1e-12)
    # one command per line once continuations are joined, a pipe included
    lines = "".join(readme_blocks("Command line", "sh")).replace("\\\n", " ").replace("|\n", "| ")
    commands = [line.strip() for line in lines.splitlines() if line.strip().startswith("specmeasure")]
    (pipe,) = [line for line in commands if "|" in line]
    commands.remove(pipe)
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)[1:]
        assert run_cli(argv) == 0, command
        assert (tmp_path / argv[argv.index("--output") + 1]).stat().st_size > 0, command
    first, second = ([sys.executable, "-m", "specmeasure.cli", *shlex.split(part)[1:]]
                     for part in pipe.split("|"))
    writer = subprocess.Popen(first, stdout=subprocess.PIPE, env=ENV)
    reader = subprocess.run(second, stdin=writer.stdout, capture_output=True, text=True,
                            env=ENV, timeout=120)
    writer.stdout.close()
    assert writer.wait(timeout=120) == 0 and reader.returncode == 0, reader.stderr
    assert reader.stdout.startswith("theta,weight_mele,score_f")
