"""Workload definitions, input generation and the pass that times them.

Work is fixed by counts (replications, rows, commands), never by time,
so two versions of the library always do identical work.  The seed given
on the command line selects one of ``POOL`` input seeds; references for
the output checks were recorded for each of them.

Run as a script, it writes the ``cli_large`` input files (``write_inputs``
does this in a child process):

    python3 perfbench/workloads.py ROWS INPUT_SEED SAMPLE.csv TIES.csv
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import importlib
import io
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

#: number of distinct input seeds; ``--seed s`` uses input seed ``s % POOL``
POOL = 8


@dataclass(frozen=True)
class MiseCase:
    """One ``mise_sweep`` call."""

    family: str  # "logistic" or "cauchy-quadrant"
    r: float  # logistic dependence parameter, unused for Cauchy
    p: float
    n: int
    reps: int
    k_grid: tuple

    @property
    def label(self) -> str:
        name = f"logistic(r={self.r:g})" if self.family == "logistic" else self.family
        return f"{name},p={self.p:g}"


@dataclass(frozen=True)
class CliCommand:
    """One in-process ``run_cli`` call; ``{sample}``, ``{ties}`` and
    ``{out}`` in ``argv`` are replaced by file paths."""

    label: str
    kind: str  # "estimate" or "pickands"
    p: float
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mise: tuple = ()
    cli_rows: int = 0
    commands: tuple = ()


def _estimate(label, p, k, source="{sample}"):
    text = "inf" if math.isinf(p) else f"{p:g}"
    argv = ("estimate", "--input", source, "--output", "{out}", "--k", str(k), "--p", text)
    return CliCommand(label, "estimate", p, argv)


def _cli_commands(k: int) -> tuple:
    return (
        _estimate("estimate_s.p1", 1.0, k),
        _estimate("estimate_s.p2", 2.0, k),
        _estimate("estimate_s.pfrac", 2.5, k),
        _estimate("estimate_s.pinf", math.inf, k),
        _estimate("estimate_s.ties", 1.0, k, source="{ties}"),
        CliCommand(
            "pickands_s",
            "pickands",
            1.0,
            ("pickands", "--input", "{sample}", "--output", "{out}", "--k", str(k)),
        ),
    )


_K_CLOSED = tuple(range(10, 201, 10))
_K_QUAD = (25, 50, 100, 200)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mise_closed",
            "the paper's Monte Carlo MISE design on closed-form truth cdfs",
            mise=(
                MiseCase("logistic", 2.0, 1.0, 1000, 200, _K_CLOSED),
                MiseCase("cauchy-quadrant", 0.0, 1.0, 1000, 200, _K_CLOSED),
            ),
        ),
        Workload(
            "mise_quadrature",
            "MISE on quadrature-backed truth cdfs (logistic r=1.5, Cauchy p=3)",
            mise=(
                MiseCase("logistic", 1.5, 1.0, 1000, 2, _K_QUAD),
                MiseCase("cauchy-quadrant", 0.0, 3.0, 1000, 2, _K_QUAD),
            ),
        ),
        Workload(
            "cli_large",
            "estimate at four norms, on ties, and pickands on a 1e6-row file",
            cli_rows=1_000_000,
            commands=_cli_commands(1000),
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for self-tests."""
    mise = tuple(
        replace(c, n=300, reps=min(c.reps, 3), k_grid=c.k_grid[:2]) for c in workload.mise
    )
    commands = _cli_commands(60) if workload.commands else ()
    return replace(workload, mise=mise, cli_rows=min(workload.cli_rows, 3000), commands=commands)


def input_seed(seed: int) -> int:
    return int(seed) % POOL


# ---------------------------------------------------------------------------
# inputs


def import_library(workload: Workload):
    """Import the package, and its CLI module when the workload uses it."""
    sm = importlib.import_module("specmeasure")
    if workload.commands:
        importlib.import_module("specmeasure.cli")
    return sm


def build_models(sm, workload: Workload) -> dict:
    """Every ``SpectralModel`` the workload uses, keyed by case label."""
    models = {}
    for case in workload.mise:
        if case.family == "logistic":
            models[case.label] = sm.asym_logistic_model(case.r, p=case.p)
        else:
            models[case.label] = sm.cauchy_quadrant_model(case.p)
    return models


def logistic_rows(n: int, r: float, seed: int) -> np.ndarray:
    """Symmetric logistic max-stable sample, drawn independently of the
    library: V_j = (S / E_j)**(1/r) with S positive (1/r)-stable
    (Chambers-Mallows-Stuck) and E_j unit exponentials."""
    rng = np.random.default_rng([seed, 20081220])
    alpha = 1.0 / r
    theta = math.pi * rng.uniform(1e-12, 1.0 - 1e-12, n)
    w = rng.exponential(size=n) + 1e-300
    log_s = (
        np.log(np.sin(alpha * theta))
        - r * np.log(np.sin(theta))
        + (r - 1.0) * (np.log(np.sin((1.0 - alpha) * theta)) - np.log(w))
    )
    e = rng.exponential(size=(n, 2)) + 1e-300
    return np.exp(alpha * (log_s[:, None] - np.log(e)))


def write_files(rows: int, seed: int, sample: str, ties: str) -> None:
    """Write a logistic r = 2 sample and its copy rounded to one decimal."""
    values = logistic_rows(rows, 2.0, seed)
    np.savetxt(sample, values, fmt="%.17g", delimiter=",", header="x1,x2", comments="")
    np.savetxt(ties, np.round(values, 1), fmt="%.1f", delimiter=",", header="x1,x2", comments="")


def write_inputs(workload: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's data files; return the ``argv`` placeholders.

    The files are made in a child process, so that the arrays built for
    them do not count in the peak memory of the process that runs the
    workload.
    """
    if not workload.commands:
        return {}
    paths = {"sample": str(workdir / "sample.csv"), "ties": str(workdir / "ties.csv")}
    script = str(Path(__file__).resolve())
    argv = [str(workload.cli_rows), str(input_seed(seed)), paths["sample"], paths["ties"]]
    subprocess.run([sys.executable, script, *argv], check=True, timeout=300)
    return paths


# ---------------------------------------------------------------------------
# one pass over the workload


@dataclass
class Outcome:
    """Result of one timed call: a ``mise_sweep`` or a ``run_cli``."""

    label: str
    seconds: float
    ops: int  # replications, or 1 for a CLI command
    rows: int  # input rows processed
    output: object = None  # MiseTable, or (exit code, output bytes, stderr)
    error: str = ""  # unexpected exception, with traceback


def _release_memory():
    """Free what the last operation left behind, so that each operation's
    peak starts from the same base (glibc otherwise keeps freed heap
    pages at random, which made the peak bimodal)."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def run_pass(sm, workload: Workload, models: dict, seed: int, paths: dict, workdir: Path):
    """Run every operation of the workload once, closed loop, in order."""
    outcomes = []
    for case in workload.mise:
        model = models[case.label]
        start = time.perf_counter()
        try:
            table = sm.mise_sweep(
                model, case.n, case.reps, case.k_grid, p=case.p, seed=input_seed(seed)
            )
            error = ""
        except Exception:  # reported as failed replications, the run continues
            table, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        _release_memory()
        outcomes.append(Outcome(case.label, seconds, case.reps, case.reps * case.n, table, error))

    cli = importlib.import_module("specmeasure.cli") if workload.commands else None
    for cmd in workload.commands:
        out = workdir / f"{cmd.label}.csv"
        argv = [a.format(out=out, **paths) for a in cmd.argv]
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.run_cli(argv)  # looked up now, so a traced run sees the wrapper
            error = ""
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        _release_memory()
        outcomes.append(
            Outcome(cmd.label, seconds, 1, workload.cli_rows, (code, data, stderr.getvalue()), error)
        )
    return outcomes


if __name__ == "__main__":
    write_files(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4])
