"""Golden CLI records: the stdout (``<name>.out.gz``, gzip), stderr
(``<name>.err``) and exit code (``index.json``) of every command in
``COMMANDS``, run in process through ``run_cli``, and the fingerprint of
the numpy build that printed them.  ``zcat`` shows a stdout record.

It also writes ``asymptotics.csv``, the √k table: the scaled pointwise
errors of both estimators over ``ASYMPTOTICS`` (see
:func:`asymptotic_rows`), in about 2.5 minutes of one core.

Run from anywhere to rewrite the records and the table from this tree::

    python tests/golden/regenerate.py

``tests/test_golden.py`` reruns the commands, and the table's ``RERUN``
row, and compares against the records: byte for byte when the
fingerprint matches, else as parsed values (see ``values_match``).  A
regenerated record changes the design contract, so name each changed
file and its largest relative change.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INDEX = HERE / "index.json"

if __name__ == "__main__":  # the records come from this tree, not an installed copy
    sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from specmeasure import (  # noqa: E402
    ConstraintInfeasible,
    asym_logistic_model,
    cauchy_quadrant_model,
    empirical_spectral_measure,
    mele_spectral_measure,
    mixture_model,
    select_extremes,
)
from specmeasure.cli import run_cli  # noqa: E402
from specmeasure.pseudo_obs import read_sample  # noqa: E402

#: the input files, written into the working directory before any command
SAMPLES = (
    "simulate --model logistic --r 2 --n 5000 --seed 1 --output logistic.csv",
    "simulate --model cauchy-quadrant --n 60 --seed 3 --output cauchy60.csv",
)

_BENCH = "benchmark --n 1000 --reps 200 --seed 1"

COMMANDS = {
    "benchmark_logistic_p1": f"{_BENCH} --model logistic --r 2 --p 1",
    "benchmark_logistic_pinf": f"{_BENCH} --model logistic --r 2 --p inf",
    "benchmark_cauchy_quadrant_p3": f"{_BENCH} --model cauchy-quadrant --p 3",
    "benchmark_cauchy_fullplane_pinf": f"{_BENCH} --model cauchy-fullplane --p inf",
    "benchmark_mixture_p2.5": f"{_BENCH} --model mixture --r 0.5 --p 2.5",
    "benchmark_asym_logistic": f"{_BENCH} --model logistic --r 3 --psi1 0.7 --psi2 0.9",
    "benchmark_every_k": "benchmark --model cauchy-quadrant --n 3000 --reps 1 --seed 1"
    " --k-grid 1:3000:1",
    "benchmark_infeasible": "benchmark --model cauchy-quadrant --n 60 --reps 20 --seed 3"
    " --k-grid 1:10:1",
    **{
        f"estimate_{source}_p{p}": f"estimate --input {source}.csv --k 200 --p {p}"
        for source in ("logistic", "tied")
        for p in ("1", "2", "2.5", "3", "inf")
    },
    "estimate_k1": "estimate --input logistic.csv --k 1",
    "estimate_empirical": "estimate --input logistic.csv --k 200 --p 2.5 --estimator empirical",
    "estimate_mele": "estimate --input tied.csv --k 200 --p inf --estimator mele",
    "pickands_logistic": "pickands --input logistic.csv --k 200",
    "pickands_tied": "pickands --input tied.csv --k 200",
    "simulate_logistic": "simulate --model logistic --r 2 --n 40 --seed 7",
    "simulate_asym_logistic": "simulate --model logistic --r 3 --psi1 0.7 --psi2 0.9"
    " --n 40 --seed 7",
    "simulate_cauchy_quadrant": "simulate --model cauchy-quadrant --n 40 --seed 7",
    "simulate_cauchy_fullplane": "simulate --model cauchy-fullplane --n 40 --seed 7",
    "simulate_mixture": "simulate --model mixture --r 0.5 --n 40 --seed 7",
    "fails_k_above_n": "estimate --input logistic.csv --k 5001",  # exit 2
    "fails_infeasible": "estimate --input cauchy60.csv --k 2 --estimator mele",  # exit 3
    "fails_missing_input": "estimate --input missing.csv --k 5",  # exit 4
}


TABLE = HERE / "asymptotics.csv"

#: the √k table's models and their norm orders; logistic r = 1 is tail
#: independent, its truth at an interior angle the atom at 0
MODELS = {
    "logistic r=2": (lambda p: asym_logistic_model(2.0, p=p), (1.0, 2.0, 2.5, math.inf)),
    "cauchy-quadrant": (cauchy_quadrant_model, (1.0, 2.0, math.inf)),
    "mixture r=0.5": (lambda p: mixture_model(0.5, p=p), (1.0, 2.0, math.inf)),
    "logistic r=1": (lambda p: asym_logistic_model(1.0, p=p), (1.0, 2.0, math.inf)),
}
#: (n, the k at that n, replications); the k of one n share their samples
ASYMPTOTICS = ((1000, (30,), 1000), (10_000, (100,), 1000), (100_000, (300, 1000), 400))
#: the angles, inside every model's default ISE interval
THETA = (0.5, math.pi / 4, 1.1)
#: the cell that tests/test_golden.py reruns in full: model, p, n, k, replications
RERUN = ("cauchy-quadrant", 1.0, 10_000, 100, 200)

TABLE_HEADER = (
    "model,p,n,k,reps,theta,truth,empirical_mean,empirical_sd,mele_mean,mele_sd,"
    "difference_sd,infeasible"
)


def asymptotic_rows(label: str, p: float, n: int, ks, reps: int) -> list[str]:
    """The table's lines for one model at norm order p and one n: per k and
    theta, the truth cdf(theta), and the mean and sd of each estimator's
    sqrt(k) * (cdf(theta) - truth) over replications 0 to reps - 1, each
    drawn on the stream ``default_rng([1, rep])``; the MELE columns and the
    sd of the paired difference MELE - empirical are over the replications
    whose MELE fit is feasible, and ``infeasible`` counts the others."""
    model = MODELS[label][0](p)
    truth = model.cdf(THETA)
    cdfs = np.full((reps, len(ks), 2, len(THETA)), np.nan)
    for rep in range(reps):
        sample = model.sample(n, np.random.default_rng([1, rep]))
        for i, k in enumerate(ks):
            ang = select_extremes(sample, k, p)
            cdfs[rep, i, 0] = empirical_spectral_measure(ang).cdf(THETA)
            try:
                cdfs[rep, i, 1] = mele_spectral_measure(ang).cdf(THETA)
            except ConstraintInfeasible:
                pass
    lines = []
    for i, k in enumerate(ks):
        scaled = math.sqrt(k) * (cdfs[:, i] - truth)  # (rep, estimator, theta)
        feasible = ~np.isnan(scaled[:, 1, 0])
        for j, theta in enumerate(THETA):
            empirical, mele = scaled[:, 0, j], scaled[feasible, 1, j]
            difference = mele - empirical[feasible]
            row = [label, p, n, k, reps, theta, truth[j], empirical.mean(),
                   empirical.std(ddof=1), mele.mean(), mele.std(ddof=1),
                   difference.std(ddof=1), reps - int(feasible.sum())]
            lines.append(",".join(map(str, row)))
    return lines


def asymptotics_lines() -> list[str]:
    """The whole table: every model, norm order and n, then the ``RERUN`` row."""
    lines = [TABLE_HEADER]
    for label, (_, orders) in MODELS.items():
        for p in orders:
            for n, ks, reps in ASYMPTOTICS:
                lines += asymptotic_rows(label, p, n, ks, reps)
    label, p, n, k, reps = RERUN
    return lines + asymptotic_rows(label, p, n, (k,), reps)


def fingerprint() -> dict:
    """The numpy version and the SIMD targets that ``np.show_runtime()``
    reports: the build and CPU dispatch decide the last bits of sin, cos,
    arctan, exp and log."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_found": [name for name in umath.__cpu_dispatch__ if features.get(name)],
    }


def run(command: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command line, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(command.split())
    return code, out.getvalue().encode(), err.getvalue().encode()


def write_inputs() -> None:
    """Write ``SAMPLES`` into the working directory, and ``tied.csv``: the
    logistic sample rounded to one decimal."""
    for command in SAMPLES:
        if run(command)[0] != 0:
            raise RuntimeError(f"input command failed: {command}")
    values = read_sample("logistic.csv").values
    np.savetxt("tied.csv", values, fmt="%.1f", delimiter=",", header="x1,x2", comments="")


_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:inf|nan)\b|[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
)
_INTEGER = re.compile(r"[-+]?\d+")


def values_match(got: str, want: str, rel: float = 1e-12) -> bool:
    """Whether two outputs agree as values: the same lines, the same text
    between numbers, integers equal, and floats within ``rel`` relative.
    Floats both below ``rel`` in magnitude also agree: there they are
    rounding residues (solver residuals), whose digits carry no value."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for a_line, b_line in zip(got_lines, want_lines):
        if _NUMBER.split(a_line) != _NUMBER.split(b_line):
            return False
        for a, b in zip(_NUMBER.findall(a_line), _NUMBER.findall(b_line)):
            if a == b:
                continue
            if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
                return False
            x, y = float(a), float(b)
            if not (abs(x - y) <= rel * max(abs(x), abs(y)) or max(abs(x), abs(y)) < rel):
                return False
    return True


def main() -> None:
    records = {}
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            write_inputs()
            for name, command in COMMANDS.items():
                code, out, err = run(command)
                (HERE / f"{name}.out.gz").write_bytes(gzip.compress(out, 9, mtime=0))
                (HERE / f"{name}.err").write_bytes(err)
                records[name] = {"command": command, "exit": code}
        finally:
            os.chdir(cwd)
    for path in [*HERE.glob("*.out.gz"), *HERE.glob("*.err")]:
        if path.name.removesuffix(".gz").rsplit(".", 1)[0] not in records:
            path.unlink()
    index = {"fingerprint": fingerprint(), "records": records}
    INDEX.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    size = sum(path.stat().st_size for path in [INDEX, *HERE.glob("*.out.gz"), *HERE.glob("*.err")])
    print(f"{len(records)} records, {size} bytes in {HERE}")
    lines = asymptotics_lines()
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines) - 1} rows in {TABLE}")


if __name__ == "__main__":
    main()
