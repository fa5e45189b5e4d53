"""Output checks against references recorded from the baseline library.

A check returns a list of problems; an empty list means the output is
correct.  References are plain JSON, one file per workload, keyed by
input seed and operation label.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: relative tolerance on MISE and its standard error.  A truth-cdf
#: change of delta moves an ISE by about 2 delta / sqrt(ISE) relatively,
#: so 1e-10-level truth changes (closed forms replacing quadrature) stay
#: below 1e-8, while a truth shifted by 1e-4 moves it by more than 1e-3.
MISE_RTOL = 1e-6
#: tolerance on CLI output values, which the estimators fix exactly
CLI_RTOL = 1e-9
CLI_ATOL = 1e-12
#: moment-sum contract of the MELE spectral measure
MOMENT_TOL = 1e-8
#: CLI output rows kept in a reference, evenly spaced, ends included
SAMPLED_ROWS = 33


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def save_reference(workload: str, reference: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, allow_nan=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# MISE tables


def mise_reference(table) -> dict:
    return {
        "k": [int(k) for k in table.k_grid],
        "mise": table.mise.tolist(),
        "stderr": table.stderr.tolist(),
        "infeasible": table.infeasible.tolist(),
    }


def check_mise(table, ref: dict) -> list:
    problems = []
    if [int(k) for k in table.k_grid] != ref["k"]:
        return [f"k grid {list(table.k_grid)} differs from the reference {ref['k']}"]
    if table.infeasible.tolist() != ref["infeasible"]:
        problems.append("infeasible counts differ from the reference")
    for name in ("mise", "stderr"):
        got = getattr(table, name)
        want = np.asarray(ref[name], dtype=float)
        if not np.all(np.isfinite(got)):
            problems.append(f"non-finite {name} values")
        elif got.shape != want.shape or not np.allclose(got, want, rtol=MISE_RTOL, atol=0.0):
            worst = math.inf
            if got.shape == want.shape:
                worst = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
            problems.append(f"{name} differs from the reference by {worst:.3g} relative")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs


def _parse_csv(data: bytes):
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header, values


def _sample_index(rows: int) -> np.ndarray:
    return np.unique(np.linspace(0, rows - 1, SAMPLED_ROWS).round().astype(int))


def cli_reference(code, data: bytes) -> dict:
    ref = {"exit_code": code, "sha256": hashlib.sha256(data).hexdigest()}
    if code == 0:
        header, values = _parse_csv(data)
        ref.update(
            header=header,
            rows=int(values.shape[0]),
            sampled=values[_sample_index(values.shape[0])].tolist(),
            column_sums=[math.fsum(col) for col in values.T],
        )
    return ref


def _norm(s, c, p):
    if math.isinf(p):
        return np.maximum(np.abs(s), np.abs(c))
    return (np.abs(s) ** p + np.abs(c) ** p) ** (1.0 / p)


def _check_estimate(header: str, values: np.ndarray, p: float) -> list:
    problems = []
    names = header.split(",")
    theta = values[:, 0]
    if not (np.all(np.diff(theta) > 0.0) and theta[0] > 0.0 and theta[-1] < math.pi / 2):
        problems.append("atoms do not increase strictly inside (0, pi/2)")
    if "weight_mele" in names:
        w = values[:, names.index("weight_mele")]
        s, c = np.sin(theta), np.cos(theta)
        norm = _norm(s, c, p)
        for label, part in (("sin", s), ("cos", c)):
            total = math.fsum(w * part / norm)
            if abs(total - 1.0) > MOMENT_TOL:
                problems.append(f"mele {label} moment sum {total!r} is not 1")
    return problems


def _check_pickands(values: np.ndarray) -> list:
    v, a = values[:, 0], values[:, 1]
    tol = MOMENT_TOL
    problems = []
    if v[0] != 0.0 or v[-1] != 1.0 or np.any(np.diff(v) <= 0.0):
        problems.append("knots do not increase strictly from 0 to 1")
    if np.any(a > 1.0 + tol) or np.any(a < np.maximum(v, 1.0 - v) - tol):
        problems.append("A leaves the band max(v, 1 - v) <= A <= 1")
    if abs(a[0] - 1.0) > tol or abs(a[-1] - 1.0) > tol:
        problems.append("A(0) and A(1) are not 1")
    return problems


def check_cli(kind: str, p: float, code, data: bytes, ref: dict) -> tuple:
    """Problems with one command's output, and whether its bytes equal
    the reference's (reported as a count, not as a failure)."""
    identical = hashlib.sha256(data).hexdigest() == ref["sha256"]
    if code != ref["exit_code"]:
        return [f"exit code {code}, reference {ref['exit_code']}"], identical
    if code != 0:
        return [], identical
    try:
        header, values = _parse_csv(data)
    except ValueError as exc:
        return [f"unparsable output: {exc}"], identical
    if header != ref["header"] or values.shape[0] != ref["rows"]:
        return [f"header or row count differ from the reference ({values.shape[0]} rows)"], identical
    if kind == "estimate":
        problems = _check_estimate(header, values, p)
    else:
        problems = _check_pickands(values)
    sampled = values[_sample_index(values.shape[0])]
    if not np.allclose(sampled, ref["sampled"], rtol=CLI_RTOL, atol=CLI_ATOL):
        problems.append("sampled rows differ from the reference")
    sums = [math.fsum(col) for col in values.T]
    if not np.allclose(sums, ref["column_sums"], rtol=CLI_RTOL, atol=CLI_ATOL):
        problems.append("column sums differ from the reference")
    return problems, identical
