"""Rank-based pseudo-observations and plain-text sample I/O.

Raw bivariate data enter the estimators only through their within-column
ranks, so every quantity computed downstream is invariant under strictly
increasing transformations of either margin.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

__all__ = [
    "InputError",
    "ParseError",
    "BivariateSample",
    "PseudoObservations",
    "column_ranks",
    "pseudo_observations",
    "read_sample",
    "write_sample",
]

PathOrStream = Union[str, os.PathLike, IO[str]]


class InputError(ValueError):
    """Raised for structurally valid input whose values are unusable."""


class ParseError(ValueError):
    """Raised for malformed text records; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class BivariateSample:
    """An n-by-2 array of finite raw observations."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 2:
            raise InputError(f"sample must have shape (n, 2), got {values.shape}")
        if values.shape[0] < 1:
            raise InputError("sample must contain at least one row")
        bad = ~np.isfinite(values)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise InputError(
                f"non-finite value {values[row, col]!r} at row {row + 1}, column {col + 1}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PseudoObservations:
    """Per-column pseudo-observations u_ij = (n + 1 - R_ij) / n.

    R_ij is the maximal rank ``#{l : x_lj <= x_ij}``, so ties share the
    larger rank and ``tie_flag`` records whether any column had ties.
    Every u_ij lies in (0, 1]; large observations map to small u.
    """

    u: np.ndarray
    tie_flag: bool

    @property
    def n(self) -> int:
        return self.u.shape[0]


def column_ranks(column: np.ndarray) -> np.ndarray:
    """Ranks R_i = #{l : x_l <= x_i} from one stable argsort, O(n log n).

    A tie group ends in sorted order where the next value differs; its
    members all get that end's position + 1, the maximal rank (-0.0 and
    0.0 tie; NaNs sort last and share rank n), as counting would give.
    """
    column = np.asarray(column, dtype=float)
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    differ = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    ends = np.append(np.flatnonzero(differ) + 1, column.size)
    ranks = np.empty(column.size, dtype=np.int64)
    ranks[order] = np.repeat(ends, np.diff(ends, prepend=0))
    return ranks


def pseudo_observations(sample: BivariateSample) -> PseudoObservations:
    """Map a raw sample to rank-based pseudo-observations.

    Each column sums to (n + 1) / 2 when the column has no ties.
    """
    values = sample.values
    n = sample.n
    u = np.empty_like(values)
    tie = False
    for j in range(2):
        ranks = column_ranks(values[:, j])
        u[:, j] = (n + 1 - ranks) / n
        # distinct maximal ranks are a permutation of 1..n; a tied group
        # of size g shares its largest rank and adds g(g-1)/2 to the sum
        tie = tie or int(ranks.sum()) != n * (n + 1) // 2
    return PseudoObservations(u=u, tie_flag=tie)


def read_sample(source: PathOrStream) -> BivariateSample:
    """Read a two-column text sample.

    One record per line, two numeric fields separated by a comma or by
    whitespace; spaces around a comma-separated field are tolerated.
    Blank lines and everything from a ``#`` to the end of its line are
    ignored.  The first record is skipped as a header when it does not
    parse and its first field is not numeric.

    Seekable input (a path, a StringIO) is parsed in C by np.loadtxt; what
    that parse does not accept cleanly is read again by the line parser,
    which alone reports errors.  Piped input goes to the line parser only.

    Raises
    ------
    ParseError
        If a data row does not contain exactly two numeric fields; the
        message cites the 1-based line number.
    InputError
        If no data rows remain, or a parsed value is not finite.
    """
    if hasattr(source, "read"):
        return _read_stream(source)
    with open(source, "r", encoding="utf-8") as handle:
        return _read_stream(handle)


def _read_stream(stream: IO[str]) -> BivariateSample:
    if stream.seekable():
        start = stream.tell()
        values = _read_fast(stream, start)
        if values is not None:
            return BivariateSample(values)
        stream.seek(start)
    rows: list[tuple[float, float]] = []
    skipped_header = False
    for lineno, line in enumerate(stream, start=1):
        parts, comma = _fields(line)
        if not parts:
            continue
        if len(parts) == 2:
            try:
                rows.append((float(parts[0]), float(parts[1])))
                continue
            except ValueError:
                problem = f"non-numeric field in record {line.strip()!r}"
        else:
            kind = "comma" if comma else "whitespace"
            problem = f"expected 2 {kind}-separated fields, found {len(parts)}"
        # no row and no header yet: this is the first record
        if not rows and not skipped_header and not _is_number(parts[0]):
            skipped_header = True
            continue
        raise ParseError(problem, lineno)
    if not rows:
        raise InputError("no data rows found")
    return BivariateSample(np.array(rows, dtype=float))


def _read_fast(stream: IO[str], start: int) -> np.ndarray | None:
    """The (n, 2) array np.loadtxt reads past any header, split as the first
    record is; None leaves the stream to the line parser."""
    for line in iter(stream.readline, ""):
        parts, comma = _fields(line)
        if parts:
            break
    else:
        return None
    if _is_number(parts[0]):  # not a header
        stream.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(stream, delimiter="," if comma else None, comments="#", ndmin=2)
    except (ValueError, Warning):
        return None
    return values if values.shape[0] >= 1 and values.shape[1] == 2 else None


def _fields(line: str) -> tuple[list[str], bool]:
    """The fields of one line with its comment removed, and whether a comma split them."""
    if "#" in line:
        line = line[: line.index("#")]
    comma = "," in line
    return (line.split(",") if comma else line.split()), comma


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def format_value(x: float) -> str:
    """17-significant-digit decimal form; float64 round-trips exactly."""
    return format(float(x), ".17g")


def write_sample(sample: BivariateSample, dest: PathOrStream, header: str = "x1,x2") -> None:
    """Write a sample in the same format accepted by :func:`read_sample`."""
    lines = [header]
    lines.extend(f"{format_value(a)},{format_value(b)}" for a, b in sample.values)
    write_text(dest, "\n".join(lines) + "\n")


def write_text(dest: PathOrStream, text: str) -> None:
    """Write ``text`` to an open stream, or to a path as UTF-8."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text)
