"""Raw samples, the ranks of their pseudo-observations, and text I/O.

Raw bivariate data enter the estimators only through their within-column
ranks, so every quantity computed downstream is invariant under strictly
increasing transformations of either margin.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

__all__ = [
    "InputError",
    "ParseError",
    "BivariateSample",
    "read_sample",
    "write_sample",
]

PathOrStream = Union[str, os.PathLike, IO[str]]

#: lines per np.loadtxt call; a batch it rejects goes to the line parser
_BATCH = 1 << 13
#: about the most values of a column that a tail sorts at once
_PIECE = 1 << 17
#: rows per step of a pass over the sample
_CHUNK = 1 << 15


class InputError(ValueError):
    """Raised for structurally valid input whose values are unusable."""


class ParseError(ValueError):
    """Raised for malformed text records; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class BivariateSample:
    """An n-by-2 array of finite raw observations, seen by the estimators only
    through its ranks from the top m_ij = n + 1 - R_ij (:func:`_tails`): R_ij
    is the maximal rank ``#{l : x_lj <= x_ij}``, so ties share the larger R,
    and ``tie_flag``, recorded by every rank pass, tells whether any did."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 2:
            raise InputError(f"sample must have shape (n, 2), got {values.shape}")
        if values.shape[0] < 1:
            raise InputError("sample must contain at least one row")
        for start in range(0, values.shape[0], _CHUNK):  # bool temporaries of one chunk
            if not np.isfinite(block := values[start : start + _CHUNK]).all():
                row, col = np.argwhere(~np.isfinite(block))[0] + (start, 0)
                raise InputError(
                    f"non-finite value {values[row, col]!r} at row {row + 1}, column {col + 1}"
                )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def tie_flag(self) -> bool:
        """Whether a column has equal values; every rank pass records it."""
        _tails([self], 1)
        return self.tie_flag  # now an instance attribute, set by _tails


def _tails(batch: list, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each sample of a batch of one size n: the increasing rows whose value
    in either column is at least that column's m-th largest (a tie group at the
    cut goes in whole; m > n keeps every row) and their int64 n + 1 - R, all
    concatenated, and each sample's number of rows; each sample records its
    ``tie_flag``.  At n <= ``_PIECE`` the batch is ranked as one array: one
    argsort of every column, whose cut is read off the sorted values and where
    R is 1 + the position of the last value equal to x_ij; a longer column is
    ranked in pieces, a sample at a time (:func:`_tail_in_pieces`)."""
    n = batch[0].n
    if n > _PIECE:
        rows, ranks = zip(*(_tail_in_pieces(sample, m) for sample in batch))
        return np.concatenate(rows), np.concatenate(ranks), np.array([r.size for r in rows])
    columns = np.array([sample.values.T for sample in batch])  # (sample, column, row)
    # each column in increasing order, as flat positions into columns
    order = np.argsort(columns, axis=-1)
    order += np.arange(0, columns.size, n).reshape(-1, 2, 1)
    above = columns >= np.take(columns, order[:, :, n - min(m, n), None])
    hit = np.flatnonzero(above[:, 0] | above[:, 1])  # sample * n + row
    del above
    columns.sort(axis=-1)
    last = np.ones(order.size, dtype=bool)  # the last of its equal values in a column
    np.not_equal(columns.ravel()[1:], columns.ravel()[:-1], out=last[:-1])
    last[n - 1 :: n] = True
    for sample, distinct in zip(batch, last.reshape(len(batch), -1).all(axis=1).tolist()):
        object.__setattr__(sample, "tie_flag", not distinct)
    ranks = columns.view(np.int64).ravel()  # R, in the sorted values' buffer
    np.put(ranks, order, np.arange(1, n + 1))  # the values repeat for each column
    tied = np.flatnonzero(~last)
    if tied.size:
        ends = np.flatnonzero(last)
        ranks[order.ravel()[tied]] = ends[np.searchsorted(ends, tied)] % n + 1
    del order
    sample = hit // n
    at = hit + sample * n  # the row's flat position in column 0, n more in column 1
    top = np.stack([n + 1 - np.take(ranks, at + j * n) for j in (0, 1)], axis=1)
    return hit - sample * n, top, np.bincount(sample, minlength=len(batch))


def _tail_in_pieces(sample: BivariateSample, m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_tails` of one sample of more than ``_PIECE`` rows, no whole
    column copied: R = ``#{l : x_lj <= x_ij}`` counted over :func:`_pieces`."""
    n, values = sample.n, sample.values
    at = n - min(m, n)
    walks = [_pieces(values[:, j]) for j in (0, 1)]
    cut0, cut1 = (_largest(values[:, j], n - at) for j in (0, 1))
    blocks = ((i, values[i : i + _CHUNK]) for i in range(0, n, _CHUNK))
    high = [i + np.flatnonzero((b[:, 0] >= cut0) | (b[:, 1] >= cut1)) for i, b in blocks]
    rows = np.concatenate(high)
    tail = np.take(values, rows, axis=0)
    ranks, tied = np.empty(tail.shape, dtype=np.int64), False
    for j, walk in enumerate(walks):
        # keys in increasing order search several times faster than in row order
        order = np.argsort(tail[:, j])
        keys, count = tail[order, j], 0
        for piece in walk:
            count = count + np.searchsorted(piece, keys, side="right")
            tied = tied or np.count_nonzero(piece[1:] == piece[:-1]) > 0
        ranks[order, j] = count
        del piece  # its buffer goes before the next column's is made
    object.__setattr__(sample, "tie_flag", tied)
    return rows, n + 1 - ranks


def _largest(column: np.ndarray, m: int) -> float:
    """The m-th largest of m or more finite values, by a top-m partition a chunk at a time."""
    top = np.full(m + _CHUNK, -np.inf)
    for start in range(0, column.size, _CHUNK):
        chunk = column[start : start + _CHUNK]
        top[m : m + chunk.size] = chunk
        top[: m + chunk.size].partition(chunk.size)
        top[:m] = top[chunk.size : m + chunk.size]
    return top[0]


def _pieces(column: np.ndarray):
    """A column's values as sorted pieces, one pass each, for disjoint half-open value
    ranges in increasing order (so equal values, -0.0 and 0.0 too, share one), their edges from
    a strided probe of 1024 values a piece, for about ``_PIECE`` values; ties can make more."""
    n, count = column.size, -(-column.size // _PIECE)
    probe = np.sort(column[:: max(1, _PIECE >> 10)])
    edges = sorted(set(probe[probe.size * np.arange(1, count) // count].tolist()))
    piece, chunk = np.empty(n // count + _CHUNK), np.empty(_CHUNK)
    for lo, hi in zip([-np.inf, *edges], [*edges, np.inf]):
        size = 0
        for start in range(0, n, _CHUNK):
            part = chunk[: min(_CHUNK, n - start)]
            part[:] = column[start : start + _CHUNK]  # compares run faster on a contiguous copy
            keep = np.compress((part >= lo) & (part < hi), part)
            if size + keep.size > piece.size:  # a heavy tie group, or an uneven probe
                piece = np.concatenate([piece[:size], np.empty(keep.size + _CHUNK)])
            piece[size : size + keep.size] = keep
            size += keep.size
        piece[:size].sort()
        yield piece[:size]


def read_sample(source: PathOrStream) -> BivariateSample:
    """Read a two-column text sample.

    One record per line, two numeric fields separated by a comma or by
    whitespace; spaces around a comma-separated field are tolerated.
    Blank lines, everything from a ``#`` to the end of its line and one
    leading byte order mark are ignored.  The first record is skipped as
    a header when its first field is not numeric.

    Every input, piped standard input included, is parsed in C by
    np.loadtxt in batches of ``_BATCH`` lines.  A batch that parse rejects
    goes to the line parser, which alone defines the format and reports
    errors, so an odd or bad row costs one batch.

    Raises
    ------
    ParseError
        If a data row does not contain exactly two numeric fields; the
        message cites the 1-based line number.
    InputError
        If no data rows remain, or a parsed value is not finite.
    """
    if hasattr(source, "read"):
        return _read_stream(source, _BATCH)
    with open(source, "r", encoding="utf-8") as handle:
        return _read_stream(handle, _line_ends(source) + 1 if handle.seekable() else _BATCH)


def _line_ends(path: Union[str, os.PathLike]) -> int:
    """The "\\n" and "\\r" bytes of a file, at least its lines less one."""
    count, data = 0, np.empty(1 << 16, dtype=np.uint8)
    with open(path, "rb") as raw:
        while size := raw.readinto(data):
            count += np.count_nonzero(data[:size] == 10) + np.count_nonzero(data[:size] == 13)
    return count


def _read_stream(stream: IO[str], size: int) -> BivariateSample:
    """Parse ``stream`` into one buffer of ``size`` rows, doubled when full,
    and return its filled prefix: a copy freed after reading would leave
    its pages resident in the heap, so a file's buffer is sized once."""
    records = iter(stream)
    records = itertools.chain([next(records, "").removeprefix("\ufeff")], records)
    for lineno, line in enumerate(records, start=1):
        parts, comma = _fields(line)
        if parts:
            break
    else:
        raise InputError("no data rows found")
    if _is_number(parts[0]):  # not a header: the first batch starts at this record
        records = itertools.chain([line], records)
        lineno -= 1
    buffer, filled = np.empty((size, 2)), 0
    while batch := list(itertools.islice(records, _BATCH)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(batch, delimiter="," if comma else None, comments="#", ndmin=2)
        except (ValueError, Warning):
            values = None
        if values is None or values.shape[1] != 2:
            values = _parse_lines(batch, lineno)
        if filled + len(values) > len(buffer):
            buffer.resize((2 * (filled + len(values)), 2), refcheck=False)
        buffer[filled : filled + len(values)] = values
        filled += len(values)
        lineno += len(batch)
    if not filled:
        raise InputError("no data rows found")
    return BivariateSample(buffer[:filled])


def _parse_lines(lines: list[str], offset: int) -> np.ndarray:
    """Rows of ``lines``, from line ``offset + 1``: the format's definition."""
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines, start=offset + 1):
        parts, comma = _fields(line)
        if not parts:
            continue
        if len(parts) != 2:
            kind = "comma" if comma else "whitespace"
            raise ParseError(f"expected 2 {kind}-separated fields, found {len(parts)}", lineno)
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"non-numeric field in record {line.strip()!r}", lineno) from None
    return np.array(rows, dtype=float).reshape(-1, 2)


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


def write_sample(sample: BivariateSample, dest: PathOrStream) -> None:
    """Write a sample, under the header row ``x1,x2``, in the same format
    accepted by :func:`read_sample`."""
    lines = ["x1,x2"]
    lines.extend(f"{format_value(a)},{format_value(b)}" for a, b in sample.values)
    write_text(dest, "\n".join(lines) + "\n")


def write_text(dest: PathOrStream, text: str) -> None:
    """Write ``text`` to an open stream, or to a path as UTF-8."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text)
