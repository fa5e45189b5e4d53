"""Ranks, pseudo-observations, and the two-column text format."""

import io
import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeasure import pseudo_obs
from specmeasure.empirical import select_extremes
from specmeasure.models import asym_logistic_model
from specmeasure.pseudo_obs import (
    BivariateSample,
    InputError,
    ParseError,
    _tails,
    format_value,
    read_sample,
    write_sample,
)

from oracles import rank_oracle, sample_text_oracle


def sample_of(rows):
    return BivariateSample(np.asarray(rows, dtype=float))


class Piped(io.StringIO):
    """Text that reports itself non-seekable, as a pipe does."""

    def seekable(self):
        return False


def read_outcome(stream):
    """The values read_sample returns as bytes, or its exception type and message."""
    try:
        return read_sample(stream).values.tobytes()
    except (ParseError, InputError) as exc:
        return type(exc), str(exc)


#: numeric tokens in the forms float() and np.loadtxt may read differently
AWKWARD = st.sampled_from(
    ["+.5", "1.", "-0", "1e400", "-1E-400", "1_0", "0x10", "1d5", "infinity", "-Inf", "nan",
     "NaN", "\u0661\u0662", "\u0662.5", " 7 ", "", "x", "1e", "--1"]
)
PLAIN = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.integers(-10**20, 10**20).map(str))
TOKENS = st.one_of(*[PLAIN] * 15, AWKWARD)
SEPARATORS = st.sampled_from([",", ", ", " ,", " ", "  ", "\t", " \t"])
HEADERS = st.sampled_from([None, None, "loss,alae", "x1 x2", "loss", "a,b,c", "1,b", "id,5"])


@st.composite
def sample_texts(draw):
    """Records with one file-wide separator, some lines off the pattern."""
    separator = draw(SEPARATORS)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record"] * 12 + ["odd", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# c", " #", "#1,2"])))
        else:
            size = 2 if kind == "record" else draw(st.sampled_from([1, 2, 3]))
            sep = separator if kind == "record" else draw(SEPARATORS)
            comment = draw(st.sampled_from(["", "", "", " # note", "#2,3"]))
            lines.append(sep.join(draw(st.lists(TOKENS, min_size=size, max_size=size))) + comment)
    header = draw(HEADERS)
    if header is not None:
        lines.insert(min(draw(st.sampled_from([0, 0, 0, 0, 1, 2])), len(lines)), header)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", "# loss data", "  # x,y"])))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


def every_m(values):
    """The ranks from the top of every row: the tail at a cut past n."""
    rows, m, _ = _tails([BivariateSample(values)], len(values) + 1)
    np.testing.assert_array_equal(rows, np.arange(len(values)))
    return m


def oracle_m(values):
    """m = n + 1 - R from the counting definition of the ranks."""
    return len(values) + 1 - np.column_stack([rank_oracle(col) for col in values.T])


def assert_ranks(got, want):
    """Ranks equal as integers, handed out as int64."""
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestRanks:
    def test_sorted_column(self):
        m = every_m(np.array([[10.0, 30.0], [20.0, 20.0], [30.0, 10.0]]))
        assert_ranks(m, [[3, 1], [2, 2], [1, 3]])

    def test_pseudo_observations_hand_case(self):
        sample = sample_of([[10, 10], [20, 20], [30, 30]])
        assert_ranks(_tails([sample], 4)[1], [[3, 3], [2, 2], [1, 1]])
        assert not sample.tie_flag

    def test_single_row(self):
        assert_ranks(every_m(np.array([[3.5, -2.0]])), [[1, 1]])

    def test_matches_counting_definition(self):
        rng = np.random.default_rng(5150)
        for _ in range(25):
            values = rng.integers(0, 12, size=(40, 2)).astype(float)  # many ties
            assert_ranks(every_m(values), oracle_m(values))

    def test_ties_get_maximal_rank(self):
        # ranks 3, 3, 1 in the first column
        m = every_m(np.array([[5.0, 1.0], [5.0, 2.0], [1.0, 3.0]]))
        assert_ranks(m[:, 0], [1, 1, 3])

    def test_column_sum_without_ties(self):
        rng = np.random.default_rng(99)
        n = 101
        m = every_m(rng.standard_normal((n, 2)))
        assert_ranks(m.sum(axis=0), [n * (n + 1) // 2] * 2)

    def test_monotone_transform_bitwise_invariance(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(-3.0, 3.0, size=(200, 2))
        base = BivariateSample(values)
        transformed = np.column_stack([np.exp(values[:, 0]), values[:, 1] ** 3])
        other = BivariateSample(transformed)
        assert_ranks(every_m(transformed), every_m(values))
        assert base.tie_flag == other.tie_flag

    def test_tie_flag_set(self):
        assert sample_of([[1, 1], [1, 2], [2, 3]]).tie_flag

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e300]), min_size=2, max_size=2),
            min_size=1,
            max_size=40,
        )
    )
    @example([[5.0, 5.0]] * 7)
    @example([[-0.0, 1.0], [0.0, 1.0]])
    def test_ranks_and_tie_flag_on_tie_heavy_columns(self, rows):
        values = np.asarray(rows, dtype=float)
        assert_ranks(every_m(values), oracle_m(values))
        tied = any(len(set(col.tolist())) < len(col) for col in values.T)
        assert BivariateSample(values).tie_flag == tied

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        distinct=st.integers(1, 60),
        special_share=st.sampled_from([0.0, 0.01, 0.2, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3000, distinct=1, special_share=0.0, seed=0)
    @example(n=2048, distinct=60, special_share=0.9, seed=1)
    def test_ranks_and_tie_flag_on_long_columns(self, n, distinct, special_share, seed):
        # long enough for the sort's large-array path, which the short
        # columns above never reach
        rng = np.random.default_rng(seed)
        pool = np.round(rng.standard_normal(distinct), 1)
        specials = np.array([3e300, -0.0, 0.0, 2e300, -2e300])
        values = np.where(
            rng.random((n, 2)) < special_share, rng.choice(specials, (n, 2)), rng.choice(pool, (n, 2))
        )
        assert_ranks(every_m(values), oracle_m(values))
        tied = any(len(set(col.tolist())) < n for col in values.T)
        assert BivariateSample(values).tie_flag == tied

    def test_single_tied_pair_sets_flag(self):
        rng = np.random.default_rng(10_000)
        values = rng.standard_normal((10_000, 2))
        assert not BivariateSample(values).tie_flag
        values[7321, 1] = values[15, 1]
        assert BivariateSample(values).tie_flag
        m = every_m(values)[:, 1]
        assert m[7321] == m[15]
        assert_ranks(m, oracle_m(values)[:, 1])


class TestTail:
    """``_tails([sample], m)`` against the counting definition of the ranks,
    at every cut m."""

    @staticmethod
    def check_every_cut(values):
        n = len(values)
        sample = BivariateSample(values)
        counts = np.column_stack([rank_oracle(col) for col in values.T])
        for m in range(1, n + 1):
            rows, ranks, _ = _tails([sample], m)
            np.testing.assert_array_equal(rows, np.flatnonzero((counts >= n + 1 - m).any(axis=1)))
            assert_ranks(ranks, n + 1 - counts[rows])
        for m in (n + 1, n + 3):  # a cut past n keeps every row
            np.testing.assert_array_equal(_tails([sample], m)[0], np.arange(n))
        # the rank-sum rule: distinct maximal ranks sum to n(n+1)/2, and a
        # tie group of size g adds g(g-1)/2
        tied = any(int(col.sum()) != n * (n + 1) // 2 for col in counts.T)
        assert sample.tie_flag == tied  # recorded by the last _tails
        assert BivariateSample(values).tie_flag == tied  # before any _tails

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 7.25]), min_size=2, max_size=2),
            min_size=1,
            max_size=30,
        )
    )
    @example([[3.5, -2.0]])
    @example([[5.0, 5.0]] * 7)
    @example([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]])
    def test_tie_heavy_columns(self, rows):
        self.check_every_cut(np.asarray(rows, dtype=float))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300), distinct=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_longer_columns(self, n, distinct, seed):
        rng = np.random.default_rng(seed)
        pool = np.round(rng.standard_normal(distinct), 2)
        self.check_every_cut(rng.choice(pool, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2)))


@pytest.fixture(scope="class", params=[2, 7, 64])
def small_pieces(request):
    """Columns ranked in pieces of a few values, one row chunk a pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pseudo_obs, "_PIECE", request.param)
        yield request.param


@pytest.mark.usefixtures("small_pieces")
class TestRanksInPieces(TestRanks):
    """The rank tests again, every column of more than a few values in pieces."""


@pytest.mark.usefixtures("small_pieces")
class TestTailInPieces(TestTail):
    """The tail tests again, every column of more than a few values in pieces."""


def distinct_with(n, seed, *groups):
    """n distinct values with, in random rows, each (value, size) group."""
    rng = np.random.default_rng(seed)
    column = rng.permutation(n).astype(float) - n / 2 + 0.5
    rows = rng.permutation(n)
    start = 0
    for value, size in groups:
        column[rows[start : start + size]] = value
        start += size
    return column


class TestPieceBoundaries:
    """Ranks and tie flags across the edges of pieces and of row chunks,
    against the counting definition at every cut."""

    @pytest.mark.parametrize("piece, chunk", [(2, 3), (7, 2), (7, 5), (64, 16)])
    @pytest.mark.parametrize(
        "column",
        [
            np.full(30, 2.5),  # one value: every piece edge collapses
            distinct_with(30, 1, (-0.0, 5), (0.0, 6)),  # -0.0 and 0.0 at an edge
            distinct_with(30, 2, (-0.0, 1), (0.0, 1)),
            distinct_with(40, 3, (7.0, 15)),  # a tie group longer than a piece
            distinct_with(40, 4, (1.5, 9), (-4.0, 8), (20.0, 3)),
        ],
        ids=["all-equal", "zeros-both-signs", "one-zero-each", "long-tie-group", "tie-groups"],
    )
    def test_every_cut(self, column, piece, chunk, monkeypatch):
        monkeypatch.setattr(pseudo_obs, "_PIECE", piece)
        monkeypatch.setattr(pseudo_obs, "_CHUNK", chunk)
        other = distinct_with(column.size, 5)
        TestTail.check_every_cut(np.column_stack([column, other]))
        TestTail.check_every_cut(np.column_stack([other, column]))

    @pytest.mark.parametrize("chunk", [3, 1 << 15])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_one_piece_or_two(self, offset, chunk, monkeypatch):
        # a column of _PIECE values is one sorted piece, one more makes two
        monkeypatch.setattr(pseudo_obs, "_PIECE", 64)
        monkeypatch.setattr(pseudo_obs, "_CHUNK", chunk)
        rng = np.random.default_rng(64 + offset)
        values = np.round(rng.standard_normal((64 + offset, 2)), 1)
        TestTail.check_every_cut(values)

    def test_default_pieces_against_counts(self):
        # 2 _PIECE + 1 rows: three pieces a column at the default size;
        # the ranks of the tail rows by counting, and a tie placed far apart
        n = 2 * pseudo_obs._PIECE + 1
        values = np.random.default_rng(2009).standard_normal((n, 2))
        for m in [1, 2, 401]:
            sample = BivariateSample(values)
            rows, ranks, _ = _tails([sample], m)
            cuts = np.sort(values, axis=0)[n - m]
            np.testing.assert_array_equal(rows, np.flatnonzero((values >= cuts).any(axis=1)))
            counts = np.column_stack([rank_oracle(col, col[rows]) for col in values.T])
            assert_ranks(ranks, n + 1 - counts)
            assert not sample.tie_flag
        values[n - 1, 1] = values[0, 1]
        assert BivariateSample(values).tie_flag


#: values of tie-heavy columns: signed zeros and repeats
TIED_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 7.25])


@st.composite
def batches(draw):
    """Samples of one size n, tie-heavy, some with a column of one value."""
    n = draw(st.integers(1, 30))
    samples = []
    for _ in range(draw(st.integers(1, 5))):
        values = np.array(draw(st.lists(TIED_VALUES, min_size=2 * n, max_size=2 * n)))
        values = values.reshape(n, 2)
        if draw(st.booleans()):
            values[:, draw(st.integers(0, 1))] = draw(TIED_VALUES)
        samples.append(values)
    return samples


class TestTailBatches:
    """``pseudo_obs._tails`` on a batch of samples of one size: each sample's
    rows, int64 ranks and tie flag are those of its batch of one, and its
    ranks those of the counting definition, at the default ``_PIECE``
    (the batch ranked as one array) and at a small one (in pieces)."""

    @staticmethod
    def check(samples, m):
        batch = [BivariateSample(values) for values in samples]
        rows, ranks, size = _tails(batch, m)
        bounds = np.concatenate(([0], np.cumsum(size)))
        for sample, values, lo, hi in zip(batch, samples, bounds[:-1], bounds[1:]):
            alone = BivariateSample(values)
            alone_rows, alone_ranks, _ = _tails([alone], m)
            np.testing.assert_array_equal(rows[lo:hi], alone_rows)
            assert_ranks(ranks[lo:hi], alone_ranks)
            assert sample.tie_flag == alone.tie_flag
            counts = np.column_stack([rank_oracle(col) for col in values.T])
            assert_ranks(ranks[lo:hi], len(values) + 1 - counts[alone_rows])

    @pytest.mark.parametrize("piece", [None, 7])
    @settings(max_examples=60, deadline=None)
    @given(samples=batches(), cut=st.integers(1, 40))
    @example(samples=[np.full((9, 2), 2.5), np.arange(18.0).reshape(9, 2)], cut=3)
    @example(samples=[np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]])] * 3, cut=1)
    def test_batch_is_its_samples(self, piece, samples, cut):
        with pytest.MonkeyPatch.context() as patch:
            if piece is not None:
                patch.setattr(pseudo_obs, "_PIECE", piece)
            self.check(samples, cut)

    def test_default_batch_against_counts(self):
        # the sweep's batch at the paper's size: 16 samples of 1000 rows,
        # two of them rounded to one decimal for ties
        rng = np.random.default_rng(31)
        samples = [rng.standard_normal((1000, 2)) for _ in range(16)]
        samples[3], samples[11] = np.round(samples[3], 1), np.round(samples[11], 1)
        self.check(samples, 401)


class TestSampleValidation:
    def test_wrong_shape(self):
        with pytest.raises(InputError, match=r"\(n, 2\)"):
            BivariateSample(np.zeros((3, 3)))

    def test_empty(self):
        with pytest.raises(InputError):
            BivariateSample(np.zeros((0, 2)))

    def test_non_finite_cites_position(self):
        with pytest.raises(InputError, match="row 2, column 1"):
            sample_of([[1.0, 2.0], [math.nan, 3.0]])


class TestTextFormat:
    def test_header_skipped(self):
        sample = read_sample(io.StringIO("loss,alae\n1500,301.5\n2000,70.2\n"))
        assert sample.n == 2
        np.testing.assert_allclose(sample.values[0], [1500.0, 301.5])

    def test_no_header_needed(self):
        sample = read_sample(io.StringIO("1,2\n3,4\n"))
        assert sample.n == 2

    def test_malformed_line_cited(self):
        text = "a,b\n1,2\n3,4\n5,6\n7,8,9\n"
        with pytest.raises(ParseError, match="line 5"):
            read_sample(io.StringIO(text))

    def test_non_numeric_field_cited(self):
        with pytest.raises(ParseError, match="line 2"):
            read_sample(io.StringIO("1,2\nx,4\n"))

    def test_header_only_is_empty(self):
        with pytest.raises(InputError, match="no data rows"):
            read_sample(io.StringIO("loss,alae\n"))

    def test_blank_lines_ignored(self):
        sample = read_sample(io.StringIO("\n1,2\n\n3,4\n\n"))
        assert sample.n == 2

    def test_whitespace_separated(self):
        sample = read_sample(io.StringIO("1.5 2\n3\t 4e1\n  -5   6  \n"))
        np.testing.assert_array_equal(sample.values, [[1.5, 2.0], [3.0, 40.0], [-5.0, 6.0]])

    def test_comma_and_whitespace_rows_mix(self):
        sample = read_sample(io.StringIO("1, 2\n3 4\n"))
        np.testing.assert_array_equal(sample.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_whole_line_comments_ignored(self):
        sample = read_sample(io.StringIO("# losses\n1 2\n  # note\n3 4\n#\n"))
        np.testing.assert_array_equal(sample.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_trailing_comments_ignored(self):
        sample = read_sample(io.StringIO("1,2 # first\n3 4#second\n"))
        np.testing.assert_array_equal(sample.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_header_skipped(self):
        sample = read_sample(io.StringIO("# comment\nloss alae\n1 2\n"))
        np.testing.assert_array_equal(sample.values, [[1.0, 2.0]])

    def test_bad_whitespace_row_cited(self):
        message = "line 4: expected 2 whitespace-separated fields, found 3"
        with pytest.raises(ParseError, match=message):
            read_sample(io.StringIO("# c\n1 2\n\n3 4 5\n"))
        with pytest.raises(ParseError, match="line 3: non-numeric"):
            read_sample(io.StringIO("1 2\n# c\nx 4\n"))

    @settings(max_examples=400, deadline=None)
    @given(sample_texts())
    @example("loss,alae\n1,2\n3,4\n")
    @example("# c\n1 2\n\n3\t4e1 # x\n")
    @example("1,2\r3,4\n")
    @example("1_0,2\n\u0661,3\n")
    def test_fast_path_matches_line_parser(self, text):
        # a StringIO is seekable and takes the loadtxt path; the same text
        # piped goes through the line parser alone
        assert read_outcome(io.StringIO(text)) == read_outcome(Piped(text))

    def test_late_bad_row_falls_back_to_cited_line(self, tmp_path):
        rows = [f"{i},{i / 7!r}" for i in range(10_000)]
        rows[6999] += ",1"
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
        message = "line 7001: expected 2 comma-separated fields, found 3"
        with pytest.raises(ParseError, match=message):
            read_sample(str(path))

    def test_piped_header_and_whitespace_rows(self):
        sample = read_sample(Piped("loss alae\n1.5 2\n  \n3\t4 # c\n"))
        np.testing.assert_array_equal(sample.values, [[1.5, 2.0], [3.0, 4.0]])

    def test_header_only_file_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("loss,alae\n# nothing yet\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match="no data rows found"):
                read_sample(str(path))
        assert caught == []

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = np.exp(rng.standard_normal((50, 2)) * 8.0)
        path = tmp_path / "sample.csv"
        write_sample(BivariateSample(values), path)
        back = read_sample(str(path))
        assert np.array_equal(back.values, values)

    def test_format_value_round_trips(self):
        for x in [1.0, math.pi, 1e-300, 3e300, 2.0 / 3.0, 123456.789]:
            assert float(format_value(x)) == x


def oracle_outcome(text):
    """What read_sample should do with ``text``, by the line-by-line oracle."""
    rows = sample_text_oracle(text)
    if isinstance(rows, int):
        return ParseError, rows
    values = np.array(rows, dtype=float).reshape(-1, 2)
    if not len(values) or not np.isfinite(values).all():
        return InputError
    return values.tobytes()


def small_batch_outcome(stream):
    """read_sample's outcome with 3-line batches, in the form of oracle_outcome."""
    with mock.patch.object(pseudo_obs, "_BATCH", 3):
        try:
            return read_sample(stream).values.tobytes()
        except ParseError as exc:
            return ParseError, exc.lineno
        except InputError:
            return InputError


def numbered_rows(count):
    return [f"{i},{i / 7!r}" for i in range(count)]


class TestBatchedRead:
    """Line batches, each C-parsed or, when that parse rejects it, line-parsed."""

    @settings(max_examples=400, deadline=None)
    @given(sample_texts(), st.booleans())
    @example("1,2\n3,4\n5,6\n7,8\n", False)
    @example("# a\n\n# b\nid,5\n1,2\n3,4,5\n", False)
    @example("1,2\n3,4\n\n   \n5,6\n", True)
    def test_matches_oracle_across_batches(self, text, bom):
        text = "\ufeff" + text if bom else text
        assert small_batch_outcome(io.StringIO(text)) == oracle_outcome(text)

    @pytest.mark.parametrize(
        "lines, bad",
        [
            (["1,2", "3,4,5"] + numbered_rows(8), 2),  # in the first batch
            (numbered_rows(9) + ["x,1"], 10),  # in the last batch
            (numbered_rows(3) + ["3,x"] + numbered_rows(5), 4),  # a batch's first line
            (["x1,x2"] + numbered_rows(3) + ["1,2,3"] + numbered_rows(5), 5),  # after a header
        ],
        ids=["first-batch", "last-batch", "batch-first-line", "header-shifted"],
    )
    def test_bad_row_cited(self, lines, bad):
        text = "\n".join(lines) + "\n"
        assert small_batch_outcome(io.StringIO(text)) == (ParseError, bad)
        assert small_batch_outcome(Piped(text)) == (ParseError, bad)

    def test_header_only_file(self):
        assert small_batch_outcome(io.StringIO("loss,alae\n# none\n\n# yet\n")) == InputError
        assert small_batch_outcome(io.StringIO("# only\n\n# comments\n   \n")) == InputError

    def test_first_record_in_second_batch(self):
        lead = "# loss data\n\n  # x,y\n\n"
        sample = small_batch_outcome(io.StringIO(lead + "loss alae\n1 2\n3 4\n5\t6\n"))
        assert sample == np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).tobytes()
        assert small_batch_outcome(io.StringIO(lead + "1,2\n3,4\n5\n")) == (ParseError, 7)

    @pytest.mark.parametrize(
        "odd, where", [("   ", 9), ("20,1,2", 20)], ids=["whitespace-line", "bad-last-row"]
    )
    def test_odd_line_costs_one_batch(self, odd, where):
        lines = numbered_rows(20)
        lines.insert(where, odd)
        text = "\n".join(lines) + "\n"
        parse_lines = pseudo_obs._parse_lines
        offsets = []

        def counted(batch, offset):
            offsets.append(offset)
            return parse_lines(batch, offset)

        with mock.patch.object(pseudo_obs, "_parse_lines", counted):
            assert small_batch_outcome(io.StringIO(text)) == oracle_outcome(text)
        assert offsets == [where // 3 * 3]

    @pytest.mark.parametrize("header", ["", "x1,x2\n"], ids=["no-header", "header"])
    def test_byte_order_mark_ignored(self, header, tmp_path):
        text = "\ufeff" + header + "1,2\n3,4\n5,6\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        want = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        for source in [str(path), io.StringIO(text), Piped(text)]:
            np.testing.assert_array_equal(read_sample(source).values, want)

    def test_reads_past_two_batches_from_every_source(self, tmp_path, monkeypatch):
        # a stream's buffer starts at one batch and doubles; a file's is
        # sized from its line ends, "\r" and "\n" alike, and never grows
        monkeypatch.setattr(pseudo_obs, "_BATCH", 4)
        lines = ["x1,x2"] + numbered_rows(6) + ["", "# gap"] + numbered_rows(9)
        want = np.array([[float(i), i / 7] for i in [*range(6), *range(9)]])
        for ending in ["\n", "\r", "\r\n"]:
            text = ending.join(lines) + ending
            path = tmp_path / "rows.csv"
            path.write_bytes(text.encode())
            sample = read_sample(str(path))
            assert sample.values.tobytes() == want.tobytes()
            assert sample.values.base.shape == (text.count("\r") + text.count("\n") + 1, 2)
            for stream in [io.StringIO(text, newline=None), Piped(text, newline=None)]:
                assert read_sample(stream).values.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_path(self, tmp_path, monkeypatch):
        # a path that is a pipe is read once: its lines are not counted first
        monkeypatch.setattr(pseudo_obs, "_BATCH", 4)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        text = "x1,x2\n" + "\n".join(numbered_rows(10)) + "\n"
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            values = read_sample(str(path)).values
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(values, [[float(i), i / 7] for i in range(10)])


class TestMemory:
    """The sample is held once: reading it and ranking its tail allocate
    little beyond the parsed array (tracemalloc peaks, which count the
    sample once it is read)."""

    def test_read_and_select_peaks(self, tmp_path):
        path = tmp_path / "logistic.csv"
        write_sample(asym_logistic_model(2.0).sample(200_000, np.random.default_rng(2009)), path)
        tracemalloc.start()
        try:
            sample = read_sample(str(path))
            read_peak = tracemalloc.get_traced_memory()[1]
            select_peaks = []
            for p in [1.0, 2.0, math.inf]:
                tracemalloc.reset_peak()
                select_extremes(sample, 1000, p)
                assert not sample.tie_flag
                select_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        size = sample.values.nbytes
        # one parsed copy and a batch of lines: 1.54 times the sample; a
        # list of batches and its concatenation peaked at 4.6 times, and a
        # bool copy of the sample and batches twice as long at 2.07
        assert read_peak < 1.75 * size
        # the sample and one piece of a column at a time: 1.62 times; a
        # sorted column at a time peaked at 1.67, both sorted at 2.2 to 3.1
        assert max(select_peaks) < 1.7 * size

    def test_selection_beside_a_large_sample(self):
        # 1e6 rows in memory: a selection holds about _PIECE values of a
        # column at a time, 0.12 times the sample; sorting each column into
        # one transient copy peaked at 0.63 times
        sample = asym_logistic_model(2.0).sample(1_000_000, np.random.default_rng(29))
        tracemalloc.start()
        try:
            for p in [1.0, 2.0, math.inf]:
                tracemalloc.reset_peak()
                select_extremes(sample, 1000, p)
                assert tracemalloc.get_traced_memory()[1] < 0.25 * sample.values.nbytes
        finally:
            tracemalloc.stop()
