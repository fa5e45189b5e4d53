"""The committed CLI records of ``tests/golden``: every command's exit code,
stdout and stderr, byte for byte on the numpy build that recorded them,
else as parsed values.  Each test id names the comparison it ran."""

import bisect
import functools
import gzip
import itertools
import json
import math
import operator

import mpmath
import numpy as np
import pytest

from specmeasure.empirical import select_extremes
from specmeasure.evaluation import ESTIMATORS
from specmeasure.mele import mele_spectral_measure, mele_spectral_prob, spectral_normalizer
from specmeasure.models import cauchy_quadrant_model
from specmeasure.pseudo_obs import read_sample

from golden.regenerate import (
    ASYMPTOTICS,
    COMMANDS,
    HERE,
    INDEX,
    MODELS,
    RERUN,
    TABLE,
    TABLE_HEADER,
    THETA,
    asymptotic_rows,
    fingerprint,
    run,
    values_match,
    write_inputs,
)
from oracles import (
    dual_mele_oracle,
    membership_oracle,
    mise_oracle,
    rank_oracle,
    sample_text_oracle,
)
from test_evaluation import TestMiseOracle as MiseOracle

RECORDS = json.loads(INDEX.read_text(encoding="utf-8"))
#: bytes where the build matches the recording one; sin, cos, arctan, exp
#: and log may move by an ulp between numpy builds and dispatch targets
COMPARISON = "bytes" if RECORDS["fingerprint"] == fingerprint() else "values"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory holding the commands' input files."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("golden"))
        write_inputs()
        yield


def test_records_cover_the_commands():
    recorded = {name: record["command"] for name, record in RECORDS["records"].items()}
    assert recorded == COMMANDS, "stale records: run tests/golden/regenerate.py"


@pytest.mark.usefixtures("workdir")
@pytest.mark.parametrize("name", list(COMMANDS), ids=[f"{name}-{COMPARISON}" for name in COMMANDS])
def test_command_matches_its_record(name):
    code, out, err = run(COMMANDS[name])
    want_out = gzip.decompress((HERE / f"{name}.out.gz").read_bytes())
    want_err = (HERE / f"{name}.err").read_bytes()
    assert code == RECORDS["records"][name]["exit"]
    assert values_match(out.decode(), want_out.decode()), "stdout"
    assert values_match(err.decode(), want_err.decode()), "stderr"
    if COMPARISON == "bytes":
        assert out == want_out, "stdout"
        assert err == want_err, "stderr"


#: the records whose rows follow from the members' exact ranks
RANKED = [
    name
    for name in COMMANDS
    if name.startswith(("estimate_logistic_p", "estimate_tied_p", "pickands_"))
]


@pytest.fixture(scope="module")
def ranks(workdir):
    """The ranks from the top m = n + 1 - R of each input's columns, from the
    oracles' parse and quadratic-time ranks."""
    out = {}
    for source in ("logistic.csv", "tied.csv"):
        with open(source, encoding="utf-8") as f:
            values = np.array(sample_text_oracle(f.read()))
        out[source] = [values.shape[0] + 1 - rank_oracle(column) for column in values.T]
    return out


@pytest.fixture(scope="module")
def exact(ranks):
    """The exact dual MELE fit of an input's members at (k, p), each formed once."""

    @functools.cache
    def fit(source, k, p):
        m1, m2 = ranks[source]
        pairs = zip(m1.tolist(), m2.tolist())
        return dual_mele_oracle([(a, b) for a, b in pairs if membership_oracle(a, b, k, p)], p)

    return fit


def _atoms(theta, ratios):
    """The index of each angle's ratio m2/m1: the ratio whose arctangent lies
    within 2 ulps of it.  Every ratio takes at least one angle."""
    with mpmath.workdps(40):
        angle = np.array([mpmath.atan(mpmath.mpf(r.numerator) / r.denominator)
                          for r in ratios], dtype=float)
    atom = np.abs(theta[:, None] - angle).argmin(axis=1)
    assert np.all(np.abs(theta - angle[atom]) <= 2 * np.spacing(angle[atom]))
    assert np.array_equal(np.unique(atom), np.arange(len(ratios)))
    return atom


#: relative bound of a MELE weight summed per ratio against the dual oracle's;
#: the records and the library measured 1.8e-16 to 3.6e-16
MELE_RTOL = 1e-15


@pytest.mark.parametrize("name", RANKED)
def test_record_agrees_with_exact_ranks(name, exact):
    # the committed stdout against the members' ratios m2/m1 as fractions:
    # each theta within 2 ulps of the arctangent of one ratio, every ratio
    # with a row, its empirical weight multiplicity / k and its MELE weight
    # the dual oracle's, each summed over its rows, and score_f within 2 eps
    # absolute of (m2 - m1) / ||(m1, m2)||_p (formed from the float angle, it
    # is not within a few ulps near pi/4); the pickands knots 0, 1 and one
    # within 4 ulps of w = m2 / (m1 + m2) per ratio, and each value within 32
    # ulps of A(v) = 1 - v + sum_j weight_j max(v - w_j, 0) (measured 17 and 6)
    args = COMMANDS[name].split()
    k = int(args[args.index("--k") + 1])
    p = float(args[args.index("--p") + 1]) if "--p" in args else 1.0
    fit = exact(args[args.index("--input") + 1], k, p)
    text = gzip.decompress((HERE / f"{name}.out.gz").read_bytes()).decode()
    table = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    if name.startswith("pickands_"):
        knots, values = table.T
        with mpmath.workdps(40):
            w = [mpmath.mpf(r.numerator) / (r.numerator + r.denominator) for r in fit.ratios]
            # the weight of the points below v, and their first moment
            mass = list(itertools.accumulate(fit.weights, initial=0))
            moment = list(itertools.accumulate(map(operator.mul, fit.weights, w), initial=0))
            below = [bisect.bisect_right(w, v) for v in knots.tolist()]
            pickands = [1 - v + v * mass[j] - moment[j] for v, j in zip(knots.tolist(), below)]
            points, pickands = np.array(w, dtype=float), np.array(pickands, dtype=float)
        assert knots.size == points.size + 2 and knots[0] == 0.0 and knots[-1] == 1.0
        assert np.all(np.abs(knots[1:-1] - points) <= 4 * np.spacing(points))
        assert np.all(np.abs(values - pickands) <= 32 * np.spacing(pickands))
        return
    theta, weight, mele, score = table.T
    atom = _atoms(theta, fit.ratios)
    np.testing.assert_allclose(np.bincount(atom, weight), np.array(fit.counts) / k,
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.bincount(atom, mele), np.array(fit.weights, dtype=float),
                               rtol=MELE_RTOL, atol=0)
    exact_score = np.array(fit.scores, dtype=float)
    assert np.all(np.abs(score - exact_score[atom]) <= 2 * np.finfo(float).eps)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
@pytest.mark.parametrize("source", ["logistic.csv", "tied.csv"])
def test_library_fit_is_the_exact_dual(source, p, exact):
    # the library's MELE fit of a golden input at k = 200, per ratio m2/m1,
    # against the dual oracle's: the probability weights and the spectral
    # weights within MELE_RTOL, and the normalizer within 5e-16 relative
    # (measured at most 2.2e-16)
    ang = select_extremes(read_sample(source), 200, p)
    fit = exact(source, 200, p)
    q, phi = mele_spectral_prob(ang), mele_spectral_measure(ang)
    atom = _atoms(phi.angles, fit.ratios)
    np.testing.assert_allclose(np.bincount(atom, q.weights), np.array(fit.prob, dtype=float),
                               rtol=MELE_RTOL, atol=0)
    assert spectral_normalizer(q) == pytest.approx(float(fit.normalizer), rel=5e-16, abs=0)
    np.testing.assert_allclose(np.bincount(atom, phi.weights),
                               np.array(fit.weights, dtype=float), rtol=MELE_RTOL, atol=0)


def test_infeasible_benchmark_record_agrees_with_the_oracle():
    # the committed table against the plain (replication, k) loop of
    # oracles.mise_oracle, to the tolerances of TestMiseOracle
    name = "benchmark_infeasible"
    assert COMMANDS[name] == (
        "benchmark --model cauchy-quadrant --n 60 --reps 20 --seed 3 --k-grid 1:10:1"
    )
    model = cauchy_quadrant_model(1.0)
    mise, stderr, infeasible = mise_oracle(model, 60, 20, range(1, 11), 3,
                                           model.default_ise_interval)
    text = gzip.decompress((HERE / f"{name}.out.gz").read_bytes()).decode()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(int(k), est) for k, est, *_ in rows] == [
        (k, est) for k in range(1, 11) for est in ESTIMATORS
    ]
    table = np.array([row[2:] for row in rows], dtype=float).reshape(10, 2, 3)
    np.testing.assert_array_equal(table[..., 2], infeasible)
    rtol = MiseOracle.RTOL
    np.testing.assert_allclose(table[..., 0], mise, rtol=rtol)
    np.testing.assert_allclose(table[..., 1], stderr, rtol=rtol, atol=rtol * np.nanmax(mise))
    err = (HERE / f"{name}.err").read_text(encoding="utf-8")
    assert f"# infeasible mele fits = {infeasible.sum()}\n" in err


#: the committed sqrt(k) table, by (model, p, n, k, reps, theta) as text
TABLE_ROWS = {tuple(line.split(",")[:6]): line
              for line in TABLE.read_text(encoding="utf-8").splitlines()[1:]}


def _key(*cell):
    """The key of a table row: (model, p, n, k, reps, theta) as written."""
    return tuple(map(str, cell))


def test_asymptotics_rerun_matches_its_rows():
    # the table's 200-replication cell recomputed in full (about 0.4 s)
    label, p, n, k, reps = RERUN
    got = "\n".join(asymptotic_rows(label, p, n, (k,), reps))
    want = "\n".join(TABLE_ROWS[_key(*RERUN, t)] for t in THETA)
    assert values_match(got, want)
    if COMPARISON == "bytes":
        assert got == want


def test_asymptotic_sd_is_flat_in_n():
    # the table covers every cell; then, for each tail-dependent model, p,
    # theta and estimator, the sqrt(k)-scaled sd at n = 1e4 (k = 100) and at
    # n = 1e5 (k = 300 and 1000) agree within 4 combined standard errors,
    # sd / sqrt(2 (reps - 1)) each for a normal law.  The largest gap of the
    # 120 is 2.47 (mixture r = 0.5, p = 2, pi/4, empirical, k = 1000).
    # Logistic r = 1 is tail independent: its scaled sd falls with n, and
    # is reported, not gated
    assert TABLE.read_text(encoding="utf-8").splitlines()[0] == TABLE_HEADER
    cells = {_key(label, p, n, k, reps, t)
             for label, (_, orders) in MODELS.items() for p in orders
             for n, ks, reps in ASYMPTOTICS for k in ks for t in THETA}
    cells |= {_key(*RERUN, t) for t in THETA}
    assert set(TABLE_ROWS) == cells, "stale table: run tests/golden/regenerate.py"
    column = TABLE_HEADER.split(",")
    rows = {key: dict(zip(column, line.split(","))) for key, line in TABLE_ROWS.items()}

    def sd(row, estimator):
        """A row's scaled sd of one estimator, and its standard error."""
        count = int(row["reps"]) - (int(row["infeasible"]) if estimator == "mele" else 0)
        value = float(row[f"{estimator}_sd"])
        return value, value / math.sqrt(2 * (count - 1))

    gaps = []
    for (label, p, n, k, reps, theta), row in rows.items():
        if label == "logistic r=1" or (n, k, reps) != ("10000", "100", "1000"):
            continue
        for far in ("300", "1000"):
            for estimator in ESTIMATORS:
                (sd1, se1), (sd2, se2) = (
                    sd(r, estimator) for r in (row, rows[(label, p, "100000", far, "400", theta)])
                )
                gaps.append(abs(sd1 - sd2) / math.hypot(se1, se2))
    assert len(gaps) == 120 and max(gaps) <= 4.0, max(gaps)


class TestValuesMatch:
    """The comparison used across numpy builds."""

    TABLE = "theta,weight\n0.78539816339744828,1\n# solver residual = 2.7755575615628914e-17\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.78539816339744828", "0.78539816339744839"),  # 1.4e-16 relative
            ("2.7755575615628914e-17", "0"),  # a rounding residue
        ],
    )
    def test_rounding_within_the_bound_matches(self, old, new):
        assert values_match(self.TABLE.replace(old, new), self.TABLE)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.78539816339744828", "0.78539816349744828"),  # 1.3e-10 relative
            (",1\n", ",2\n"),
            ("theta", "angle"),
            ("2.7755575615628914e-17", "2.7755575615628914e-11"),
            ("\n#", "\n0.5,1\n#"),  # one more row
        ],
    )
    def test_a_change_fails(self, old, new):
        assert not values_match(self.TABLE.replace(old, new), self.TABLE)
