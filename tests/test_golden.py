"""The committed CLI records of ``tests/golden``: every command's exit code,
stdout and stderr, byte for byte on the numpy build that recorded them,
else as parsed values.  Each test id names the comparison it ran."""

import gzip
import json
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from specmeasure.evaluation import ESTIMATORS
from specmeasure.models import cauchy_quadrant_model

from golden.regenerate import COMMANDS, HERE, INDEX, fingerprint, run, values_match, write_inputs
from oracles import membership_oracle, mise_oracle, rank_oracle, sample_text_oracle
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


@pytest.mark.parametrize("name", RANKED)
def test_record_agrees_with_exact_ranks(name, ranks):
    # the committed stdout against the members' ratios m2/m1 as fractions:
    # each theta within 2 ulps of the arctangent of one ratio, every ratio
    # with a row, its empirical weight multiplicity / k over its rows, and
    # score_f within 2 eps absolute of (m2 - m1) / ||(m1, m2)||_p (formed
    # from the float angle, it is not within a few ulps near pi/4); the
    # pickands knots 0, 1 and one within 4 ulps of m2 / (m1 + m2) per ratio
    args = COMMANDS[name].split()
    k = int(args[args.index("--k") + 1])
    p = float(args[args.index("--p") + 1]) if "--p" in args else 1.0
    m1, m2 = ranks[args[args.index("--input") + 1]]
    count = Counter(
        Fraction(b, a) for a, b in zip(m1.tolist(), m2.tolist()) if membership_oracle(a, b, k, p)
    )
    ratios = sorted(count)
    text = gzip.decompress((HERE / f"{name}.out.gz").read_bytes()).decode()
    table = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    if name.startswith("pickands_"):
        points = np.array([float(r / (1 + r)) for r in ratios])
        knots = table[:, 0]
        assert knots.size == points.size + 2 and knots[0] == 0.0 and knots[-1] == 1.0
        assert np.all(np.abs(knots[1:-1] - points) <= 4 * np.spacing(points))
        return
    theta, weight, _, score = table.T
    with mpmath.workdps(40):
        exact = [mpmath.mpf(r.numerator) / r.denominator for r in ratios]
        angle = np.array([float(mpmath.atan(x)) for x in exact])
        norm = [max(1, x) if p == np.inf else (1 + x**p) ** (1 / mpmath.mpf(p)) for x in exact]
        exact_score = np.array([float((x - 1) / y) for x, y in zip(exact, norm)])
    atom = np.abs(theta[:, None] - angle).argmin(axis=1)
    assert np.all(np.abs(theta - angle[atom]) <= 2 * np.spacing(angle[atom]))
    assert np.array_equal(np.unique(atom), np.arange(len(ratios)))
    mass = np.array([count[r] / k for r in ratios])
    np.testing.assert_allclose(np.bincount(atom, weight), mass, rtol=1e-15, atol=0)
    assert np.all(np.abs(score - exact_score[atom]) <= 2 * np.finfo(float).eps)


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
