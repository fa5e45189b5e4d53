"""Tail selection and the empirical spectral measure."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specmeasure.empirical import (
    AngularSample,
    DiscreteSpectralMeasure,
    _grid,
    _select,
    empirical_spectral_measure,
    select_extremes,
)
from specmeasure import evaluation
from specmeasure.cli import run_cli
from specmeasure.evaluation import replication_ise
from specmeasure.mele import mele_spectral_measure, mele_spectral_prob
from specmeasure.models import asym_logistic_model, cauchy_quadrant_model
from specmeasure.pseudo_obs import BivariateSample, _tails, write_sample

from oracles import membership_oracle


def top_ranks(sample):
    """Each row's rank from the top of its column, m = n + 1 - R."""
    return _tails([sample], sample.n + 1)[1]


def data_with_ranks(r1, r2):
    """Tie-free sample whose columnwise ranks are the given vectors."""
    return BivariateSample(
        np.column_stack([10.0 * np.asarray(r1), 10.0 * np.asarray(r2)])
    )


@pytest.fixture
def four_point():
    # rank pairs (4,4), (3,1), (2,3), (1,2)
    return data_with_ranks([4, 3, 2, 1], [4, 1, 3, 2])


class TestSelection:
    def test_hand_case_max_norm(self, four_point):
        ang = select_extremes(four_point, 2, math.inf)
        np.testing.assert_array_equal(ang.indices, [0, 1, 2])
        np.testing.assert_allclose(
            ang.angles,
            [math.pi / 4, math.atan(2.0), math.atan(2.0 / 3.0)],
            rtol=1e-15,
        )

    def test_hand_case_sum_norm(self, four_point):
        # the weakest point now qualifies: 1/4 + 1/3 >= 1/2
        ang = select_extremes(four_point, 2, 1.0)
        np.testing.assert_array_equal(ang.indices, [0, 1, 2, 3])

    def test_k_equals_n_selects_everything(self, four_point):
        for p in [1.0, 2.0, 3.5, math.inf]:
            ang = select_extremes(four_point, 4, p)
            assert ang.n_members == 4

    def test_exact_threshold_tie_is_a_member(self):
        # ranks give 1/3 + 1/6 = 1/2 exactly at the k = 2 threshold;
        # integer arithmetic must not lose the equality
        sample = data_with_ranks([4, 1, 2, 3, 5, 6], [1, 2, 3, 4, 5, 6])
        ang = select_extremes(sample, 2, 1.0)
        assert 0 in ang.indices

    def test_matches_exact_rank_rule(self):
        rng = np.random.default_rng(1818)
        n = 60
        for p in [1.0, 2.0, 3.0, 5.0, math.inf]:
            for _ in range(5):
                sample = BivariateSample(rng.standard_normal((n, 2)))
                m = top_ranks(sample)
                for k in [1, 5, 17, 60]:
                    ang = select_extremes(sample, k, p)
                    expected = [
                        i
                        for i in range(n)
                        if membership_oracle(int(m[i, 0]), int(m[i, 1]), k, p)
                    ]
                    np.testing.assert_array_equal(ang.indices, expected)

    def test_big_integer_fallback(self):
        # p = 16 at n = 50 overflows int64 inside the exact comparison,
        # which Python integers keep exact (at k = 2 and 9, p > k and the
        # max-norm rule decides)
        rng = np.random.default_rng(77)
        n = 50
        sample = BivariateSample(rng.standard_normal((n, 2)))
        m = top_ranks(sample)
        for k in [2, 9, 25]:
            ang = select_extremes(sample, k, 16.0)
            expected = [
                i for i in range(n) if membership_oracle(int(m[i, 0]), int(m[i, 1]), k, 16.0)
            ]
            np.testing.assert_array_equal(ang.indices, expected)

    def test_fractional_order_agrees_with_float_rule(self):
        # the float rule agrees with the exact one, in 50-digit arithmetic
        rng = np.random.default_rng(21)
        n = 40
        sample = BivariateSample(rng.standard_normal((n, 2)))
        m = top_ranks(sample)
        ang = select_extremes(sample, 7, 2.5)
        expected = [
            i for i in range(n) if membership_oracle(int(m[i, 0]), int(m[i, 1]), 7, 2.5)
        ]
        np.testing.assert_array_equal(ang.indices, expected)

    def test_membership_shrinks_as_order_grows(self):
        rng = np.random.default_rng(303)
        sample = BivariateSample(rng.standard_normal((80, 2)))
        orders = [1.0, 1.5, 2.0, 4.0, 10.0, math.inf]
        for k in [3, 12, 40]:
            sets = [set(select_extremes(sample, k, p).indices.tolist()) for p in orders]
            for smaller, larger in zip(sets[1:], sets[:-1]):
                assert smaller <= larger

    def test_never_empty(self):
        rng = np.random.default_rng(62)
        sample = BivariateSample(rng.standard_normal((30, 2)))
        for p in [1.0, 2.0, math.inf]:
            for k in range(1, 31):
                assert select_extremes(sample, k, p).n_members >= 1

    @pytest.mark.parametrize("k", [0, -1, 31, 2.5])
    def test_invalid_k(self, k):
        sample = BivariateSample(np.random.default_rng(0).standard_normal((30, 2)))
        with pytest.raises((ValueError, TypeError)):
            select_extremes(sample, k, 1.0)

    @pytest.mark.parametrize("ks", [[], [[10]], 10], ids=["empty", "2-d", "0-d"])
    def test_grid_must_be_nonempty_and_1d(self, ks):
        # the one check of a grid's shape, with its check of each k
        with pytest.raises(ValueError, match="k grid must be a nonempty 1-d sequence"):
            _grid(ks, 30)


def boundary_rich_ranks(n, ks, p, rng):
    """Rank m2 per row (row i has m1 = i + 1) placed on or next to the boundary.

    Each m1 is paired, where one is still free, with the m2 nearest to
    the tail boundary of some k in ``ks``, an exact tie if there is one;
    the remaining m2 are shuffled in.
    """
    m2 = np.zeros(n, dtype=np.int64)
    free = set(range(1, n + 1))
    for m1 in rng.permutation(np.arange(1, n + 1)).tolist():
        nearest = [
            (k, k if math.isinf(p) else round((k**-p - m1**-p) ** (-1.0 / p)))
            for k in ks
            if math.isinf(p) or m1 > k
        ]
        nearest = [(k, t) for k, t in nearest if t in free]
        if nearest:
            k, target = max(nearest, key=lambda kt: on_boundary(m1, kt[1], kt[0], p))
            m2[m1 - 1] = target
            free.remove(target)
    rest = np.flatnonzero(m2 == 0)
    m2[rest] = rng.permutation(sorted(free))
    return m2


def on_boundary(m1, m2, k, p):
    if math.isinf(p):
        return min(m1, m2) == k
    q = int(p)
    return k**q * (m1**q + m2**q) == (m1 * m2) ** q


class TestBoundaryRule:
    @pytest.mark.parametrize("n", [60, 360, 2520])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 16.0, 64.0, math.inf])
    def test_boundary_rich_permutations_match_oracle(self, n, p):
        rng = np.random.default_rng(n)
        ks = [k for k in (2, 3, 4, 6, 12, 24, 60, 120, 360) if k < n]
        m1 = np.arange(1, n + 1)
        m2 = boundary_rich_ranks(n, ks, p, rng)
        sample = data_with_ranks(n + 1 - m1, n + 1 - m2)
        np.testing.assert_array_equal(top_ranks(sample), np.column_stack([m1, m2]))
        pairs = list(zip(m1.tolist(), m2.tolist()))
        ties = 0
        for k in ks:
            ang = select_extremes(sample, k, p)
            expected = [i for i, (a, b) in enumerate(pairs) if membership_oracle(a, b, k, p)]
            np.testing.assert_array_equal(ang.indices, expected)
            ties += sum(on_boundary(a, b, k, p) for a, b in pairs)
        if p in (1.0, 2.0, math.inf):
            assert ties > 0  # the input really puts rows on the boundary

    @pytest.mark.parametrize("n, p", [(50_000, 2.0), (2_000, 3.0)])
    def test_orders_past_the_int64_range_match_oracle(self, n, p):
        rng = np.random.default_rng(4242)
        sample = BivariateSample(rng.standard_normal((n, 2)))
        m = top_ranks(sample).tolist()
        for k in [3, 40, n // 10]:
            ang = select_extremes(sample, k, p)
            expected = [i for i, (a, b) in enumerate(m) if membership_oracle(a, b, k, p)]
            np.testing.assert_array_equal(ang.indices, expected)

    def test_huge_integer_order_is_the_max_norm(self):
        # p = 1e300 passes check_norm_order, and every row whose smaller rank
        # is k lies on the boundary; the exact check must not raise k to
        # int(p).  A child process under a time and memory cap turns a hang
        # into a failure.
        n, ks = 50, (1, 2, 9, 25, 50)
        code = (
            "import json, numpy as np\n"
            "from specmeasure.empirical import select_extremes\n"
            "from specmeasure.pseudo_obs import BivariateSample\n"
            f"values = np.random.default_rng(5).standard_normal(({n}, 2))\n"
            "sample = BivariateSample(values)\n"
            f"print(json.dumps([select_extremes(sample, k, 1e300).indices.tolist() for k in {ks}]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        cap = 2 * 1024**3
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr
        sample = BivariateSample(np.random.default_rng(5).standard_normal((n, 2)))
        m = top_ranks(sample).tolist()
        for k, got in zip(ks, json.loads(proc.stdout)):
            expected = [i for i, (a, b) in enumerate(m) if membership_oracle(a, b, k, math.inf)]
            assert got == expected

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    def test_orders_at_the_max_norm_threshold_match_oracle(self, k):
        # from p = k + 1 on, the exact check is min(m1, m2) <= k; p = k still
        # takes the integer rule, under which the rank pair (2, 2) is a tie
        # at k = 1.  From k = 12 on, the row with m1 = k and m2 = n sits in
        # the band that the exact check decides.
        n = 400
        rng = np.random.default_rng(k)
        m1 = np.arange(1, n + 1)
        m2 = np.concatenate(([1, 2], rng.permutation(np.arange(3, n + 1))))
        top = int(np.flatnonzero(m2 == n)[0])
        m2[[k - 1, top]] = m2[[top, k - 1]]
        sample = data_with_ranks(n + 1 - m1, n + 1 - m2)
        pairs = list(zip(m1.tolist(), m2.tolist()))
        for p in (k, k + 1, k + 2):
            ang = select_extremes(sample, k, float(p))
            expected = [i for i, (a, b) in enumerate(pairs) if membership_oracle(a, b, k, p)]
            np.testing.assert_array_equal(ang.indices, expected)

    @pytest.mark.parametrize("p", [12.5, 7.5])
    @pytest.mark.parametrize("k", [21, 29, 33, 35])
    def test_smaller_rank_k_is_a_member_at_fractional_order(self, k, p):
        # ||(n/m1, n/m2)||_p >= ||.||_inf = n/k at the rank pairs (k, n) and
        # (n, k), although 1/(k/n) rounds below n/k at n = 2000 for these k
        n = 2000
        m1 = np.arange(1, n + 1)
        m2 = m1.copy()
        m2[[k - 1, n - 1]] = n, k
        sample = data_with_ranks(n + 1 - m1, n + 1 - m2)
        ang = select_extremes(sample, k, p)
        assert {k - 1, n - 1} <= set(ang.indices.tolist())
        pairs = zip(m1.tolist(), m2.tolist())
        expected = [i for i, (a, b) in enumerate(pairs) if membership_oracle(a, b, k, p)]
        np.testing.assert_array_equal(ang.indices, expected)

    def test_tail_independence_keeps_every_smaller_rank_k(self):
        # under tail independence at n = 1e6 the members at small k are the
        # rows with one rank at most k and the other far out
        sample = asym_logistic_model(1.0).sample(10**6, np.random.default_rng([1, 0]))
        for k in (10, 20, 40):
            assert select_extremes(sample, k, 3.7).n_members == 2 * k

    @pytest.mark.parametrize("p, expected", [(1.0, [0, 3, 4, 5]), (math.inf, [4, 5])])
    def test_rational_tie_at_sum_and_max_norm(self, p, expected):
        # rank pairs m = (3, 6), (6, 5), (5, 4), (4, 3), (2, 2), (1, 1) at
        # k = 2: 1/3 + 1/6 = 1/2 puts row 0 on the sum-norm boundary, and
        # min(m) = 2 = k puts row 4 on the max-norm boundary
        sample = data_with_ranks([4, 1, 2, 3, 5, 6], [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(select_extremes(sample, 2, p).indices, expected)


class TestGridEntries:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5000),
        p=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 7.5, 12.5, 16.0, math.inf]),
        data=st.data(),
    )
    def test_entries_count_the_k_at_which_a_row_is_not_a_member(self, seed, n, p, data):
        # p = inf takes the float rule alone, with no exact recheck
        ks = data.draw(st.lists(st.integers(1, min(n, 60)), min_size=1, max_size=6))
        rng = np.random.default_rng(seed)
        m1, m2 = np.arange(1, n + 1), rng.permutation(np.arange(1, n + 1))
        # rows whose smaller rank is a grid k and whose other rank is n
        for m, other, k in ((m2, m1, ks[0]), (m1, m2, ks[-1])):
            i, j = np.flatnonzero(other == k)[0], np.flatnonzero(m == n)[0]
            m[[i, j]] = m[[j, i]]
        sample = data_with_ranks(n + 1 - m1, n + 1 - m2)
        union, entry, size, _ = _select([sample], _grid(ks, n), p)
        pairs = list(zip(m1.tolist(), m2.tolist()))
        assert size.tolist() == [union.n_members]
        for i, e in zip(union.indices.tolist(), entry.tolist()):
            assert e == sum(not membership_oracle(*pairs[i], k, p) for k in ks)
        # a row whose smaller rank exceeds 2 max(ks) is outside the tail set
        # at every p: m1 m2 / ||(m1, m2)||_p >= min(m1, m2) / 2
        outside = set(np.flatnonzero(np.minimum(m1, m2) <= 2 * max(ks)).tolist())
        for i in outside - set(union.indices.tolist()):
            assert not membership_oracle(*pairs[i], max(ks), p)


class TestEmpiricalMeasure:
    def test_hand_case_cdf(self, four_point):
        phi = empirical_spectral_measure(select_extremes(four_point, 2, math.inf))
        assert phi.cdf(math.pi / 4) == pytest.approx(1.0)
        assert phi.total_mass == pytest.approx(1.5)

    def test_carries_no_solution(self, four_point):
        ang = select_extremes(four_point, 2, 1.0)
        assert empirical_spectral_measure(ang).solution is None

    def test_duplicate_angles_merge(self):
        ang = AngularSample(
            indices=np.array([0, 1, 2]),
            angles=np.array([0.3, 0.7, 0.3]),
            scores=np.array([-0.2, 0.2, -0.2]),
            k=2,
            p=1.0,
            n=6,
        )
        phi = empirical_spectral_measure(ang)
        assert phi.angles.size == 2
        np.testing.assert_allclose(phi.weights, [1.0, 0.5])


class TestDiscreteSpectralMeasure:
    def test_cdf_is_right_continuous_step(self):
        phi = DiscreteSpectralMeasure.from_atoms([0.5, 0.2], [1.0, 2.0], 1.0)
        np.testing.assert_allclose(
            phi.cdf(np.array([0.1, 0.2, 0.3, 0.5, 1.5])), [0.0, 2.0, 2.0, 3.0, 3.0]
        )

    def test_from_atoms_sorts_and_merges(self):
        phi = DiscreteSpectralMeasure.from_atoms([0.9, 0.1, 0.9], [1.0, 1.0, 1.0], 2.0)
        np.testing.assert_allclose(phi.angles, [0.1, 0.9])
        np.testing.assert_allclose(phi.weights, [1.0, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteSpectralMeasure(np.array([0.5, 0.2]), np.array([1.0, 1.0]), 1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteSpectralMeasure(np.array([0.2, 0.5]), np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "angles, weights", [([0.2, 0.5], [1.0]), ([[0.2, 0.5]], [[1.0, 1.0]]), (0.2, 1.0)]
    )
    def test_rejects_mismatched_shapes(self, angles, weights):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            DiscreteSpectralMeasure(np.array(angles), np.array(weights), 1.0)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError, match="pi/2"):
            DiscreteSpectralMeasure(np.array([2.0]), np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="pi/2"):
            DiscreteSpectralMeasure(np.array([0.2, math.nan]), np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("x", [math.nan, -0.1, 2.0])
    def test_cdf_rejects_angle_off_the_interval(self, x):
        phi = DiscreteSpectralMeasure.from_atoms([0.3, 0.5], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="pi/2"):
            phi.cdf(x)
        with pytest.raises(ValueError, match="pi/2"):
            phi.cdf(np.array([0.4, x]))

    def test_atom_in_the_slack_is_stored_at_half_pi(self):
        phi = DiscreteSpectralMeasure([0.3, math.pi / 2 + 5e-13], [1.0, 1.0], 1.0)
        assert phi.angles[-1] == math.pi / 2
        assert phi.cdf(math.pi / 2) == phi.total_mass == 2.0

    def test_from_atoms_merges_the_slack_into_half_pi(self):
        angles = [math.pi / 2 + 5e-13, math.pi / 2 + 1e-12, math.pi / 2]
        phi = DiscreteSpectralMeasure.from_atoms(angles, [1.0, 1.0, 1.0], 2.0)
        assert phi.angles.tolist() == [math.pi / 2] and phi.weights.tolist() == [3.0]

    def test_equality_is_identity(self):
        a = DiscreteSpectralMeasure.from_atoms([0.2, 0.5], [1, 1], 1)
        b = DiscreteSpectralMeasure.from_atoms([0.2, 0.5], [1, 1], 1)
        assert a == a
        assert not a == b
        assert a != b

    def test_moment_sums_point_mass_diagonal(self):
        phi = DiscreteSpectralMeasure.from_atoms([math.pi / 4], [1.0], 2.0)
        s, c = phi.moment_sums()
        assert s == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert c == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestTailOnly:
    """Count guards: the one-k path (selection, the three estimators, and
    the estimate and pickands commands) builds none of the k-grid
    machinery of the Monte Carlo pass."""

    @pytest.fixture
    def refuse_grids(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("k-grid machinery was built")

        monkeypatch.setattr(evaluation, "_TailGrid", refuse)
        monkeypatch.setattr(evaluation, "_scored", refuse)

    def test_select_extremes(self, refuse_grids):
        sample = asym_logistic_model(2.0).sample(3000, np.random.default_rng(4))
        tied = BivariateSample(np.round(sample.values, 1))
        for p in [1.0, 2.0, 2.5, math.inf]:
            ang = select_extremes(tied, 100, p)
            empirical_spectral_measure(ang)
            mele_spectral_prob(ang)
            mele_spectral_measure(ang)
        with pytest.raises(AssertionError, match="k-grid machinery"):  # the guard is live
            replication_ise(cauchy_quadrant_model(1.0), 500, [10], (0.1, 1.4), 5, 0)

    def test_replication_ise(self):
        replication_ise(cauchy_quadrant_model(1.0), 500, [10, 50, 100], (0.1, 1.4), 5, 0)

    def test_estimate_and_pickands(self, tmp_path, capsys, refuse_grids):
        data = tmp_path / "sample.csv"
        write_sample(asym_logistic_model(2.0).sample(2000, np.random.default_rng(8)), str(data))
        for p in ["1", "2", "2.5", "inf"]:
            assert run_cli(["estimate", "--input", str(data), "--k", "50", "--p", p]) == 0
        assert run_cli(["pickands", "--input", str(data), "--k", "50"]) == 0
        assert "theta" in capsys.readouterr().out
