import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_act_dcf, oracle_eer, oracle_min_dcf, oracle_points

from svkit import metrics
from svkit.errors import ContractError


def random_scores(rng, max_n=100):
    nt = int(rng.integers(1, max_n // 2))
    nn = int(rng.integers(1, max_n // 2))
    sep = rng.uniform(0, 2)
    tar = rng.normal(sep, 1.0, nt)
    non = rng.normal(0.0, 1.0, nn)
    if rng.random() < 0.3:  # inject ties within and across classes
        tar = np.round(tar, 1)
        non = np.round(non, 1)
    return metrics.LabeledScores(tar, non)


@st.composite
def tie_free_scores(draw):
    """(target, nontarget) of distinct multiples of 1e-3 in [-20, 20]: exp,
    arctan and a positive affine map keep them distinct in float64."""
    ticks = draw(st.lists(st.integers(-20000, 20000), min_size=2, max_size=60, unique=True))
    n_tar = draw(st.integers(1, len(ticks) - 1))
    values = np.array(ticks) / 1000.0
    return values[:n_tar], values[n_tar:]


class TestRocPoints:
    def test_perfect_separation_contains_origin(self):
        s = metrics.LabeledScores([1.0], [0.0])
        p_fa, p_miss, _ = metrics.roc_points(s)
        assert any(f == 0 and m == 0 for f, m in zip(p_fa, p_miss))

    def test_endpoints_present(self):
        rng = np.random.default_rng(0)
        s = random_scores(rng)
        p_fa, p_miss, thr = metrics.roc_points(s)
        assert (p_fa[0], p_miss[0]) == (1.0, 0.0) and thr[0] == -np.inf
        assert (p_fa[-1], p_miss[-1]) == (0.0, 1.0) and thr[-1] == np.inf

    def test_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_scores(rng)
            p_fa, p_miss, thr = metrics.roc_points(s)
            assert np.all(np.diff(p_miss) >= 0)
            assert np.all(np.diff(p_fa) <= 0)
            assert np.all(np.diff(thr) > 0)

    def test_ties_are_single_steps(self):
        s = metrics.LabeledScores([0.5, 0.5, 0.7], [0.5, 0.3])
        p_fa, p_miss, thr = metrics.roc_points(s)
        assert np.sum(thr == 0.5) == 1
        for got, want in zip(zip(p_fa, p_miss, thr), oracle_points(s.target, s.nontarget)):
            assert got[0] == want[1] and got[1] == want[2]

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            s = random_scores(rng)
            p_fa, p_miss, thr = metrics.roc_points(s)
            want = oracle_points(s.target, s.nontarget)
            assert len(want) == len(thr)
            for k, (t, f, m) in enumerate(want):
                assert thr[k] == t and p_fa[k] == f and p_miss[k] == m

    def test_empty_class_errors(self):
        with pytest.raises(ContractError):
            metrics.LabeledScores([], [0.1])


class TestEer:
    def test_perfect_separation(self):
        assert metrics.eer(metrics.LabeledScores([0.9, 0.8], [0.1, 0.2])) == 0.0

    def test_interleaved_half(self):
        assert metrics.eer(metrics.LabeledScores([0.4, 0.6], [0.3, 0.5])) == 0.5

    def test_fully_inverted(self):
        assert metrics.eer(metrics.LabeledScores([0.1], [0.9])) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_scores(rng)
            assert abs(metrics.eer(s) - oracle_eer(s.target, s.nontarget)) < 1e-12


class TestMinDcf:
    def test_perfect_separation_zero(self):
        v, _ = metrics.min_dcf(metrics.LabeledScores([0.9], [0.1]), metrics.OperatingPoint(0.3))
        assert v == 0.0

    def test_inverted_is_trivial_system(self):
        v, _ = metrics.min_dcf(
            metrics.LabeledScores([0.1], [0.9]), metrics.OperatingPoint(0.5, 1.0, 1.0)
        )
        assert v == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = random_scores(rng, max_n=50)
            p = float(rng.uniform(0.01, 0.6))
            cm = float(rng.uniform(0.5, 10))
            cf = float(rng.uniform(0.5, 10))
            got_v, got_t = metrics.min_dcf(s, metrics.OperatingPoint(p, cm, cf))
            want_v, want_t = oracle_min_dcf(s.target, s.nontarget, p, cm, cf)
            assert abs(got_v - want_v) < 1e-12
            assert got_t == want_t

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_scores(rng)
            v, _ = metrics.min_dcf(s, metrics.OperatingPoint(float(rng.uniform(0.01, 0.99))))
            assert 0.0 <= v <= 1.0

    def test_half_prior_bounded_by_twice_eer(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = random_scores(rng)
            v, _ = metrics.min_dcf(s, metrics.OperatingPoint(0.5))
            bound = 2.0 * oracle_eer(s.target, s.nontarget)
            assert v <= bound + 1e-12


class TestSharedSweep:
    def test_one_sort_per_score_set(self, monkeypatch):
        calls = []
        sweep = metrics._sweep
        monkeypatch.setattr(metrics, "_sweep", lambda *a: calls.append(1) or sweep(*a))
        s = random_scores(np.random.default_rng(17))
        ops = list(metrics.DEFAULT_OPERATING_POINTS)
        metrics.eer(s)
        for op in ops:
            metrics.min_dcf(s, op)
        metrics.c_primary(s, ops)
        metrics.dcf_curve(s, -6, 6, 13, ops)
        assert len(calls) == 1

    def test_caller_arrays_copied_and_sweep_read_only(self):
        tar, non = np.array([0.2, 0.9]), np.array([0.1, 0.5])
        s = metrics.LabeledScores(tar, non)
        before = metrics.eer(s)
        tar[:] = -1.0  # the caller's array, not the cached score set
        assert s.target[0] == 0.2
        assert metrics.eer(s) == before
        for a in (s.target, *metrics.roc_points(s)):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestActDcf:
    def test_accept_all_threshold(self):
        s = metrics.LabeledScores([0.5, 0.7], [0.2, 0.4])
        op = metrics.OperatingPoint(0.3, 2.0, 1.5)
        got = metrics.act_dcf(s, op, -10.0)
        want = 1.5 * 0.7 / min(2.0 * 0.3, 1.5 * 0.7)
        assert abs(got - want) < 1e-12

    def test_consistent_with_min_dcf(self):
        """Both read the one normalized cost, OperatingPoint.cost, off the sweep: bitwise equal."""
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_scores(rng)
            op = metrics.OperatingPoint(float(rng.uniform(0.05, 0.5)), *map(float, rng.uniform(0.1, 10, 2)))
            v, t = metrics.min_dcf(s, op)
            assert metrics.act_dcf(s, op, t) == v

    def test_random_direct_recompute(self):
        rng = np.random.default_rng(8)
        s = random_scores(rng)
        op = metrics.OperatingPoint(0.17, 3.0, 0.8)
        thr = 0.33
        p_miss = np.mean(s.target < thr)
        p_fa = np.mean(s.nontarget >= thr)
        want = (3.0 * 0.17 * p_miss + 0.8 * 0.83 * p_fa) / min(3.0 * 0.17, 0.8 * 0.83)
        assert abs(metrics.act_dcf(s, op, thr) - want) < 1e-12

    def test_nan_threshold_rejected(self):
        s = metrics.LabeledScores([0.5, 0.7], [0.2, 0.4])
        with pytest.raises(ContractError, match="NaN"):
            metrics.act_dcf(s, metrics.OperatingPoint(0.3), float("nan"))

    @settings(max_examples=200, deadline=None)
    @given(tar=st.lists(st.integers(-5, 5), min_size=1, max_size=30),
           non=st.lists(st.integers(-5, 5), min_size=1, max_size=30),
           scale=st.sampled_from([1.0, 0.1, 1e-3, 1e300]),
           threshold=st.one_of(st.integers(-6, 6).map(float), st.floats(allow_nan=False),
                               st.sampled_from([np.inf, -np.inf, 1e300, -1e300])),
           p_target=st.floats(0.01, 0.99), c_miss=st.floats(0.1, 10), c_fa=st.floats(0.1, 10))
    def test_equals_direct_count(self, tar, non, scale, threshold, p_target, c_miss, c_fa):
        """Read off the sweep, the cost is bitwise the one from counting each
        score against the threshold, with tied scores and a threshold on a score."""
        s = metrics.LabeledScores(np.array(tar) * scale, np.array(non) * scale)
        op = metrics.OperatingPoint(p_target, c_miss, c_fa)
        for t in (threshold, threshold * scale):
            got = metrics.act_dcf(s, op, t)
            assert type(got) is float and got == oracle_act_dcf(s, op, t)


class TestCPrimary:
    def test_single_point_reduction(self):
        rng = np.random.default_rng(9)
        s = random_scores(rng)
        op = metrics.OperatingPoint(0.02)
        assert metrics.c_primary(s, [op]) == metrics.min_dcf(s, op)[0]

    def test_perfect_separation(self):
        s = metrics.LabeledScores([2.0, 3.0], [-1.0, 0.0])
        assert metrics.c_primary(s, list(metrics.DEFAULT_OPERATING_POINTS)) == 0.0

    def test_two_point_composition(self):
        rng = np.random.default_rng(10)
        tar = rng.normal(1.0, 1.0, 60)
        non = rng.normal(0.0, 1.0, 200)
        s = metrics.LabeledScores(tar, non)
        ops = [metrics.OperatingPoint(0.01), metrics.OperatingPoint(0.005)]
        want = 0.5 * (
            oracle_min_dcf(tar, non, 0.01)[0] + oracle_min_dcf(tar, non, 0.005)[0]
        )
        assert abs(metrics.c_primary(s, ops) - want) < 1e-12

    def test_empty_ops(self):
        with pytest.raises(ContractError):
            metrics.c_primary(metrics.LabeledScores([1.0], [0.0]), [])

    # unchecked, NaN costs report a NaN minDCF and an infinite one a NaN with a numpy warning
    @pytest.mark.parametrize("costs", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (0.0, 1.0),
                                       (1.0, -2.0)])
    def test_costs_must_be_finite_and_positive(self, costs):
        with pytest.raises(ContractError, match="costs must be finite and positive"):
            metrics.OperatingPoint(0.01, *costs)

    # unchecked, the normalizer 0 turned every minDCF into nan with two numpy warnings
    @pytest.mark.parametrize("point", [(0.9999999999999999, 1.0, 1e-320), (5e-324, 0.5, 1.0), (0.5, 5e-324, 1.0)])
    def test_a_point_whose_best_trivial_cost_rounds_to_0_is_refused(self, point):
        p, c_miss, c_fa = point
        want = f"OperatingPoint(p_target={p!r}, c_miss={c_miss!r}, c_fa={c_fa!r}) has a best trivial cost of 0"
        with pytest.raises(ContractError, match=f"^{re.escape(want)}$"):
            metrics.OperatingPoint(*point)

    def test_cost_of_an_array_is_the_cost_of_each_element(self):
        op = metrics.OperatingPoint(0.3, 2.0, 1.5)
        p_miss, p_fa = np.linspace(0, 1, 7), np.linspace(1, 0, 7) ** 2
        assert [op.cost(m, f) for m, f in zip(p_miss, p_fa)] == list(op.cost(p_miss, p_fa))
        assert op.cost(0.0, 1.0) == 1.5 * 0.7 / op.norm and op.norm == min(2.0 * 0.3, 1.5 * 0.7)


class TestDcfCurve:
    def test_perfect_separation_all_zero(self):
        s = metrics.LabeledScores([1.0, 2.0], [-2.0, -1.0])
        curve = metrics.dcf_curve(s, -5, 5, 21)
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_bounded(self):
        rng = np.random.default_rng(11)
        s = random_scores(rng)
        curve = metrics.dcf_curve(s, -6, 6, 50)
        assert np.all(curve.values <= 1 + 1e-9) and np.all(curve.values >= 0)

    def test_pointwise_equals_min_dcf(self):
        rng = np.random.default_rng(12)
        s = random_scores(rng)
        curve = metrics.dcf_curve(s, -4, 4, 17)
        for lam, v in zip(curve.logodds, curve.values):
            p = metrics.effective_prior(lam)
            assert v == metrics.min_dcf(s, metrics.OperatingPoint(p))[0]

    def test_marked_points(self):
        rng = np.random.default_rng(13)
        s = random_scores(rng)
        ops = [metrics.OperatingPoint(0.01), metrics.OperatingPoint(0.1, 10, 1)]
        curve = metrics.dcf_curve(s, -8, 2, 11, ops)
        assert len(curve.marked) == 2
        for lam, v, op in curve.marked:
            assert lam == op.effective_logodds
            p_eff = metrics.effective_prior(lam)
            assert v == metrics.min_dcf(s, metrics.OperatingPoint(p_eff))[0]

    def test_effective_prior_folds_costs(self):
        # normalized minDCF at (p, cm, cf) equals it at the effective prior
        rng = np.random.default_rng(14)
        s = random_scores(rng)
        op = metrics.OperatingPoint(0.05, 7.0, 2.0)
        lam = op.effective_logodds
        p_eff = metrics.effective_prior(lam)
        a = metrics.min_dcf(s, op)[0]
        b = metrics.min_dcf(s, metrics.OperatingPoint(p_eff))[0]
        assert abs(a - b) < 1e-12

    def test_bad_ranges(self):
        s = metrics.LabeledScores([1.0], [0.0])
        with pytest.raises(ContractError):
            metrics.dcf_curve(s, 3, 3, 10)
        with pytest.raises(ContractError):
            metrics.dcf_curve(s, -1, 1, 1)

    @pytest.mark.parametrize("lo, hi, named, prior", [(-8, 40, "40", "1"), (-800, 8, "-800", "0"),
                                                     (float("-inf"), 0, "-inf", "0")])
    def test_grid_end_whose_prior_rounds_to_0_or_1(self, lo, hi, named, prior):
        s = metrics.LabeledScores([1.0], [0.0])
        with pytest.raises(ContractError, match=f"^log odds {named} give an effective prior of {prior},"):
            metrics.dcf_curve(s, lo, hi, 5)
        assert len(metrics.dcf_curve(s, -36, 36, 5).values) == 5  # the prior is still inside (0, 1)

    @pytest.mark.parametrize("c_miss, prior", [(1e300, "1"), (5e-324, "0")])
    def test_marked_point_whose_prior_rounds_to_0_or_1(self, c_miss, prior):
        """c_miss = 5e-324 makes c_miss * p_target round to 0 as well, so that point is
        refused when it is built; a huge false-alarm cost still folds the prior to 0."""
        s = metrics.LabeledScores([1.0], [0.0])
        if prior == "0":
            with pytest.raises(ContractError, match=r"^OperatingPoint\(p_target=0.5, c_miss=5e-324, .* cost of 0$"):
                metrics.OperatingPoint(0.5, c_miss, 1.0)
            op = metrics.OperatingPoint(0.5, 1e-300, 1e300)
        else:
            op = metrics.OperatingPoint(0.5, c_miss, 1.0)
        with pytest.raises(ContractError, match=rf"^OperatingPoint\(p_target=0.5, .* effective prior of {prior},"):
            metrics.dcf_curve(s, -1, 1, 3, [op])

    def test_a_grid_finer_than_its_floats_is_refused(self):
        s = metrics.LabeledScores([1.0], [0.0])
        with pytest.raises(ContractError, match="^log odds must be strictly increasing$"):
            metrics.dcf_curve(s, 1, 1.0000000000000002, 5)
        assert len(metrics.dcf_curve(s, 1, 1.0000000000000002, 2).values) == 2

    def test_every_curve_holds_an_end_that_costs_1(self):
        """Why no curve value can leave [0, 1]: the sweep's accept-all and reject-all ends
        cost exactly 1 at one of each prior's two costs, so the minimum is at most 1."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = random_scores(rng)
            p_fa, p_miss, _ = metrics.roc_points(s)
            for p in rng.uniform(1e-6, 1 - 1e-6, 5):
                op = metrics.OperatingPoint(float(p))
                assert 1.0 in (op.cost(p_miss[0], p_fa[0]), op.cost(p_miss[-1], p_fa[-1]))


class TestInvariances:
    def test_monotone_transform_exact(self):
        rng = np.random.default_rng(15)
        ops = [metrics.OperatingPoint(0.01), metrics.OperatingPoint(0.005)]
        for _ in range(20):
            s = random_scores(rng)
            warped = metrics.LabeledScores(
                np.tanh(s.target) * 3 + 1, np.tanh(s.nontarget) * 3 + 1
            )
            assert metrics.eer(s) == metrics.eer(warped)
            for op in ops:
                assert metrics.min_dcf(s, op)[0] == metrics.min_dcf(warped, op)[0]
            assert metrics.c_primary(s, ops) == metrics.c_primary(warped, ops)
            a = metrics.dcf_curve(s, -3, 3, 9)
            b = metrics.dcf_curve(warped, -3, 3, 9)
            np.testing.assert_array_equal(a.values, b.values)

    @settings(max_examples=100, deadline=None)
    @given(scores=tie_free_scores(), transform=st.sampled_from(
        [np.exp, lambda x: 0.25 * x - 3.0, np.arctan]))
    def test_rank_statistics_property(self, scores, transform):
        tar, non = scores
        assert len(np.unique(transform(np.concatenate([tar, non])))) == len(tar) + len(non)
        s = metrics.LabeledScores(tar, non)
        warped = metrics.LabeledScores(transform(tar), transform(non))
        assert metrics.eer(s) == metrics.eer(warped)
        ops = [metrics.OperatingPoint(0.01), metrics.OperatingPoint(0.3, 2.0, 0.5)]
        for op in ops:
            assert metrics.min_dcf(s, op)[0] == metrics.min_dcf(warped, op)[0]
        a = metrics.dcf_curve(s, -6, 6, 25, ops)
        b = metrics.dcf_curve(warped, -6, 6, 25, ops)
        np.testing.assert_array_equal(a.values, b.values)
        assert [v for _, v, _ in a.marked] == [v for _, v, _ in b.marked]

    def test_duplication_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            s = random_scores(rng)
            doubled = metrics.LabeledScores(
                np.concatenate([s.target, s.target]),
                np.concatenate([s.nontarget, s.nontarget]),
            )
            assert metrics.eer(s) == metrics.eer(doubled)
            op = metrics.OperatingPoint(0.1)
            assert metrics.min_dcf(s, op)[0] == metrics.min_dcf(doubled, op)[0]
