"""Closed-form thresholds, rate functions, and detection bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsim.budget import (
    BudgetInputs,
    ad_necessary,
    ad_sufficient,
    adaptivity_gap_bounds,
    choose_r_star,
    detection_lb_mvad,
    detection_lb_mvna,
    entropies,
    f1,
    f2,
    f3,
    f4,
    h_t_upper_bound,
    na_necessary,
    na_sufficient,
    rstar_ad_necessary,
    rstar_na_necessary,
)
from rqsim.errors import InvalidParameterError


class TestEntropies:
    def test_degenerate(self):
        hp, hq = entropies(1.0, 1.0, 3)
        assert hp == 0.0
        assert hq == 0.0

    def test_fair_coin(self):
        hp, _ = entropies(0.5, 0.9, 3)
        assert hp == pytest.approx(1.0)

    def test_uniform_direction(self):
        _, hq = entropies(0.9, 1 / 3, 3)
        assert hq == pytest.approx(math.log2(3), rel=1e-12)

    def test_direction_entropy_below_log_d(self):
        for d in (3, 4, 7):
            for q in (1 / d + 0.01, 0.5, 0.9):
                _, hq = entropies(0.8, q, d)
                assert hq <= math.log2(d) + 1e-12


class TestRateFunctions:
    def test_vanish_at_no_information_point(self):
        for d in (3, 4, 6):
            assert f1(d, 0.5, 1 / d) == pytest.approx(0.0, abs=1e-12)
            assert f2(d, 0.5, 1 / d) == pytest.approx(0.0, abs=1e-15)
            assert f3(d, 0.5, 1 / d) == pytest.approx(0.0, abs=1e-12)
            assert f4(d, 0.5, 1 / d) == pytest.approx(0.0, abs=1e-15)

    def test_f2_with_perfect_id(self):
        for q in (0.4, 0.7, 1.0):
            assert f2(3, 1.0, q) == pytest.approx(0.75)

    def test_f4_fully_truthful(self):
        # 2d/(d-1) * 1/4 + (d-1)/(d-2) * (1 - 1/d)^3 at d = 3
        assert f4(3, 1.0, 1.0) == pytest.approx(0.75 + 2 * (2 / 3) ** 3, rel=1e-12)
        assert f4(3, 1.0, 1.0) == pytest.approx(1.342593, abs=1e-6)

    def test_hand_value_f2(self):
        assert f2(3, 0.75, 0.6) == pytest.approx(0.1904629630, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(min_value=3, max_value=8),
        p=st.floats(min_value=0.5, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_nonnegative_on_domain(self, d, p, q):
        q = 1 / d + q * (1 - 1 / d)  # rescale into [1/d, 1]
        assert f1(d, p, q) >= -1e-10
        assert f2(d, p, q) >= -1e-15
        assert f3(d, p, q) >= -1e-10
        assert f4(d, p, q) >= -1e-15


class TestSufficientThresholds:
    def test_na_hand_evaluation(self):
        inputs = BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6)
        val = na_sufficient(inputs)
        # 36 * 100 / (0.19046... * ln(ln(100)))
        assert val == pytest.approx(12376.7, rel=0.01)
        assert abs(val - 1.24e4) / 1.24e4 < 0.01

    def test_all_four_diverge_at_no_information(self):
        inputs = BudgetInputs(delta=0.02, d=3, p=0.5, q=1 / 3)
        assert na_sufficient(inputs) == math.inf
        assert ad_sufficient(inputs) == math.inf
        assert na_necessary(inputs, r=3) == math.inf
        assert ad_necessary(inputs, r=3) == math.inf

    def test_ad_alpha_exponent_branches(self):
        # reconstruct the log factor: value * f4 * lnln / coefficient
        delta = 1e-3
        y = 7 / delta
        for p, alpha in [(0.9, 2), (1.0, 1)]:
            inputs = BudgetInputs(delta=delta, d=3, p=p, q=0.8)
            val = ad_sufficient(inputs)
            coef = 2 * (2 * 3 - 3) / 3
            factor = val * f4(3, p, 0.8) * math.log(math.log(y)) / coef
            assert factor == pytest.approx(math.log(y) ** alpha, rel=1e-9)

    def test_na_scales_like_inverse_delta(self):
        base = BudgetInputs(delta=0.02, d=3, p=0.8, q=0.7)
        tight = BudgetInputs(delta=0.002, d=3, p=0.8, q=0.7)
        ratio = na_sufficient(tight) / na_sufficient(base)
        # (2/delta) growth dominates; loglog shaves a bit off the 10x
        assert 7.0 < ratio < 10.0

    def test_rejects_delta_outside_loglog_domain(self):
        with pytest.raises(InvalidParameterError):
            na_sufficient(BudgetInputs(delta=0.9, d=3, p=0.8, q=0.7))


class TestNecessaryThresholds:
    def test_direct_with_given_entropy(self):
        inputs = BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6, h_t=10.0)
        expect = 10.0 * math.sqrt(100) / (f1(3, 0.75, 0.6) * math.log(math.log(100)))
        assert na_necessary(inputs) == pytest.approx(expect, rel=1e-12)

    def test_scales_with_c_constant(self):
        a = BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6, h_t=5.0)
        b = BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6, h_t=5.0, c_const=2.0)
        assert na_necessary(b) == pytest.approx(2 * na_necessary(a), rel=1e-12)
        assert ad_necessary(b) == pytest.approx(2 * ad_necessary(a), rel=1e-12)

    def test_default_entropy_step_semantics_with_explicit_r(self):
        # with H(T) = K/r the failure condition reduces to r <= base
        inputs = BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6)
        assert na_necessary(inputs, r=1) == math.inf
        assert na_necessary(inputs, r=10_000) == 0.0

    @pytest.mark.parametrize("scheme", ["na", "ad"])
    def test_default_entropy_self_consistent_k(self, scheme):
        inputs = BudgetInputs(delta=0.05, d=3, p=0.75, q=0.6)
        if scheme == "na":
            val, rstar = na_necessary(inputs), rstar_na_necessary
            x = 2 / inputs.delta
            base = math.sqrt(x) / (f1(3, 0.75, 0.6) * math.log(math.log(x)))
        else:
            val, rstar = ad_necessary(inputs), rstar_ad_necessary
            y = 7 / inputs.delta  # alpha = 2 at p < 1
            base = math.log(y) / (f3(3, 0.75, 0.6) * math.log(math.log(y)))
        # the self-consistent point is finite here and satisfies r*(K) = base
        assert 0 < val < math.inf
        assert rstar(val, 3, 0.75, 0.6) == pytest.approx(base, rel=1e-9)

    def test_ad_necessary_direct(self):
        inputs = BudgetInputs(delta=0.01, d=3, p=0.8, q=0.7, h_t=4.0)
        y = 7 / 0.01
        expect = 4.0 * math.log(y) / (f3(3, 0.8, 0.7) * math.log(math.log(y)))
        assert ad_necessary(BudgetInputs(delta=0.01, d=3, p=1.0, q=0.7, h_t=4.0)) == pytest.approx(
            4.0 * math.log(y) ** 0.5 / (f3(3, 1.0, 0.7) * math.log(math.log(y))), rel=1e-12
        )
        assert ad_necessary(inputs) == pytest.approx(expect, rel=1e-12)


class TestAdaptivityGap:
    def test_lower_below_upper_across_grid(self):
        for exp in range(1, 7):
            delta = 10.0**-exp
            if delta >= math.exp(-2):
                continue
            lo, hi = adaptivity_gap_bounds(BudgetInputs(delta=delta, d=3, p=0.8, q=0.7))
            assert lo <= hi

    def test_alpha_flip_at_perfect_id(self):
        delta = 1e-3
        lo2, hi2 = adaptivity_gap_bounds(BudgetInputs(delta=delta, d=3, p=0.9, q=0.7))
        lo1, hi1 = adaptivity_gap_bounds(BudgetInputs(delta=delta, d=3, p=1.0, q=0.7))
        big_l = math.log(1 / delta)
        assert lo1 / lo2 == pytest.approx(big_l, rel=1e-9)
        assert hi1 / hi2 == pytest.approx(math.sqrt(big_l), rel=1e-9)

    def test_sufficient_ratio_between_bounds_after_calibration(self):
        # fit u1, u2 so the bounds bracket the measured ratio at one
        # delta, then check the bracket persists at others
        d, p, q = 3, 0.8, 0.7
        deltas = [3e-2, 1e-2, 1e-3, 1e-4]

        def ratio(delta):
            inp = BudgetInputs(delta=delta, d=d, p=p, q=q)
            return na_sufficient(inp) / ad_sufficient(inp)

        r0 = ratio(deltas[0])
        inp0 = BudgetInputs(delta=deltas[0], d=d, p=p, q=q)
        lo0, hi0 = adaptivity_gap_bounds(inp0)
        u1 = 0.5 * r0 / lo0
        u2 = 2.0 * r0 / hi0
        for delta in deltas[1:]:
            inp = BudgetInputs(delta=delta, d=d, p=p, q=q, u1=u1, u2=u2)
            lo, hi = adaptivity_gap_bounds(inp)
            assert lo <= ratio(delta) <= hi

    def test_rejects_large_delta(self):
        with pytest.raises(InvalidParameterError):
            adaptivity_gap_bounds(BudgetInputs(delta=0.2, d=3, p=0.8, q=0.7))


class TestDetectionBounds:
    def test_mvna_monotone_in_budget(self):
        vals = [detection_lb_mvna(K, 5, 3, 0.8, 0.8) for K in (20, 40, 80, 160, 320)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mvna_in_unit_interval(self):
        for K, r in [(10, 5), (100, 2), (1000, 7)]:
            for p in (0.51, 0.8, 1.0):
                for q in (0.4, 0.9, 1.0):
                    v = detection_lb_mvna(K, r, 3, p, q)
                    assert 0.0 <= v <= 1.0

    def test_mvna_domain(self):
        with pytest.raises(InvalidParameterError):
            detection_lb_mvna(3, 4, 3, 0.8, 0.8)  # K < r
        with pytest.raises(InvalidParameterError):
            detection_lb_mvna(5, 4, 3, 0.8, 0.8)  # K/r < d-1

    def test_mvad_uninformative_direction_reduces_to_id_only(self):
        # q = 1/d makes the walk-quality factor exp(0) = 1
        d, K, r, p = 3, 100, 2, 0.9
        v = detection_lb_mvad(K, r, d, p, 1 / d)
        c = (5 * d + 1) / d
        x = K / r
        expect = 1 - c * math.exp(-((p - 0.5) ** 2) * x * math.log(x))
        assert v == pytest.approx(max(0.0, min(1.0, expect)))

    def test_mvad_monotone_in_budget(self):
        vals = [detection_lb_mvad(K, 3, 3, 0.8, 0.8) for K in (30, 60, 120, 240)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mvad_large_r_limit(self):
        # walk covers no distance; bound collapses to 1 - c * g^3 <= 0
        v = detection_lb_mvad(10, 10_000, 3, 0.8, 0.34)
        g = math.exp(-10_000 * 2 * (0.34 - 1 / 3) ** 2 / (9 * 0.66))
        expect = 1 - (16 / 3) * g**3 * math.exp(-((0.3) ** 2) * (10 / 10_000) * math.log(10 / 10_000))
        assert v == pytest.approx(max(0.0, min(1.0, expect)), abs=1e-12)

    def test_mvad_perfect_direction(self):
        assert detection_lb_mvad(100, 2, 3, 0.8, 1.0) == 1.0


class TestDetectionBoundsAgainstSimulation:
    def test_mvna_bound_not_violated_empirically(self):
        # soft check: the analytic lower bound must sit at or below the
        # measured detection rate (plus Monte Carlo slack)
        import numpy as np

        from rqsim.diffusion import simulate_si
        from rqsim.estimators import NAConfig, run_mvna
        from rqsim.graphs import make_regular_tree
        from rqsim.respondent import TruthModel

        rng = np.random.default_rng(606)
        trials = 80
        for p, q, K, r in [(0.8, 0.8, 200, 2), (0.9, 0.9, 100, 2)]:
            hits = 0
            for _ in range(trials):
                snap = simulate_si(make_regular_tree(3), 0, 400, rng)
                out = run_mvna(snap, NAConfig(budget=K, repetitions=r), TruthModel(p=p, q=q), rng)
                hits += int(out.estimate == 0)
            phat = hits / trials
            bound = detection_lb_mvna(K, r, 3, p, q)
            se = math.sqrt(max(phat * (1 - phat), 1e-9) / trials)
            assert bound <= phat + 3 * se, (p, q, K, r, bound, phat)


class TestInfectionTimeEntropyBound:
    def test_single_hop(self):
        assert h_t_upper_bound([1]) == pytest.approx(1.0)

    def test_two_hops(self):
        assert h_t_upper_bound([2]) == pytest.approx(2.0)

    def test_pair_of_threes(self):
        assert h_t_upper_bound([3, 3]) == pytest.approx(2 * (math.log(2) + 3), rel=1e-12)

    def test_rejects_zero_hop(self):
        with pytest.raises(InvalidParameterError):
            h_t_upper_bound([1, 0])

    @pytest.mark.parametrize("hops", [[1.5], [2.0], [True], [2, 3.5]], ids=repr)
    def test_hop_counts_are_integers(self, hops):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            h_t_upper_bound(hops)


class TestBudgetInputsValidation:
    def test_boundary_values_accepted(self):
        BudgetInputs(delta=0.1, d=3, p=0.5, q=1 / 3)

    def test_rejections(self):
        with pytest.raises(InvalidParameterError):
            BudgetInputs(delta=0.0, d=3, p=0.8, q=0.5)
        with pytest.raises(InvalidParameterError):
            BudgetInputs(delta=0.1, d=2, p=0.8, q=0.5)
        with pytest.raises(InvalidParameterError):
            BudgetInputs(delta=0.1, d=3, p=0.4, q=0.5)
        with pytest.raises(InvalidParameterError):
            BudgetInputs(delta=0.1, d=3, p=0.8, q=0.2)
        with pytest.raises(InvalidParameterError):
            BudgetInputs(delta=0.1, d=3, p=0.8, q=0.5, h_t=-1.0)

    @pytest.mark.parametrize("name", ["h_t", "c_const", "u1", "u2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        with pytest.raises(InvalidParameterError, match=name):
            BudgetInputs(delta=0.1, d=3, p=0.8, q=0.8, **{name: value})

    def test_positive_constants_accepted(self):
        BudgetInputs(delta=0.1, d=3, p=0.8, q=0.8, h_t=1e-9, c_const=2.5, u1=0.5, u2=1e6)


class TestModelPointValidation:
    @pytest.mark.parametrize("call", [
        lambda: detection_lb_mvna(100, 1, 3, 0.3, 0.8),  # would read 0.342
        lambda: detection_lb_mvna(100, 1, 3, 0.8, math.nan),
        lambda: detection_lb_mvna(100, 1, 3.0, 0.8, 0.8),
        lambda: detection_lb_mvad(100, 1, 3, 0.8, 1.5),  # would read 1.0
        lambda: detection_lb_mvad(10, 1, 3, math.nan, 0.8),  # would read 0.0
        lambda: detection_lb_mvad(100, 1, 3.5, 0.8, 0.8),
        lambda: f4(2, 0.8, 0.8),  # ZeroDivisionError
        lambda: f2(3, 0.8, 0.0),
        lambda: f1(3, 1.2, 0.8),
        lambda: f3(True, 0.8, 0.8),
        lambda: entropies(0.8, 0.0, 3),  # math domain error
        lambda: choose_r_star("na", "sufficient", 200, 3.0, 0.8, 0.8),
    ])
    def test_outside_the_model_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: choose_r_star("ad", "sufficient", 4.5, 3, 0.5, 0.1),  # would return 4.5
        lambda: choose_r_star("na", "sufficient", 10.5, 3, 0.8, 0.8),  # would return 1
        lambda: detection_lb_mvad(10.5, 1.5, 3, 0.8, 0.8),  # would read 0.473
        lambda: detection_lb_mvad(100, True, 3, 0.8, 0.8),
        lambda: detection_lb_mvna(100.5, True, 3, 0.8, 0.8),  # would read 0.337
        lambda: detection_lb_mvna(100.5, 2, 3, 0.8, 0.8),
        lambda: na_necessary(BudgetInputs(delta=0.02, d=3, p=0.75, q=0.6), r=1.5),
        lambda: BudgetInputs(delta=0.1, d=3.5, p=0.8, q=0.5),  # refused only when evaluated
        lambda: BudgetInputs(delta=0.1, d=True, p=0.8, q=0.5),
    ])
    def test_counts_and_degrees_must_be_integers(self, call):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call()

    def test_no_information_point_accepted(self):
        for f in (f1, f2, f3, f4):
            assert f(4, 0.5, 0.25) == pytest.approx(0.0, abs=1e-12)
        assert entropies(0.5, 0.25, 4) == pytest.approx((1.0, 2.0))


class TestRStarValidation:
    @pytest.mark.parametrize("p, q", [(2.0, -1.0), (0.3, 0.1), (math.nan, 0.8), (0.8, math.nan),
                                      (math.inf, 0.8), (0.8, math.inf), (0.49, 0.8),
                                      (1.01, 0.8), (0.8, 0.0), (0.8, 1.01)])
    @pytest.mark.parametrize("scheme", ["na", "ad"])
    @pytest.mark.parametrize("kind", ["necessary", "sufficient"])
    def test_p_or_q_out_of_range_rejected(self, scheme, kind, p, q):
        with pytest.raises(InvalidParameterError):
            choose_r_star(scheme, kind, 200, 3, p, q)

    @pytest.mark.parametrize("p, q", [(0.5, 0.8), (1.0, 1.0), (0.8, 0.1), (0.8, 0.25)])
    def test_range_ends_and_q_at_or_below_one_over_d_accepted(self, p, q):
        # q <= 1/d stays accepted: a sweep resolves r with a representative
        # d and checks q against each trial's graph.
        for scheme in ("na", "ad"):
            for kind in ("necessary", "sufficient"):
                assert 1 <= choose_r_star(scheme, kind, 200, 4, p, q) <= 200
