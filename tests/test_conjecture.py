import math
import sys

import numpy as np
import pytest

from sepmc.conjecture import (
    MAX_REL_TOL,
    MIN_REL_TOL,
    RATIO_LIMIT,
    f_term,
    p_of_alpha,
    q_poly,
)

POLY_COEFFS = (63000, 410694, 1042015, 1289125, 779750, 185000)


def poly_oracle(alpha):
    """Term-by-term power sum, independent of the Horner evaluation."""
    return sum(c * alpha**k for k, c in enumerate(POLY_COEFFS))


class TestPoly:
    def test_constant_term(self):
        assert q_poly(0.0) == 63000.0

    def test_sum_of_coefficients(self):
        assert q_poly(1.0) == float(sum(POLY_COEFFS))
        assert sum(POLY_COEFFS) == 3769584

    def test_alternating_sum(self):
        assert q_poly(-1.0) == pytest.approx(poly_oracle(-1.0), rel=1e-12)

    def test_against_power_sum(self):
        for alpha in (-2.5, -0.5, 0.3, 2.0, 7.5):
            assert q_poly(alpha) == pytest.approx(poly_oracle(alpha), rel=1e-12)


def f_term_direct(alpha):
    """Plain gamma-product evaluation; overflows for large alpha."""
    return (
        q_poly(alpha)
        * 2.0 ** (-4 * alpha - 6)
        * math.gamma(3 * alpha + 2.5)
        * math.gamma(5 * alpha + 2.0)
        / (3 * math.gamma(alpha + 1) * math.gamma(2 * alpha + 3) * math.gamma(5 * alpha + 6.5))
    )


class TestTerm:
    def test_positive_on_range(self):
        for alpha in np.linspace(0.0, 10.0, 101):
            assert f_term(float(alpha)) > 0.0

    @pytest.mark.parametrize("alpha", [870.0, 1e61, 1e305, sys.float_info.max])
    def test_zero_where_the_term_underflows(self, alpha):
        # q_poly(1e61) and lgamma(5e305) overflow; the term itself is far below 5e-324
        assert f_term(alpha) == 0.0

    def test_matches_direct_product(self):
        for alpha in np.linspace(0.0, 3.0, 31):
            a = float(alpha)
            assert f_term(a) == pytest.approx(f_term_direct(a), rel=1e-10)

    def test_negative_alpha_rejected(self):
        for alpha in (-0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                f_term(alpha)

    def test_ratio_limit(self):
        assert f_term(51.0) / f_term(50.0) == pytest.approx(RATIO_LIMIT, rel=0.01)

    def test_ratio_increasing_below_limit(self):
        for start in (0.0, 0.5, 1.0, 2.0, 3.75):
            ratios = [f_term(start + i + 1) / f_term(start + i) for i in range(60)]
            assert all(r < RATIO_LIMIT for r in ratios)
            assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestSeries:
    @pytest.mark.parametrize(
        "alpha,target",
        [(1.0, 8 / 33), (0.5, 29 / 64), (2.0, 26 / 323)],
    )
    def test_known_rationals(self, alpha, target):
        res = p_of_alpha(alpha, 1e-12)
        assert abs(res.value - target) < 1e-10
        assert res.tail_bound <= 1e-12 * res.value
        assert 0.0 < res.value < 1.0

    def test_partial_sums_monotone_and_bounded(self):
        res = p_of_alpha(1.0, 1e-12)
        partial = 0.0
        previous = -1.0
        for i in range(res.terms_used):
            partial += f_term(1.0 + i)
            assert partial > previous
            previous = partial
        assert partial <= res.value + res.tail_bound
        assert partial == pytest.approx(res.value, rel=1e-15)

    def test_ordering_across_families(self):
        p_rebit = p_of_alpha(0.5).value
        p_qubit = p_of_alpha(1.0).value
        p_quaterbit = p_of_alpha(2.0).value
        assert p_rebit > p_qubit > p_quaterbit

    def test_tolerance_respected_at_loose_setting(self):
        res = p_of_alpha(1.0, 1e-6)
        assert res.tail_bound <= 1e-6 * res.value
        assert res.terms_used < p_of_alpha(1.0, 1e-12).terms_used
        assert abs(res.value - 8 / 33) < 1e-6

    def test_domain_validation(self):
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                p_of_alpha(alpha)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, 0.0)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, 2 * MAX_REL_TOL)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, MIN_REL_TOL / 10)
        # the boundaries themselves are fine
        p_of_alpha(1.0, MIN_REL_TOL)
        p_of_alpha(1.0, MAX_REL_TOL)

    @pytest.mark.parametrize("alpha", [850.0, 870.0, 1e61, sys.float_info.max])
    def test_underflowing_first_term_rejected(self, alpha):
        # f_term(850) is subnormal (about 3 significant digits), f_term(870) is 0.0,
        # and from 1e61 the term's polynomial overflows
        with pytest.raises(ArithmeticError, match="alpha=") as info:
            p_of_alpha(alpha)
        assert not isinstance(info.value, ZeroDivisionError)

    def test_last_normal_first_term_keeps_its_value(self):
        res = p_of_alpha(800.0)
        assert res.value == 3.752139700655582e-302
        assert res.terms_used == 32

    def test_generic_alpha_values_evaluate(self):
        for alpha in (0.0, 0.25, 1.5, 3.0, 10.0):
            res = p_of_alpha(alpha, 1e-12)
            assert res.value > 0.0
            assert res.tail_bound <= 1e-12 * res.value
            assert res.terms_used < 200
