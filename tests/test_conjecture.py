import math
import sys
from fractions import Fraction

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
        # a bool is not read as 0 or 1, nor anything else that is not one real number
        for alpha in (-0.25, math.nan, math.inf, True, False, "1", 1j, None, np.array([1.0])):
            with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
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
        for alpha in (-1.0, math.nan, math.inf, True, False, "1", 1j, None, np.array([1.0])):
            with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                p_of_alpha(alpha)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, 0.0)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, 2 * MAX_REL_TOL)
        with pytest.raises(ValueError, match="rel_tol"):
            p_of_alpha(1.0, MIN_REL_TOL / 10)
        # not one real number: refused by name, never compared or read as its element
        for rel_tol in ("1e-12", None, [1e-12], 1e-12 + 0j, np.array([1e-12]), True,
                        math.nan, 10**400):
            with pytest.raises(ValueError, match="^rel_tol must be finite and in "):
                p_of_alpha(1.0, rel_tol)
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


def _poly_mul(p, q):
    """Product of two polynomials given as ascending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _linear_product(factors):
    """prod (slope * a + offset) over (slope, offset) pairs, as ascending coefficients."""
    out = [Fraction(1)]
    for slope, offset in factors:
        out = _poly_mul(out, [Fraction(offset), Fraction(slope)])
    return out


def _poly_eval(p, a):
    return sum(c * a**k for k, c in enumerate(p))


def _shift_by_one(p):
    """Coefficients of p(a + 1)."""
    out = [Fraction(0)] * len(p)
    for k, c in enumerate(p):
        for i in range(k + 1):
            out[i] += c * math.comb(k, i)
    return out


# term(a+1)/term(a) = P(a+1)/P(a) * N(a) / (16 * D(a)), from the gamma ratios
_N = _linear_product([(3, Fraction(5, 2)), (3, Fraction(7, 2)), (3, Fraction(9, 2)),
                      (5, 2), (5, 3), (5, 4), (5, 5), (5, 6)])
_D = _linear_product([(1, 1), (2, 3), (2, 4), (5, Fraction(13, 2)), (5, Fraction(15, 2)),
                      (5, Fraction(17, 2)), (5, Fraction(19, 2)), (5, Fraction(21, 2))])
_P = [Fraction(c) for c in POLY_COEFFS]


class TestTailBound:
    """The term ratio is below RATIO_LIMIT = 27/64 for every a >= 0.

    The ratio is below 27/64 exactly when 432*P(a)*D(a) - 64*P(a+1)*N(a) > 0;
    a polynomial with non-negative coefficients and a positive constant term
    is positive on a >= 0.  p_of_alpha's tail bound rests on this.
    """

    def test_poly_coefficients_are_q_poly(self):
        # six points fix a degree-5 polynomial
        for a in range(6):
            assert _poly_eval(_P, a) == q_poly(float(a))

    def test_factor_form_matches_the_term_ratio(self):
        for a in (0.0, 0.5, 1.0, 2.0, 3.7, 50.0):
            x = Fraction(a)
            ratio = (_poly_eval(_shift_by_one(_P), x) * _poly_eval(_N, x)
                     / (16 * _poly_eval(_P, x) * _poly_eval(_D, x)))
            assert float(ratio) == pytest.approx(f_term(a + 1) / f_term(a), rel=1e-9)

    def test_ratio_limit_bounds_every_ratio(self):
        assert RATIO_LIMIT == 27 / 64
        lhs = [432 * c for c in _poly_mul(_P, _D)]
        rhs = [64 * c for c in _poly_mul(_shift_by_one(_P), _N)]
        diff = [a - b for a, b in zip(lhs, rhs)]
        assert len(lhs) == len(rhs) == 14
        assert all(c >= 0 for c in diff)
        assert diff[0] > 0
        assert diff[0] == 6_659_789_900_400


# (alpha, rel_tol) -> (value.hex(), tail_bound.hex(), terms_used): every bit
# of p_of_alpha's result across its alpha domain and rel_tol range
_PINNED = {
    (0.0, 1e-12): ("0x1.fffffffffe4d9p-1", "0x1.c0987a1d4f5ccp-41", 30),
    (0.0, 1e-6): ("0x1.fffff0d22587bp-1", "0x1.00bc07e79c149p-21", 15),
    (0.5, 1e-12): ("0x1.cfffffffff176p-2", "0x1.df8dfa0e622e3p-43", 31),
    (0.5, 1e-6): ("0x1.cfffec95a85d6p-2", "0x1.47d0d579570bdp-22", 15),
    (1.0, 1e-12): ("0x1.f07c1f07c0c2bp-3", "0x1.34fac07ae51f4p-43", 31),
    (1.0, 1e-6): ("0x1.f07c062f4a8b9p-3", "0x1.a2d11d5e6d383p-23", 15),
    (2.0, 1e-12): ("0x1.49b57f9a8c182p-4", "0x1.00a15293da53fp-44", 31),
    (2.0, 1e-6): ("0x1.49b56b3be44a7p-4", "0x1.5658d06f36416p-24", 15),
    (3.7, 1e-12): ("0x1.dcd06734713fbp-7", "0x1.cd6203f743364p-47", 31),
    (3.7, 1e-6): ("0x1.dcd0586d80f26p-7", "0x1.ed7464365a485p-28", 16),
    (815.9, 1e-12): ("0x1.d52b0f0ea69dep-1022", "0x0.0000000002016p-1022", 32),
    (815.9, 1e-6): ("0x1.d52af06654f00p-1022", "0x0.00001eb07bdcap-1022", 16),
}


@pytest.mark.parametrize("alpha,rel_tol", sorted(_PINNED))
def test_series_results_pinned(alpha, rel_tol):
    res = p_of_alpha(alpha, rel_tol)
    assert (res.value.hex(), res.tail_bound.hex(), res.terms_used) == _PINNED[alpha, rel_tol]
