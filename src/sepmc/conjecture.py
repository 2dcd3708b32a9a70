"""Evaluation of the conjectured separability probability series.

The conjectured value is an infinite sum over shifted copies of a single
term built from a degree-5 polynomial and gamma-function ratios,

    value(alpha) = sum_{i>=0} term(alpha + i),

    term(a) = poly(a) * 2^(-4a-6) * G(3a+5/2) * G(5a+2)
              / (3 * G(a+1) * G(2a+3) * G(5a+13/2)),

with G the gamma function.  For every a >= 0 the term ratio
term(a+1)/term(a) is below q = 27/64 (its limit as a -> infinity; the
inequality is proven and tested in tests/test_conjecture.py), so the series
converges geometrically and the tail after the last computed term t is
bounded by t * q/(1-q).

Known special values: alpha = 1/2 -> 29/64, alpha = 1 -> 8/33,
alpha = 2 -> 26/323.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass

# poly coefficients, ascending order
_POLY = (63000.0, 410694.0, 1042015.0, 1289125.0, 779750.0, 185000.0)

# Limit of term(a+1)/term(a) as a -> infinity, and a bound on that ratio for
# every a >= 0: 432*P(a)*D(a) - 64*P(a+1)*N(a) of the ratio's factor form has
# only non-negative coefficients (tested), so the tail factor is this constant.
RATIO_LIMIT = 27.0 / 64.0

# Tolerances outside [MIN_REL_TOL, MAX_REL_TOL] are rejected: looser ones
# are pointless, tighter ones exceed what double-precision log-gamma
# arithmetic can honor.
MIN_REL_TOL = 1e-12
MAX_REL_TOL = 1e-6

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)

# term(a) < term(a mod 1) * RATIO_LIMIT**floor(a) and term < 0.76 on [0, 1),
# so from here on every term is below 2**-1075, half the smallest subnormal,
# and rounds to 0.0 (the log-space evaluation reaches 0.0 from about 858).
_TERM_ZERO_FROM = 1.0 + 1075.0 * _LN2 / -math.log(RATIO_LIMIT)


def q_poly(alpha: float) -> float:
    """Degree-5 series polynomial, evaluated in Horner form."""
    acc = 0.0
    for coef in reversed(_POLY):
        acc = acc * alpha + coef
    return acc


def f_term(alpha: float) -> float:
    """One series term, computed in log space to avoid gamma overflow.

    Positive until it underflows to 0.0 near alpha = 858.  From
    _TERM_ZERO_FROM on it returns 0.0 unevaluated, so it stays finite where
    q_poly (alpha about 1e61) and lgamma (about 1e305) would overflow.
    alpha is a real number, not a bool; raises ValueError naming alpha for
    anything else, for alpha < 0, where the gamma arguments can hit poles,
    and for a NaN or infinite alpha.
    """
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and 0 <= alpha <= sys.float_info.max):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha >= _TERM_ZERO_FROM:
        return 0.0
    log_term = (
        math.log(q_poly(alpha))
        + (-4.0 * alpha - 6.0) * _LN2
        + math.lgamma(3.0 * alpha + 2.5)
        + math.lgamma(5.0 * alpha + 2.0)
        - _LN3
        - math.lgamma(alpha + 1.0)
        - math.lgamma(2.0 * alpha + 3.0)
        - math.lgamma(5.0 * alpha + 6.5)
    )
    return math.exp(log_term)


@dataclass(frozen=True)
class SeriesResult:
    alpha: float
    value: float
    terms_used: int
    tail_bound: float
    rel_tol: float


def p_of_alpha(alpha: float, rel_tol: float = MIN_REL_TOL) -> SeriesResult:
    """Sum the series at alpha until the geometric tail bound meets rel_tol.

    Partial sums increase monotonically.  After a term t the tail is below
    t * q/(1-q) with q = RATIO_LIMIT = 27/64, the proven bound on every term
    ratio; the returned tail_bound is that bound and satisfies
    tail_bound <= rel_tol * value.  Raises ArithmeticError naming alpha when
    the first term is not a finite normal double (alpha from about 816 up),
    since a subnormal sum carries only a few significant digits.
    """
    term = f_term(alpha)  # raises ValueError for a bad alpha, before rel_tol is checked
    if not (MIN_REL_TOL <= rel_tol <= MAX_REL_TOL):
        raise ValueError(
            f"rel_tol must lie in [{MIN_REL_TOL:g}, {MAX_REL_TOL:g}], got {rel_tol}"
        )
    total = 0.0
    if not sys.float_info.min <= term <= sys.float_info.max:
        raise ArithmeticError(
            f"series term at alpha={alpha} is {term!r}, not a finite normal double "
            f"(the smallest normal is {sys.float_info.min!r})"
        )
    for i in itertools.count(1):
        total += term
        tail = term * RATIO_LIMIT / (1.0 - RATIO_LIMIT)
        if tail <= rel_tol * total:
            return SeriesResult(alpha, total, i, tail, rel_tol)
        term = f_term(alpha + i)
