"""Evaluation of the conjectured separability probability series.

The conjectured value is an infinite sum over shifted copies of a single
term built from a degree-5 polynomial and gamma-function ratios,

    value(alpha) = sum_{i>=0} term(alpha + i),

    term(a) = poly(a) * 2^(-4a-6) * G(3a+5/2) * G(5a+2)
              / (3 * G(a+1) * G(2a+3) * G(5a+13/2)),

with G the gamma function.  Successive-term ratios increase monotonically
to 27/64, so the series converges geometrically and the tail after the last
computed term t is bounded by t * q/(1-q) with q = max(observed ratio,
27/64).

Known special values: alpha = 1/2 -> 29/64, alpha = 1 -> 8/33,
alpha = 2 -> 26/323.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# poly coefficients, ascending order
_POLY = (63000.0, 410694.0, 1042015.0, 1289125.0, 779750.0, 185000.0)

# Limit of term(a+1)/term(a) as a -> infinity; also an upper bound on every
# ratio encountered for a >= 0 (the ratio increases toward it).
RATIO_LIMIT = 27.0 / 64.0

# Tolerances outside [MIN_REL_TOL, MAX_REL_TOL] are rejected: looser ones
# are pointless, tighter ones exceed what double-precision log-gamma
# arithmetic can honor.
MIN_REL_TOL = 1e-12
MAX_REL_TOL = 1e-6

_MAX_TERMS = 10_000

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)


def q_poly(alpha: float) -> float:
    """Degree-5 series polynomial, evaluated in Horner form."""
    acc = 0.0
    for coef in reversed(_POLY):
        acc = acc * alpha + coef
    return acc


def f_term(alpha: float) -> float:
    """One series term, computed in log space to avoid gamma overflow.

    Strictly positive for finite alpha >= 0; raises for alpha < 0, where the
    gamma arguments can hit poles, and for a NaN or infinite alpha.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"series term requires finite alpha >= 0, got {alpha}")
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


def p_of_alpha(alpha: float, rel_tol: float = 1e-12) -> SeriesResult:
    """Sum the series at alpha until the geometric tail bound meets rel_tol.

    Partial sums increase monotonically; the returned tail_bound satisfies
    tail_bound <= rel_tol * value.  Raises ArithmeticError when the first
    term is not a normal double (alpha from about 816 up), since a subnormal
    sum carries only a few significant digits.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not (MIN_REL_TOL <= rel_tol <= MAX_REL_TOL):
        raise ValueError(
            f"rel_tol must lie in [{MIN_REL_TOL:g}, {MAX_REL_TOL:g}], got {rel_tol}"
        )
    total = 0.0
    term = f_term(alpha)
    if term < sys.float_info.min:
        raise ArithmeticError(
            f"series term underflows at alpha={alpha}: {term!r} is below the "
            f"smallest normal double {sys.float_info.min!r}"
        )
    for i in range(1, _MAX_TERMS + 1):
        total += term
        nxt = f_term(alpha + i)
        ratio = nxt / term
        if ratio >= 1.0:
            raise ArithmeticError(
                f"non-contracting term ratio {ratio} at i={i} (alpha={alpha})"
            )
        q = max(ratio, RATIO_LIMIT)
        tail = term * q / (1.0 - q)
        if tail <= rel_tol * total:
            return SeriesResult(alpha, total, i, tail, rel_tol)
        term = nxt
    raise ArithmeticError(
        f"series did not meet rel_tol={rel_tol} within {_MAX_TERMS} terms"
    )
