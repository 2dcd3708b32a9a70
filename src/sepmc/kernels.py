"""Hot counting kernel: positivity + PPT verdicts for batches of sampled points.

Positivity is decided by attempting a Cholesky factorization of
rho + tol*I, which succeeds iff the smallest eigenvalue exceeds -tol; this
matches `states.is_positive` (an eigenvalue solve) everywhere except exactly
on the measure-zero tolerance boundary.  The PPT verdict runs the same
factorization on the partial transpose, whose coefficient vector is the
point with the signs of `states.pt_sign_vector` applied.

Number systems.  Each family is factored as a 4x4 Hermitian matrix over
its own number system, beta real parts per entry (rebit over the reals,
qubit over the complex numbers, quaterbit over the quaternions); `algebra`
states how an entry is stored and multiplied.

Layout.  Points are scored in tiles of 4096.  Within a family every nonzero
part of a generator entry has one magnitude kappa (1/2 for rebit and qubit,
1/(2 sqrt 2) for quaterbit), so each tile is scaled once while it is
transposed, Y = kappa * X^T: contiguous (m, n) rows, one lane per point,
every per-lane quantity a contiguous float64 row.  The factor L has shape
(beta, 4, 4, n): part, row, column, lane.

Assembly.  `case_tables`, the one table builder, reads off the family's
basis which rows of Y enter each part of each entry of rho and with which
sign.  It checks once that `algebra.complex_form` of kappa times those
signs gives back the basis exactly, the one assumption the tables rest
on, and raises one ValueError naming the family otherwise.  It compiles
every part into one signed-sum program (`algebra.signed_program`): from
1/d on the diagonal and from 0 below it, one row of Y per generator in
increasing generator index.  The partial transpose gets its own tables
with the signs of `states.pt_sign_vector` folded in, so the PPT pass
scores the positive lanes' rows of Y as they are, with no sign-flipped
copy.

Lazy, compacting factorization.  The factorization is left-looking: column
j's diagonal pivot is assembled and reduced first, the lanes whose pivot is
not positive are dropped from every array at once, and only then is the
rest of column j assembled and factored for the survivors.  A tile stops as
soon as no lane is left.  Under ball sampling about half of the qubit lanes
are gone after two pivots and over 90% after three, so most of the matrix
is never built.

Arithmetic.  Column j is factored in this order: the pivot is rho[j, j]
+ tol minus |L[j, k]|^2 for k ascending (`algebra.abs_squared`); an entry
below it is rho[i, j] minus L[i, k] * conj(L[j, k]) for k ascending
(`algebra.mul_conj`), scaled by 1/L[j, j].  Every entry, norm and
product part is run by `algebra.run_signed`, whose module docstring
states why each keeps the bits of its signed sum.  The rebit and qubit
product programs give the bits of the real and complex products, so
rebit and qubit verdicts keep their bits; a quaterbit verdict equals the
one of the 8x8 complex factorization in exact arithmetic.  Dropping
lanes changes which lanes are computed, never the arithmetic of the ones
that remain.  The arithmetic is real, elementwise and unfused (no FMA),
so a verdict depends neither on the machine nor on the point's position
in its batch.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import abs_squared, complex_form, entry_parts, mul_conj, run_signed, signed_program
from .states import POSITIVITY_TOL, as_coefficients, get_case, pt_sign_vector

# perfbench records this in its report manifest; only a benchmark change can remove it.
BACKEND = "numpy"

# Points factored together: large enough to amortize per-call overhead over
# the lanes, small enough for a tile's live columns to stay in cache.
_TILE = 4096


def _column_tables(signs, init):
    """Per column j: (pivot, lower) entry programs for the signs (beta, m, d, d) of one basis."""
    beta, _, d, _ = signs.shape
    return tuple(
        ((init, signed_program(signs[0, :, j, j])),
         tuple((p, i, signed_program(signs[p, :, i, j]))
               for i in range(j + 1, d) for p in range(beta)))
        for j in range(d)
    )


@lru_cache(maxsize=None)
def case_tables(tag: str):
    """(kappa, tables, pt_tables): assembly of rho = I/d + sum_a c_a G_a for one family.

    rho is read as a 4x4 matrix over the family's number system, beta real
    parts per entry with beta the family's `StateCase.beta` (see
    `algebra.entry_parts`).  Every nonzero part of a generator entry is
    +-kappa, so with Y = kappa * c (one row per generator) each part of
    each entry of rho is a signed sum of rows of Y, compiled by
    `algebra.signed_program` with the generator index as step, and is run
    by `algebra.run_signed` with Y.__getitem__ as term.  tables[j] is
    (pivot, lower) for column j: pivot is (1/d, the program of rho[j, j]),
    and for (p, i, program) in lower the program, run from 0.0, gives part
    p of rho[i, j].  pt_tables is the same for the partial transpose
    (subsystem B): the coefficient signs of `states.pt_sign_vector` folded
    into every entry.

    kappa is the median magnitude of the nonzero parts (the upper one of
    an even count), so one off-scale generator cannot set it and is the
    one named.  Raises one ValueError, naming the family and the first
    generator that fails, unless `algebra.complex_form` of kappa * signs
    gives back the basis exactly: kappa * (+-1) is exact, so equality means
    that every generator is a matrix over the number system whose nonzero
    parts are all +-kappa.
    """
    case = get_case(tag)
    basis = case.basis
    parts = entry_parts(case.beta, basis)
    # a Python sort: np.median imports numpy.ma and np.sort pages in SIMD code at every set-up
    kappa = sorted(np.abs(parts[parts != 0]).tolist())[np.count_nonzero(parts) // 2]
    signs = np.sign(parts).astype(np.int8)
    wrong = np.any(complex_form(kappa * signs) != basis, axis=(-2, -1))
    if wrong.any():
        raise ValueError(f"{tag}: generator {np.argmax(wrong)} is not kappa = {kappa!r} times a "
                         f"sign matrix over the beta = {case.beta} number system")
    pt = np.asarray(pt_sign_vector(tag), dtype=np.int8)
    pt_signs = signs * pt[None, :, None, None]
    init = 1.0 / basis.shape[-1]
    return kappa, _column_tables(signs, init), _column_tables(pt_signs, init)


def _positive_lanes(Y: np.ndarray, beta: int, tables) -> np.ndarray:
    """Columns of Y (kappa times one point each) whose rho + POSITIVITY_TOL*I is positive definite."""
    d = len(tables)
    n = Y.shape[1]
    L = np.empty((beta, d, d, n))  # L[p, i, j]: part p of entry (i, j), lanes last
    for j, (pivot, lower) in enumerate(tables):
        s = run_signed(*pivot, Y.__getitem__, np.empty(n))
        s += POSITIVITY_TOL
        if j:
            norm = abs_squared(L[:, j, :j])
            for k in range(j):
                s -= norm[k]
        alive = s > 0.0
        if not alive.all():
            keep = np.flatnonzero(alive)
            n = keep.size
            if n == 0:
                return Y[:, :0]
            Y = Y.take(keep, axis=1)
            s = s.take(keep)
            live = L[:, j:, :j]
            L = np.empty((beta, d, d, n))
            np.take(live, keep, axis=-1, out=L[:, j:, :j])
        if j == d - 1:
            return Y
        inv = 1.0 / np.sqrt(s)
        for part, i, steps in lower:
            run_signed(0.0, steps, Y.__getitem__, L[part, i, j])
        c = L[:, j + 1:, j]
        if j:
            update = mul_conj(L[:, j + 1:, :j], L[:, j, :j])
            for k in range(j):
                c -= update[:, :, k]
        c *= inv


def count_tallies(pts: np.ndarray, tag: str):
    """Count (n_positive, n_separable-by-PPT) over a (n, m) batch of points.

    The points pass `states.as_coefficients` first, so complex, misshapen
    and non-finite input raises ValueError instead of being tallied.
    """
    case = get_case(tag)
    kappa, tables, pt_tables = case_tables(case.tag)
    pts = as_coefficients(case, pts, 2)
    npos = 0
    nsep = 0
    for lo in range(0, len(pts), _TILE):
        Y = np.multiply(pts[lo : lo + _TILE].T, kappa, order="C")
        pos = _positive_lanes(Y, case.beta, tables)
        if pos.shape[1]:
            npos += pos.shape[1]
            nsep += _positive_lanes(pos, case.beta, pt_tables).shape[1]
    return npos, nsep
