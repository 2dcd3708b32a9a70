"""Hot counting kernel: positivity + PPT verdicts for batches of sampled points.

Positivity is decided by attempting a Cholesky factorization of
rho + tol*I, which succeeds iff the smallest eigenvalue exceeds -tol; this
matches `states.is_positive` (an eigenvalue solve) everywhere except exactly
on the measure-zero tolerance boundary.  The PPT verdict runs the same
factorization on the partial transpose, whose coefficient vector is the
point with the signs of `states.pt_sign_vector` applied.

Layout.  Points are scored in tiles of 4096.  Within a family every nonzero
real or imaginary part of a generator entry has one magnitude kappa (1/2 for
rebit and qubit, 1/(2 sqrt 2) for quaterbit), so each tile is scaled once
while it is transposed, Y = kappa * X^T: contiguous (m, n) rows, one lane per
point, every per-lane quantity a contiguous float64 row.  The factor L is
kept as separate real and imaginary arrays.

Assembly by signed adds.  `case_tables`, the one table builder, reads off
the family's basis which rows of Y enter each entry of rho and with which
sign, and compiles every entry into one program: start from 1/d on the
diagonal or 0 below it, then one np.add or np.subtract of a row of Y per
generator, in increasing generator index.  One evaluator runs these
programs for the pivots and for the columns below them.  The partial
transpose gets its own tables with the signs of `states.pt_sign_vector`
folded in, so the PPT pass scores the positive lanes' rows of Y as they
are, with no sign-flipped copy.

Lazy, compacting factorization.  The factorization is left-looking: column
j's diagonal pivot is assembled and reduced first, the lanes whose pivot is
not positive are dropped from every array at once, and only then is the
rest of column j assembled and factored for the survivors.  A tile stops as
soon as no lane is left.  Under ball sampling about half of the qubit lanes
are gone after two pivots and over 90% after three, so most of the matrix
is never built.

Verdicts follow the per-sample algorithm operation by operation.  Each
surviving lane performs the same IEEE operations in the same order: an
entry is the sum of c_a * G_a[i, j] in increasing generator index, from 1/d
on the diagonal and from 0 below it; the pivot is rho[j, j] + tol minus
re^2 + im^2 of L[j, k] for k ascending; an entry below it subtracts
(ar*br + ai*bi, ai*br - ar*bi), the product L[i, k] * conj(L[j, k]), for k
ascending; and it is scaled by 1/L[j, j], which is what numpy's
complex-by-real division computes.  The entry programs give every entry
the bits of that sum: rounding is symmetric in sign, so c*(-kappa) =
-(c*kappa), x + (-y) = x - y, 0 + y = y and 0 - y = -y, and only the sign
of an exact zero can differ, which no later comparison or nonzero value
sees.  Dropping lanes changes which lanes are computed, never the
arithmetic of the ones that remain.  The arithmetic is real and unfused (no
FMA), so a verdict depends neither on the machine nor on the point's
position in its batch.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import POSITIVITY_TOL, get_case, pt_sign_vector

# Recorded in result manifests: there is a single numpy implementation.
BACKEND = "numpy"

# Points factored together: large enough to amortize per-call overhead over
# the lanes, small enough for a tile's live columns to stay in cache.
_TILE = 4096


def _program(init, signs):
    """(init, ops) for one entry: init, then op(entry, Y[a]) for (op, a) in ops."""
    return init, tuple((np.add if signs[a] > 0 else np.subtract, int(a))
                       for a in np.flatnonzero(signs))


def _column_tables(signs):
    """Per column j: (pivot, lower) entry programs for the signs (2, m, d, d) of one basis."""
    d = signs.shape[-1]
    return tuple(
        (_program(1.0 / d, signs[0, :, j, j]),
         tuple((p, i, _program(0.0, signs[p, :, i, j])) for i in range(j + 1, d) for p in (0, 1)))
        for j in range(d)
    )


@lru_cache(maxsize=None)
def case_tables(tag: str):
    """(kappa, tables, pt_tables): assembly of rho = I/d + sum_a c_a G_a for one family.

    Every nonzero real or imaginary part of a generator entry is +-kappa, so
    with Y = kappa * c (one row per generator) each entry of rho is a signed
    sum of rows of Y.  Each entry is compiled into one program (init, ops):
    start from init, 1/d on the diagonal and 0 below it, then apply
    op(entry, Y[a]) for (op, a) in ops, one np.add or np.subtract per
    generator in increasing generator index.  tables[j] is (pivot, lower)
    for column j: pivot is the program of rho[j, j], and for (p, i, program)
    in lower the program gives the real (p = 0) or imaginary (p = 1) part of
    rho[i, j].  pt_tables is the same for the partial transpose (subsystem
    B): the coefficient signs of `states.pt_sign_vector` folded into every
    entry.

    Raises ValueError naming the family if its nonzero coefficients do not
    share one magnitude.
    """
    basis = get_case(tag).basis
    parts = np.stack([basis.real, basis.imag])
    magnitudes = np.abs(parts[parts != 0])
    kappa = float(magnitudes[0])
    if np.any(magnitudes != kappa):
        # np.unique stays on this path: its first call in a process takes
        # longer than building the tables, and every worker builds them
        raise ValueError(
            f"{tag}: nonzero generator coefficients take the magnitudes "
            f"{np.unique(magnitudes).tolist()}; the kernel needs one"
        )
    signs = np.sign(parts).astype(np.int8)
    pt = np.asarray(pt_sign_vector(tag), dtype=np.int8)
    pt_signs = signs * pt[None, :, None, None]
    return kappa, _column_tables(signs), _column_tables(pt_signs)


def _entry(program, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run one entry program of `case_tables` on every lane of Y, into out."""
    init, ops = program
    out.fill(init)
    for op, a in ops:
        op(out, Y[a], out=out)
    return out


def _positive_lanes(Y: np.ndarray, tables) -> np.ndarray:
    """Columns of Y (kappa times one point each) whose rho + POSITIVITY_TOL*I is positive definite."""
    d = len(tables)
    n = Y.shape[1]
    L = np.empty((2, d, d, n))  # L[0] real, L[1] imaginary part, lanes last
    for j, (pivot, lower) in enumerate(tables):
        s = _entry(pivot, Y, np.empty(n))
        s += POSITIVITY_TOL
        if j:
            sq = L[:, j, :j] ** 2
            sq = sq[0] + sq[1]
            for k in range(j):
                s -= sq[k]
        alive = s > 0.0
        if not alive.all():
            keep = np.flatnonzero(alive)
            n = keep.size
            if n == 0:
                return Y[:, :0]
            Y = Y.take(keep, axis=1)
            s = s.take(keep)
            live = L[:, j:, :j]
            L = np.empty((2, d, d, n))
            np.take(live, keep, axis=-1, out=L[:, j:, :j])
        if j == d - 1:
            return Y
        inv = 1.0 / np.sqrt(s)
        for part, i, program in lower:
            _entry(program, Y, L[part, i, j])
        c = L[:, j + 1:, j]
        if j:
            rows = d - j - 1
            p = np.empty((2, rows, n))
            q = np.empty((2, rows, n))
            tmp = np.empty((rows, n))
            for k in range(j):
                below = L[:, j + 1:, k]
                np.multiply(below, L[0, j, k], out=p)  # ar*br, ai*br
                np.multiply(below, L[1, j, k], out=q)  # ar*bi, ai*bi
                np.add(p[0], q[1], out=tmp)
                c[0] -= tmp
                np.subtract(p[1], q[0], out=tmp)
                c[1] -= tmp
        c *= inv
    return Y


def count_tallies(pts: np.ndarray, tag: str):
    """Count (n_positive, n_separable-by-PPT) over a (n, m) batch of points."""
    case = get_case(tag)
    kappa, tables, pt_tables = case_tables(case.tag)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != case.num_coeffs:
        raise ValueError(
            f"expected points of shape (n, {case.num_coeffs}), got {pts.shape}"
        )
    npos = 0
    nsep = 0
    for lo in range(0, len(pts), _TILE):
        Y = np.multiply(pts[lo : lo + _TILE].T, kappa, order="C")
        pos = _positive_lanes(Y, tables)
        if pos.shape[1]:
            npos += pos.shape[1]
            nsep += _positive_lanes(pos, pt_tables).shape[1]
    return npos, nsep
