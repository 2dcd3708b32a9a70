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

Assembly by signed adds.  `case_tables`, the one table builder, reads off
the family's basis which rows of Y enter each part of each entry of rho and
with which sign, and compiles every part into one program: the first
generator's row added to or subtracted from 1/d on the diagonal or 0 below
it, then one np.add or np.subtract of a row of Y per further generator, in
increasing generator index.  One evaluator runs these programs for the
pivots and for the columns below them.  The partial transpose gets its own
tables with the signs of `states.pt_sign_vector` folded in, so the PPT pass
scores the positive lanes' rows of Y as they are, with no sign-flipped copy.

Lazy, compacting factorization.  The factorization is left-looking: column
j's diagonal pivot is assembled and reduced first, the lanes whose pivot is
not positive are dropped from every array at once, and only then is the
rest of column j assembled and factored for the survivors.  A tile stops as
soon as no lane is left.  Under ball sampling about half of the qubit lanes
are gone after two pivots and over 90% after three, so most of the matrix
is never built.

Arithmetic.  An entry is the sum of c_a * G_a[i, j] in increasing generator
index, from 1/d on the diagonal and from 0 below it; the pivot is
rho[j, j] + tol minus |L[j, k]|^2 for k ascending, each norm the sum of the
squares of its beta parts in part order; an entry below it subtracts the
product L[i, k] * conj(L[j, k]) for k ascending, each part a sum over the
product table in order (`algebra.mul_conj`); and it is scaled by 1/L[j, j].
The entry programs give every entry the bits of that sum: rounding is
symmetric in sign, so c*(-kappa) = -(c*kappa), x + (-y) = x - y, 0 + y = y
and 0 - y = -y, and only the sign of an exact zero can differ, which no
later comparison or nonzero value sees.  The qubit update is op for op the
complex one, (ar*br + ai*bi, ai*br - ar*bi), as -(ar*bi) + ai*br =
ai*br - ar*bi exactly, and the rebit one is the complex one with its
operations on exact zeros dropped, so rebit and qubit verdicts keep their
bits.  A quaterbit verdict equals the one of the 8x8
complex factorization in exact arithmetic.  Dropping lanes changes which
lanes are computed, never the arithmetic of the ones that remain.  The
arithmetic is real, elementwise and unfused (no FMA), so a verdict depends
neither on the machine nor on the point's position in its batch.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import entry_parts, mul_conj
from .states import POSITIVITY_TOL, get_case, pt_sign_vector

# perfbench records this in its report manifest; ROADMAP item 8 removes it with a benchmark change.
BACKEND = "numpy"

# Points factored together: large enough to amortize per-call overhead over
# the lanes, small enough for a tile's live columns to stay in cache.
_TILE = 4096


def _program(init, signs):
    """(init, ops) for one entry: op(init, Y[a]), then op(entry, Y[a]), for (op, a) in ops."""
    return init, tuple((np.add if signs[a] > 0 else np.subtract, int(a))
                       for a in np.flatnonzero(signs))


def _column_tables(signs, init):
    """Per column j: (pivot, lower) entry programs for the signs (beta, m, d, d) of one basis."""
    beta, _, d, _ = signs.shape
    return tuple(
        (_program(init, signs[0, :, j, j]),
         tuple((p, i, _program(0.0, signs[p, :, i, j]))
               for i in range(j + 1, d) for p in range(beta)))
        for j in range(d)
    )


@lru_cache(maxsize=None)
def case_tables(tag: str):
    """(kappa, beta, tables, pt_tables): assembly of rho = I/d + sum_a c_a G_a for one family.

    rho is read as a 4x4 matrix over the family's number system, beta real
    parts per entry (see `algebra.entry_parts`).  Every nonzero part of a
    generator entry is +-kappa, so with Y = kappa * c (one row per
    generator) each part of each entry of rho is a signed sum of rows of Y.  Each is compiled into
    one program (init, ops), 1/d on the diagonal and 0 below it: op(init,
    Y[a]) for the first (op, a) in ops, then op(entry, Y[a]) for the rest,
    one np.add or np.subtract per generator in increasing generator index;
    with no generator the entry is init.  tables[j] is (pivot, lower) for
    column j: pivot is the program of rho[j, j], and for (p, i, program) in
    lower the program gives part p of rho[i, j].  pt_tables is the same for
    the partial transpose (subsystem B): the coefficient signs of
    `states.pt_sign_vector` folded into every entry.

    Raises ValueError naming the family if its nonzero coefficients do not
    share one magnitude, or if a generator is not a matrix over its number
    system.
    """
    case = get_case(tag)
    basis = case.basis
    parts = entry_parts(case.beta, basis, tag)
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
    init = 1.0 / basis.shape[-1]
    return (kappa, len(parts), _column_tables(signs, init),
            _column_tables(pt_signs, init))


def _entry(program, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run one entry program of `case_tables` on every lane of Y, into out."""
    init, ops = program
    if not ops:
        out.fill(init)
        return out
    op, a = ops[0]
    op(init, Y[a], out=out)
    for op, a in ops[1:]:
        op(out, Y[a], out=out)
    return out


def _positive_lanes(Y: np.ndarray, beta: int, tables) -> np.ndarray:
    """Columns of Y (kappa times one point each) whose rho + POSITIVITY_TOL*I is positive definite."""
    d = len(tables)
    n = Y.shape[1]
    L = np.empty((beta, d, d, n))  # L[p, i, j]: part p of entry (i, j), lanes last
    for j, (pivot, lower) in enumerate(tables):
        s = _entry(pivot, Y, np.empty(n))
        s += POSITIVITY_TOL
        if j:
            sq = L[:, j, :j] ** 2
            norm = sq[0]
            for r in range(1, beta):
                norm += sq[r]
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
        for part, i, program in lower:
            _entry(program, Y, L[part, i, j])
        c = L[:, j + 1:, j]
        if j:
            update = mul_conj(L[:, j + 1:, :j], L[:, j, :j])
            for k in range(j):
                c -= update[:, :, k]
        c *= inv


def count_tallies(pts: np.ndarray, tag: str):
    """Count (n_positive, n_separable-by-PPT) over a (n, m) batch of points."""
    case = get_case(tag)
    kappa, beta, tables, pt_tables = case_tables(case.tag)
    if np.iscomplexobj(pts):
        raise ValueError(f"{case.tag} points must be real, got complex input")
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != case.num_coeffs:
        raise ValueError(
            f"expected points of shape (n, {case.num_coeffs}), got {pts.shape}"
        )
    npos = 0
    nsep = 0
    for lo in range(0, len(pts), _TILE):
        Y = np.multiply(pts[lo : lo + _TILE].T, kappa, order="C")
        pos = _positive_lanes(Y, beta, tables)
        if pos.shape[1]:
            npos += pos.shape[1]
            nsep += _positive_lanes(pos, beta, pt_tables).shape[1]
    return npos, nsep
