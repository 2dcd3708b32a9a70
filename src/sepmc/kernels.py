"""Hot counting kernel: positivity + PPT verdicts for batches of sampled points.

Positivity is decided by attempting a Cholesky factorization of
rho + tol*I, which succeeds iff the smallest eigenvalue exceeds -tol; this
matches `states.is_positive` (an eigenvalue solve) everywhere except exactly
on the measure-zero tolerance boundary.  The PPT verdict runs the same
factorization on the partial transpose, whose coefficient vector is the
point with the signs of `states.pt_sign_vector` applied.

Layout.  Points are scored in tiles of 4096, each held transposed as
contiguous (m, n) coefficients: one lane per point, every per-lane quantity
a contiguous float64 row.  The factor L is kept as separate real and
imaginary arrays.

Lazy, compacting factorization.  Each generator is a Pauli tensor with
exactly one nonzero entry per row, so an entry rho[i, j] has only a few
contributing generators.  `column_tables` lists them for each column j and
row i >= j, in increasing generator index, with their real and imaginary
parts.  The factorization is left-looking: column j's diagonal pivot is
assembled and reduced first, the lanes whose pivot is not positive are
dropped from every array at once, and only then is the rest of column j
assembled and factored for the survivors.  A tile stops as soon as no lane
is left.  Under ball sampling about half of the qubit lanes are gone after
two pivots and over 90% after three, so most of the matrix is never built.

Verdicts follow the per-sample algorithm operation by operation.  Each
surviving lane performs the same IEEE operations in the same order: an
entry is summed from 0 (1/d on the diagonal) in increasing generator index;
the pivot is rho[j, j] + tol minus re^2 + im^2 of L[j, k] for k ascending;
an entry below it subtracts (ar*br + ai*bi, ai*br - ar*bi), the product
L[i, k] * conj(L[j, k]), for k ascending; and it is scaled by 1/L[j, j],
which is what numpy's complex-by-real division computes.  Dropping lanes
changes which lanes are computed, never the arithmetic of the ones that
remain.  The arithmetic is real and unfused (no FMA), so a verdict depends
neither on the machine nor on the point's position in its batch.
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


@lru_cache(maxsize=None)
def case_tables(tag: str):
    """(cols, vals, pt_signs) sparse-assembly tables for one state family.

    cols[a, i] / vals[a, i] give the single nonzero column and value of
    generator a in row i; pt_signs are the partial-transpose coefficient
    flips (subsystem B).
    """
    case = get_case(tag)
    basis = case.basis
    m, d, _ = basis.shape
    cols = np.zeros((m, d), dtype=np.int64)
    vals = np.zeros((m, d), dtype=np.complex128)
    for a in range(m):
        for i in range(d):
            nz = np.flatnonzero(basis[a, i])
            if nz.size != 1:
                raise AssertionError("generator rows must have exactly one nonzero")
            cols[a, i] = nz[0]
            vals[a, i] = basis[a, i, nz[0]]
    signs = np.asarray(pt_sign_vector(tag), dtype=np.float64)
    for arr in (cols, vals, signs):
        arr.setflags(write=False)
    return cols, vals, signs


@lru_cache(maxsize=None)
def column_tables(tag: str):
    """Per-column assembly tables of the lower triangle of rho = I/d + sum_a c_a G_a.

    Entry j is (diag_gens, diag_vals, gens, coefs): rho[j, j] is 1/d plus
    c[a] * v over (a, v) in zip(diag_gens, diag_vals[:, 0]), in that order.
    For the rows i = j+1 .. d-1 below the pivot, gens[p, i-j-1, t] and
    coefs[p, i-j-1, t, 0] are the t-th contributing generator of the real
    (p = 0) or imaginary (p = 1) part of rho[i, j], in increasing generator
    index, padded at the end with zero coefficients.  The trailing axes of
    length 1 broadcast over lanes.
    """
    cols, vals, _ = case_tables(get_case(tag).tag)
    m, d = cols.shape
    tables = []
    for j in range(d):
        diag = [a for a in range(m) if cols[a, j] == j and vals[a, j].real != 0]
        parts = []
        for i in range(j + 1, d):
            contrib = [(a, vals[a, i]) for a in range(m) if cols[a, i] == j]
            parts.append((
                [(a, v.real) for a, v in contrib if v.real != 0],
                [(a, v.imag) for a, v in contrib if v.imag != 0],
            ))
        width = max([1] + [len(p) for pair in parts for p in pair])
        gens = np.zeros((2, d - j - 1, width), dtype=np.intp)
        coefs = np.zeros((2, d - j - 1, width, 1))
        for r, pair in enumerate(parts):
            for p, terms in enumerate(pair):
                for t, (a, v) in enumerate(terms):
                    gens[p, r, t] = a
                    coefs[p, r, t, 0] = v
        diag_gens = np.array(diag, dtype=np.intp)
        diag_vals = vals[diag, j].real.reshape(-1, 1)
        for arr in (diag_gens, diag_vals, gens, coefs):
            arr.setflags(write=False)
        tables.append((diag_gens, diag_vals, gens, coefs))
    return tuple(tables)


def _positive_lanes(X: np.ndarray, tables) -> np.ndarray:
    """Columns of X (one point each) whose rho + POSITIVITY_TOL*I is positive definite."""
    d = len(tables)
    n = X.shape[1]
    L = np.empty((2, d, d, n))  # L[0] real, L[1] imaginary part, lanes last
    for j, (diag_gens, diag_vals, gens, coefs) in enumerate(tables):
        terms = X[diag_gens] * diag_vals
        s = 1.0 / d + terms[0]
        for t in terms[1:]:
            s += t
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
                return X[:, :0]
            X = X.take(keep, axis=1)
            s = s.take(keep)
            live = L[:, j:, :j]
            L = np.empty((2, d, d, n))
            np.take(live, keep, axis=-1, out=L[:, j:, :j])
        if j == d - 1:
            return X
        inv = 1.0 / np.sqrt(s)
        terms = X[gens]
        terms *= coefs
        c = terms[:, :, 0]
        for t in range(1, terms.shape[2]):
            c = c + terms[:, :, t]
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
        np.multiply(c, inv, out=L[:, j + 1:, j])
    return X


def count_tallies(pts: np.ndarray, tag: str):
    """Count (n_positive, n_separable-by-PPT) over a (n, m) batch of points."""
    case = get_case(tag)
    signs = case_tables(case.tag)[2][:, None]
    tables = column_tables(case.tag)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != case.num_coeffs:
        raise ValueError(
            f"expected points of shape (n, {case.num_coeffs}), got {pts.shape}"
        )
    npos = 0
    nsep = 0
    for lo in range(0, len(pts), _TILE):
        pos = _positive_lanes(np.ascontiguousarray(pts[lo : lo + _TILE].T), tables)
        if pos.shape[1]:
            npos += pos.shape[1]
            nsep += _positive_lanes(pos * signs, tables).shape[1]
    return npos, nsep
