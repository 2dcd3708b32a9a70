"""Invariant battery behind the CLI selftest command.

Each check is a function ``check_<name>`` returning (ok, detail).  `sepmc
selftest` runs `CHECKS` in order and prints each under its name, with
``_`` written as ``-``.  The checks deliberately re-derive expectations
through independent routes (e.g. the matrix-level partial transpose by
index reshuffling) so they can catch bugs in the production paths they
shadow.
"""

from __future__ import annotations

import numpy as np

from .algebra import Quaternion
from .conjecture import p_of_alpha
from .engine import estimate
from .kernels import count_tallies
from .sampler import StreamSpec, ball_batches, sample_ball
from .states import CASES, coeffs_to_density, CoeffVector, is_positive, partial_transpose, ppt_test

_SEED = 20240901

# Ball points per family in check_ball_moments, streamed one draw batch at a time
_BALL_DRAWS = 1_000_000


def matrix_partial_transpose(rho: np.ndarray, dims: tuple, sys_index: int) -> np.ndarray:
    """Index-level partial transpose: transpose one tensor factor of rho.

    ``dims`` are the factor dimensions (their product is rho's size);
    ``sys_index`` picks the transposed factor.  Independent of the
    coefficient-space sign-flip implementation.
    """
    return rho.reshape(dims + dims).swapaxes(sys_index, len(dims) + sys_index).reshape(rho.shape)


def pt_dims(case) -> tuple:
    """Tensor factorization used by the matrix-level PT oracle (B = factor 1)."""
    return (2,) * len(case.labels[0])


def check_quaternion_homomorphism() -> tuple:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(1000):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        dev = np.max(np.abs((p * q).to_block() - p.to_block() @ q.to_block()))
        dev = max(dev, np.max(np.abs(p.conjugate().to_block() - p.to_block().conj().T)))
        dev = max(dev, abs((p * q).norm() - p.norm() * q.norm()))
        worst = max(worst, float(dev))
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def check_generator_gram() -> tuple:
    worst = 0.0
    for case in CASES.values():
        basis = case.basis
        gram = np.einsum("aij,bji->ab", basis, basis)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(case.num_coeffs)))))
        worst = max(worst, float(np.max(np.abs(np.trace(basis, axis1=1, axis2=2)))))
    return worst <= 1e-14, f"max Gram/trace deviation {worst:.2e} (tol 1e-14)"


def check_pt_involution() -> tuple:
    rng = np.random.default_rng(_SEED + 1)
    for case in CASES.values():
        for _ in range(200):
            v = CoeffVector(case, rng.standard_normal(case.num_coeffs))
            w = partial_transpose(partial_transpose(v))
            if not np.array_equal(w.c, v.c):
                return False, f"{case.tag}: PT applied twice is not the identity"
            if partial_transpose(v).norm_sq() != v.norm_sq():
                return False, f"{case.tag}: PT is not an isometry"
    return True, "involution and isometry exact for all cases"


def check_pt_spectrum() -> tuple:
    worst = 0.0
    for k, case in enumerate(CASES.values()):
        dims = pt_dims(case)
        for c in sample_ball(case.num_coeffs, case.radius, StreamSpec(_SEED + 2, k, 0), 200):
            v = CoeffVector(case, c)
            lhs = coeffs_to_density(partial_transpose(v))
            rhs = matrix_partial_transpose(coeffs_to_density(v), dims, 1)
            dev = np.max(np.abs(np.linalg.eigvalsh(lhs) - np.linalg.eigvalsh(rhs)))
            worst = max(worst, float(dev))
    return worst <= 1e-10, f"max spectrum deviation {worst:.2e} (tol 1e-10)"


def check_kramers_pairs() -> tuple:
    case = CASES["quaterbit"]
    worst = 0.0
    for c in sample_ball(case.num_coeffs, case.radius, StreamSpec(_SEED + 3, 0, 0), 200):
        v = CoeffVector(case, c)
        for state in (v, partial_transpose(v)):
            w = np.linalg.eigvalsh(coeffs_to_density(state))
            worst = max(worst, float(np.max(np.abs(w[::2] - w[1::2]))))
    return worst <= 1e-9, f"max Kramers pair gap {worst:.2e} (tol 1e-9)"


def check_ball_moments() -> tuple:
    details = []
    ok = True
    for k, case in enumerate(CASES.values()):
        m = case.num_coeffs
        rng = StreamSpec(_SEED + 4, k, 0).generator()
        s1 = s2 = 0.0
        for pts in ball_batches(m, case.radius, rng, _BALL_DRAWS):
            t = np.einsum("ij,ij->i", pts, pts) / case.radius**2
            s1 += float(t.sum())
            s2 += float(t @ t)
        mean = s1 / _BALL_DRAWS
        se = np.sqrt((s2 - _BALL_DRAWS * mean**2) / (_BALL_DRAWS - 1) / _BALL_DRAWS)
        z = (mean - m / (m + 2)) / se
        details.append(f"{case.tag} z={z:+.2f}")
        ok = ok and abs(z) <= 5.0
    return ok, "E[|x|^2]/r^2 vs m/(m+2): " + ", ".join(details)


def check_tally_ordering() -> tuple:
    # each chunk's TallyCounts, and each merge, refuses a tally out of order (a ValueError)
    total = estimate("qubit", _SEED + 5, 60_000, workers=1, chunk_size=20_000).tally
    return True, f"3 chunks merged: {total.n_sep}/{total.n_positive}/{total.n_total}"


def check_kernel_matches_eigensolver() -> tuple:
    """The Cholesky kernel against the eigenvalue route, row by row, on shrunk-ball points."""
    rng = np.random.default_rng(_SEED + 6)
    details = []
    for k, case in enumerate(CASES.values()):
        pts = sample_ball(case.num_coeffs, case.radius, StreamSpec(_SEED + 6, k, 0), 300)
        pts *= rng.uniform(0.05, 0.6, (len(pts), 1))
        total = (0, 0)
        for row in pts:
            v = CoeffVector(case, row)
            pos = is_positive(v)
            want = (int(pos), int(pos and ppt_test(v)))
            got = count_tallies(row[None], case.tag)
            if got != want:
                return False, f"{case.tag}: kernel (positive, PPT) {got}, eigensolver {want}"
            total = (total[0] + want[0], total[1] + want[1])
        batch = count_tallies(pts, case.tag)
        if batch != total:
            return False, f"{case.tag}: batch tally {batch} is not the sum of its rows {total}"
        details.append(f"{case.tag} {batch[1]}/{batch[0]}/{len(pts)}")
    return True, "rows agree (sep/positive/points): " + ", ".join(details)


def check_conjecture_rationals() -> tuple:
    targets = ((0.5, 29 / 64), (1.0, 8 / 33), (2.0, 26 / 323))
    worst = 0.0
    for alpha, target in targets:
        res = p_of_alpha(alpha)
        worst = max(worst, abs(res.value - target))
    return worst < 1e-10, f"max |value - rational| = {worst:.2e} (tol 1e-10)"


CHECKS = (
    check_quaternion_homomorphism, check_generator_gram, check_pt_involution, check_pt_spectrum,
    check_kramers_pairs, check_ball_moments, check_tally_ordering,
    check_kernel_matches_eigensolver, check_conjecture_rationals,
)
