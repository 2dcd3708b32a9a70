"""Benchmark-side input generation: quaterbit states from the flat body measure.

Same construction as the oracle
``tests/test_states.py::test_quaterbit_ppt_fraction_on_flat_body_measure``,
vectorized:

* spectra: flat Dirichlet draws on {l >= 0, sum l = 1/2}, resampled by the
  importance weight prod_{i<j} |l_i - l_j|^4, each eigenvalue doubled;
* eigenframe: a Haar quaternionic unitary, here the Q factor of a
  quaternionic Ginibre matrix in its 8x8 complex representation.  Complex
  QR of that representation is quaternionic Gram-Schmidt up to column
  phases, which cancel in U diag(l) U^dagger;
* coefficients: c_a = Tr(rho G_a), the projection ``density_to_coeffs``
  computes; a subsample is passed through ``density_to_coeffs`` itself,
  which also certifies that the states lie in the quaterbit span.

Every generated point is a state, so all of them pass the positivity test.
"""

from __future__ import annotations

import numpy as np

from sepmc.states import QUATERBIT, density_to_coeffs

# Importance-sampling pool size, as in the oracle.
SPECTRUM_POOL = 1_000_000

# States built per vectorized batch, bounding the temporary 8x8 arrays.
FRAME_BATCH = 8192

# density_to_coeffs is applied to every CERTIFY_STRIDE-th generated state.
CERTIFY_STRIDE = 64


def _spectra(rng: np.random.Generator, n: int) -> np.ndarray:
    lam = rng.dirichlet((1, 1, 1, 1), size=SPECTRUM_POOL) * 0.5
    logw = np.zeros(SPECTRUM_POOL)
    for i in range(4):
        for j in range(i + 1, 4):
            logw += 4 * np.log(np.abs(lam[:, i] - lam[:, j]))
    w = np.exp(logw - logw.max())
    picks = rng.choice(SPECTRUM_POOL, size=n, replace=True, p=w / w.sum())
    return np.repeat(lam[picks], 2, axis=1)


def _haar_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, 4, 4, 4))
    a, b, c, d = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    rep = np.empty((n, 8, 8), dtype=complex)
    # Quaternion a + ib + jc + kd as the block [[a-id, ib+c], [ib-c, a+id]].
    rep[:, 0::2, 0::2] = a - 1j * d
    rep[:, 0::2, 1::2] = 1j * b + c
    rep[:, 1::2, 0::2] = 1j * b - c
    rep[:, 1::2, 1::2] = a + 1j * d
    q, _ = np.linalg.qr(rep)
    return q


def quaterbit_body_points(seed: int, n: int) -> np.ndarray:
    """(n, 27) quaterbit coefficient vectors drawn from the flat body measure."""
    rng = np.random.default_rng(seed)
    spec = _spectra(rng, n)
    basis = QUATERBIT.basis
    pts = np.empty((n, QUATERBIT.num_coeffs))
    for lo in range(0, n, FRAME_BATCH):
        hi = min(n, lo + FRAME_BATCH)
        u = _haar_frames(rng, hi - lo)
        rho = (u * spec[lo:hi, None, :]) @ u.conj().transpose(0, 2, 1)
        pts[lo:hi] = np.einsum("aij,nji->na", basis, rho).real
        for i in range(0, hi - lo, CERTIFY_STRIDE):
            ref = density_to_coeffs(rho[i], QUATERBIT).c
            if not np.allclose(ref, pts[lo + i], rtol=0.0, atol=1e-14):
                raise RuntimeError(f"state {lo + i}: projection disagrees with density_to_coeffs")
    return pts
