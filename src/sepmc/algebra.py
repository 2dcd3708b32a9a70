"""Quaternion arithmetic, Pauli tensor generators and small Hermitian eigen-tests.

Everything here is pure linear algebra over fixed small dimensions (2x2
quaternion blocks, 4x4 and 8x8 Hermitian matrices).  All functions are pure
and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Max absolute entry deviation tolerated in H - H^dagger.  Inputs are built
# from real coefficient vectors, so anything larger signals a bug.
HERMITICITY_TOL = 1e-12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Quaternion:
    """h = a + i*b + j*c + k*d with real components."""

    a: float
    b: float
    c: float
    d: float

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product (non-commutative, norm-multiplicative)."""
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return float(np.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2))

    def to_block(self) -> np.ndarray:
        """2x2 complex representation [[a-id, ib+c], [ib-c, a+id]].

        This is a ring homomorphism: (p*q).to_block() == p.to_block() @
        q.to_block(), and conjugation maps to the conjugate transpose.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array(
            [[a - 1j * d, 1j * b + c], [1j * b - c, a + 1j * d]]
        )


# Generator label sets.  A label is the index tuple of a Pauli tensor:
# (i, j) -> sigma_i x sigma_j for the 4x4 cases, (i, j, k) -> sigma_i x
# sigma_j x sigma_k for the 8x8 quaterbit case.  The quaterbit set is
# exactly the 27 tensors spanning (traceless) quaternionic Hermitian
# matrices in their 8x8 complex representation.

QUBIT_LABELS = tuple(
    (i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)
)

REBIT_LABELS = tuple(
    (i, j) for (i, j) in QUBIT_LABELS if i in (0, 1, 3) and j in (0, 1, 3)
) + ((2, 2),)

QUATERBIT_LABELS = (
    (3, 0, 0), (0, 3, 0), (3, 3, 0),
    (0, 1, 0), (3, 1, 0),
    (0, 2, 1), (3, 2, 1),
    (0, 2, 2), (3, 2, 2),
    (0, 2, 3), (3, 2, 3),
    (1, 0, 0), (1, 3, 0),
    (2, 0, 1), (2, 3, 1),
    (2, 0, 2), (2, 3, 2),
    (2, 0, 3), (2, 3, 3),
    (1, 1, 0), (2, 2, 0),
    (1, 2, 1), (2, 1, 1),
    (1, 2, 2), (2, 1, 2),
    (1, 2, 3), (2, 1, 3),
)

_LABELS = {
    "rebit": REBIT_LABELS,
    "qubit": QUBIT_LABELS,
    "quaterbit": QUATERBIT_LABELS,
}


def labels_for(kind: str) -> tuple:
    """Ordered generator labels for a state family ('rebit'|'qubit'|'quaterbit')."""
    try:
        return _LABELS[kind]
    except KeyError:
        raise ValueError(f"unknown state family {kind!r}") from None


def generator_matrix(kind: str, label: tuple) -> np.ndarray:
    """Orthonormalized Hermitian generator for one label.

    Returns (sigma_i x sigma_j)/2 for the 4x4 families and
    (sigma_i x sigma_j x sigma_k)/sqrt(8) for the quaterbit family, so that
    Tr(G_a G_b) = delta_ab and every generator is traceless.
    """
    if label not in labels_for(kind):
        raise ValueError(f"label {label!r} is not a valid {kind} generator label")
    mat = PAULI[label[0]]
    for idx in label[1:]:
        mat = np.kron(mat, PAULI[idx])
    return mat / np.sqrt(mat.shape[0])


@lru_cache(maxsize=None)
def generator_basis(kind: str) -> np.ndarray:
    """Stacked (m, d, d) array of all generators of a family, in label order.

    The returned array is read-only (it is cached and shared).
    """
    stack = np.array([generator_matrix(kind, lab) for lab in labels_for(kind)])
    stack.setflags(write=False)
    return stack


def check_hermitian(H: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise ValueError if H is not square Hermitian within tol."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dev = float(np.max(np.abs(H - H.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")


def min_eigenvalue(H: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (dense solve, ascending order)."""
    check_hermitian(H)
    return float(np.linalg.eigvalsh(H)[0])
