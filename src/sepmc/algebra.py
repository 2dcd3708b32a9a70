"""Quaternions and number systems, Pauli tensor generators and small Hermitian eigen-tests.

Everything here is pure linear algebra over fixed small dimensions (2x2
quaternion blocks, 4x4 and 8x8 Hermitian matrices).  All functions are pure
and thread-safe.  The module knows no state families: a generator basis is
built from whatever Pauli-tensor labels it is given, and each family's
labels are defined in `states`.

Number systems.  Each state family is a 4x4 Hermitian matrix over its own
number system, with beta real parts per matrix entry: the reals for rebit
(beta = 1), the complex numbers for qubit (beta = 2) and the quaternions
for quaterbit (beta = 4).  One map pair states how an entry is stored:
`entry_parts` reads the beta parts off complex matrices, and
`complex_form` maps parts back to real, complex or, for beta = 4, 2x2
block complex matrices.  On matrices over the number system the two are
exact inverses, because each only moves parts, negates them and takes
products with 0, 1 and i (a zero may change sign, which == does not see).
So an exact comparison of `complex_form` of kappa * signs with a basis is
the right table check: kappa * (+-1) is exact, and any difference is a
generator that is not kappa times signs.
A quaterbit's 8x8 complex rho is the block form of a 4x4 quaternion
matrix Q, and rho + tol*I_8 is the block form of Q + tol*I_4, so
factoring Q decides the same question as factoring rho without computing
every entry twice.  This module is the one place that states how an
entry is stored (the map pair) and multiplied (`PRODUCT_SIGNS`,
`PRODUCT_PARTS`, `mul_conj`, `abs_squared`), and the one place that turns
signs into operations.

Product table.  Part r of x * conj(y) is the sum over s, in order, of
PRODUCT_SIGNS[r, s] * x_s * y_(r xor s), with PRODUCT_PARTS[r, s] = r xor s.
The signs are read off `Quaternion.__mul__` and `conjugate` on the units
1, i, j, k.  The table's leading beta x beta block is the table of the
complex (beta = 2) and real (beta = 1) numbers, since the product of two
elements with zero parts from beta on has zero parts from beta on.

Signed-sum programs.  Every signed sum the kernel forms is one program:
each part of each entry of rho (a signed sum of kappa-scaled coefficient
rows), each part of a product x * conj(y) and the norm |x|^2.
- Compile rule: `signed_program` turns a vector of signs into (op, step)
  pairs, one per nonzero sign in increasing step, op np.add for +1 and
  np.subtract for -1; a zero sign is dropped.
- Run rule: `run_signed` folds acc = op(acc, term(step), out=out) over the
  pairs in order from acc = init, and sets out = init if there is no step.
- `_PRODUCT_PROGRAMS[r]` is row r of the product table compiled so.  A
  beta-part product runs the first beta steps of the first beta programs,
  each from 0.0.  |x|^2 runs program 0, which adds x_s * x_s for s
  ascending; its first step, 0 + x_0 * x_0, is formed in place as
  x_0 * x_0, which is exact since a square is never -0.
A program gives the bits of its signed sum.  Rounding is symmetric in
sign, so c * (-kappa) = -(c * kappa); x + (-t) = x - t, 0 + t = t and
0 - t = -t hold exactly, and so does commuting an addition, which makes
the qubit program (0 + ar*br + ai*bi, 0 - ar*bi + ai*br) the complex
product (ar*br + ai*bi, ai*br - ar*bi) bit for bit.  Only the sign of an
exact zero can differ, which no comparison and no nonzero value sees.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
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
        """2x2 complex representation [[a-id, ib+c], [ib-c, a+id]] (`complex_form` at beta = 4).

        This is a ring homomorphism: (p*q).to_block() == p.to_block() @
        q.to_block(), and conjugation maps to the conjugate transpose.
        """
        return complex_form(np.reshape(astuple(self), (4, 1, 1)))


def complex_form(parts: np.ndarray) -> np.ndarray:
    """Matrices over the beta number system given as parts (beta, ..., n, n), as complex matrices.

    The inverse of `entry_parts`, with beta = len(parts).  beta = 1 gives
    the real matrices parts[0] and beta = 2 the complex matrices
    parts[0] + i*parts[1], both (..., n, n).  beta = 4 gives (..., 2n, 2n):
    entry (i, j) = a + ib + jc + kd becomes the 2x2 block
    [[a-id, ib+c], [ib-c, a+id]] at rows 2i, 2i+1 and columns 2j, 2j+1.
    """
    if len(parts) < 4:
        return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
    a, b, c, d = parts
    blocks = np.array([[a - 1j * d, 1j * b + c], [1j * b - c, a + 1j * d]])
    # (2, 2, ..., n, n) -> (..., n, 2, n, 2) -> (..., 2n, 2n)
    return np.moveaxis(blocks, (0, 1), (-3, -1)).reshape(*a.shape[:-2], 2 * a.shape[-2], -1)


_UNITS = [Quaternion(*row) for row in np.eye(4)]
PRODUCT_SIGNS = np.array([[astuple(_UNITS[s] * _UNITS[r ^ s].conjugate())[r]
                           for s in range(4)] for r in range(4)])
PRODUCT_PARTS = np.arange(4)[:, None] ^ np.arange(4)


def signed_program(signs) -> tuple:
    """(op, step) for each nonzero sign, step ascending: np.add for +1, np.subtract for -1."""
    return tuple((np.add if signs[step] > 0 else np.subtract, int(step))
                 for step in np.flatnonzero(signs))


def run_signed(init, program, term, out: np.ndarray) -> np.ndarray:
    """From acc = init, fold acc = op(acc, term(step), out=out) over program; out = init if empty."""
    acc = init
    for op, step in program:
        acc = op(acc, term(step), out=out)
    if acc is not out:
        out[...] = acc
    return out


_PRODUCT_PROGRAMS = tuple(signed_program(row) for row in PRODUCT_SIGNS)


def entry_parts(beta: int, matrices: np.ndarray) -> np.ndarray:
    """The entries of matrices (..., n, n) over the beta number system, as real parts (beta, ..., n, n).

    The inverse of `complex_form` on its image.  beta = 1 reads the real
    parts and beta = 2 the real and imaginary parts of complex matrices.
    beta = 4 reads a quaternion a + ib + jc + kd off each 2x2 block
    [[a - id, ib + c], [ib - c, a + id]] of (..., 2n, 2n) complex matrices:
    a = Re B00, b = Im B01, c = Re B01, d = -Im B00.  Any other part of a
    matrix is not read; `complex_form` of the result shows what was read.
    """
    if beta < 4:
        return np.stack([matrices.real, matrices.imag][:beta])
    b00, b01 = matrices[..., 0::2, 0::2], matrices[..., 0::2, 1::2]
    return np.stack([b00.real, b01.imag, b01.real, -b00.imag])


def mul_conj(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Part r of x * conj(y), for x of shape (beta, rows, k, lanes) and y of shape (beta, k, lanes).

    Part r runs its product program from 0.0: each product x_s * y_(r xor s)
    is formed into one reusable buffer of x's part shape and added to or
    subtracted from the part, in increasing s.  The result has x's shape.
    """
    beta = len(x)
    out = np.empty(x.shape)
    term = np.empty(x.shape[1:])
    for r, (part, program) in enumerate(zip(out, _PRODUCT_PROGRAMS)):
        run_signed(0.0, program[:beta], lambda s: np.multiply(x[s], y[r ^ s], out=term), part)
    return out


def abs_squared(x: np.ndarray) -> np.ndarray:
    """|x|^2 = part 0 of x * conj(x), for x of shape (beta, ...); the result has shape x.shape[1:].

    Runs product program 0 with x_0 * x_0 formed into the result as its
    first step, then each further square x_s * x_s formed into one
    reusable buffer, allocated only for beta > 1, and added in increasing s.
    """
    out = np.multiply(x[0], x[0])
    term = np.empty(out.shape) if len(x) > 1 else None
    return run_signed(out, _PRODUCT_PROGRAMS[0][1:len(x)],
                      lambda s: np.multiply(x[s], x[s], out=term), out)


def generator_matrix(label: tuple) -> np.ndarray:
    """The Pauli tensor of a label, normalized: (sigma_i x sigma_j x ...)/sqrt(dim).

    A label is the index tuple (i, j, ...) of a Pauli tensor, each index in
    0-3 (identity, x, y, z).  The tensors of distinct labels satisfy
    Tr(G_a G_b) = delta_ab, and every label but the all-zero one gives a
    traceless matrix.  Raises ValueError for an index outside 0-3.
    """
    if not all(i in range(4) for i in label):
        raise ValueError(f"label {label!r} has a Pauli index outside 0-3")
    mat = PAULI[label[0]]
    for idx in label[1:]:
        mat = np.kron(mat, PAULI[idx])
    return mat / np.sqrt(mat.shape[0])


@lru_cache(maxsize=None)
def generator_basis(labels: tuple) -> np.ndarray:
    """Stacked (m, d, d) array of the generators of a tuple of labels, in label order.

    The returned array is read-only (it is cached and shared).
    """
    stack = np.array([generator_matrix(lab) for lab in labels])
    stack.setflags(write=False)
    return stack


def check_hermitian(H: np.ndarray) -> None:
    """Raise ValueError if H is not square Hermitian within HERMITICITY_TOL."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is refused below
        dev = float(np.max(np.abs(H - H.conj().T)))
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {HERMITICITY_TOL:.0e}")


def min_eigenvalue(H: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (dense solve, ascending order)."""
    check_hermitian(H)
    return float(np.linalg.eigvalsh(H)[0])
