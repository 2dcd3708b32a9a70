"""State families, coefficient-vector <-> density-matrix maps, positivity and PPT tests.

This is the one place a family is defined: `CASES` holds each family's
`StateCase`, and `get_case` is the one lookup by name.  A state is
parameterized as rho = I/d + sum_a c_a G_a with orthonormal Hermitian
generators G_a, the Pauli tensors of the family's labels
(`algebra.generator_basis`), so the coefficient vector c is an isometric
Hilbert-Schmidt coordinate chart: Tr(rho^2) = 1/d + |c|^2.  Purity <= 1
then bounds every valid state inside the ball of radius sqrt(1 - 1/d),
which is the ball the Monte Carlo sampler draws from.

A `StateCase` is given only its tag, its Dyson index beta and its labels.
The labels fix the rest, which `__post_init__` derives: the dimension
``dim`` = d = 2**(Pauli factors per label), the coefficient count
``num_coeffs`` = the number of labels, and the ball radius ``radius``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import complex_form, generator_basis, min_eigenvalue

# A state counts as positive when the smallest eigenvalue of its density
# matrix is >= -POSITIVITY_TOL.  The boundary has measure zero under the
# sampling distribution, so this only guards against eigensolver round-off.
POSITIVITY_TOL = 1e-12

# Residual above which density_to_coeffs declares its input outside the
# family's generator span.
SPAN_TOL = 1e-10

TRACE_TOL = 1e-12


class SpanError(ValueError):
    """Input matrix has components outside the family's generator span."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"matrix has out-of-span component of norm {residual:.3e} "
            f"(> {SPAN_TOL:.0e})"
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


@dataclass(frozen=True)
class StateCase:
    """One of the three bipartite state families; dim, num_coeffs and radius derive from labels."""

    tag: str        # 'rebit' | 'qubit' | 'quaterbit'
    beta: int       # Dyson index: real parts per entry (1 real, 2 complex, 4 quaternion)
    labels: tuple   # generator labels, in coefficient order

    def __post_init__(self):
        object.__setattr__(self, "dim", 2 ** len(self.labels[0]))
        object.__setattr__(self, "num_coeffs", len(self.labels))
        object.__setattr__(self, "radius", np.sqrt(1 - 1 / self.dim))

    @property
    def basis(self) -> np.ndarray:
        return generator_basis(self.labels)


REBIT = StateCase("rebit", 1, REBIT_LABELS)
QUBIT = StateCase("qubit", 2, QUBIT_LABELS)
QUATERBIT = StateCase("quaterbit", 4, QUATERBIT_LABELS)

CASES = {c.tag: c for c in (REBIT, QUBIT, QUATERBIT)}


def get_case(tag) -> StateCase:
    if isinstance(tag, StateCase):
        return tag
    try:
        return CASES[tag]
    except KeyError:
        raise ValueError(f"unknown state family {tag!r}") from None


def as_coefficients(case: StateCase, values, ndim: int) -> np.ndarray:
    """values as float64 coefficients of `case`: one vector (ndim 1) or a batch of points (ndim 2).

    The one input rule for coefficients, shared by `CoeffVector` and the
    counting kernel.  Raises ValueError naming the family for complex input
    (refused, not cast to its real part), a shape other than (m,) or (n, m)
    with m = case.num_coeffs, or a NaN or infinite entry.
    """
    m = case.num_coeffs
    what, shape = (("coefficient vector", f"({m},)"), ("points", f"(n, {m})"))[ndim - 1]
    if np.iscomplexobj(values):
        raise ValueError(f"{case.tag} {what} must be real, got complex input")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != ndim or values.shape[-1] != m:
        raise ValueError(f"{case.tag} {what} must have shape {shape}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{case.tag} {what} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


@dataclass(frozen=True)
class CoeffVector:
    """Real coefficient vector of one state, in the case's label order."""

    case: StateCase
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", as_coefficients(self.case, self.c, 1))

    def norm_sq(self) -> float:
        return float(self.c @ self.c)


def coeffs_to_density(v: CoeffVector) -> np.ndarray:
    """Assemble rho = I/d + sum_a c_a G_a (Hermitian, unit trace, linear in c)."""
    d = v.case.dim
    rho = np.eye(d, dtype=complex) / d
    rho += np.einsum("a,aij->ij", v.c, v.case.basis)
    return rho


def density_to_coeffs(rho: np.ndarray, case) -> CoeffVector:
    """Project a unit-trace Hermitian matrix onto the family's generators.

    c_a = Tr(rho G_a).  Raises SpanError when rho has a component outside
    the generator span (plus identity), e.g. a generic 8x8 Hermitian matrix
    that is not of quaternionic form.
    """
    case = get_case(case)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (case.dim, case.dim):
        raise ValueError(f"expected shape {(case.dim, case.dim)}, got {rho.shape}")
    algebra.check_hermitian(rho)
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"matrix trace {tr} is not 1 within {TRACE_TOL:.0e}")
    coeffs = np.real(np.einsum("aij,ji->a", case.basis, rho))
    v = CoeffVector(case, coeffs)
    residual = float(np.max(np.abs(rho - coeffs_to_density(v))))
    if not residual <= SPAN_TOL:
        raise SpanError(residual)
    return v


@dataclass(frozen=True)
class QuaterbitBlocks:
    """Block data of a traceless quaternionic Hermitian 4x4 matrix.

    Diagonal blocks are A*I2 .. D*I2 with A+B+C+D = 0; the six strictly
    upper blocks are the 2x2 representations of q0..q5 (row-major order),
    the lower blocks their conjugate transposes.
    """

    A: float
    B: float
    C: float
    D: float
    q: tuple  # six Quaternion instances

    def __post_init__(self):
        if len(self.q) != 6:
            raise ValueError("expected exactly six quaternions")
        s = self.A + self.B + self.C + self.D
        if not abs(s) <= 1e-14:
            raise ValueError(f"diagonal blocks must sum to zero, got {s:.3e}")


def blocks_to_matrix(b: QuaterbitBlocks) -> np.ndarray:
    """Assemble the traceless 8x8 complex matrix from its quaternion blocks."""
    rows, cols = np.triu_indices(4, 1)
    parts = np.zeros((4, 4, 4))
    parts[0, range(4), range(4)] = b.A, b.B, b.C, b.D
    parts[:, rows, cols] = np.transpose([astuple(q) for q in b.q])
    parts[:, cols, rows] = np.transpose([astuple(q.conjugate()) for q in b.q])
    return complex_form(parts)


def quaterbit_from_blocks(b: QuaterbitBlocks) -> CoeffVector:
    """Coefficient vector of I/8 + blocks_to_matrix(b).

    The block form spans exactly the quaterbit generator set, so the
    projection is lossless; a nonzero out-of-span residual raises.
    """
    rho = np.eye(8, dtype=complex) / 8 + blocks_to_matrix(b)
    return density_to_coeffs(rho, QUATERBIT)


@lru_cache(maxsize=None)
def pt_sign_vector(tag: str, subsystem: str = "B") -> np.ndarray:
    """Signs (+-1) the partial transpose applies to each coefficient.

    Transposing one tensor slot flips exactly the generators carrying
    sigma_y in that slot (sigma_y^T = -sigma_y; the other Paulis are
    symmetric).  Subsystem 'B' is the second index, 'A' the first; for the
    quaterbit labels (i, j, k) the subsystems are i and j while k indexes
    the 2x2 quaternion representation space, which is not transposed.  The
    choice matters: for rebit and qubit rho^{T_A} = (rho^{T_B})^T, so both
    give every state the same verdict, but a quaterbit state can be PPT
    over one subsystem and not the other; only the two rates agree, as
    swapping i and j maps the quaterbit labels onto themselves.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    pos = 0 if subsystem == "A" else 1
    signs = np.array(
        [-1.0 if lab[pos] == 2 else 1.0 for lab in get_case(tag).labels]
    )
    signs.setflags(write=False)
    return signs


def partial_transpose(v: CoeffVector, subsystem: str = "B") -> CoeffVector:
    """Partial transpose in coefficient space: a per-label sign flip.

    Equals the matrix-level one-subsystem transpose of coeffs_to_density(v)
    exactly, is an isometric involution, and maps each label set to itself.
    """
    return CoeffVector(v.case, v.c * pt_sign_vector(v.case.tag, subsystem))


def is_positive(v: CoeffVector) -> bool:
    """True iff the state's smallest eigenvalue is >= -POSITIVITY_TOL."""
    return min_eigenvalue(coeffs_to_density(v)) >= -POSITIVITY_TOL


def ppt_test(v: CoeffVector, subsystem: str = "B") -> bool:
    """Positive-partial-transpose test: positivity of the partial transpose."""
    return is_positive(partial_transpose(v, subsystem))
