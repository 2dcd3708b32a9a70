import tracemalloc

import numpy as np
import pytest

from sepmc.algebra import (
    PAULI,
    PRODUCT_SIGNS,
    Quaternion,
    abs_squared,
    complex_form,
    entry_parts,
    generator_basis,
    generator_matrix,
    min_eigenvalue,
    mul_conj,
)
from sepmc.states import CASES, QUATERBIT_LABELS, QUBIT_LABELS, REBIT_LABELS


def _random_quaternion(rng):
    return Quaternion(*rng.standard_normal(4))


# Independent multiplication oracle: expand p*q over the 16 basis products
# using the structure-constant table of the unit quaternions.
#   table[i][j] = (sign, k) with e_i e_j = sign * e_k, e = (1, i, j, k)
_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _mul_oracle(p, q):
    out = [0.0, 0.0, 0.0, 0.0]
    pc = (p.a, p.b, p.c, p.d)
    qc = (q.a, q.b, q.c, q.d)
    for i in range(4):
        for j in range(4):
            sign, k = _TABLE[i][j]
            out[k] += sign * pc[i] * qc[j]
    return Quaternion(*out)


class TestQuaternion:
    def test_ij_equals_k(self):
        assert Quaternion(0, 1, 0, 0) * Quaternion(0, 0, 1, 0) == Quaternion(0, 0, 0, 1)

    def test_unit_table(self):
        one = Quaternion(1, 0, 0, 0)
        i, j, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
        minus = Quaternion(-1, 0, 0, 0)
        for u in (i, j, k):
            assert u * u == minus
        assert i * j == k and j * i == Quaternion(0, 0, 0, -1)
        assert j * k == i and k * j == Quaternion(0, -1, 0, 0)
        assert k * i == j and i * k == Quaternion(0, 0, -1, 0)
        assert one * k == k and k * one == k

    def test_identity(self):
        q = Quaternion(3.0, -1.0, 0.5, 2.0)
        assert Quaternion(1, 0, 0, 0) * q == q

    def test_mul_against_table_expansion(self):
        p, q = Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)
        assert p * q == _mul_oracle(p, q)

    def test_mul_against_table_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, q = _random_quaternion(rng), _random_quaternion(rng)
            got, want = p * q, _mul_oracle(p, q)
            assert np.allclose(
                [got.a, got.b, got.c, got.d], [want.a, want.b, want.c, want.d],
                rtol=0, atol=1e-12,
            )

    def test_conj_explicit(self):
        assert Quaternion(1.0, 2.0, 3.0, 4.0).conjugate() == Quaternion(1.0, -2.0, -3.0, -4.0)
        assert Quaternion(1, 0, 0, 0).conjugate() == Quaternion(1, 0, 0, 0)

    def test_conj_involution_and_antihomomorphism(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p, q = _random_quaternion(rng), _random_quaternion(rng)
            assert p.conjugate().conjugate() == p
            lhs = (p * q).conjugate()
            rhs = q.conjugate() * p.conjugate()
            assert np.allclose(
                [lhs.a, lhs.b, lhs.c, lhs.d], [rhs.a, rhs.b, rhs.c, rhs.d],
                rtol=0, atol=1e-12,
            )

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p, q = _random_quaternion(rng), _random_quaternion(rng)
            assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12 * max(
                1.0, p.norm() * q.norm()
            )

    def test_norm_via_conjugate(self):
        q = Quaternion(1.0, -2.0, 0.5, 3.0)
        scalar = (q * q.conjugate()).a
        assert abs(scalar - q.norm() ** 2) < 1e-12
        assert abs((q * q.conjugate()).b) < 1e-15


class TestBlockRepresentation:
    def test_identity_block(self):
        assert np.array_equal(Quaternion(1, 0, 0, 0).to_block(), np.eye(2))

    def test_i_unit_block(self):
        want = np.array([[0, 1j], [1j, 0]])
        assert np.array_equal(Quaternion(0, 1, 0, 0).to_block(), want)

    def test_explicit_entries(self):
        blk = Quaternion(1.0, 2.0, 3.0, 4.0).to_block()
        want = np.array([[1 - 4j, 3 + 2j], [-3 + 2j, 1 + 4j]])
        assert np.allclose(blk, want, rtol=0, atol=0)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            p, q = _random_quaternion(rng), _random_quaternion(rng)
            dev = np.max(np.abs((p * q).to_block() - p.to_block() @ q.to_block()))
            assert dev <= 1e-12

    def test_conjugate_maps_to_dagger(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            q = _random_quaternion(rng)
            assert np.array_equal(q.conjugate().to_block(), q.to_block().conj().T)

    def test_norm_sq_is_determinant(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            q = _random_quaternion(rng)
            det = np.linalg.det(q.to_block())
            assert abs(det.real - q.norm() ** 2) < 1e-10
            assert abs(det.imag) < 1e-10


class TestNumberSystems:
    def test_product_signs_pinned(self):
        want = np.array([[1.0, 1.0, 1.0, 1.0],
                         [-1.0, 1.0, -1.0, 1.0],
                         [-1.0, 1.0, 1.0, -1.0],
                         [-1.0, -1.0, 1.0, 1.0]])
        assert PRODUCT_SIGNS.dtype == np.float64
        assert np.array_equal(PRODUCT_SIGNS, want)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_mul_conj_against_quaternion_product(self, beta):
        # Quaternion.__mul__ sums its terms in the product table's order, so
        # the values are equal, not close; np.array_equal counts -0.0 == 0.0.
        # Operands: a contiguous (rows, k) = (3, 2) pair, and the kernel's
        # non-contiguous slices L[:, j+1:, :j], L[:, j, :j] of a (beta, 4, 4, n) L
        # for j = 1 and 2, (rows, k) = (2, 1) and (1, 2).
        rng = np.random.default_rng(20 + beta)
        lanes = 5
        L = rng.standard_normal((beta, 4, 4, lanes))
        operands = [(rng.standard_normal((beta, 3, 2, lanes)),
                     rng.standard_normal((beta, 2, lanes)))]
        operands += [(L[:, j + 1:, :j], L[:, j, :j]) for j in (1, 2)]
        pad = lambda v: Quaternion(*v, *[0.0] * (4 - beta))  # noqa: E731
        for x, y in operands:
            x[np.abs(x) < 0.3] = 0.0  # exact zero parts and products
            got = mul_conj(x, y)
            assert got.shape == x.shape
            _, rows, k, _ = x.shape
            for i in range(rows):
                for kk in range(k):
                    for n in range(lanes):
                        p = pad(x[:, i, kk, n]) * pad(y[:, kk, n]).conjugate()
                        assert np.array_equal(got[:, i, kk, n], [p.a, p.b, p.c, p.d][:beta])
        # |x|^2 on the pivot rows L[:, j, :j], exact zeros included: part 0 of
        # x * conj(x), and the sum of the squares of the parts in part order
        L[np.abs(L) < 0.3] = 0.0
        for j in (1, 2, 3):
            x = L[:, j, :j]
            got = abs_squared(x)
            assert np.array_equal(got, mul_conj(x[:, None], x)[0, 0])
            want = x[0] * x[0]
            for r in range(1, beta):
                want = want + x[r] * x[r]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("j", [1, 2])
    def test_mul_conj_allocates_no_beta_squared_temporaries(self, j):
        # the kernel's update at column j of a 4096-lane quaterbit tile: the
        # output (x's size) and one part-sized product buffer, no (beta, beta, ...)
        # copy of y or of the products
        L = np.random.default_rng(25).standard_normal((4, 4, 4, 4096))
        x, y = L[:, j + 1:, :j], L[:, j, :j]

        def peak_of(f, *args):
            tracemalloc.start()
            try:
                f(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_of(mul_conj, x, y) <= 2 * x.nbytes
        # the pivot norm: its result and one square buffer, no beta-part copy;
        # 1 KiB more holds the array headers and the term closure
        assert peak_of(abs_squared, y) <= 2 * y[0].nbytes + 1024

    def test_entry_parts_recovers_quaternion_parts(self):
        rng = np.random.default_rng(23)
        m, n = 3, 4
        parts = rng.standard_normal((4, m, n, n))
        blocks = np.empty((m, 2 * n, 2 * n), dtype=complex)
        for a in range(m):
            for i in range(n):
                for j in range(n):
                    q = Quaternion(*parts[:, a, i, j])
                    blocks[a, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = q.to_block()
        assert np.array_equal(entry_parts(4, blocks), parts)
        # the map back is the block form of Quaternion.to_block, and the pair
        # are inverses, on random parts and on the quaterbit basis
        assert np.array_equal(complex_form(parts), blocks)
        assert np.array_equal(entry_parts(4, complex_form(parts)), parts)
        basis = CASES["quaterbit"].basis
        assert np.array_equal(complex_form(entry_parts(4, basis)), basis)

    def test_entry_parts_recovers_complex_and_real_parts(self):
        rng = np.random.default_rng(24)
        re, im = rng.standard_normal((2, 3, 4, 4))
        for beta, parts, matrices in ((2, np.stack([re, im]), re + 1j * im),
                                      (1, re[None], re + 0j)):
            assert np.array_equal(entry_parts(beta, matrices), parts)
            assert np.array_equal(complex_form(parts), matrices)
            assert np.array_equal(entry_parts(beta, complex_form(parts)), parts)
        for tag in ("qubit", "rebit"):
            basis = CASES[tag].basis
            assert np.array_equal(complex_form(entry_parts(CASES[tag].beta, basis)), basis)


class TestLabels:
    def test_counts(self):
        assert len(QUBIT_LABELS) == 15
        assert len(REBIT_LABELS) == 9
        assert len(QUATERBIT_LABELS) == 27

    def test_qubit_excludes_identity(self):
        assert (0, 0) not in QUBIT_LABELS
        assert set(QUBIT_LABELS) == {(i, j) for i in range(4) for j in range(4)} - {(0, 0)}

    def test_rebit_subset(self):
        imag_killed = {(i, j) for (i, j) in QUBIT_LABELS
                       if (i == 2) ^ (j == 2)}  # exactly one index on sigma_y
        assert set(REBIT_LABELS) == set(QUBIT_LABELS) - imag_killed
        assert (2, 2) in REBIT_LABELS


class TestGenerators:
    def test_qubit_33_diagonal(self):
        got = generator_matrix((3, 3))
        assert np.allclose(got, np.diag([0.5, -0.5, -0.5, 0.5]), rtol=0, atol=0)

    def test_unnormalized_pauli_tensor_trace(self):
        # Tr(L_a L_b) = 8 delta_ab for the raw triple tensors
        rng = np.random.default_rng(17)
        labels = [QUATERBIT_LABELS[i] for i in rng.choice(27, size=8, replace=False)]
        for la in labels:
            for lb in labels:
                A = np.kron(np.kron(PAULI[la[0]], PAULI[la[1]]), PAULI[la[2]])
                B = np.kron(np.kron(PAULI[lb[0]], PAULI[lb[1]]), PAULI[lb[2]])
                want = 8.0 if la == lb else 0.0
                assert abs(np.trace(A @ B).real - want) < 1e-12

    @pytest.mark.parametrize("kind", ["rebit", "qubit", "quaterbit"])
    def test_gram_matrix_is_identity(self, kind):
        basis = generator_basis(CASES[kind].labels)
        m = basis.shape[0]
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-14

    @pytest.mark.parametrize("kind", ["rebit", "qubit", "quaterbit"])
    def test_traceless_hermitian(self, kind):
        basis = generator_basis(CASES[kind].labels)
        assert np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) <= 1e-14
        assert np.max(np.abs(basis - np.conj(np.transpose(basis, (0, 2, 1))))) == 0.0

    def test_invalid_label(self):
        # a Pauli index outside 0-3 is refused: PAULI[-1] would silently be sigma_z
        for label in [(0, 4), (-1, 3), (3, 0, -1), (4,)]:
            with pytest.raises(ValueError, match="Pauli index outside 0-3"):
                generator_matrix(label)


class TestMinEigenvalue:
    def test_scaled_identity(self):
        assert min_eigenvalue(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-14)

    def test_diagonal_with_zero(self):
        assert min_eigenvalue(np.diag([0.7, 0.3, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_bell_partial_transpose_matrix(self):
        # Partial transpose of |Phi+><Phi+| written out entry by entry:
        # diag(1/2, 0, 0, 1/2) plus 1/2 on the antidiagonal middle.
        m = np.array(
            [
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        assert min_eigenvalue(m) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("dim", [4, 8])
    def test_known_spectrum_under_random_rotation(self, dim):
        rng = np.random.default_rng(18)
        spectrum = np.sort(rng.standard_normal(dim))
        for _ in range(50):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(g)
            h = (u * spectrum) @ u.conj().T
            h = (h + h.conj().T) / 2
            assert min_eigenvalue(h) == pytest.approx(
                spectrum[0], abs=1e-10 * max(1.0, np.max(np.abs(spectrum)))
            )

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            min_eigenvalue(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            min_eigenvalue(np.zeros((4, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        assert min_eigenvalue(h) == min_eigenvalue(h.copy())
