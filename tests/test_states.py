import numpy as np
import pytest

from sepmc.algebra import PAULI, Quaternion, check_hermitian
from sepmc.kernels import count_tallies
from sepmc.sampler import StreamSpec, ball_batches, sample_ball
from sepmc.selftest import matrix_partial_transpose, pt_dims
from sepmc.states import (
    CASES,
    POSITIVITY_TOL,
    QUATERBIT,
    QUBIT,
    REBIT,
    CoeffVector,
    QuaterbitBlocks,
    SpanError,
    blocks_to_matrix,
    coeffs_to_density,
    density_to_coeffs,
    get_case,
    is_positive,
    partial_transpose,
    ppt_test,
    pt_sign_vector,
    quaterbit_from_blocks,
)

RNG_SEED = 4242


def random_vector(case, rng, scale=1.0):
    c = rng.standard_normal(case.num_coeffs)
    c *= scale * case.radius * rng.random() ** (1 / case.num_coeffs) / np.linalg.norm(c)
    return CoeffVector(case, c)


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    for r in (0, 3):
        for c in (0, 3):
            m[r, c] = 0.5
    return m


def werner_matrix(p):
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    return p * singlet + (1 - p) * np.eye(4) / 4


class TestCases:
    def test_fixed_tuples(self):
        assert (REBIT.dim, REBIT.num_coeffs) == (4, 9)
        assert (QUBIT.dim, QUBIT.num_coeffs) == (4, 15)
        assert (QUATERBIT.dim, QUATERBIT.num_coeffs) == (8, 27)
        for case in CASES.values():
            assert case.radius**2 + 1 / case.dim == pytest.approx(1.0, abs=1e-15)
            assert len(case.labels) == case.num_coeffs
            assert case.basis.shape == (case.num_coeffs, case.dim, case.dim)
        # exactly: the seeded ball tallies rest on these bits
        assert REBIT.radius == QUBIT.radius == np.sqrt(3 / 4)
        assert QUATERBIT.radius == np.sqrt(7 / 8)

    def test_number_system(self):
        # the Dyson index: real parts per matrix entry over the reals, complex
        # numbers and quaternions
        assert [case.beta for case in CASES.values()] == [1, 2, 4]
        assert [REBIT.beta, QUBIT.beta, QUATERBIT.beta] == [1, 2, 4]

    def test_get_case(self):
        assert get_case("qubit") is QUBIT
        assert get_case(QUBIT) is QUBIT
        with pytest.raises(ValueError):
            get_case("qutrit")

    def test_coeff_vector_length_checked(self):
        with pytest.raises(ValueError, match="shape"):
            CoeffVector(QUBIT, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coeff_vector_must_be_finite(self, bad):
        # refused at construction, before an eigensolver can meet it
        with pytest.raises(ValueError, match="^qubit coefficient vector must be finite"):
            is_positive(CoeffVector(QUBIT, [bad] * 15))
        c = np.zeros(27)
        c[5] = bad
        with pytest.raises(ValueError, match="^quaterbit coefficient vector must be finite"):
            CoeffVector(QUATERBIT, c)

    def test_coeff_vector_must_be_real(self):
        # refused, not cast to its real part
        with pytest.raises(ValueError, match="^qubit coefficient vector must be real"):
            CoeffVector(QUBIT, np.ones(15) * (0.01 + 1j))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("check, message", [
    (lambda x: check_hermitian(np.full((4, 4), x)), "not Hermitian"),
    (lambda x: density_to_coeffs(np.full((4, 4), x), "qubit"), "not Hermitian"),
    (lambda x: QuaterbitBlocks(x, -x, 0, 0, (Quaternion(0, 0, 0, 0),) * 6), "sum to zero"),
], ids=["check_hermitian", "density_to_coeffs", "QuaterbitBlocks"])
def test_non_finite_input_fails_tolerance_checks(check, message, bad):
    # every tolerance check reads "refuse unless within tolerance", so a NaN
    # deviation (inf - inf included) is refused, not passed
    with pytest.raises(ValueError, match=message):
        check(bad)


class TestCoeffsDensityMaps:
    def test_zero_is_maximally_mixed(self):
        rho = coeffs_to_density(CoeffVector(QUBIT, np.zeros(15)))
        assert np.allclose(rho, np.eye(4) / 4, rtol=0, atol=0)

    def test_single_diagonal_coefficient(self):
        c = np.zeros(15)
        c[QUBIT.labels.index((3, 3))] = 0.5
        rho = coeffs_to_density(CoeffVector(QUBIT, c))
        assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), rtol=0, atol=1e-16)

    def test_bell_state_coefficients(self):
        v = density_to_coeffs(bell_matrix(), QUBIT)
        want = {(1, 1): 0.5, (2, 2): -0.5, (3, 3): 0.5}
        for lab, coeff in zip(QUBIT.labels, v.c):
            assert coeff == pytest.approx(want.get(lab, 0.0), abs=1e-14)

    def test_identity_projects_to_zero(self):
        v = density_to_coeffs(np.eye(4) / 4, "qubit")
        assert np.max(np.abs(v.c)) == 0.0

    @pytest.mark.parametrize("tag", ["rebit", "qubit", "quaterbit"])
    def test_round_trip(self, tag):
        case = CASES[tag]
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(1000):
            v = random_vector(case, rng)
            w = density_to_coeffs(coeffs_to_density(v), case)
            assert np.max(np.abs(w.c - v.c)) <= 1e-13

    @pytest.mark.parametrize("tag", ["rebit", "qubit", "quaterbit"])
    def test_purity_identity(self, tag):
        case = CASES[tag]
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            v = random_vector(case, rng)
            purity = np.trace(coeffs_to_density(v) @ coeffs_to_density(v)).real
            assert purity == pytest.approx(1 / case.dim + v.norm_sq(), abs=1e-12)
            assert purity <= 1.0 + 1e-12

    def test_out_of_span_rejected(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        rho = coeffs_to_density(random_vector(QUATERBIT, rng))
        stray = np.kron(np.kron(PAULI[0], PAULI[0]), PAULI[1]) / np.sqrt(8)
        with pytest.raises(SpanError) as exc:
            density_to_coeffs(rho + 0.01 * stray, QUATERBIT)
        assert exc.value.residual == pytest.approx(0.01 / np.sqrt(8), rel=1e-6)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            density_to_coeffs(np.eye(4), QUBIT)

    def test_non_hermitian_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            density_to_coeffs(rho, QUBIT)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            density_to_coeffs(np.eye(8) / 8, QUBIT)


# The exact coefficient pattern of each quaternion-block component, derived
# once by Hilbert-Schmidt projection of the assembled matrix and frozen here.
# Entries are label -> coefficient on the *unnormalized* Pauli triple tensor
# (orthonormal-chart values are sqrt(8) times larger).
BLOCK_COMPONENT_TERMS = {
    (0, "a"): {(0, 1, 0): +0.5, (3, 1, 0): +0.5},
    (0, "b"): {(0, 2, 1): -0.5, (3, 2, 1): -0.5},
    (0, "c"): {(0, 2, 2): -0.5, (3, 2, 2): -0.5},
    (0, "d"): {(0, 2, 3): +0.5, (3, 2, 3): +0.5},
    (1, "a"): {(1, 0, 0): +0.5, (1, 3, 0): +0.5},
    (1, "b"): {(2, 0, 1): -0.5, (2, 3, 1): -0.5},
    (1, "c"): {(2, 0, 2): -0.5, (2, 3, 2): -0.5},
    (1, "d"): {(2, 0, 3): +0.5, (2, 3, 3): +0.5},
    (2, "a"): {(1, 1, 0): +0.5, (2, 2, 0): -0.5},
    (2, "b"): {(1, 2, 1): -0.5, (2, 1, 1): -0.5},
    (2, "c"): {(1, 2, 2): -0.5, (2, 1, 2): -0.5},
    (2, "d"): {(1, 2, 3): +0.5, (2, 1, 3): +0.5},
    (3, "a"): {(1, 1, 0): +0.5, (2, 2, 0): +0.5},
    (3, "b"): {(1, 2, 1): +0.5, (2, 1, 1): -0.5},
    (3, "c"): {(1, 2, 2): +0.5, (2, 1, 2): -0.5},
    (3, "d"): {(1, 2, 3): -0.5, (2, 1, 3): +0.5},
    (4, "a"): {(1, 0, 0): +0.5, (1, 3, 0): -0.5},
    (4, "b"): {(2, 0, 1): -0.5, (2, 3, 1): +0.5},
    (4, "c"): {(2, 0, 2): -0.5, (2, 3, 2): +0.5},
    (4, "d"): {(2, 0, 3): +0.5, (2, 3, 3): -0.5},
    (5, "a"): {(0, 1, 0): +0.5, (3, 1, 0): -0.5},
    (5, "b"): {(0, 2, 1): -0.5, (3, 2, 1): +0.5},
    (5, "c"): {(0, 2, 2): -0.5, (3, 2, 2): +0.5},
    (5, "d"): {(0, 2, 3): +0.5, (3, 2, 3): -0.5},
}

_ZERO_Q = Quaternion(0, 0, 0, 0)


def unit_blocks(slot, comp):
    comps = {"a": 0, "b": 1, "c": 2, "d": 3}
    vals = [0.0, 0.0, 0.0, 0.0]
    vals[comps[comp]] = 1.0
    q = [_ZERO_Q] * 6
    q[slot] = Quaternion(*vals)
    return QuaterbitBlocks(0.0, 0.0, 0.0, 0.0, tuple(q))


class TestQuaterbitBlocks:
    def test_zero_blocks(self):
        v = quaterbit_from_blocks(QuaterbitBlocks(0, 0, 0, 0, (_ZERO_Q,) * 6))
        assert np.max(np.abs(v.c)) == 0.0

    def test_trace_condition_enforced(self):
        with pytest.raises(ValueError, match="sum to zero"):
            QuaterbitBlocks(0.5, 0, 0, 0, (_ZERO_Q,) * 6)

    def test_six_quaternions_required(self):
        with pytest.raises(ValueError, match="six"):
            QuaterbitBlocks(0, 0, 0, 0, (_ZERO_Q,) * 5)

    def test_diagonal_example(self):
        b = QuaterbitBlocks(1 / 8, 1 / 8, -1 / 8, -1 / 8, (_ZERO_Q,) * 6)
        v = quaterbit_from_blocks(b)
        allowed = {(3, 0, 0), (0, 3, 0), (3, 3, 0)}
        for lab, coeff in zip(QUATERBIT.labels, v.c):
            if lab == (3, 0, 0):
                # Tr(rho' lambda_300) = 2(A+B) - 2(C+D) = 1, orthonormal chart /sqrt(8)
                assert coeff == pytest.approx(1 / np.sqrt(8), abs=1e-14)
            elif lab in allowed:
                assert coeff == pytest.approx(0.0, abs=1e-14)
            else:
                assert coeff == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_coefficients_general(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        x = rng.standard_normal(4)
        x -= x.mean()
        v = quaterbit_from_blocks(QuaterbitBlocks(*x, (_ZERO_Q,) * 6))
        idx = {lab: i for i, lab in enumerate(QUATERBIT.labels)}
        a, b, c, d = x
        s8 = np.sqrt(8)
        assert v.c[idx[(3, 0, 0)]] == pytest.approx(s8 * (a + b) / 2, abs=1e-13)
        assert v.c[idx[(0, 3, 0)]] == pytest.approx(s8 * (a + c) / 2, abs=1e-13)
        assert v.c[idx[(3, 3, 0)]] == pytest.approx(s8 * (a + d) / 2, abs=1e-13)

    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("comp", ["a", "b", "c", "d"])
    def test_component_expansion_table(self, slot, comp):
        v = quaterbit_from_blocks(unit_blocks(slot, comp))
        want = BLOCK_COMPONENT_TERMS[(slot, comp)]
        s8 = np.sqrt(8)
        for lab, coeff in zip(QUATERBIT.labels, v.c):
            assert coeff == pytest.approx(s8 * want.get(lab, 0.0), abs=1e-13), lab

    def test_random_blocks_reconstruction(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(1000):
            x = rng.standard_normal(4)
            x -= x.mean()
            q = tuple(Quaternion(*rng.standard_normal(4)) for _ in range(6))
            blocks = QuaterbitBlocks(*x, q)
            direct = np.eye(8) / 8 + blocks_to_matrix(blocks)
            rebuilt = coeffs_to_density(quaterbit_from_blocks(blocks))
            assert np.max(np.abs(direct - rebuilt)) <= 1e-12


class TestMatrixPTOracle:
    def test_explicit_4x4(self):
        rho = np.arange(16).reshape(4, 4).astype(complex)
        got_b = matrix_partial_transpose(rho, (2, 2), 1)
        want_b = np.array(
            [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]]
        )
        assert np.array_equal(got_b, want_b)
        got_a = matrix_partial_transpose(rho, (2, 2), 0)
        want_a = np.array(
            [[0, 1, 8, 9], [4, 5, 12, 13], [2, 3, 10, 11], [6, 7, 14, 15]]
        )
        assert np.array_equal(got_a, want_a)

    def test_involution(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        rho = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        once = matrix_partial_transpose(rho, (2, 2, 2), 1)
        assert np.array_equal(matrix_partial_transpose(once, (2, 2, 2), 1), rho)


class TestPartialTranspose:
    def test_zero_fixed_point(self):
        v = CoeffVector(QUBIT, np.zeros(15))
        assert np.array_equal(partial_transpose(v).c, v.c)

    def test_bell_sign_flip(self):
        v = density_to_coeffs(bell_matrix(), QUBIT)
        w = partial_transpose(v)
        idx = {lab: i for i, lab in enumerate(QUBIT.labels)}
        assert w.c[idx[(1, 1)]] == pytest.approx(0.5)
        assert w.c[idx[(2, 2)]] == pytest.approx(0.5)  # sign flipped
        assert w.c[idx[(3, 3)]] == pytest.approx(0.5)

    @pytest.mark.parametrize("tag", ["rebit", "qubit", "quaterbit"])
    @pytest.mark.parametrize("subsystem", ["A", "B"])
    def test_involution_and_isometry(self, tag, subsystem):
        case = CASES[tag]
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(200):
            v = random_vector(case, rng)
            w = partial_transpose(partial_transpose(v, subsystem), subsystem)
            assert np.array_equal(w.c, v.c)
            assert partial_transpose(v, subsystem).norm_sq() == v.norm_sq()

    def test_flip_sets(self):
        assert [lab for lab, s in zip(QUBIT.labels, pt_sign_vector("qubit")) if s < 0] == [
            (0, 2), (1, 2), (2, 2), (3, 2),
        ]
        assert [lab for lab, s in zip(REBIT.labels, pt_sign_vector("rebit")) if s < 0] == [
            (2, 2),
        ]
        got = {lab for lab, s in zip(QUATERBIT.labels, pt_sign_vector("quaterbit")) if s < 0}
        want = {(0, 2, 1), (3, 2, 1), (0, 2, 2), (3, 2, 2), (0, 2, 3), (3, 2, 3),
                (1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 2, 0)}
        assert got == want
        got_a = {lab for lab, s in zip(QUATERBIT.labels, pt_sign_vector("quaterbit", "A")) if s < 0}
        assert got_a == {lab for lab in QUATERBIT.labels if lab[0] == 2}

    @pytest.mark.parametrize("tag", ["rebit", "qubit"])
    def test_subsystems_agree_state_by_state(self, tag):
        # G^T = s_A s_B G for every generator, so rho^{T_A} = (rho^{T_B})^T: one spectrum
        case = CASES[tag]
        signs = pt_sign_vector(tag, "A") * pt_sign_vector(tag, "B")
        assert np.array_equal(case.basis.transpose(0, 2, 1), signs[:, None, None] * case.basis)
        rng = np.random.default_rng(RNG_SEED + 9)
        for _ in range(200):
            v = random_vector(case, rng)
            assert ppt_test(v, "A") == ppt_test(v, "B")

    def test_quaterbit_subsystems_disagree_state_by_state_not_in_rate(self):
        # slot k is never transposed, so rho^{T_A} is not (rho^{T_B})^T: a state can
        # be PPT over one subsystem only
        def positive(pts):  # is_positive's eigenvalue test, on a batch
            rho = np.eye(8) / 8 + np.einsum("na,aij->nij", pts, QUATERBIT.basis)
            return np.linalg.eigvalsh(rho)[:, 0] >= -POSITIVITY_TOL

        c = 0.3 * sample_ball(27, QUATERBIT.radius, StreamSpec(9, 0, 0), 20_000)
        sign_a, sign_b = pt_sign_vector("quaterbit", "A"), pt_sign_vector("quaterbit", "B")
        pos = positive(c)
        ppt_a, ppt_b = pos & positive(c * sign_a), pos & positive(c * sign_b)
        only_a, only_b = np.sum(ppt_a & ~ppt_b), np.sum(ppt_b & ~ppt_a)
        assert only_a + only_b > 0.25 * pos.sum()
        # swapping i and j (conjugation by a unitary SWAP) maps the labels onto
        # themselves and subsystem A onto B, so the two rates are equal in distribution
        swap = [QUATERBIT.labels.index((j, i, k)) for i, j, k in QUATERBIT.labels]
        assert np.array_equal(sign_a[swap], sign_b)
        assert np.array_equal(positive(c[:, swap] * sign_b), positive(c * sign_a))
        assert abs(only_a - only_b) <= 4 * np.sqrt(only_a + only_b)

    def test_bad_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            pt_sign_vector("qubit", "C")

    @pytest.mark.parametrize("tag", ["rebit", "qubit", "quaterbit"])
    def test_matches_matrix_level_entrywise(self, tag):
        case = CASES[tag]
        rng = np.random.default_rng(RNG_SEED + 7)
        dims = pt_dims(case)
        for _ in range(1000):
            v = random_vector(case, rng)
            lhs = coeffs_to_density(partial_transpose(v))
            rhs = matrix_partial_transpose(coeffs_to_density(v), dims, 1)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_subsystem_a_matches_matrix_level(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        for tag in CASES:
            case = CASES[tag]
            dims = pt_dims(case)
            for _ in range(100):
                v = random_vector(case, rng)
                lhs = coeffs_to_density(partial_transpose(v, "A"))
                rhs = matrix_partial_transpose(coeffs_to_density(v), dims, 0)
                assert np.max(np.abs(lhs - rhs)) <= 1e-14


class TestPositivityAndPPT:
    def test_maximally_mixed_positive(self):
        for case in CASES.values():
            v = CoeffVector(case, np.zeros(case.num_coeffs))
            assert is_positive(v)
            assert ppt_test(v)

    def test_outsphere_point_not_positive(self):
        c = np.zeros(15)
        c[QUBIT.labels.index((3, 3))] = -np.sqrt(3) / 2
        v = CoeffVector(QUBIT, c)
        # rho = diag(1/4 - sqrt(3)/4, 1/4 + sqrt(3)/4, ...) has a negative entry
        assert not is_positive(v)

    def test_pure_product_state_positive(self):
        v = density_to_coeffs(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), QUBIT)
        assert v.norm_sq() == pytest.approx(QUBIT.radius**2, abs=1e-14)
        assert is_positive(v)

    @pytest.mark.parametrize("p,expect", [(0.25, True), (0.5, False), (1 / 3 - 0.01, True)])
    def test_werner_ppt(self, p, expect):
        v = density_to_coeffs(werner_matrix(p), QUBIT)
        idx = {lab: i for i, lab in enumerate(QUBIT.labels)}
        for lab in ((1, 1), (2, 2), (3, 3)):
            assert v.c[idx[lab]] == pytest.approx(-p / 2, abs=1e-14)
        assert is_positive(v)
        assert ppt_test(v) is expect
        # closed-form smallest PT eigenvalue
        from sepmc.algebra import min_eigenvalue

        got = min_eigenvalue(coeffs_to_density(partial_transpose(v)))
        assert got == pytest.approx((1 - 3 * p) / 4, abs=1e-12)

    @pytest.mark.parametrize("tag", ["rebit", "qubit", "quaterbit"])
    def test_spectrum_equivalence(self, tag):
        case = CASES[tag]
        rng = np.random.default_rng(RNG_SEED + 9)
        dims = pt_dims(case)
        for _ in range(200):
            v = random_vector(case, rng)
            w1 = np.linalg.eigvalsh(coeffs_to_density(partial_transpose(v)))
            w2 = np.linalg.eigvalsh(
                matrix_partial_transpose(coeffs_to_density(v), dims, 1)
            )
            assert np.max(np.abs(w1 - w2)) <= 1e-10


class TestStructure:
    def test_rebit_matrices_real(self):
        rng = np.random.default_rng(RNG_SEED + 10)
        for _ in range(1000):
            rho = coeffs_to_density(random_vector(REBIT, rng))
            assert np.max(np.abs(rho.imag)) <= 1e-14
            assert np.max(np.abs(rho - rho.T)) <= 1e-14

    def test_kramers_pairs(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        for _ in range(1000):
            v = random_vector(QUATERBIT, rng)
            for state in (v, partial_transpose(v)):
                w = np.linalg.eigvalsh(coeffs_to_density(state))
                assert np.max(np.abs(w[::2] - w[1::2])) <= 1e-9


# --- independent statistical validation of the quaterbit PPT pipeline ----
#
# Flat (Hilbert-Schmidt) measure on the quaterbit state body factorizes into
# eigenvalues on the simplex {l >= 0, sum l = 1/2} with density ~ prod |l_i -
# l_j|^4, times a Haar-random quaternionic unitary conjugation.  Sampling
# that way reaches the body without ball rejection, so the PPT fraction can
# be checked against the conjectured value 26/323 directly.

def _qarr_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def _haar_quaternionic_unitary(rng):
    g = rng.standard_normal((4, 4, 4))
    cols = []
    for c in range(4):
        v = [g[r, c].copy() for r in range(4)]
        for u in cols:
            overlap = sum(_qarr_mul(np.array([u[r][0], -u[r][1], -u[r][2], -u[r][3]]), v[r])
                          for r in range(4))
            for r in range(4):
                v[r] = v[r] - _qarr_mul(u[r], overlap)
        nrm = np.sqrt(sum(float(x @ x) for x in v))
        cols.append([x / nrm for x in v])
    u8 = np.zeros((8, 8), dtype=complex)
    for r in range(4):
        for c in range(4):
            u8[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = Quaternion(*cols[c][r]).to_block()
    return u8


def test_quaterbit_ppt_fraction_on_flat_body_measure():
    rng = np.random.default_rng(1)
    n_weights = 1_000_000
    lam = rng.dirichlet((1, 1, 1, 1), size=n_weights) * 0.5
    logw = np.zeros(n_weights)
    for i in range(4):
        for j in range(i + 1, 4):
            logw += 4 * np.log(np.abs(lam[:, i] - lam[:, j]))
    logw -= logw.max()
    w = np.exp(logw)
    ess = w.sum() ** 2 / (w @ w)
    assert ess > 10_000, "importance sample too degenerate to test"

    n_states = 20_000
    picks = rng.choice(n_weights, size=n_states, replace=True, p=w / w.sum())
    n_ppt_b = 0
    n_ppt_a = 0
    n_disagree = 0
    for i in picks:
        u8 = _haar_quaternionic_unitary(rng)
        rho = (u8 * np.repeat(lam[i], 2)) @ u8.conj().T
        v = density_to_coeffs(rho, QUATERBIT)  # also certifies the 27-label span
        assert is_positive(v)
        verdict_b = ppt_test(v, "B")
        verdict_a = ppt_test(v, "A")
        n_ppt_b += verdict_b
        n_ppt_a += verdict_a
        n_disagree += verdict_a != verdict_b
    p_hat = n_ppt_b / n_states
    target = 26 / 323
    tol = 5 * np.sqrt(target * (1 - target) / n_states)
    assert abs(p_hat - target) <= tol, f"PPT fraction {p_hat:.5f} vs {target:.5f}"
    # Transposing subsystem A instead of B changes individual verdicts but
    # not the probability (the body measure is symmetric under the swap).
    assert n_disagree > 0
    assert abs(n_ppt_a - n_ppt_b) <= 5 * np.sqrt(n_disagree)


def test_rebit_ppt_rate_is_flat_in_the_reduced_bloch_radius():
    """The rebit PPT rate does not depend on r_A, the Bloch radius of rho_A.

    For real 4x4 states under the Hilbert-Schmidt measure this flatness is
    a theorem (Lovas and Andai, arXiv:1610.01410), so it tests the measure
    the ball sampler and the kernel realize, not only their pooled rate.  A
    PT sign flipped in the kernel on generator (1, 1), (3, 3) or (1, 3)
    moves the pooled rate by z = -6.2, -5.9 or -4.7, but tilts it across
    the r_A bins to a chi^2 of 237, 231 or 261.
    """
    # rho_A = I/2 + sum_i c_(i,0) sigma_i, so its Bloch vector is 2 c_(i,0)
    cols = [REBIT.labels.index((1, 0)), REBIT.labels.index((3, 0))]
    edges = (0, 0.3, 0.45, 0.6, 1.01)  # a positive state has r_A <= 1
    n_positive = np.zeros(len(edges) - 1, dtype=np.int64)
    n_sep = np.zeros_like(n_positive)
    rng = StreamSpec(1, 0, 0).generator()
    for pts in ball_batches(REBIT.num_coeffs, REBIT.radius, rng, 4_000_000):
        r_a = 2 * np.hypot(pts[:, cols[0]], pts[:, cols[1]])
        bins = np.digitize(r_a, edges) - 1
        for b in range(len(n_positive)):
            npos, nsep = count_tallies(pts[bins == b], "rebit")
            n_positive[b] += npos
            n_sep[b] += nsep
    assert n_positive.min() > 500, f"too few positive states in a bin: {n_positive}"
    p = n_sep.sum() / n_positive.sum()
    chi2 = float(np.sum((n_sep - n_positive * p) ** 2 / (n_positive * p * (1 - p))))
    # 16.27: the 0.999 quantile of chi^2 with 3 degrees of freedom
    assert chi2 < 16.27, f"PPT rate by r_A bin {n_sep / n_positive}, chi^2 {chi2:.1f}"
