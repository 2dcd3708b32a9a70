import ast
import inspect
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import asdict, astuple, fields
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepmc import algebra, engine, kernels
from sepmc.algebra import Quaternion, min_eigenvalue
from sepmc.engine import (
    CHECKPOINT_MAX_BYTES,
    Checkpoint,
    CheckpointError,
    NoPositiveSamplesError,
    TallyCounts,
    check_path,
    checkpoint_load,
    checkpoint_save,
    chunk_tallies,
    estimate,
    run_chunk,
)
from sepmc.sampler import DRAW_BATCH, StreamSpec, sample_ball
from sepmc.states import (
    CASES,
    POSITIVITY_TOL,
    CoeffVector,
    coeffs_to_density,
    density_to_coeffs,
    get_case,
    is_positive,
    partial_transpose,
    ppt_test,
    pt_sign_vector,
)


class TestTallyCounts:
    def test_ordering_enforced(self):
        TallyCounts(5, 3, 2)
        with pytest.raises(ValueError, match="ordering"):
            TallyCounts(5, 3, 4)
        with pytest.raises(ValueError, match="ordering"):
            TallyCounts(5, 6, 2)
        with pytest.raises(ValueError, match="ordering"):
            TallyCounts(5, -1, -1)

    def test_merge_identity_and_commutativity(self):
        a = TallyCounts(100, 40, 10)
        b = TallyCounts(50, 20, 9)
        assert a.merge(TallyCounts.zero()) == a
        assert a.merge(b) == b.merge(a) == TallyCounts(150, 60, 19)

    def test_merge_associative(self):
        a, b, c = TallyCounts(1, 1, 0), TallyCounts(2, 1, 1), TallyCounts(3, 0, 0)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_huge_counts_do_not_wrap(self):
        big = TallyCounts(2**62, 2**61, 2**60)
        total = big.merge(big)
        assert total == TallyCounts(2**63, 2**62, 2**61)
        assert total.n_total > 0


class TestRunChunk:
    def test_single_draw(self):
        t = run_chunk("qubit", StreamSpec(0, 0, 0), 1)
        assert t.n_total == 1
        assert 0 <= t.n_sep <= t.n_positive <= 1

    def test_deterministic_replay(self):
        s = StreamSpec(42, 0, 3)
        assert run_chunk("rebit", s, 50_000) == run_chunk("rebit", s, 50_000)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_chunk("qubit", StreamSpec(0, 0, 0), 0)

    def test_float_chunk_size_refused(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_chunk("rebit", StreamSpec(0, 0, 0), 10.0)

    def test_tally_ordering_holds(self):
        for tag in CASES:
            t = run_chunk(tag, StreamSpec(9, 0, 0), 30_000)
            assert 0 <= t.n_sep <= t.n_positive <= t.n_total == 30_000

    def test_matches_per_sample_api(self):
        # same stream, same draw protocol, scored by the eigenvalue route
        for tag in ("rebit", "qubit"):
            case = CASES[tag]
            n = 20_000
            t = run_chunk(tag, StreamSpec(77, 0, 0), n)
            pts = sample_ball(case.num_coeffs, case.radius, StreamSpec(77, 0, 0), n)
            n_pos = n_sep = 0
            for row in pts:
                v = CoeffVector(case, row)
                if is_positive(v):
                    n_pos += 1
                    if ppt_test(v):
                        n_sep += 1
            assert (t.n_positive, t.n_sep) == (n_pos, n_sep)
        # chunks spanning one, two and three draw batches, scored by the kernel
        for tag, case in CASES.items():
            for n in (DRAW_BATCH - 1, DRAW_BATCH, DRAW_BATCH + 1, 2 * DRAW_BATCH + 1):
                t = run_chunk(tag, StreamSpec(77, 0, 0), n)
                pts = sample_ball(case.num_coeffs, case.radius, StreamSpec(77, 0, 0), n)
                assert t == TallyCounts(n, *kernels.count_tallies(pts, tag)), (tag, n)


class TestKernelBackends:
    @staticmethod
    def _embedded_werner_points():
        # rho_qubit x I/2 lies in the quaterbit span; its positivity and PPT
        # verdicts match the underlying two-qubit state, giving the kernel
        # deterministic quaterbit points with every verdict combination.
        def werner_matrix(p):
            singlet = np.zeros((4, 4), dtype=complex)
            singlet[1, 1] = singlet[2, 2] = 0.5
            singlet[1, 2] = singlet[2, 1] = -0.5
            return p * singlet + (1 - p) * np.eye(4) / 4

        rows = []
        for p in (0.2, 0.5, 1.2):
            rho8 = np.kron(werner_matrix(p), np.eye(2) / 2)
            if p <= 1.0:
                rows.append(density_to_coeffs(rho8, "quaterbit").c)
            else:  # not a state; bypass the positivity-agnostic projection
                basis = CASES["quaterbit"].basis
                rows.append(np.real(np.einsum("aij,ji->a", basis, rho8 - np.eye(8) / 8)))
        return np.array(rows)

    def test_quaterbit_embedded_two_qubit_family(self):
        pts = self._embedded_werner_points()
        assert kernels.count_tallies(pts, "quaterbit") == (2, 1)
        # the eigenvalue-based API reaches the same verdicts row by row
        verdicts = []
        for row in pts:
            v = CoeffVector(CASES["quaterbit"], row)
            verdicts.append((is_positive(v), is_positive(v) and ppt_test(v)))
        assert verdicts == [(True, True), (True, False), (False, False)]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="shape"):
            kernels.count_tallies(np.zeros((5, 14)), "qubit")
        with pytest.raises(ValueError, match="^qubit points must be real"):
            kernels.count_tallies(np.zeros((3, 15)) + 1j, "qubit")
        for bad in (np.nan, np.inf):
            # refused, not tallied as a point that is no state
            pts = np.zeros((3, 9))
            pts[1, 0] = bad
            with pytest.raises(ValueError, match="^rebit points must be finite"):
                kernels.count_tallies(pts, "rebit")


def _modules_after(statement):
    """The names in sys.modules of a fresh interpreter after it runs statement."""
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120, check=True,
    )
    return set(proc.stdout.split())


def test_import_layering():
    # the package root loads none of its modules, and the kernel none of the
    # layers built on it
    assert not {m for m in _modules_after("import sepmc") if m.startswith("sepmc.")}
    loaded = _modules_after("import sepmc.kernels")
    assert loaded.isdisjoint({"sepmc.engine", "sepmc.sampler", "sepmc.conjecture",
                              "concurrent.futures"})


def test_only_chunk_tallies_knows_about_processes():
    # process scheduling stays behind one function, whatever else the fold grows
    pool_names = re.compile(r"\b(ProcessPoolExecutor|_processes|sched_getaffinity|cpu_count)\b")
    assert not pool_names.search(inspect.getsource(engine.estimate))
    found = set()
    for path in Path(engine.__file__).parent.glob("*.py"):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    pool_names.search(ast.get_source_segment(source, node)):
                found.add(f"{path.stem}.{node.name}")
    assert found == {"engine.chunk_tallies"}


def test_only_algebra_turns_signs_into_operations():
    # the kernel runs signed-sum programs that `algebra.signed_program` compiled;
    # it names no add or subtract of its own
    tree = ast.parse(Path(kernels.__file__).read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert named.isdisjoint({"add", "subtract"})


@lru_cache(maxsize=None)
def _scored_points(tag):
    """Ball points shrunk by factors spread over [0.05, 1], with per-row verdicts.

    Returns (pts, kernel, eig): kernel[r] is count_tallies(pts[r:r+1]) and
    eig[r] the (positive, positive-and-PPT) verdict of the eigenvalue route.
    The factors are shuffled so neighbouring lanes of a tile disagree.
    """
    case = CASES[tag]
    n = 1500
    pts = sample_ball(case.num_coeffs, case.radius, StreamSpec(31, 0, 0), n)
    pts *= np.random.default_rng(3).uniform(0.05, 1.0, (n, 1))
    kernel = np.array([kernels.count_tallies(row[None], tag) for row in pts])
    eig = []
    for row in pts:
        v = CoeffVector(case, row)
        pos = is_positive(v)
        eig.append((pos, pos and ppt_test(v)))
    return pts, kernel, np.array(eig, dtype=int)


class TestKernelAgainstEigenvalueRoute:
    """The compacting kernel against the eigensolver, row by row and in batches."""

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_every_row_and_the_batch_agree(self, tag):
        pts, kernel, eig = _scored_points(tag)
        np.testing.assert_array_equal(kernel, eig)
        npos, nsep = eig.sum(axis=0)
        # every outcome occurs: PPT, positive but not PPT, not positive
        assert 0 < nsep < npos < len(pts)
        assert kernels.count_tallies(pts, tag) == (npos, nsep)

    @pytest.mark.parametrize("tag", ["rebit", "qubit"])
    def test_ppt_verdict_is_the_sign_of_det_of_the_partial_transpose(self, tag):
        # A third PPT oracle: the partial transpose of a two-qubit state has at most
        # one negative eigenvalue, so the state is PPT exactly when det(rho^Gamma) >= 0.
        # Not quaterbit: its Kramers pairs make det(rho^Gamma) >= 0 whatever the verdict.
        pts, kernel, _ = _scored_points(tag)
        positive = kernel[:, 0] == 1
        det = [np.linalg.det(coeffs_to_density(partial_transpose(CoeffVector(CASES[tag], row))))
               for row in pts[positive]]
        np.testing.assert_array_equal(kernel[positive, 1] == 1, np.real(det) >= 0)

    @pytest.mark.parametrize("tag", sorted(CASES))
    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
    def test_tile_boundaries(self, tag, n):
        pts, kernel, _ = _scored_points(tag)
        rows = np.random.default_rng(n).integers(0, len(pts), n)
        expected = tuple(int(x) for x in kernel[rows].sum(axis=0))
        assert kernels.count_tallies(pts[rows], tag) == expected

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_empty_batch(self, tag):
        assert kernels.count_tallies(np.zeros((0, CASES[tag].num_coeffs)), tag) == (0, 0)

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_tile_dead_at_first_pivot(self, tag):
        case = CASES[tag]
        # rho[0, 0] = 1/d + c.g with g[a] = G_a[0, 0]: a step of 0.6 along -g
        # makes it negative for every point of the small noise ball
        g = case.basis[:, 0, 0].real
        noise = sample_ball(case.num_coeffs, 0.05, StreamSpec(8, 0, 0), 4096)
        dead = noise - 0.6 * g / np.linalg.norm(g)
        assert np.all(1 / case.dim + dead @ g < -0.1)
        assert kernels.count_tallies(dead, tag) == (0, 0)
        # a dead tile in front of live ones leaves their tally unchanged
        pts, kernel, _ = _scored_points(tag)
        expected = tuple(int(x) for x in kernel.sum(axis=0))
        assert kernels.count_tallies(np.concatenate([dead, pts]), tag) == expected


def _assemble(beta, tables, Y):
    """Lower triangle of rho over its number system, shape (beta, d, d, lanes), run from the tables
    by the kernel's runner, `algebra.run_signed`."""
    d = len(tables)
    rho = np.zeros((beta, d, d, Y.shape[1]))
    for j, (pivot, lower) in enumerate(tables):
        algebra.run_signed(*pivot, Y.__getitem__, rho[0, j, j])
        for p, i, program in lower:
            algebra.run_signed(0.0, program, Y.__getitem__, rho[p, i, j])
    return rho


def _block_form(parts):
    """Complex matrices (D, D, lanes) of (beta, d, d, lanes) parts: identity for the
    reals and complex numbers, `Quaternion.to_block` for the quaternions."""
    beta, d, _, lanes = parts.shape
    if beta == 1:
        return parts[0] + 0j
    if beta == 2:
        return parts[0] + 1j * parts[1]
    out = np.zeros((2 * d, 2 * d, lanes), dtype=complex)
    for i in range(d):
        for j in range(d):
            for r in range(lanes):
                out[2 * i:2 * i + 2, 2 * j:2 * j + 2, r] = Quaternion(*parts[:, i, j, r]).to_block()
    return out


class TestCaseTables:
    """The invariant the kernel's exactness rests on: kappa * signs gives back the basis
    through `algebra.complex_form`, so every entry is a signed sum of kappa-scaled rows."""

    @pytest.mark.parametrize("tag, kappa", [
        ("rebit", 0.5), ("qubit", 0.5), ("quaterbit", 1 / (2 * np.sqrt(2))),
    ])
    def test_one_coefficient_magnitude(self, tag, kappa):
        assert kernels.case_tables(tag)[0] == pytest.approx(kappa, rel=1e-15)

    @pytest.mark.parametrize("tag, beta", [("rebit", 1), ("qubit", 2), ("quaterbit", 4)])
    def test_number_system(self, tag, beta):
        _, tables, pt_tables = kernels.case_tables(tag)
        assert len(tables) == len(pt_tables) == 4
        for tab in (tables, pt_tables):
            assert {part for _, lower in tab for part, _, _ in lower} == set(range(beta))

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_signs_are_the_basis_signs_and_pt_flips_them(self, tag):
        # lane g holds the unit vector e_g, so each assembled entry is the
        # sign (0 or +-1) with which generator g enters it, plus 1/d on the diagonal
        case = CASES[tag]
        _, tables, pt_tables = kernels.case_tables(tag)
        d, m = case.dim, case.num_coeffs
        lower = np.tril(np.ones((d, d), dtype=bool))
        signs = np.sign(np.stack([case.basis.real, case.basis.imag])).transpose(0, 2, 3, 1)
        signs[:, ~lower] = 0
        eye = np.zeros((2, d, d, 1))
        eye[0] = np.eye(d)[..., None] / d
        pt = pt_sign_vector(tag)
        for tab, want in ((tables, signs + eye), (pt_tables, signs * pt + eye)):
            got = _block_form(_assemble(case.beta, tab, np.eye(m)))
            np.testing.assert_array_equal(got.real, want[0])
            np.testing.assert_array_equal(got.imag, want[1])

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_kappa_scaled_rows_assemble_rho(self, tag):
        case = CASES[tag]
        kappa, tables, pt_tables = kernels.case_tables(tag)
        c = sample_ball(case.num_coeffs, case.radius, StreamSpec(4, 0, 0), 5)
        for tab, pts in ((tables, c), (pt_tables, c * pt_sign_vector(tag))):
            rho = _block_form(_assemble(case.beta, tab, kappa * c.T))
            for r, row in enumerate(pts):
                want = np.tril(coeffs_to_density(CoeffVector(case, row)))
                np.testing.assert_allclose(rho[..., r], want, atol=1e-15)

    @pytest.mark.parametrize("tag, doctor, generator", [
        # generator 0 doubled is the one blamed, not the next one to carry kappa
        ("qubit", lambda b: b.__setitem__(0, 2 * b[0]), 0),
        # a Hermitian generator with an imaginary part has no real form
        ("rebit", lambda b: (b[0].__setitem__((0, 1), 0.5j), b[0].__setitem__((1, 0), -0.5j)),
         0),
        # diag(1, -1) is not a diagonal quaternion block a*I
        ("quaterbit", lambda b: b[0].__setitem__((1, 1), -b[0][1, 1]), 0),
        # a lower block [[0, kappa], [0, 0]]: Hermitian, but B10 != -conj(B01)
        ("quaterbit", lambda b: (b[3].__setitem__((2, 1), b[3][0, 2]),
                                 b[3].__setitem__((1, 2), b[3][0, 2])), 3),
    ], ids=["two-magnitudes", "rebit-imaginary-part", "quaterbit-diagonal-block",
            "quaterbit-lower-block"])
    def test_unassemblable_basis_rejected(self, monkeypatch, tag, doctor, generator):
        basis = CASES[tag].basis.copy()
        doctor(basis)
        monkeypatch.setattr(kernels, "get_case",
                            lambda tag: SimpleNamespace(basis=basis, beta=CASES[tag].beta))
        with pytest.raises(ValueError, match=f"{tag}: generator {generator} is not kappa = "):
            kernels.case_tables.__wrapped__(tag)

    @pytest.mark.parametrize("doctor", [
        # generator 0 also enters rho[3, 0] (and rho[0, 3]), which has two already
        lambda b: (b[0].__setitem__((3, 0), 0.5), b[0].__setitem__((0, 3), 0.5)),
        # no generator enters rho[0, 0]
        lambda b: b[:, 0, 0].fill(0),
    ], ids=["three-generators-below-diagonal", "empty-diagonal"])
    def test_any_generator_count_assembles(self, monkeypatch, doctor):
        # every entry is one program, whatever number of generators enters it:
        # the kernel's sum in increasing generator index, bit for bit
        basis = CASES["qubit"].basis.copy()
        doctor(basis)
        monkeypatch.setattr(kernels, "get_case",
                            lambda tag: SimpleNamespace(basis=basis, beta=CASES[tag].beta))
        kappa, tables, pt_tables = kernels.case_tables.__wrapped__("qubit")
        c = sample_ball(15, CASES["qubit"].radius, StreamSpec(4, 0, 0), 5)
        for tab, pts in ((tables, c), (pt_tables, c * pt_sign_vector("qubit"))):
            rho = _block_form(_assemble(CASES["qubit"].beta, tab, kappa * c.T))
            for r, row in enumerate(pts):
                want = np.eye(4, dtype=complex) / 4
                for a, g in enumerate(basis):
                    want = want + row[a] * g
                want = np.tril(want)
                np.testing.assert_array_equal(rho[..., r].real, want.real)
                np.testing.assert_array_equal(rho[..., r].imag, want.imag)


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_product_table_is_quaternion_times_conjugate(beta):
    # part r of x * conj(y) from the table, summed over s in order, against
    # Quaternion.__mul__ on quaternions whose parts from beta on are zero
    signs = algebra.PRODUCT_SIGNS[:beta, :beta]
    parts = algebra.PRODUCT_PARTS[:beta, :beta]
    assert set(parts.ravel()) == set(range(beta))
    rng = np.random.default_rng(beta)
    for _ in range(200):
        x, y = np.zeros(4), np.zeros(4)
        x[:beta], y[:beta] = rng.standard_normal((2, beta))
        p = Quaternion(*x) * Quaternion(*y).conjugate()
        want = [p.a, p.b, p.c, p.d]
        for r in range(beta):
            got = 0.0
            for s in range(beta):
                got += signs[r, s] * x[s] * y[parts[r, s]]
            assert got == want[r]
        assert not any(want[beta:])


class TestQuaterbitBoundary:
    """Points placed within 1e-9 of -tol on lambda_min, on either side."""

    STEP = 1e-9

    @staticmethod
    def _lambda_min(c, pt):
        v = CoeffVector(CASES["quaterbit"], c)
        return min_eigenvalue(coeffs_to_density(partial_transpose(v) if pt else v))

    def _straddle(self, c, pt):
        """Scales t- < t+ of c with lambda_min + tol in (0, STEP] and [-STEP, 0), by bisection."""
        gap = lambda t: self._lambda_min(t * c, pt) + POSITIVITY_TOL  # noqa: E731
        lo, hi = 0.0, 1.0
        while gap(hi) > 0:
            lo, hi = hi, 2 * hi
        while not (0 < gap(lo) <= self.STEP and -self.STEP <= gap(hi) < 0):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return lo * c, hi * c

    def test_kernel_takes_the_side_of_each_point(self):
        case = CASES["quaterbit"]
        dirs = sample_ball(case.num_coeffs, case.radius, StreamSpec(12, 0, 0), 400)
        rows, sides = [], []
        for pt in (False, True):
            found = 0
            for c in dirs:
                if pt and self._lambda_min(c, True) >= self._lambda_min(c, False):
                    continue  # rho^Gamma would not reach -tol before rho does
                inside, outside = self._straddle(c, pt)
                rows += [inside, outside]
                sides += [(True, True), (pt, False)] if pt else [(True, None), (False, False)]
                found += 1
                if found == 8:
                    break
            assert found == 8
        pts = np.array(rows)
        got = [kernels.count_tallies(row[None], "quaterbit") for row in pts]
        for row, (npos, nsep), (pos, sep) in zip(pts, got, sides):
            assert npos == pos
            v = CoeffVector(case, row)
            assert nsep == (pos and ppt_test(v) if sep is None else sep)
        assert kernels.count_tallies(pts, "quaterbit") == tuple(np.sum(got, axis=0))


class TestSeededTallies:
    """Seeded tallies recorded from the kernel; any change to a verdict moves them."""

    @pytest.mark.parametrize("tag, expected", [
        ("rebit", (200_000, 369, 156)),
        ("qubit", (200_000, 7, 1)),
        ("quaterbit", (200_000, 0, 0)),
    ])
    def test_ball_chunk(self, tag, expected):
        assert run_chunk(tag, StreamSpec(2024, 0, 0), 200_000) == TallyCounts(*expected)

    @pytest.mark.parametrize("tag, factor, expected", [
        ("rebit", 0.6, (2864, 1513)),
        ("qubit", 0.5, (5781, 2848)),
        ("quaterbit", 0.3, (8081, 4059)),
    ])
    def test_shrunk_ball(self, tag, factor, expected):
        # shrinking the ball makes most points states, so both passes run deep
        case = CASES[tag]
        pts = sample_ball(case.num_coeffs, case.radius, StreamSpec(2024, 0, 1), 20_000)
        assert kernels.count_tallies(pts * factor, tag) == expected


class TestEstimate:
    def test_qubit_consistent_with_conjecture(self):
        res = estimate("qubit", seed=1, n_total=1_000_000, workers=1, chunk_size=250_000)
        assert res.tally.n_total == 1_000_000
        assert abs(res.p_hat - 8 / 33) <= 5 * res.std_err
        assert res.std_err > 0

    def test_partition_invariance(self):
        runs = [
            estimate("rebit", seed=7, n_total=400_000, workers=w, chunk_size=50_000)
            for w in (1, 2, 4)
        ]
        assert runs[0].tally == runs[1].tally == runs[2].tally
        assert runs[0].p_hat == runs[1].p_hat == runs[2].p_hat

    def test_replay_identical(self):
        a = estimate("rebit", seed=3, n_total=200_000, workers=2, chunk_size=50_000)
        b = estimate("rebit", seed=3, n_total=200_000, workers=2, chunk_size=50_000)
        assert a.tally == b.tally

    def test_n_total_rounded_up_to_chunks(self):
        res = estimate("rebit", seed=5, n_total=120_000, workers=1, chunk_size=50_000)
        assert res.tally.n_total == 150_000

    def test_no_positive_samples(self):
        # the quaterbit positivity region is a vanishing fraction of its
        # sampling ball, so a small run finds nothing
        with pytest.raises(NoPositiveSamplesError, match="no positive samples"):
            estimate("quaterbit", seed=0, n_total=4000, workers=1, chunk_size=2000)

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValueError, match="n_total"):
            estimate("qubit", seed=0, n_total=0)
        with pytest.raises(ValueError, match="workers"):
            estimate("qubit", seed=0, n_total=10, workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            estimate("qubit", seed=0, n_total=10, chunk_size=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            estimate("qubit", seed=0, n_total=10, checkpoint_every=-3)
        # a checkpoint path is a non-empty str or a PathLike of one: not a descriptor's
        # number, not bytes; refused before any chunk runs or any file is made
        class BytesPath:
            def __fspath__(self):
                return str(tmp_path / "run.ckpt").encode()

        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before the checkpoint path was checked")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "run_chunk", no_chunk)
            mp.chdir(tmp_path)
            for bad in ("", 3, b"x", BytesPath()):
                with pytest.raises(ValueError, match="^checkpoint_path must name a file"):
                    estimate("rebit", seed=0, n_total=10, workers=1, chunk_size=10,
                             checkpoint_path=bad)
        assert os.listdir(tmp_path) == []
        # a float seed must neither run seed 1's streams nor reach a checkpoint file
        path = tmp_path / "run.ckpt"
        with pytest.raises(ValueError, match="seed"):
            estimate("rebit", seed=1.5, n_total=10, workers=1, chunk_size=10,
                     checkpoint_path=path, checkpoint_every=1)
        assert not path.exists()

    def test_bool_seed_refused_before_any_chunk(self, tmp_path):
        # True would otherwise run seed 1's streams and write 'seed True'
        path = tmp_path / "run.ckpt"
        with pytest.raises(ValueError, match="seed"):
            estimate("rebit", seed=True, n_total=10, workers=1, chunk_size=10,
                     checkpoint_path=path, checkpoint_every=1)
        assert not path.exists()
        assert not (tmp_path / "run.ckpt.tmp").exists()

    def test_float_n_total_refused(self):
        with pytest.raises(ValueError, match="n_total"):
            estimate("rebit", seed=0, n_total=2.5, workers=1, chunk_size=10)

    def test_numpy_integers_come_back_as_python_ints(self):
        # TallyCounts promises Python ints: exact at any scale, and JSON-serializable
        res = estimate("rebit", seed=np.uint64(3), n_total=np.int64(2000), workers=1,
                       chunk_size=np.int64(1000))
        assert [type(v) for v in astuple(res.tally)] == [int, int, int]
        json.dumps(asdict(res.tally))

    def test_std_err_scaling(self):
        small = estimate("rebit", seed=11, n_total=100_000, workers=1, chunk_size=100_000)
        big = estimate("rebit", seed=11, n_total=1_600_000, workers=2, chunk_size=100_000)
        ratio = small.std_err / big.std_err
        assert ratio == pytest.approx(4.0, rel=0.2)


def _run_chunk_after_sigint(case, stream, chunk_size):
    """run_chunk in a process that has just been sent SIGINT, as Ctrl-C sends it to a whole group."""
    os.kill(os.getpid(), signal.SIGINT)
    return run_chunk(case, stream, chunk_size)


def _spy_pools(monkeypatch):
    """Replace engine's process pool by one that records its size and, in events, each submit."""
    sizes, events = [], []

    class Spy(engine.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, *args, **kwargs):
            events.append("submit")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Spy)
    return sizes, events


class TestScheduler:
    def test_pool_no_larger_than_the_chunks_left(self, monkeypatch, tmp_path):
        sizes, _ = _spy_pools(monkeypatch)
        estimate("rebit", seed=1, n_total=10_000, workers=4, chunk_size=5000)
        assert sizes == [2]
        estimate("rebit", seed=1, n_total=5000, workers=4, chunk_size=5000)
        assert sizes == [2]
        # a resumed run counts only the chunks it has left
        path = tmp_path / "run.ckpt"
        estimate("rebit", seed=1, n_total=15_000, workers=1, chunk_size=5000, checkpoint_path=path)
        estimate("rebit", seed=1, n_total=20_000, workers=4, chunk_size=5000, checkpoint_path=path)
        estimate("rebit", seed=1, n_total=20_000, workers=4, chunk_size=5000, checkpoint_path=path)
        assert sizes == [2]

    def test_pool_no_larger_than_the_window(self, monkeypatch):
        sizes, _ = _spy_pools(monkeypatch)
        monkeypatch.setattr(engine, "WINDOW", 3)
        estimate("rebit", seed=1, n_total=50_000, workers=8, chunk_size=5000)
        assert sizes == [3]

    def test_auto_counts_usable_cpus(self, monkeypatch):
        sizes, _ = _spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        res = estimate("rebit", seed=1, n_total=20_000, workers=None, chunk_size=5000)
        assert sizes == []
        assert res.tally == estimate("rebit", seed=1, n_total=20_000, workers=1,
                                     chunk_size=5000).tally

    def test_window_bounds_chunks_in_flight(self, monkeypatch, tmp_path):
        # chunks are submitted a window at a time and merged in order, so no
        # more than WINDOW results are ever held, and every checkpoint is the
        # one a one-process run writes
        monkeypatch.setattr(engine, "WINDOW", 3)
        sizes, events = _spy_pools(monkeypatch)
        real_save = engine.checkpoint_save

        def run(workers):
            path = tmp_path / f"workers{workers}.ckpt"
            files = []

            def save(state, p):
                events.append("merge")
                real_save(state, p)
                files.append(path.read_bytes())

            monkeypatch.setattr(engine, "checkpoint_save", save)
            res = estimate("rebit", seed=9, n_total=50_000, workers=workers, chunk_size=5000,
                           checkpoint_path=path, checkpoint_every=1)
            return res.tally, files

        serial = run(1)
        events.clear()
        assert run(2) == serial
        assert sizes == [2]
        assert len(serial[1]) == 10
        assert events.count("submit") == events.count("merge") == 10
        in_flight = np.cumsum([1 if e == "submit" else -1 for e in events])
        assert in_flight.max() == 3

    def test_workers_leave_sigint_to_the_parent(self, monkeypatch):
        # A worker that took Ctrl-C as its own interrupt printed a traceback
        # whenever it came while the worker waited for its next chunk.
        serial = estimate("rebit", seed=5, n_total=30_000, workers=1, chunk_size=10_000)
        monkeypatch.setattr(engine, "run_chunk", _run_chunk_after_sigint)
        try:
            res = estimate("rebit", seed=5, n_total=30_000, workers=2, chunk_size=10_000)
        except KeyboardInterrupt:
            pytest.fail("a worker raised KeyboardInterrupt at SIGINT")
        assert res.tally == serial.tally

    def test_interrupt_leaves_no_thread_error(self, monkeypatch, tmp_path):
        # An interrupt after the first chunk's checkpoint ends the workers with
        # the rest of the window still queued; the pool's own thread then fails
        # those chunks, which raised InvalidStateError in that thread whenever
        # they had been cancelled as the interrupt unwound the loop.
        real_save = engine.checkpoint_save

        def save_then_interrupt(state, path):
            real_save(state, path)
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "checkpoint_save", save_then_interrupt)
        errors, hook = [], threading.excepthook
        threading.excepthook = errors.append
        try:
            for seed in range(10):
                path = tmp_path / f"seed{seed}.ckpt"
                # held, the exception keeps estimate's frame alive: the workers
                # must end when the fold fails, not when that frame is freed
                with pytest.raises(KeyboardInterrupt) as stopped:
                    estimate("rebit", seed=seed, n_total=2_000_000, workers=2,
                             chunk_size=100_000, checkpoint_path=path)
                assert multiprocessing.active_children() == [], stopped
                assert checkpoint_load(path).chunks_done == 1
        finally:
            threading.excepthook = hook
        assert [error.exc_type.__name__ for error in errors] == []


class TestChunkTallies:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_chunks_tally_in_chunk_order(self, workers):
        chunks = range(3, 9)
        assert list(chunk_tallies("rebit", 4, 2000, chunks, workers)) == [
            run_chunk("rebit", StreamSpec(4, 0, i), 2000) for i in chunks]

    def test_closing_ends_the_workers(self, monkeypatch):
        monkeypatch.setattr(engine, "WINDOW", 3)
        sizes, events = _spy_pools(monkeypatch)
        tallies = chunk_tallies("rebit", 4, 2000, range(3, 9), 2)
        assert next(tallies) == run_chunk("rebit", StreamSpec(4, 0, 3), 2000)
        workers = multiprocessing.active_children()
        tallies.close()
        # terminated, not left to finish their window and exit
        assert [worker.exitcode for worker in workers] == [-signal.SIGTERM] * 2
        assert multiprocessing.active_children() == []
        assert sizes == [2]
        assert events.count("submit") <= 3  # the second window was never submitted

    @pytest.mark.parametrize("workers", [1, 2])
    def test_more_chunks_than_a_c_index_holds(self, workers):
        # the pool is sized from the first window, never from len(chunks),
        # which raises OverflowError beyond 2**63 - 1 chunks
        tallies = chunk_tallies("rebit", 0, 1, range(2**64), workers)
        assert next(tallies) == run_chunk("rebit", StreamSpec(0, 0, 0), 1)
        tallies.close()
        assert multiprocessing.active_children() == []


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        ck = Checkpoint("qubit", 42, 1000, 7, TallyCounts(7000, 12, 3))
        checkpoint_save(ck, path)
        assert checkpoint_load(path) == ck
        # blank and whitespace-only lines between the fields are skipped
        path.write_text(path.read_text().replace("\n", "\n\n \t\n", 4))
        assert checkpoint_load(path) == ck

    @pytest.mark.parametrize("state, field", [
        (Checkpoint("rebit", 0, 0, 0, TallyCounts.zero()), "chunk_size"),
        (Checkpoint("rebit", 0, 10, 2, TallyCounts(7, 0, 0)), "n_total"),
        (Checkpoint("rebit", 0, 10, 2, TallyCounts(20.0, 0, 0)), "n_total"),
        (Checkpoint("qutrit", 0, 10, 2, TallyCounts(20, 0, 0)), "case"),
        (Checkpoint("rebit", True, 10, 2, TallyCounts(20, 0, 0)), "seed"),
    ], ids=["chunk_size-0", "n_total-inconsistent", "n_total-float", "case-unknown",
            "seed-bool"])
    def test_save_refuses_what_load_refuses(self, tmp_path, state, field):
        path = tmp_path / "run.ckpt"
        with pytest.raises(CheckpointError, match=f"field '{field}'"):
            checkpoint_save(state, path)
        assert not path.exists()
        assert not (tmp_path / "run.ckpt.tmp").exists()

    def test_record_fields_are_the_file_keys(self):
        # checkpoint_save writes the record's own values in field order
        run = [f.name for f in fields(Checkpoint) if f.name != "tally"]
        assert list(engine._CHECKPOINT_FIELDS) == [
            "version", *run, *(f.name for f in fields(TallyCounts))]

    def test_file_is_documented_key_value_text(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(Checkpoint("rebit", 1, 10, 2, TallyCounts(20, 5, 4)), path)
        text = path.read_text()
        for key in ("version", "case", "seed", "chunk_size", "chunks_done",
                    "n_total", "n_positive", "n_sep"):
            assert any(line.startswith(key + " ") for line in text.splitlines()), key

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(Checkpoint("qubit", 42, 1000, 7, TallyCounts(7000, 12, 3)), path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        with pytest.raises(CheckpointError, match="missing field"):
            checkpoint_load(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(Checkpoint("qubit", 42, 1000, 7, TallyCounts(7000, 12, 3)), path)
        path.write_text(path.read_text().replace("version 1", "version 99"))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    def test_garbage_value(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(Checkpoint("qubit", 42, 1000, 7, TallyCounts(7000, 12, 3)), path)
        path.write_text(path.read_text().replace("seed 42", "seed forty-two"))
        with pytest.raises(CheckpointError, match="seed"):
            checkpoint_load(path)

    def test_mismatched_run_parameters_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        estimate("rebit", seed=2, n_total=100_000, workers=1, chunk_size=50_000,
                 checkpoint_path=path, checkpoint_every=1)
        with pytest.raises(CheckpointError, match="seed"):
            estimate("rebit", seed=3, n_total=100_000, workers=1, chunk_size=50_000,
                     checkpoint_path=path, checkpoint_every=1)
        with pytest.raises(CheckpointError, match="case"):
            estimate("qubit", seed=2, n_total=100_000, workers=1, chunk_size=50_000,
                     checkpoint_path=path, checkpoint_every=1)

    def test_interrupt_resume_reproduces_uninterrupted_run(self, tmp_path):
        path = tmp_path / "run.ckpt"
        full = estimate("rebit", seed=13, n_total=500_000, workers=1, chunk_size=50_000)
        # first half only
        estimate("rebit", seed=13, n_total=250_000, workers=2, chunk_size=50_000,
                 checkpoint_path=path, checkpoint_every=1)
        ck = checkpoint_load(path)
        assert ck.chunks_done == 5
        # resume to the full budget
        resumed = estimate("rebit", seed=13, n_total=500_000, workers=2, chunk_size=50_000,
                           checkpoint_path=path, checkpoint_every=2)
        assert resumed.tally == full.tally
        assert checkpoint_load(path).chunks_done == 10

    @staticmethod
    def _write(path, **fields):
        text = {"version": 1, "case": "rebit", "seed": 5, "chunk_size": 1000,
                "chunks_done": 2, "n_total": 2000, "n_positive": 3, "n_sep": 2}
        text.update(fields)
        path.write_text("".join(f"{k} {v}\n" for k, v in text.items()))

    def test_inconsistent_draw_count_rejected(self, tmp_path):
        # chunks_done 50 for a 2-chunk run, and n_total 7 != 50 * 1000
        path = tmp_path / "run.ckpt"
        self._write(path, chunks_done=50, n_total=7)
        with pytest.raises(CheckpointError, match="n_total"):
            checkpoint_load(path)
        with pytest.raises(CheckpointError, match="n_total"):
            estimate("rebit", seed=5, n_total=2000, workers=1, chunk_size=1000,
                     checkpoint_path=path, checkpoint_every=1)

    @pytest.mark.parametrize("field, value", [
        ("chunk_size", 0), ("chunks_done", -1), ("seed", -1), ("seed", 2**64),
        ("case", "qutrit"),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "run.ckpt"
        self._write(path, **{field: value})
        with pytest.raises(CheckpointError, match=field):
            checkpoint_load(path)

    @pytest.mark.parametrize("extra_line", ["n_positive 9", "bogus 1"])
    def test_repeated_or_unknown_key_rejected(self, tmp_path, extra_line):
        path = tmp_path / "run.ckpt"
        self._write(path)
        with open(path, "a") as fh:
            fh.write(extra_line + "\n")
        with pytest.raises(CheckpointError, match=extra_line.split()[0]):
            checkpoint_load(path)

    def test_chunk_count_exact_beyond_float_precision(self, tmp_path):
        # 2**53 + 1 one-draw chunks: a float ceiling would count 2**53
        path = tmp_path / "run.ckpt"
        n = 2**53 + 1
        ck = Checkpoint("rebit", 0, 1, n, TallyCounts(n, 10, 5))
        checkpoint_save(ck, path)
        res = estimate("rebit", seed=0, n_total=n, workers=1, chunk_size=1,
                       checkpoint_path=path, checkpoint_every=1)
        assert res.tally == ck.tally
        assert checkpoint_load(path) == ck

    def test_descriptor_number_refused_and_left_open(self, tmp_path):
        # open() would read an int as a descriptor, and close it after
        path = tmp_path / "run.ckpt"
        self._write(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            for path_like in (fd, os.fsencode(path)):
                with pytest.raises(ValueError, match="checkpoint_path must name a file"):
                    checkpoint_load(path_like)
                with pytest.raises(ValueError, match="checkpoint_path must name a file"):
                    checkpoint_save(Checkpoint("rebit", 0, 10, 0, TallyCounts.zero()), path_like)
            os.fstat(fd)  # still open
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        finally:
            os.close(fd)
        assert sorted(os.listdir(tmp_path)) == ["run.ckpt"]

    def test_not_a_regular_file_rejected(self):
        with pytest.raises(CheckpointError, match="not a regular file"):
            checkpoint_load(os.devnull)

    def test_oversized_file_rejected(self, tmp_path):
        # a valid checkpoint, then 1 MiB of blank lines
        path = tmp_path / "run.ckpt"
        self._write(path)
        checkpoint_load(path)
        with open(path, "a") as fh:
            fh.write("\n" * 2**20)
        with pytest.raises(CheckpointError, match=f"larger than {CHECKPOINT_MAX_BYTES} bytes"):
            checkpoint_load(path)

    def test_path_alone_writes_the_checkpoint(self, tmp_path):
        path = tmp_path / "run.ckpt"
        res = estimate("rebit", seed=2, n_total=200_000, workers=1, chunk_size=50_000,
                       checkpoint_path=path)
        assert checkpoint_load(path) == Checkpoint("rebit", 2, 50_000, 4, res.tally)

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"\xff\xfe\x00version 1\n")
        with pytest.raises(CheckpointError, match="text"):
            checkpoint_load(path)

    def test_more_chunks_done_than_the_run_has_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._write(path, chunks_done=50, n_total=50_000)
        assert checkpoint_load(path).chunks_done == 50
        with pytest.raises(CheckpointError, match="chunks_done"):
            estimate("rebit", seed=5, n_total=2000, workers=1, chunk_size=1000,
                     checkpoint_path=path, checkpoint_every=1)

    @pytest.mark.parametrize("name", ["file/run.ckpt", "missing/run.ckpt", "x" * 300, "loop"],
                             ids=["parent-is-a-file", "parent-missing", "name-too-long",
                                  "symlink-loop"])
    def test_unusable_path_refused_before_the_first_chunk(self, tmp_path, monkeypatch, name):
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before the checkpoint path was checked")

        monkeypatch.setattr(engine, "run_chunk", no_chunk)
        (tmp_path / "file").write_text("")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        path = str(tmp_path / name)
        with pytest.raises(OSError) as info:
            estimate("rebit", seed=5, n_total=2000, workers=1, chunk_size=1000,
                     checkpoint_path=path)
        assert info.value.filename == path

    def test_check_path_opens_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # opening a FIFO that has no reader for writing would block
        checked = threading.Thread(target=check_path, args=(fifo,), daemon=True)
        checked.start()
        checked.join(5)
        try:
            assert not checked.is_alive(), "check_path blocked on a FIFO with no reader"
        finally:
            if checked.is_alive():  # let the blocked open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        for path in (fifo, os.devnull, tmp_path / "new.json", "new.json"):
            check_path(path)  # passes, as does a missing file in an existing directory
        assert sorted(os.listdir(tmp_path)) == ["fifo"]

    def test_unknown_family_has_one_message(self, tmp_path):
        message = "^unknown state family 'qutrit'$"
        for lookup in (pt_sign_vector, get_case, kernels.case_tables):
            with pytest.raises(ValueError, match=message):
                lookup("qutrit")
        path = tmp_path / "run.ckpt"
        self._write(path, case="qutrit")
        with pytest.raises(CheckpointError, match="^field 'case': unknown state family 'qutrit'$"):
            checkpoint_load(path)


_FUZZ_CHUNK = 500
_FUZZ_CHUNKS = 6


@lru_cache(maxsize=None)
def _fuzz_chunk_tally(chunk_idx):
    return run_chunk("rebit", StreamSpec(5, 0, chunk_idx), _FUZZ_CHUNK)


_INT_FIELDS = ("version", "seed", "chunk_size", "chunks_done", "n_total", "n_positive", "n_sep")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    chunks_done=st.integers(0, _FUZZ_CHUNKS),
    n_sep=st.integers(0, 4),
    extra_positive=st.integers(0, 4),
    corrupt=st.dictionaries(st.sampled_from(_INT_FIELDS), st.integers(), max_size=3),
)
def test_fuzzed_checkpoint_resumes_consistently_or_is_rejected(
    tmp_path, chunks_done, n_sep, extra_positive, corrupt
):
    # a genuine prefix of the run below, with up to three integer fields overwritten
    fields = {"version": 1, "seed": 5, "chunk_size": _FUZZ_CHUNK, "chunks_done": chunks_done,
              "n_total": chunks_done * _FUZZ_CHUNK, "n_positive": n_sep + extra_positive,
              "n_sep": n_sep}
    fields.update(corrupt)
    path = tmp_path / "fuzz.ckpt"
    path.write_text("case rebit\n" + "".join(f"{k} {v}\n" for k, v in fields.items()))
    try:
        res = estimate("rebit", seed=5, n_total=_FUZZ_CHUNKS * _FUZZ_CHUNK, workers=1,
                       chunk_size=_FUZZ_CHUNK, checkpoint_path=path, checkpoint_every=0)
        tally = res.tally
    except CheckpointError:
        return
    except NoPositiveSamplesError:
        tally = None
    # accepted: the checkpoint is a prefix of this very run
    assert (fields["version"], fields["seed"], fields["chunk_size"]) == (1, 5, _FUZZ_CHUNK)
    done = fields["chunks_done"]
    assert 0 <= done <= _FUZZ_CHUNKS
    assert fields["n_total"] == done * _FUZZ_CHUNK
    expected = TallyCounts(fields["n_total"], fields["n_positive"], fields["n_sep"])
    for i in range(done, _FUZZ_CHUNKS):
        expected = expected.merge(_fuzz_chunk_tally(i))
    if tally is None:
        assert expected.n_positive == 0
    else:
        assert tally == expected
