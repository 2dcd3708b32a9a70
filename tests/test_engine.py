from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepmc import kernels
from sepmc.engine import (
    KERNEL_BATCH,
    Checkpoint,
    CheckpointError,
    NoPositiveSamplesError,
    TallyCounts,
    checkpoint_load,
    checkpoint_save,
    estimate,
    run_chunk,
)
from sepmc.sampler import derive_stream, sample_ball
from sepmc.states import (
    CASES,
    CoeffVector,
    coeffs_to_density,
    density_to_coeffs,
    is_positive,
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
        t = run_chunk("qubit", derive_stream(0, 0, 0), 1)
        assert t.n_total == 1
        assert 0 <= t.n_sep <= t.n_positive <= 1

    def test_deterministic_replay(self):
        s = derive_stream(42, 0, 3)
        assert run_chunk("rebit", s, 50_000) == run_chunk("rebit", s, 50_000)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_chunk("qubit", derive_stream(0, 0, 0), 0)

    def test_tally_ordering_holds(self):
        for tag in CASES:
            t = run_chunk(tag, derive_stream(9, 0, 0), 30_000)
            assert 0 <= t.n_sep <= t.n_positive <= t.n_total == 30_000

    def test_matches_per_sample_api(self):
        # same stream, same draw protocol, scored by the eigenvalue route
        for tag in ("rebit", "qubit"):
            case = CASES[tag]
            n = 20_000
            t = run_chunk(tag, derive_stream(77, 0, 0), n)
            pts = sample_ball(case.num_coeffs, case.radius, derive_stream(77, 0, 0), n)
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
            for n in (KERNEL_BATCH - 1, KERNEL_BATCH, KERNEL_BATCH + 1, 2 * KERNEL_BATCH + 1):
                t = run_chunk(tag, derive_stream(77, 0, 0), n)
                pts = sample_ball(case.num_coeffs, case.radius, derive_stream(77, 0, 0), n)
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


@lru_cache(maxsize=None)
def _scored_points(tag):
    """Ball points shrunk by factors spread over [0.05, 1], with per-row verdicts.

    Returns (pts, kernel, eig): kernel[r] is count_tallies(pts[r:r+1]) and
    eig[r] the (positive, positive-and-PPT) verdict of the eigenvalue route.
    The factors are shuffled so neighbouring lanes of a tile disagree.
    """
    case = CASES[tag]
    n = 1500
    pts = sample_ball(case.num_coeffs, case.radius, derive_stream(31, 0, 0), n)
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
        noise = sample_ball(case.num_coeffs, 0.05, derive_stream(8, 0, 0), 4096)
        dead = noise - 0.6 * g / np.linalg.norm(g)
        assert np.all(1 / case.dim + dead @ g < -0.1)
        assert kernels.count_tallies(dead, tag) == (0, 0)
        # a dead tile in front of live ones leaves their tally unchanged
        pts, kernel, _ = _scored_points(tag)
        expected = tuple(int(x) for x in kernel.sum(axis=0))
        assert kernels.count_tallies(np.concatenate([dead, pts]), tag) == expected


def _assemble(tables, Y):
    """Real and imaginary lower triangle of rho, shape (2, d, d, lanes), run from the tables."""
    d = len(tables)
    rho = np.zeros((2, d, d, Y.shape[1]))
    for j, (diag, lower) in enumerate(tables):
        (op, a), *rest = diag
        rho[0, j, j] = op(1.0 / d, Y[a])
        for op, a in rest:
            op(rho[0, j, j], Y[a], out=rho[0, j, j])
        for p, i, op, a, b in lower:
            op(Y[a], Y[b], out=rho[p, i, j])
    return rho


class TestCaseTables:
    """The invariant the kernel's exactness rests on: one magnitude, signed row sums."""

    @pytest.mark.parametrize("tag, kappa", [
        ("rebit", 0.5), ("qubit", 0.5), ("quaterbit", 1 / (2 * np.sqrt(2))),
    ])
    def test_one_coefficient_magnitude(self, tag, kappa):
        assert kernels.case_tables(tag)[0] == pytest.approx(kappa, rel=1e-15)

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
        np.testing.assert_array_equal(_assemble(tables, np.eye(m)), signs + eye)
        np.testing.assert_array_equal(_assemble(pt_tables, np.eye(m)), signs * pt + eye)

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_kappa_scaled_rows_assemble_rho(self, tag):
        case = CASES[tag]
        kappa, tables, pt_tables = kernels.case_tables(tag)
        c = sample_ball(case.num_coeffs, case.radius, derive_stream(4, 0, 0), 5)
        for tab, pts in ((tables, c), (pt_tables, c * pt_sign_vector(tag))):
            rho = _assemble(tab, kappa * c.T)
            for r, row in enumerate(pts):
                want = np.tril(coeffs_to_density(CoeffVector(case, row)))
                np.testing.assert_allclose(rho[0, ..., r] + 1j * rho[1, ..., r], want, atol=1e-15)

    @pytest.mark.parametrize("doctor, needle", [
        (lambda b: b.__setitem__(0, 2 * b[0]), "magnitudes"),
        # generator 0 also enters rho[3, 0] (and rho[0, 3]), which has two already
        (lambda b: (b[0].__setitem__((3, 0), 0.5), b[0].__setitem__((0, 3), 0.5)), "generators"),
        (lambda b: b[:, 0, 0].fill(0), "diagonal"),
    ], ids=["two-magnitudes", "three-generators-below-diagonal", "empty-diagonal"])
    def test_unassemblable_basis_rejected(self, monkeypatch, doctor, needle):
        basis = CASES["qubit"].basis.copy()
        doctor(basis)
        monkeypatch.setattr(kernels, "get_case", lambda tag: SimpleNamespace(basis=basis))
        with pytest.raises(ValueError, match=f"qubit: .*{needle}"):
            kernels.case_tables.__wrapped__("qubit")


class TestSeededTallies:
    """Seeded tallies recorded from the kernel; any change to a verdict moves them."""

    @pytest.mark.parametrize("tag, expected", [
        ("rebit", (200_000, 369, 156)),
        ("qubit", (200_000, 7, 1)),
        ("quaterbit", (200_000, 0, 0)),
    ])
    def test_ball_chunk(self, tag, expected):
        assert run_chunk(tag, derive_stream(2024, 0, 0), 200_000) == TallyCounts(*expected)

    @pytest.mark.parametrize("tag, factor, expected", [
        ("rebit", 0.6, (2864, 1513)),
        ("qubit", 0.5, (5781, 2848)),
        ("quaterbit", 0.3, (8081, 4059)),
    ])
    def test_shrunk_ball(self, tag, factor, expected):
        # shrinking the ball makes most points states, so both passes run deep
        case = CASES[tag]
        pts = sample_ball(case.num_coeffs, case.radius, derive_stream(2024, 0, 1), 20_000)
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
        # a float seed must neither run seed 1's streams nor reach a checkpoint file
        path = tmp_path / "run.ckpt"
        with pytest.raises(ValueError, match="seed"):
            estimate("rebit", seed=1.5, n_total=10, workers=1, chunk_size=10,
                     checkpoint_path=path, checkpoint_every=1)
        assert not path.exists()

    def test_std_err_scaling(self):
        small = estimate("rebit", seed=11, n_total=100_000, workers=1, chunk_size=100_000)
        big = estimate("rebit", seed=11, n_total=1_600_000, workers=2, chunk_size=100_000)
        ratio = small.std_err / big.std_err
        assert ratio == pytest.approx(4.0, rel=0.2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        ck = Checkpoint("qubit", 42, 1000, 7, TallyCounts(7000, 12, 3))
        checkpoint_save(ck, path)
        assert checkpoint_load(path) == ck

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


_FUZZ_CHUNK = 500
_FUZZ_CHUNKS = 6


@lru_cache(maxsize=None)
def _fuzz_chunk_tally(chunk_idx):
    return run_chunk("rebit", derive_stream(5, 0, chunk_idx), _FUZZ_CHUNK)


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
