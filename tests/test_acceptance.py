"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  The three desk-scale Monte Carlo runs draw 1e8 ball
samples each, so the whole module takes a few minutes on a small machine.
"""

import time

import numpy as np

from sepmc.algebra import Quaternion, generator_basis
from sepmc.conjecture import p_of_alpha
from sepmc.engine import estimate, checkpoint_load, NoPositiveSamplesError
from sepmc.sampler import StreamSpec, sample_ball
from sepmc.selftest import matrix_partial_transpose, pt_dims
from sepmc.states import (
    CASES,
    QUATERBIT,
    QUBIT,
    CoeffVector,
    QuaterbitBlocks,
    blocks_to_matrix,
    coeffs_to_density,
    density_to_coeffs,
    partial_transpose,
    ppt_test,
    quaterbit_from_blocks,
)

MC_SAMPLES = 100_000_000


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_state_vector(case, rng):
    c = rng.standard_normal(case.num_coeffs)
    c *= case.radius * rng.random() ** (1 / case.num_coeffs) / np.linalg.norm(c)
    return CoeffVector(case, c)


def test_criterion_1_conjecture_exact_targets():
    targets = ((1.0, 8 / 33), (0.5, 29 / 64), (2.0, 26 / 323))
    worst_err = 0.0
    worst_time = 0.0
    for alpha, target in targets:
        res = p_of_alpha(alpha, 1e-12)  # warm-up, also the value under test
        worst_err = max(worst_err, abs(res.value - target))
        assert res.tail_bound <= 1e-12 * res.value
        best = float("inf")
        for _ in range(50):
            t0 = time.perf_counter()
            p_of_alpha(alpha, 1e-12)
            best = min(best, time.perf_counter() - t0)
        worst_time = max(worst_time, best)
    report(
        1, "conjecture exact targets",
        worst_err < 1e-10 and worst_time < 1e-3,
        f"max |err| {worst_err:.2e} (tol 1e-10), max eval time {worst_time*1e3:.3f} ms",
    )


def test_criterion_2_desk_scale_qubit():
    res = estimate("qubit", seed=20240817, n_total=MC_SAMPLES, chunk_size=1_000_000)
    dev = abs(res.p_hat - 0.242424)
    ok = dev <= 4 * res.std_err and res.std_err <= 0.01
    report(
        2, "desk-scale Monte Carlo qubit", ok,
        f"p_hat {res.p_hat:.5f} vs 0.242424, dev {dev:.5f} <= 4*se "
        f"{4 * res.std_err:.5f}, se {res.std_err:.5f} <= 0.01, "
        f"n_positive {res.tally.n_positive}, {res.elapsed_s:.0f}s",
    )


def test_criterion_3_desk_scale_rebit():
    res = estimate("rebit", seed=20240818, n_total=MC_SAMPLES, chunk_size=1_000_000)
    dev = abs(res.p_hat - 0.453125)
    ok = dev <= 4 * res.std_err and res.std_err < 0.01
    report(
        3, "desk-scale Monte Carlo rebit", ok,
        f"p_hat {res.p_hat:.6f} vs 0.453125, dev {dev:.6f} <= 4*se "
        f"{4 * res.std_err:.6f}, n_positive {res.tally.n_positive}, "
        f"{res.elapsed_s:.0f}s",
    )


def test_criterion_4_desk_scale_quaterbit():
    # The quaterbit sampling ball radius sqrt(7/8) comes from the purity
    # bound alone; the actual state body (whose pure states have doubly
    # degenerate spectra, capping the coefficient norm at sqrt(3/8)) fills
    # only ~5.5e-14 of that ball, so 1e8 draws are expected to contain zero
    # positive points.  No ball-rejection sampler can meet the criterion at
    # this budget: even the tightest enclosing ball, radius sqrt(3/8), is
    # only (7/3)^13.5 ~ 9.3e4 times smaller in 27 dimensions, so it would
    # accept ~5e-9 of draws, ~0.5 expected positives in 1e8 against the
    # 1000 required (1e-5 acceptance).  PAPER.md (abstract only) does not
    # say from which region the paper drew its quaterbit points.  The
    # criterion is exercised exactly as stated and is expected to fail; see
    # the flat-body-measure test in test_states.py for the statistical
    # validation of the quaterbit PPT machinery against 26/323.
    try:
        res = estimate("quaterbit", seed=20240819, n_total=MC_SAMPLES,
                       chunk_size=1_000_000)
    except NoPositiveSamplesError as exc:
        report(4, "desk-scale Monte Carlo quaterbit", False,
               f"(n_positive = 0) < 1000 required; {exc}")
        return
    dev = abs(res.p_hat - 0.080495)
    ok = res.tally.n_positive >= 1000 and dev <= 4 * res.std_err
    report(
        4, "desk-scale Monte Carlo quaterbit", ok,
        f"n_positive {res.tally.n_positive} (>= 1000 required), p_hat "
        f"{res.p_hat:.5f} vs 0.080495, dev {dev:.5f} vs 4*se {4 * res.std_err:.5f}",
    )


def test_criterion_5_partial_transpose_oracle_equivalence():
    rng = np.random.default_rng(50505)
    worst = 0.0
    for case in CASES.values():
        dims = pt_dims(case)
        for _ in range(1000):
            v = _random_state_vector(case, rng)
            w1 = np.linalg.eigvalsh(coeffs_to_density(partial_transpose(v)))
            w2 = np.linalg.eigvalsh(
                matrix_partial_transpose(coeffs_to_density(v), dims, 1)
            )
            worst = max(worst, float(np.max(np.abs(w1 - w2))))
    report(
        5, "coefficient vs matrix partial transpose", worst <= 1e-10,
        f"max spectrum deviation {worst:.2e} over 1000 vectors/case (tol 1e-10)",
    )


def test_criterion_6_quaternionic_structure():
    rng = np.random.default_rng(60606)
    worst_gap = 0.0
    for _ in range(1000):
        v = _random_state_vector(QUATERBIT, rng)
        for state in (v, partial_transpose(v)):
            w = np.linalg.eigvalsh(coeffs_to_density(state))
            worst_gap = max(worst_gap, float(np.max(np.abs(w[::2] - w[1::2]))))
    worst_block = 0.0
    zero = Quaternion(0, 0, 0, 0)
    for _ in range(200):
        x = rng.standard_normal(4)
        x -= x.mean()
        q = tuple(Quaternion(*rng.standard_normal(4)) for _ in range(6))
        blocks = QuaterbitBlocks(*x, q)
        direct = np.eye(8) / 8 + blocks_to_matrix(blocks)
        rebuilt = coeffs_to_density(quaterbit_from_blocks(blocks))
        worst_block = max(worst_block, float(np.max(np.abs(direct - rebuilt))))
    ok = worst_gap <= 1e-9 and worst_block < 1e-12
    report(
        6, "Kramers pairing and block round-trip", ok,
        f"max pair gap {worst_gap:.2e} (tol 1e-9), max block round-trip "
        f"error {worst_block:.2e} (tol 1e-12)",
    )


def test_criterion_7_homomorphism_and_gram():
    rng = np.random.default_rng(70707)
    worst_hom = 0.0
    for _ in range(1000):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        dev = np.max(np.abs((p * q).to_block() - p.to_block() @ q.to_block()))
        worst_hom = max(worst_hom, float(dev))
    worst_gram = 0.0
    for case in CASES.values():
        basis = generator_basis(case.labels)
        gram = np.einsum("aij,bji->ab", basis, basis)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(case.num_coeffs)))))
    ok = worst_hom <= 1e-12 and worst_gram <= 1e-14
    report(
        7, "representation homomorphism and generator Gram", ok,
        f"homomorphism {worst_hom:.2e} (tol 1e-12), Gram {worst_gram:.2e} (tol 1e-14)",
    )


def test_criterion_8_determinism_and_checkpoint(tmp_path):
    a = estimate("rebit", seed=88, n_total=2_000_000, workers=2, chunk_size=200_000)
    b = estimate("rebit", seed=88, n_total=2_000_000, workers=2, chunk_size=200_000)
    path = tmp_path / "resume.ckpt"
    estimate("rebit", seed=88, n_total=1_000_000, workers=2, chunk_size=200_000,
             checkpoint_path=path, checkpoint_every=1)
    interrupted = checkpoint_load(path)
    resumed = estimate("rebit", seed=88, n_total=2_000_000, workers=1,
                       chunk_size=200_000, checkpoint_path=path, checkpoint_every=1)
    ok = a.tally == b.tally and interrupted.chunks_done == 5 and resumed.tally == a.tally
    report(
        8, "determinism and checkpoint resume", ok,
        f"replay tallies equal: {a.tally == b.tally}, resume after 5/10 "
        f"chunks reproduces uninterrupted tally: {resumed.tally == a.tally}",
    )


def test_criterion_9_ball_moment_check():
    n = 10_000_000
    details = []
    ok = True
    for k, case in enumerate(CASES.values()):
        m = case.num_coeffs
        acc = 0.0
        acc_sq = 0.0
        rng = StreamSpec(90909 + k, 0, 0).generator()
        done = 0
        while done < n:
            batch = min(1_000_000, n - done)
            pts = sample_ball(m, case.radius, rng, batch)
            t = np.einsum("ij,ij->i", pts, pts) / case.radius**2
            acc += float(t.sum())
            acc_sq += float(t @ t)
            done += batch
        mean = acc / n
        var = acc_sq / n - mean**2
        se = np.sqrt(var / n)
        z = (mean - m / (m + 2)) / se
        details.append(f"m={m}: z={z:+.2f}")
        ok = ok and abs(z) <= 5.0
    report(9, "ball radial moment m/(m+2)", ok, "; ".join(details) + " (5 se window)")


def test_criterion_10_werner_threshold():
    def werner_vector(p):
        singlet = np.zeros((4, 4), dtype=complex)
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        return density_to_coeffs(p * singlet + (1 - p) * np.eye(4) / 4, QUBIT)

    from sepmc.algebra import min_eigenvalue

    ok = ppt_test(werner_vector(0.33)) and not ppt_test(werner_vector(0.34))
    closed_form_dev = 0.0
    for p in (0.33, 0.34, 0.2, 0.5):
        got = min_eigenvalue(coeffs_to_density(partial_transpose(werner_vector(p))))
        closed_form_dev = max(closed_form_dev, abs(got - (1 - 3 * p) / 4))
    ok = ok and closed_form_dev < 1e-12
    report(
        10, "Werner PPT threshold at p=1/3", ok,
        f"ppt(0.33)=True, ppt(0.34)=False, closed-form (1-3p)/4 deviation "
        f"{closed_form_dev:.2e}",
    )
