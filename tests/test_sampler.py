import numpy as np
import pytest
from scipy import stats

from sepmc.sampler import StreamSpec, ball_from_draws, integer_in, sample_ball


class TestStreamSpec:
    def test_derive_is_injective_smoke(self):
        a = StreamSpec(42, 0, 0)
        b = StreamSpec(42, 0, 1)
        assert a != b
        xa = sample_ball(5, 1.0, a, 4)
        xb = sample_ball(5, 1.0, b, 4)
        assert not np.array_equal(xa, xb)

    def test_same_triple_reproduces_bit_for_bit(self):
        a = sample_ball(9, 0.5, StreamSpec(7, 3, 11), 10_000)
        b = sample_ball(9, 0.5, StreamSpec(7, 3, 11), 10_000)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            StreamSpec(-1, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            StreamSpec(1 << 64, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            StreamSpec(1.5, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            StreamSpec(1.5, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            StreamSpec(0, -1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            StreamSpec(0, 0, -2)

    def test_indices_and_seed_must_be_integers(self):
        # a bool is not a seed, and a float index is refused here, not later inside numpy
        with pytest.raises(ValueError, match="seed"):
            StreamSpec(True, 0, 0)
        with pytest.raises(ValueError, match="worker"):
            StreamSpec(1, 0.5, 0)
        with pytest.raises(ValueError, match="chunk"):
            StreamSpec(1, 0, 0.5)
        assert StreamSpec(np.uint64(2**64 - 1), np.int64(3), 0).seed == 2**64 - 1

    def test_accepted_integers_come_back_as_python_ints(self):
        for value in (np.uint64(2**64 - 1), np.int64(3), np.int8(0), 7):
            got = integer_in(value, "x", 0, 2**64)
            assert type(got) is int and got == value

    def test_worker_streams_uncorrelated(self):
        n = 1_000_000

        def norm_sq_sequence(worker):
            pts = sample_ball(5, 1.0, StreamSpec(42, worker, 0), n)
            return np.einsum("ij,ij->i", pts, pts)

        c1 = norm_sq_sequence(0)
        c2 = norm_sq_sequence(1)
        c1 -= c1.mean()
        c2 -= c2.mean()
        cov = float(c1 @ c2) / n
        # cov is a mean of n products with std sigma1*sigma2
        se = float(c1.std() * c2.std()) / np.sqrt(n)
        assert abs(cov) <= 5 * se


class TestSampleBall:
    def test_empty(self):
        out = sample_ball(15, 1.0, StreamSpec(0, 0, 0), 0)
        assert out.shape == (0, 15)

    def test_argument_validation(self):
        s = StreamSpec(0, 0, 0)
        with pytest.raises(ValueError, match="dim"):
            sample_ball(0, 1.0, s, 10)
        with pytest.raises(ValueError, match="radius"):
            sample_ball(3, 0.0, s, 10)
        with pytest.raises(ValueError, match="radius"):
            sample_ball(3, -2.0, s, 10)
        # not finite, not real, or not one number: each refused by name, never
        # read as 1 or as its one element
        for radius in (np.nan, np.inf, -np.inf, 10**400, True, np.array([1.0]),
                       np.array([1.0, 2.0]), np.array(1.0), "1.0", None, 1 + 0j):
            with pytest.raises(ValueError, match="radius"):
                sample_ball(3, radius, s, 10)
        with pytest.raises(ValueError, match="count"):
            sample_ball(3, 1.0, s, -1)
        # a stream is a StreamSpec or a Generator, checked even when nothing is drawn
        for stream in (5, None, "seed"):
            for count in (10, 0):
                with pytest.raises(ValueError, match="stream"):
                    sample_ball(3, 1.0, stream, count)

    def test_dim_and_count_must_be_integers(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="count"):
            sample_ball(3, 1.0, rng, 2.5)
        with pytest.raises(ValueError, match="dim"):
            sample_ball(3.0, 1.0, rng, 2)

    @pytest.mark.parametrize("dim,radius", [(9, np.sqrt(3 / 4)), (27, np.sqrt(7 / 8))])
    def test_inside_ball(self, dim, radius):
        pts = sample_ball(dim, radius, StreamSpec(5, 0, 0), 200_000)
        norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        assert norms.max() <= radius
        assert norms.min() > 0

    def test_generator_continuation(self):
        # one big call == two chained calls on the same generator
        whole = sample_ball(7, 2.0, StreamSpec(3, 0, 0), 1 << 17)
        rng = StreamSpec(3, 0, 0).generator()
        first = sample_ball(7, 2.0, rng, 1 << 16)
        second = sample_ball(7, 2.0, rng, 1 << 16)
        assert np.array_equal(np.vstack([first, second]), whole)

    @pytest.mark.parametrize("dim", [9, 15, 27])
    def test_radial_moment(self, dim):
        n = 1_000_000
        radius = 1.7
        pts = sample_ball(dim, radius, StreamSpec(100 + dim, 0, 0), n)
        t = np.einsum("ij,ij->i", pts, pts) / radius**2
        se = t.std(ddof=1) / np.sqrt(n)
        assert abs(t.mean() - dim / (dim + 2)) <= 5 * se

    def test_marginal_moments(self):
        dim, n = 9, 1_000_000
        pts = sample_ball(dim, 1.0, StreamSpec(321, 0, 0), n)
        # E[x_i] = 0 and E[x_i x_j] = delta_ij / (dim + 2)
        mean_se = pts.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) <= 5 * mean_se)
        cov = pts.T @ pts / n
        want = np.eye(dim) / (dim + 2)
        # std of the products x_i x_j from their first two moments
        sq = pts**2
        second = sq.T @ sq / n
        se = np.sqrt(np.maximum(second - cov**2, 0.0) / n)
        assert np.all(np.abs(cov - want) <= 5 * se)

    def test_rotation_invariance_proxy(self):
        dim, n = 15, 1_000_000
        pts = sample_ball(dim, 1.0, StreamSpec(77, 0, 0), n)
        u1 = np.zeros(dim)
        u1[0] = 1.0
        u2 = np.zeros(dim)
        u2[1] = 1.0
        res = stats.ks_2samp(pts @ u1, pts @ u2)
        assert res.pvalue >= 1e-3


class TestBallFromDraws:
    def test_zero_uniform_remapped(self):
        z = np.ones((3, 9))
        out = ball_from_draws(z, np.zeros(3), 1.0)
        norms = np.linalg.norm(out, axis=1)
        assert np.all(norms > 0)
        assert np.all(np.isfinite(out))

    def test_uniform_one_boundary_stays_inside(self):
        z = np.ones((2, 27))
        u = np.array([np.nextafter(1.0, 0.0), 0.5])
        out = ball_from_draws(z, u, 1.0)
        norms = np.linalg.norm(out, axis=1)
        assert np.all(norms <= 1.0)

    def test_radius_scaling(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((100, 5))
        u = rng.random(100)
        a = ball_from_draws(z, u, 1.0)
        b = ball_from_draws(z, u, 2.5)
        assert np.allclose(b, 2.5 * a, rtol=1e-15, atol=0)
