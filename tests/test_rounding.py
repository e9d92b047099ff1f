"""Unit tests for lattice rounding and the joint tuple approximation search."""

import math

import numpy as np
import pytest

from ranklab import rounding as rnd
from ranklab.matrix_core import RngStream


# --- random_round ------------------------------------------------------------


def test_random_round_fixed_points():
    x = np.array([0.0, 0.3, -1.2, 7.0])
    v = rnd.random_round(np.array([0.0, 0.5, -1.0, 7.0]), 0.5, RngStream(1))
    assert np.array_equal(v, [0.0, 0.5, -1.0, 7.0])  # grid points never move
    v2 = rnd.random_round(x, 0.1, RngStream(2))
    assert np.all(np.abs(v2 - x) <= 0.1 + 1e-12)


def test_random_round_bernoulli_law():
    draws = rnd.random_round(np.full(100_000, 0.3), 1.0, RngStream(3))
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.3) < 0.005


def test_random_round_unbiased_and_on_grid():
    rng = np.random.default_rng(11)
    x = rng.normal(size=12)
    delta = 0.1
    total = np.zeros_like(x)
    n_draws = 20_000
    gen = RngStream(77).generator()
    for _ in range(n_draws):
        v = rnd.random_round(x, delta, gen)
        q = v / delta
        assert np.all(np.abs(q - np.rint(q)) < 1e-12)  # exactly on the grid
        assert np.abs(v - x).max() <= delta + 1e-12
        total += v
    mean = total / n_draws
    # 4 sigma of the Bernoulli bound delta/2 per coordinate
    assert np.abs(mean - x).max() <= 4 * (delta / 2) / math.sqrt(n_draws)


def test_random_round_negative_values():
    x = np.array([-0.05, -0.95])
    for seed in range(20):
        v = rnd.random_round(x, 0.1, RngStream(seed))
        assert set(np.round(v[0] / 0.1, 6) for _ in [0]) <= {-0.0, -1.0, 0.0}
        assert np.abs(v - x).max() <= 0.1 + 1e-12


# --- sparse_round ------------------------------------------------------------


def test_sparse_round_zero_and_signs():
    x = np.zeros(16)
    assert np.array_equal(rnd.sparse_round(x, 0.2, RngStream(4)), x)
    y = np.array([0.5, -0.5, 0.0, 0.25])
    v = rnd.sparse_round(y, 0.3, RngStream(5))
    assert np.all(np.sign(v) * np.sign(y) >= 0)  # never flips sign
    assert v[2] == 0.0


def test_sparse_round_big_coordinates_stay_nonzero():
    n = 25
    tau = 0.2
    pitch = tau / math.sqrt(n)
    x = np.full(n, pitch * 1.5)
    for seed in range(30):
        v = rnd.sparse_round(x, tau, RngStream(seed))
        assert np.all(v != 0.0)


def test_sparse_round_l2_bound_and_mean():
    rng = np.random.default_rng(6)
    x = rng.normal(size=30)
    x /= np.linalg.norm(x)
    tau = 0.25
    total = np.zeros_like(x)
    gen = RngStream(8).generator()
    n_draws = 20_000
    for _ in range(n_draws):
        v = rnd.sparse_round(x, tau, gen)
        assert np.linalg.norm(v - x) <= tau + 1e-12
        total += v
    pitch = tau / math.sqrt(x.size)
    assert np.abs(total / n_draws - x).max() <= 4 * pitch / math.sqrt(n_draws) + 1e-9


def test_sparse_round_support_collapse():
    # a compressible unit vector keeps a small support most of the time
    n, tau = 400, 0.2
    s = int(tau * tau * n)  # 16 big coordinates
    x = np.zeros(n)
    x[:s] = 1.0 / math.sqrt(s)
    hits = 0
    trials = 1000
    gen = RngStream(123).generator()
    for _ in range(trials):
        v = rnd.sparse_round(x, tau, gen)
        if np.count_nonzero(v) <= 4 * tau * tau * n:
            hits += 1
    assert hits / trials >= 0.99


# --- approx_tuple ------------------------------------------------------------


def _ortho_tuple(rng, l, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, l)))
    return [q[:, j] for j in range(l)]


def test_approx_tuple_zero_matrix_accepts_fast():
    rng = np.random.default_rng(9)
    vecs = _ortho_tuple(rng, 3, 60)
    res = rnd.approx_tuple(np.zeros((10, 60)), vecs, 0.02, 50, RngStream(10), K=1.2)
    assert res.accepted
    assert res.image_margin >= 0.0
    assert res.linf_margin >= 0.0


def test_approx_tuple_grid_vectors_accept_on_try_one():
    delta = 0.25
    vecs = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, -0.75, 0.0, 0.0])]
    res = rnd.approx_tuple(np.zeros((2, 4)), vecs, delta, 10, RngStream(11), K=1.0)
    assert res.accepted and res.tries == 1
    assert all(np.array_equal(u, v) for u, v in zip(res.rounded, vecs))


def test_approx_tuple_rejects_bad_input_tuple():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / math.sqrt(2)
    with pytest.raises(ValueError, match="almost-orthogonal"):
        rnd.approx_tuple(np.zeros((2, 2)), [v, w], 0.1, 5, RngStream(1), K=1.0)


def test_approx_tuple_exhaustion_is_a_value():
    # delta of 1.0 destroys the geometry of unit vectors almost surely
    rng = np.random.default_rng(13)
    vecs = _ortho_tuple(rng, 4, 8)
    res = rnd.approx_tuple(np.zeros((2, 8)), vecs, 1.0, 5, RngStream(14), K=1.0)
    if not res.accepted:
        assert res.tries == 5
        assert len(res.rounded) == 4
        assert res.ao_margin < 0.0  # the binding failure is geometric


def test_approx_tuple_deterministic_in_stream():
    rng = np.random.default_rng(15)
    vecs = _ortho_tuple(rng, 3, 40)
    B = rng.normal(size=(20, 40))
    a = rnd.approx_tuple(B, vecs, 0.05, 30, RngStream(16), K=1.2)
    b = rnd.approx_tuple(B, vecs, 0.05, 30, RngStream(16), K=1.2)
    assert a.tries == b.tries and a.accepted == b.accepted
    assert all(np.array_equal(u, w) for u, w in zip(a.rounded, b.rounded))


def test_approx_tuple_image_condition_binds():
    # huge matrix entries make condition (c) the binding one for tiny K
    rng = np.random.default_rng(17)
    vecs = _ortho_tuple(rng, 2, 30)
    B = 1e4 * np.ones((5, 30))
    res = rnd.approx_tuple(B, vecs, 0.05, 20, RngStream(18), K=1e-6)
    assert not res.accepted
    assert res.image_margin < 0.0


def test_chebyshev_image_event_frequency():
    # with ||B||_HS <= 2Kn, each rounding has P(||B(u-v)|| <= 2*K*delta*n) >= 1/2
    rng = np.random.default_rng(19)
    n, K, delta = 60, 1.2, 0.05
    B = rng.normal(size=(n, n))
    B *= (2 * K * n) / np.linalg.norm(B)  # rescale to sit exactly at the cap
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    gen = RngStream(20).generator()
    hits = 0
    trials = 10_000
    for _ in range(trials):
        u = rnd.random_round(v, delta, gen)
        if np.linalg.norm(B @ (u - v)) <= 2 * K * delta * n:
            hits += 1
    assert hits / trials >= 0.5 - 0.05
