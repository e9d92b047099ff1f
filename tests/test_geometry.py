"""Unit tests for sparse distances, AO certificates, and greedy extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ranklab import geometry as g


# --- dist_to_sparse ---------------------------------------------------------


def test_dist_to_sparse_examples():
    assert g.dist_to_sparse([3, 4, 0], 1) == 3.0
    assert g.dist_to_sparse([3, 4, 0], 2) == 0.0
    assert g.dist_to_sparse(np.ones(4) / 2, 2) == pytest.approx(math.sqrt(2) / 2)


def test_dist_to_sparse_tie_keeps_lower_index():
    # equal magnitudes: index 0 is kept, indices 1..2 are the tail
    assert g.dist_to_sparse([1.0, -1.0, 1.0], 1) == pytest.approx(math.sqrt(2))


def test_dist_to_sparse_bounds_errors():
    with pytest.raises(ValueError):
        g.dist_to_sparse([1.0], 2)
    with pytest.raises(ValueError):
        g.dist_to_sparse([1.0], -1)


finite_vecs = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@given(finite_vecs)
@settings(max_examples=80, deadline=None)
def test_dist_to_sparse_monotone_in_s(x):
    dists = [g.dist_to_sparse(x, s) for s in range(x.size + 1)]
    assert dists[0] == pytest.approx(float(np.linalg.norm(x)))
    assert dists[-1] == 0.0
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))


# --- classify ----------------------------------------------------------------


def test_classify_examples():
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert g.classify(e1, g.SparsityParams(1, 0.5)) == "compressible"
    n = 10
    flat = np.ones(n) / math.sqrt(n)
    # tail norm sqrt(1/2) > 0.1
    assert g.classify(flat, g.SparsityParams(n // 2, 0.1)) == "incompressible"


def test_classify_rejects_off_sphere():
    with pytest.raises(ValueError, match="not on sphere"):
        g.classify(np.ones(3), g.SparsityParams(1, 0.5))


def test_sparsity_params_validation():
    with pytest.raises(ValueError):
        g.SparsityParams(0, 0.5)
    with pytest.raises(ValueError):
        g.SparsityParams(1, 0.0)
    with pytest.raises(ValueError):
        g.SparsityParams(1, 1.0)


@given(st.integers(2, 10), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_classify_is_a_partition(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    params = g.SparsityParams(1 + seed % n, 0.3)
    got = g.classify(x, params)
    assert got in ("compressible", "incompressible")
    want = "compressible" if g.dist_to_sparse(x, params.s) <= params.tau else "incompressible"
    assert got == want


# --- ao_check ----------------------------------------------------------------


def test_ao_check_orthonormal():
    ao = g.ao_check(list(np.eye(8)[:5]), 0.0)
    assert ao.certified
    assert ao.s_min == pytest.approx(1.0, abs=1e-12)
    assert ao.s_max == pytest.approx(1.0, abs=1e-12)


def test_ao_check_known_failure():
    ao = g.ao_check([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)], 0.125)
    # Gram eigenvalues 1 +- 1/sqrt(2)
    assert ao.s_min == pytest.approx(math.sqrt(1 - 1 / math.sqrt(2)), abs=1e-12)
    assert not ao.certified


def test_ao_check_single_vector():
    ao = g.ao_check([np.array([0.0, 2.0, 0.0])], 0.0)
    assert ao.certified and ao.s_min == pytest.approx(1.0)


def test_ao_check_rejects_zero_vector_and_overflow():
    with pytest.raises(ValueError):
        g.ao_check([np.zeros(3)], 0.1)
    with pytest.raises(ValueError):
        g.ao_check(list(np.eye(65)), 0.1)


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_ao_success_pins_pairwise_inner_products(seed):
    rng = np.random.default_rng(seed)
    l, n = 4, 16
    base, _ = np.linalg.qr(rng.normal(size=(n, l)))
    nu = rng.uniform(0.01, 0.3)
    vecs = [base[:, j] + rng.normal(size=n) * nu / (4 * math.sqrt(n)) for j in range(l)]
    ao = g.ao_check(vecs, nu)
    if ao.certified:
        w = np.stack([v / np.linalg.norm(v) for v in vecs], axis=1)
        gram = w.T @ w
        off = gram - np.diag(np.diag(gram))
        bound = 2 * nu + nu * nu + 1e-7
        assert np.abs(off).max() <= bound


# --- triangular bound --------------------------------------------------------


def test_triangular_orthogonal_columns():
    vecs = [np.eye(6)[i] * (i + 1.0) for i in range(4)]
    rep = g.triangular_ao_bound_check(vecs, 0.25)
    assert rep.hypothesis_met and rep.ao_ok and rep.det_ok
    # determinant achieves the product of norms exactly here
    assert rep.log_det_sqrt == pytest.approx(math.log(24.0), abs=1e-9)
    assert rep.log_det_floor == pytest.approx(math.log(24.0) - 4 * math.log(2), abs=1e-9)


def test_triangular_parallel_vectors_unmet():
    rep = g.triangular_ao_bound_check([np.ones(4), 2 * np.ones(4)], 0.25)
    assert not rep.hypothesis_met
    assert rep.max_projection_ratio == pytest.approx(1.0)


def test_triangular_nu_cap():
    with pytest.raises(ValueError):
        g.triangular_ao_bound_check([np.eye(3)[0], np.eye(3)[1]], 0.3)


def test_triangular_random_instances(triangular_instance_gen):
    # small-scale version of the full acceptance audit
    rng = np.random.default_rng(20240811)
    for trial in range(300):
        l = int(rng.integers(2, 9))
        n = int(rng.integers(l + 1, 33))
        nu = float(rng.uniform(0.01, 0.25))
        vecs = triangular_instance_gen(rng, l, n, nu)
        rep = g.triangular_ao_bound_check(vecs, nu)
        assert rep.hypothesis_met, (trial, l, n, nu)
        assert rep.ao_ok and rep.det_ok, (trial, l, n, nu)


# --- greedy extraction -------------------------------------------------------


def test_greedy_axis_candidates_tie_break():
    cands = [np.eye(10)[i] for i in range(7)]
    basis = np.eye(10)[:8]
    res = g.greedy_ao_extract(cands, basis, 3)
    assert res.branch == 1
    assert res.chosen_indices == (0, 1, 2)
    assert res.ao.certified
    assert res.condition_b_ok


def test_greedy_parallel_candidates_branch_2():
    u = np.ones(6) / math.sqrt(6)
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(6)[:, :3]]))
    basis = q.T[:4]
    res = g.greedy_ao_extract([2 * u, 3 * u, 1.5 * u], basis, 2)
    assert res.branch == 2
    f = res.basis_f
    assert f.shape == (2, 6)
    assert np.allclose(f @ f.T, np.eye(2), atol=1e-9)
    assert np.abs(f @ u).max() < 1e-9


def test_greedy_norms_nondecreasing_and_postconditions(candidate_instance_gen):
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(10, 41))
        k = int(rng.integers(5, min(n, 13)))
        l = int(rng.integers(2, k))
        m = int(rng.integers(l + 1, 60))
        spread = "wide" if trial % 3 else "beam"
        cands, basis = candidate_instance_gen(rng, n, k, m, spread)
        res = g.greedy_ao_extract(cands, basis, l)
        if res.branch == 1:
            norms = [np.linalg.norm(v) for v in res.ao.vectors]
            assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
            assert res.ao.certified
            assert res.condition_b_ok
        else:
            f = res.basis_f
            assert f.shape == (k - l, n)
            assert np.allclose(f @ f.T, np.eye(k - l), atol=1e-8)
            for i in res.chosen_indices:
                assert np.abs(f @ cands[i]).max() < 1e-8


def test_greedy_not_in_subspace_error():
    basis = np.eye(6)[:3]
    with pytest.raises(ValueError, match="not in subspace"):
        g.greedy_ao_extract([np.eye(6)[5]], basis, 2)


def test_greedy_requires_l_below_dim():
    basis = np.eye(6)[:3]
    cands = [np.eye(6)[0], np.eye(6)[1]]
    with pytest.raises(ValueError):
        g.greedy_ao_extract(cands, basis, 3)
