"""Unit tests for distributions, RNG streams, rank engines, and norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklab import matrix_core as mc


# --- distributions ---------------------------------------------------------


def test_builtin_distributions_roundtrip():
    for text in [
        "rademacher",
        "bernoulli(0.3)",
        "centered-bernoulli(0.25)",
        "uniform-int(2)",
        "atoms:-1:0.25,0:0.5,1:0.25",
    ]:
        d = mc.parse_distribution(text)
        assert mc.parse_distribution(d.to_text()) == d


def test_rademacher_atoms():
    d = mc.rademacher()
    assert d.merged_atoms() == ((-1.0, 0.5), (1.0, 0.5))
    assert d.is_integral and d.is_uniform
    assert d.mean() == 0.0


def test_centered_bernoulli_mean_zero_exact():
    d = mc.centered_bernoulli(0.25)
    assert d.mean_fraction() == 0
    assert not d.is_integral


def test_uniform_int_support():
    d = mc.uniform_int(2)
    assert d.values == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert all(abs(p - 0.2) < 1e-15 for p in d.probs)


@pytest.mark.parametrize(
    "bad",
    [
        "atoms:1:0.5",           # single atom
        "atoms:1:0.6,1:0.4",     # one distinct value
        "atoms:1:0.5,2:0.6",     # probs sum past 1
        "bernoulli(0)",
        "bernoulli(1)",
        "uniform-int(0)",
        "rademacher(3)",
        "gaussian",
    ],
)
def test_bad_distributions_rejected(bad):
    with pytest.raises(ValueError):
        mc.parse_distribution(bad)


def test_duplicate_atoms_merged():
    d = mc.DistributionSpec([(1.0, 0.25), (1.0, 0.25), (-1.0, 0.5)])
    assert d.merged_atoms() == ((-1.0, 0.5), (1.0, 0.5))


# --- RNG streams -----------------------------------------------------------


def test_stream_repeatability_and_independence():
    s = mc.RngStream(12345, 7)
    a = mc.sample_matrix(mc.rademacher(), 4, 4, s)
    b = mc.sample_matrix(mc.rademacher(), 4, 4, s)
    assert a == b
    c = mc.sample_matrix(mc.rademacher(), 4, 4, mc.RngStream(12345, 8))
    assert a != c


def test_derive_is_deterministic_and_position_sensitive():
    s = mc.RngStream(99)
    assert s.derive(1, 2) == s.derive(1, 2)
    assert s.derive(1, 2) != s.derive(2, 1)
    assert s.derive(0) != s


def test_stream_seed_bounds():
    with pytest.raises(ValueError):
        mc.RngStream(-1)
    with pytest.raises(ValueError):
        mc.RngStream(0, 1 << 64)


def test_sample_matrix_integrality_error():
    with pytest.raises(ValueError, match="integrality"):
        mc.sample_matrix(mc.centered_bernoulli(0.5), 2, 2, mc.RngStream(1), kind="int")


def test_sample_matrix_kinds():
    s = mc.RngStream(3)
    m = mc.sample_matrix(mc.rademacher(), 3, 2, s)
    assert isinstance(m, mc.IntMatrix) and m.rows == 3 and m.cols == 2
    r = mc.sample_matrix(mc.centered_bernoulli(0.3), 3, 2, s)
    assert isinstance(r, np.ndarray) and r.dtype == np.float64


def test_weighted_sampling_frequencies():
    d = mc.bernoulli(0.3)
    arr = mc.sample_array(d, (200_000,), mc.RngStream(11))
    mean = float(arr.mean())
    # 4 sigma band around 0.3 at this sample size
    assert abs(mean - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 200_000)


# --- exact rank ------------------------------------------------------------


def test_exact_rank_small_knowns():
    assert mc.exact_rank([[1]]) == 1
    assert mc.exact_rank([[0]]) == 0
    assert mc.exact_rank(np.eye(4, dtype=np.int64)) == 4
    assert mc.exact_rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
    # wide and tall shapes
    assert mc.exact_rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert mc.exact_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_exact_rank_huge_entries():
    # conditioning is irrelevant for the integer engine
    big = 10**40
    m = [[big, big + 1], [big - 1, big]]
    # det = big^2 - (big^2 - 1) = 1
    assert mc.exact_rank(m) == 2


def test_exact_rank_rejects_floats():
    with pytest.raises(ValueError):
        mc.exact_rank(np.ones((2, 2)))


square_ints = st.integers(min_value=-5, max_value=5)


@st.composite
def int_matrices(draw, max_side=5):
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(1, max_side))
    return [[draw(square_ints) for _ in range(c)] for _ in range(r)]


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_invariances(m):
    r = mc.exact_rank(m)
    assert 0 <= r <= min(len(m), len(m[0]))
    # transpose
    assert mc.exact_rank([list(t) for t in zip(*m)]) == r
    # row swap
    if len(m) >= 2:
        sw = [m[1], m[0]] + m[2:]
        assert mc.exact_rank(sw) == r
    # negate first row
    neg = [[-x for x in m[0]]] + m[1:]
    assert mc.exact_rank(neg) == r
    # add 3x(row 0) to last row
    if len(m) >= 2:
        add = m[:-1] + [[a + 3 * b for a, b in zip(m[-1], m[0])]]
        assert mc.exact_rank(add) == r
    # appending a duplicate row changes nothing
    assert mc.exact_rank(m + [m[0]]) == r


@given(int_matrices(max_side=4))
@settings(max_examples=60, deadline=None)
def test_exact_rank_matches_float_svd(m):
    # entries are tiny, so float rank is trustworthy here
    arr = np.array(m, dtype=np.float64)
    assert mc.exact_rank(m) == np.linalg.matrix_rank(arr, tol=1e-8)


# --- modular rank ----------------------------------------------------------


def test_modular_rank_examples():
    assert mc.modular_rank([[2]], 2) == 0
    for p in (2, 3, 61, 2**61 - 1):
        assert mc.modular_rank(np.eye(4, dtype=np.int64), p) == 4


def test_modular_rank_requires_prime():
    with pytest.raises(ValueError):
        mc.modular_rank([[1]], 6)


@given(int_matrices(max_side=4), st.sampled_from([2, 3, 5, 61, 2**31 - 1]))
@settings(max_examples=60, deadline=None)
def test_modular_rank_lower_bounds_exact(m, p):
    assert mc.modular_rank(m, p) <= mc.exact_rank(m)


def test_modular_equals_exact_above_hadamard():
    # entries bounded by 5, side 4: minors at most (5*2)^4 = 10^4 < p
    rng = np.random.default_rng(2)
    p = 1_000_003
    for _ in range(50):
        m = rng.integers(-5, 6, size=(4, 4))
        assert mc.modular_rank(m, p) == mc.exact_rank(m)


# --- primality -------------------------------------------------------------


def test_is_prime_knowns():
    primes = [2, 3, 5, 7, 61, 2**31 - 1, 2**61 - 1]
    comps = [0, 1, 4, 561, 1105, 3215031751, 2**61 + 1, 2**32 + 1]
    assert all(mc.is_prime(p) for p in primes)
    assert not any(mc.is_prime(c) for c in comps)


def test_random_prime_bits():
    for bits in (31, 61):
        p = mc.random_prime(mc.RngStream(17, bits), bits)
        assert p.bit_length() == bits and mc.is_prime(p)


# --- batched ranks ---------------------------------------------------------


def test_batch_exact_ranks_agrees_with_exact():
    rng = np.random.default_rng(0)
    mats = rng.integers(-3, 4, size=(200, 5, 5))
    p1 = mc.random_prime(mc.RngStream(5, 1), 31)
    p2 = mc.random_prime(mc.RngStream(5, 2), 31)
    got = mc.batch_exact_ranks(mats, (p1, p2))
    want = np.array([mc.exact_rank(m) for m in mats])
    assert np.array_equal(got, want)


def test_batch_exact_ranks_second_prime_path():
    # entries of +-100 at side 6 push the Hadamard bound past any 31-bit
    # prime, and planted row sums make some matrices genuinely deficient,
    # so the second-prime branch must run and still get every rank right
    rng = np.random.default_rng(1)
    mats = rng.integers(-100, 101, size=(150, 6, 6))
    mats[::3, -1] = mats[::3, 0] + mats[::3, 1]
    p1 = mc.random_prime(mc.RngStream(6, 1), 31)
    p2 = mc.random_prime(mc.RngStream(6, 2), 31)
    counters: dict = {}
    got = mc.batch_exact_ranks(mats, (p1, p2), counters)
    want = np.array([mc.exact_rank(m) for m in mats])
    assert np.array_equal(got, want)
    assert counters.get("second_prime", 0) >= 50


def test_batch_exact_ranks_disagreement_falls_back():
    # det = 5 vanishes mod the first prime only; the primes disagree and the
    # exact engine must settle it
    mats = np.array([np.diag([5, 1, 1]), np.diag([1, 1, 1])], dtype=np.int64)
    counters: dict = {}
    got = mc.batch_exact_ranks(mats, (5, 7), counters)
    assert got.tolist() == [3, 3]
    assert counters.get("exact_fallback", 0) == 1


def test_batch_kernel_rejects_wide_prime():
    with pytest.raises(ValueError):
        mc._batch_rank_mod(np.zeros((1, 2, 2), dtype=np.int64), 2**31 + 11)


def test_batch_rank_mod_rectangular():
    mats = np.array(
        [
            [[1, 0, 2], [0, 1, 3]],
            [[1, 2, 3], [2, 4, 6]],
            [[0, 0, 0], [0, 0, 0]],
        ],
        dtype=np.int64,
    )
    got = mc._batch_rank_mod(mats, 1_000_003)
    assert got.tolist() == [2, 1, 0]


# --- batched kernel properties ----------------------------------------------

P31 = 2**31 - 1
FLOAT_LOG_BOUND = 26 * math.log(2)


def _exact_ranks(mats):
    return [mc.exact_rank(m) for m in mats]


def _float_ranks_checked(mats):
    """Float Bareiss ranks, checking that every entry left in the stack is
    still a minor of the input: an integer no larger than the Hadamard bound."""
    a = mats.transpose(2, 1, 0).astype(np.float64, order="C")
    ranks = mc._eliminate(a, None).tolist()
    h = math.exp(mc._hadamard_log_bound(float(np.abs(mats).max()), min(mats.shape[1:])))
    assert np.array_equal(a, np.round(a))
    assert np.abs(a).max() <= h * (1 + 1e-9)
    return ranks


def _top_entry(side, log_bound):
    """Largest entry bound whose Hadamard bound at this side stays below log_bound."""
    top = int(math.exp(log_bound / side) / math.sqrt(side)) + 1
    while mc._hadamard_log_bound(top, side) >= log_bound:
        top -= 1
    return top


@st.composite
def planted_stacks(draw, log_bound):
    """Stacks of 1..6 x 1..6 matrices whose Hadamard bound stays below
    log_bound, with planted row dependencies, zero columns and zero matrices."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = _top_entry(min(rows, cols), log_bound)
    bound = draw(st.sampled_from([1, top]) | st.integers(1, top))
    nmat = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(-bound, bound), min_size=nmat * rows * cols,
                         max_size=nmat * rows * cols))
    mats = np.array(flat, dtype=np.int64).reshape(nmat, rows, cols)
    plants = st.lists(st.sampled_from(["copy", "negate", "sum", "col_sum", "zero_col", "zero"]),
                      max_size=3)
    for m in mats:
        for plant in draw(plants):
            i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
            c1, c2, c3 = (draw(st.integers(0, cols - 1)) for _ in range(3))
            if plant == "copy":
                m[i] = m[j]
            elif plant == "negate":
                m[i] = -m[j]
            elif plant == "sum":  # halve the summands so the bound still holds
                m[i] = _halved(m[j]) + _halved(m[k])
            elif plant == "col_sum":
                m[:, c1] = _halved(m[:, c2]) - _halved(m[:, c3])
            elif plant == "zero_col":
                m[:, c1] = 0
            else:
                m[:] = 0
    return mats


def _halved(v):
    return np.sign(v) * (np.abs(v) // 2)


@given(planted_stacks(FLOAT_LOG_BOUND))
@settings(max_examples=150, deadline=None)
def test_both_kernel_arithmetics_match_exact_rank(mats):
    want = _exact_ranks(mats)
    assert _float_ranks_checked(mats) == want
    assert mc._batch_rank_mod(mats, P31).tolist() == want


@given(planted_stacks(math.log(P31)))
@settings(max_examples=100, deadline=None)
def test_modular_kernel_matches_exact_rank_below_prime(mats):
    assert mc._batch_rank_mod(mats, P31).tolist() == _exact_ranks(mats)


@given(st.integers(7, 13), st.integers(7, 13), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kernels_exact_on_larger_sign_stacks(rows, cols, seed):
    # {-1, 0, 1} entries keep log H below 26 ln 2 up to side 13, where
    # elimination without Bareiss's division would leave the mantissa.
    # Planted sums split one row's support over two others, so the entries
    # stay in range and the dependency needs exact cancellation to show.
    rng = np.random.default_rng(seed)
    mats = rng.integers(-1, 2, size=(40, rows, cols))
    for m in mats[::2]:
        i, j, k = rng.choice(rows, size=3, replace=False)
        mask = rng.integers(0, 2, size=cols)
        m[j], m[k] = m[i] * mask, m[i] * (1 - mask)
    for m in mats[::3]:  # a column without a pivot must leave rows unscaled
        m[:, rng.integers(1, cols)] = 0
    assert mc._hadamard_log_bound(1, min(rows, cols)) < FLOAT_LOG_BOUND
    want = _exact_ranks(mats)
    assert _float_ranks_checked(mats) == want
    assert mc._batch_rank_mod(mats, P31).tolist() == want


def _signed_hadamard4(draw):
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    h = np.kron(h2, h2)
    rs = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4)))
    cs = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4)))
    return rs[:, None] * h * cs[None, :]


@st.composite
def threshold_stacks(draw, top):
    """4 x 4 stacks with max |entry| exactly top: scaled Hadamard matrices,
    whose determinant attains the Hadamard bound, or random entries, with
    planted row copies."""
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            m = top * _signed_hadamard4(draw)
        else:
            flat = draw(st.lists(st.integers(-top, top), min_size=16, max_size=16))
            m = np.array(flat, dtype=np.int64).reshape(4, 4)
            m[0, 0] = top
        if draw(st.booleans()):
            m[draw(st.integers(1, 3))] = m[0]
        mats.append(m)
    return np.stack(mats)


def test_threshold_entries_straddle_float_bound():
    assert mc._hadamard_log_bound(45, 4) < FLOAT_LOG_BOUND < mc._hadamard_log_bound(46, 4)


@given(st.sampled_from([45, 46]).flatmap(threshold_stacks))
@settings(max_examples=80, deadline=None)
def test_float_path_taken_exactly_below_bound(mats):
    top = int(np.abs(mats).max())
    want = _exact_ranks(mats)
    p1 = mc.random_prime(mc.RngStream(8, 1), 31)
    p2 = mc.random_prime(mc.RngStream(8, 2), 31)
    counters: dict = {}
    assert mc.batch_exact_ranks(mats, (p1, p2), counters).tolist() == want
    assert counters.get("float_bareiss", 0) == (len(mats) if top == 45 else 0)
    assert mc._batch_rank_mod(mats, P31).tolist() == want
    if top == 45:
        assert mc._batch_rank_float(mats).tolist() == want


# --- norms -----------------------------------------------------------------


def test_hs_norm_examples():
    assert mc.hs_norm(mc.IntMatrix.from_rows([[3, 4]])) == 5.0
    assert mc.hs_norm(np.zeros((3, 3))) == 0.0
    # exact integer path survives entries float64 cannot represent
    big = 2**70
    m = mc.IntMatrix.from_rows([[big, 0], [0, big]])
    assert mc.hs_norm(m) == pytest.approx(big * math.sqrt(2), rel=1e-12)


def test_op_norm_examples():
    assert mc.op_norm(mc.IntMatrix.from_rows([[3, 4]])) == pytest.approx(5.0, abs=1e-8)
    assert mc.op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-8)
    assert mc.op_norm(np.zeros((2, 5))) == 0.0


@given(int_matrices(max_side=5))
@settings(max_examples=40, deadline=None)
def test_op_norm_matches_svd(m):
    arr = np.array(m, dtype=np.float64)
    want = float(np.linalg.svd(arr, compute_uv=False)[0])
    assert mc.op_norm(arr) == pytest.approx(want, abs=1e-7)


def test_op_norm_deterministic():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 20))
    assert mc.op_norm(a) == mc.op_norm(a.copy())


def test_singular_values_example():
    a = np.array([[1.0, 1 / math.sqrt(2)], [0.0, 1 / math.sqrt(2)]])
    sv = mc.singular_values(a)
    want = [math.sqrt(1 + 1 / math.sqrt(2)), math.sqrt(1 - 1 / math.sqrt(2))]
    assert np.allclose(sv, want, atol=1e-12)


def test_singular_values_size_cap():
    mc.singular_values(np.ones((64, 3)))  # min side small: fine
    with pytest.raises(ValueError, match="too large for dense SVD"):
        mc.singular_values(np.ones((65, 65)))


def test_norm_order():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    assert mc.op_norm(a) <= mc.hs_norm(a) + 1e-9


# --- matrix container and IO -----------------------------------------------


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        mc.IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        mc.IntMatrix(1, 1, ((1.5,),))  # type: ignore[arg-type]


def test_matrix_text_roundtrip_int(tmp_path):
    m = mc.IntMatrix.from_rows([[10**30, -2], [0, 7]])
    path = tmp_path / "m.txt"
    mc.save_matrix_text(m, path)
    assert mc.load_int_matrix(path) == m
    first = path.read_text().splitlines()[0]
    assert first == "2 2"


def test_matrix_text_roundtrip_real(tmp_path):
    a = np.array([[0.1, -2.5], [1 / 3, 7.0]])
    path = tmp_path / "r.txt"
    mc.save_matrix_text(a, path)
    b = mc.load_real_matrix(path)
    assert np.array_equal(a, b)  # repr() round trips float64 exactly


def test_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        mc.load_int_matrix(path)
