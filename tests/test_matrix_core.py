"""Unit tests for distributions, RNG streams, rank engines, and text IO."""

import itertools
import math
from fractions import Fraction

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
    a = mc.sample_array(mc.rademacher(), (4, 4), s)
    b = mc.sample_array(mc.rademacher(), (4, 4), s)
    assert np.array_equal(a, b)
    c = mc.sample_array(mc.rademacher(), (4, 4), mc.RngStream(12345, 8))
    assert not np.array_equal(a, c)


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


def test_weighted_sampling_frequencies():
    d = mc.bernoulli(0.3)
    arr = mc.sample_array(d, (200_000,), mc.RngStream(11))
    mean = float(arr.mean())
    # 4 sigma band around 0.3 at this sample size
    assert abs(mean - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 200_000)


def _values_then_cast(dist, shape, stream):
    """The earlier sample_array: index a float64 values array, cast to int64."""
    gen = stream.generator()
    values = np.array(dist.values)
    if dist.is_uniform:
        idx = gen.integers(0, len(values), size=shape)
    else:
        cdf = np.cumsum(dist.probs)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, gen.random(shape), side="right")
    return values[idx].astype(np.int64)


@pytest.mark.parametrize(
    "text",
    [
        "rademacher",
        "uniform-int(3)",
        "bernoulli(0.3)",
        "atoms:-7:0.125,2:0.5,40:0.375",
        # tables equal to 0..b-1, whose drawn indices are returned as the entries
        "bernoulli(0.5)",
        "atoms:0:0.25,1:0.25,2:0.5",
    ],
)
def test_sample_array_int64_table_keeps_the_draws(text):
    d = mc.parse_distribution(text)
    got = mc.sample_array(d, (50, 4, 4), mc.RngStream(21, 3))
    assert got.dtype == np.int64
    assert np.array_equal(got, _values_then_cast(d, (50, 4, 4), mc.RngStream(21, 3)))


def test_int64_atoms_range():
    top = 2**63 - 1
    assert mc.int64_atoms([-top, 0, top]).tolist() == [-top, 0, top]
    for bad in (2**63, -(2**63), 1e19, -1e19):
        with pytest.raises(ValueError, match="int64"):
            mc.int64_atoms([0, bad])
    with pytest.raises(ValueError, match="int64"):
        mc.sample_array(mc.parse_distribution("atoms:1e19:0.5,-1e19:0.5"), (2, 2), mc.RngStream(1))


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


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, 0], [0, 1]],  # int() would truncate 0.5 and report rank 1
        [[1.0, 0], [0, 1]],  # integral floats are still floats
        [[1, 0], [0, np.float64(2.0)]],
        [np.array([1.5, 0.0]), np.array([0.0, 1.0])],
        [[Fraction(1, 2), 0], [0, 1]],
        [["1", "0"], ["0", "1"]],
    ],
)
def test_ranks_reject_non_integer_list_entries(rows):
    with pytest.raises(ValueError, match="expected integer entries"):
        mc.exact_rank(rows)
    with pytest.raises(ValueError, match="expected integer entries"):
        mc.modular_rank(rows, 61)


def test_ranks_accept_numpy_integer_list_entries():
    rows = [[np.int64(2), np.int32(4)], [np.int8(1), 2], [True, 3]]
    assert mc.exact_rank(rows) == 2
    assert mc.modular_rank(rows, 61) == 2
    assert mc.exact_rank([list(r) for r in np.array([[1, 2], [2, 4]])]) == 1


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
    # entries of +-100 at side 6 push every minor bound past any 31-bit
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


def test_batch_exact_ranks_agreement_beyond_prime_product_falls_back():
    # det 6^2 - 1 = 5 * 7: ranks mod 5 and mod 7 agree on 1, but the
    # matrix's column bound sqrt(3) * 24.75 = 42.9 exceeds 35, so agreement
    # certifies nothing. The singular [[6, 2], [3, 1]] also agrees, and its
    # own bound sqrt(3 * 18.75 * 20.75) = 34.2 < 35 certifies that.
    mats = np.array([[[6, 1], [1, 6]], [[6, 2], [3, 1]]], dtype=np.int64)
    counters: dict = {}
    got = mc.batch_exact_ranks(mats, (5, 7), counters)
    assert got.tolist() == [2, 1]
    assert counters == {"second_prime": 2, "exact_fallback": 1}


def test_batch_exact_ranks_rejects_equal_primes():
    with pytest.raises(ValueError, match="distinct"):
        mc.batch_exact_ranks(np.ones((1, 2, 2), dtype=np.int64), (7, 7))


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
FLOAT32_LOG_BOUND = 11.5 * math.log(2)


def _exact_ranks(mats):
    return [mc.exact_rank(m) for m in mats]


def _entry_range(mats):
    return int(mats.min()), int(mats.max())


def _float_ranks_checked(mats, dtype=np.float64):
    """Float Bareiss ranks, checking that every entry left in the stack is
    still a minor of the input: an integer no larger than the Hadamard bound."""
    a = mats.transpose(2, 1, 0).astype(dtype, order="C")
    ranks = mc._eliminate(a, None)[0].tolist()
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
    log_bound, with planted row and column dependencies, zero columns and zero
    matrices."""
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
            i, j = (draw(st.integers(0, rows - 1)) for _ in range(2))
            c1 = draw(st.integers(0, cols - 1))
            if plant == "copy":
                m[i] = m[j]
            elif plant == "negate":
                m[i] = -m[j]
            elif plant == "sum" and rows > 1:
                # halve the sources in place so the bound still holds and
                # the target stays their sum
                j, k = _sources(draw, rows, i)
                m[j], m[k] = _halved(m[j]), _halved(m[k])
                m[i] = m[j] + m[k]
            elif plant == "col_sum" and cols > 1:
                c2, c3 = _sources(draw, cols, c1)
                m[:, c2], m[:, c3] = _halved(m[:, c2]), _halved(m[:, c3])
                m[:, c1] = m[:, c2] - m[:, c3]
            elif plant == "zero_col":
                m[:, c1] = 0
            elif plant == "zero":
                m[:] = 0
    return mats


def _sources(draw, size, target):
    """Two indices below size other than target, possibly equal."""
    others = st.sampled_from([x for x in range(size) if x != target])
    return draw(others), draw(others)


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


def _lagging_stack():
    """5 x 5 matrices whose ranks part early, so that min(rank) of the batch
    lags behind the column: a zero matrix, zero first columns, pivots found
    only in the last row, row copies and full-rank matrices."""
    rng = np.random.default_rng(7)
    eye = np.eye(5, dtype=np.int64)
    full = rng.integers(-3, 4, size=(4, 5, 5)) + 9 * eye  # diagonally dominant
    copies = rng.integers(-3, 4, size=(3, 5, 5))
    copies[:, 0, 0] = 2  # row 0 pivots at once and is copied further down
    copies[0, 1], copies[1, 3], copies[2, 4] = copies[0, 0], copies[1, 0], -copies[2, 0]
    zero_cols = rng.integers(-3, 4, size=(3, 5, 5))
    zero_cols[0, :, 0] = 0
    zero_cols[0, 1] = zero_cols[0, 0]  # so the last row is needed for rank 4
    zero_cols[1, :, :2] = 0
    zero_cols[2, :, [0, 2]] = 0
    last_row = np.zeros((5, 5), dtype=np.int64)
    last_row[-1] = [1, 2, 3, 4, 5]
    anti = eye[::-1]  # the first column's pivot is in the last row
    mats = np.concatenate(
        [np.zeros((1, 5, 5), dtype=np.int64), full, copies, zero_cols, [last_row, anti, anti + eye]]
    )
    return mats[np.random.default_rng(8).permutation(len(mats))]


def test_kernels_exact_when_batch_rank_lags():
    mats = _lagging_stack()
    want = _exact_ranks(mats)
    assert sorted(set(want)) == [0, 1, 3, 4, 5]
    assert _float_ranks_checked(mats) == want
    assert mc._batch_rank_mod(mats, P31).tolist() == want


def test_kernels_accept_empty_stacks():
    for shape in ((0, 3, 3), (2, 0, 3), (2, 3, 0)):
        mats = np.zeros(shape, dtype=np.int64)
        want = [0] * shape[0]
        assert mc._batch_rank_float(mats, 0, 0).tolist() == want
        assert mc._batch_rank_mod(mats, P31).tolist() == want
        assert mc.batch_exact_ranks(mats, (5, 7)).tolist() == want


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
    # on a symmetric stack (lo = -hi) the shift bound is no help
    for top in (45, 46):
        assert mc._shift_log_bound(-top, top, 4) > mc._hadamard_log_bound(top, 4)


@given(st.sampled_from([45, 46]).flatmap(threshold_stacks))
@settings(max_examples=80, deadline=None)
def test_float_path_taken_exactly_below_bound(mats):
    top = int(np.abs(mats).max())
    want = _exact_ranks(mats)
    p1 = mc.random_prime(mc.RngStream(8, 1), 31)
    p2 = mc.random_prime(mc.RngStream(8, 2), 31)
    on_float = mc._minor_log_bounds(mats, *_entry_range(mats), FLOAT_LOG_BOUND) < FLOAT_LOG_BOUND
    counters: dict = {}
    assert mc.batch_exact_ranks(mats, (p1, p2), counters).tolist() == want
    assert counters.get("float_bareiss", 0) == on_float.sum()
    assert mc._batch_rank_mod(mats, P31).tolist() == want
    if top == 45:  # the stack's Hadamard bound already certifies it
        assert on_float.all()
    if top == 46:
        # 46 * H4 attains the Hadamard bound, above 2^26: no bound may
        # certify it, so it must stay off the float path
        for m, fl in zip(mats, on_float):
            if np.array_equal(m @ m.T, 4 * top * top * np.eye(4)):
                assert not fl
    if on_float.any():
        got = mc._batch_rank_float(mats[on_float], *_entry_range(mats))
        assert got.tolist() == np.array(want)[on_float].tolist()


@given(planted_stacks(FLOAT32_LOG_BOUND))
@settings(max_examples=150, deadline=None)
def test_float32_kernel_matches_exact_rank_below_its_cut(mats):
    # every minor stays below 2^11.5, so every column runs in float32; at
    # side 1 the entries reach +-2896, as 2 * 2896^2 < 2^24 < 2 * 2897^2
    want = _exact_ranks(mats)
    assert _float_ranks_checked(mats, np.float32) == want
    side = min(mats.shape[1:])
    assert mc._float32_depth(*_entry_range(mats), side) == side
    assert mc._batch_rank_float(mats, *_entry_range(mats)).tolist() == want


@pytest.mark.parametrize(
    "lo,hi,side,depth",
    [(-2896, 2896, 4, 1), (-2897, 2897, 4, 0), (0, 2896, 3, 1), (0, 1, 16, 11),
     (-1, 1, 10, 7), (-3, 3, 8, 4), (0, 0, 5, 5)],
)
def test_float32_depth_examples(lo, hi, side, depth):
    # 0/1 at 16 stops at the shift bound (12^6 / 2^11 < 2^11.5 < 13^6.5 / 2^12),
    # +-1 at 10 at the Hadamard bound (7^3.5 < 2^11.5 < 8^4)
    assert _top_entry(1, FLOAT32_LOG_BOUND) == 2896
    assert mc._float32_depth(lo, hi, side) == depth


def test_float32_columns_resume_as_one_float64_pass():
    # the float32 columns, widened and resumed from their ranks and pivots,
    # leave every entry, rank and pivot of one float64 pass, bit for bit, up
    # to +-2896; at +-2897 the 2-minor 2897^2 + 2896 * 2897 = 16782321 > 2^24
    # rounds in float32, so no float32 column may take that stack
    rng = np.random.default_rng(2896)
    for lo, hi, side in ((-2896, 2896, 4), (-3, 3, 8), (0, 1, 16)):
        mats = rng.integers(lo, hi + 1, size=(200, side, side))
        mats[::2, -1] = mats[::2, 0] - mats[::2, 1] // 2 * 2
        a = mats.transpose(2, 1, 0).astype(np.float64, order="C")
        want = mc._eliminate(a, None)
        depth = mc._float32_depth(lo, hi, side)
        b = mats.transpose(2, 1, 0).astype(np.float32, order="C")
        rank, prev = mc._eliminate(b, None, depth)
        b = b[depth:].astype(np.float64, order="C")
        got = mc._eliminate(b, None, rank=rank, prev=prev)
        assert np.array_equal(b, a[depth:])
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    past = np.array([[[2897, 2896], [-2897, 2897]]]).transpose(2, 1, 0)
    a = past.astype(np.float32, order="C")
    mc._eliminate(a, None, 1)
    assert int(a[1, 1, 0]) != 16782321
    assert mc._float32_depth(-2897, 2897, 2) == 0


@pytest.mark.parametrize("lo,hi,side,depth", [(0, 1, 16, 11), (-1, 1, 10, 7), (-3, 3, 8, 4)])
def test_float32_stage_hands_over_to_float64_partway(monkeypatch, lo, hi, side, depth):
    # each planted row splits another's support over two rows, so the
    # dependency shows only by exact cancellation after the hand-over
    rng = np.random.default_rng(side)
    mats = rng.integers(lo, hi + 1, size=(150, side, side))
    for m in mats[::2]:
        i, j, k = rng.choice(side, size=3, replace=False)
        mask = rng.integers(0, 2, size=side)
        m[j], m[k] = m[i] * mask, m[i] * (1 - mask)
    for m in mats[::3]:  # a column without a pivot
        m[:, rng.integers(side)] = 0
    assert _entry_range(mats) == (lo, hi)
    calls, handed = [], []
    eliminate = mc._eliminate

    def spy(a, p, stop=None, rank=None, prev=None):
        calls.append((a.dtype, a.shape[0], stop))
        handed.append(prev)
        out = eliminate(a, p, stop, rank, prev)
        handed.append(out[1])
        return out

    monkeypatch.setattr(mc, "_eliminate", spy)
    counters: dict = {}
    assert mc.batch_exact_ranks(mats, (P31, 2147483629), counters).tolist() == _exact_ranks(mats)
    assert counters == {"float_bareiss": 150}
    assert calls == [(np.float32, side, depth), (np.float64, side - depth, None)]
    assert handed[2] is handed[1]  # the float64 pass divides by the float32 pivots


# --- minor bounds ------------------------------------------------------------


def _det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def _largest_minor(m):
    """max |det| over every square minor of m, the empty minor (1) included."""
    rows, cols = len(m), len(m[0])
    best = Fraction(1)
    for k in range(1, min(rows, cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                best = max(best, abs(_det([[m[i][j] for j in ci] for i in ri])))
    return best


@st.composite
def boxed_stacks(draw):
    """(lo, hi, stack) for stacks of 1..5 x 1..5 integer matrices with
    entries in [lo, hi]; a matrix draws from the whole box, from {lo, hi}
    only, or from {lo, hi} and the box's point nearest 0."""
    lo = draw(st.integers(-6, 6))
    hi = draw(st.integers(lo, 8))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["box", "extreme", "extreme_or_zero"]))
        if kind == "box":
            entry = st.integers(lo, hi)
        elif kind == "extreme":
            entry = st.sampled_from([lo, hi])
        else:
            entry = st.sampled_from(sorted({lo, hi, min(max(0, lo), hi)}))
        flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        mats.append(np.array(flat, dtype=np.int64).reshape(rows, cols))
    return lo, hi, np.stack(mats)


def _stack_centred_column_log_bounds(mats, c):
    """The column bound with one centre c for every column: the bordered
    column norms sqrt(c^2 + |a_j - c|^2)."""
    _, nrow, ncol = mats.shape
    col_sq = ((mats - c) ** 2).sum(axis=1) + c * c
    return 0.5 * math.log(min(nrow, ncol) + 1) + 0.5 * np.log(np.maximum(col_sq, 1.0)).sum(axis=1)


@given(boxed_stacks(), st.sampled_from([1, 2, 8]))
@settings(max_examples=150, deadline=None)
def test_minor_bounds_hold_for_every_minor(box, scale):
    # entries scaled by 1/scale test the bounds on real boxes too: for
    # integer boxes the shift bound's maximum sits at k = side, for a box
    # such as [0, 1/4] it sits at a smaller k
    lo, hi, mats = box
    side = min(mats.shape[1:])
    shift = mc._shift_log_bound(lo / scale, hi / scale, side)
    cols = mc._column_log_bounds(mats / scale)
    # cut 0: the least of all three bounds
    combined = mc._minor_log_bounds(mats, *_entry_range(mats), 0.0)
    stack_centred = _stack_centred_column_log_bounds(mats / scale, (lo + hi) / (2 * scale))
    for i, m in enumerate(mats):
        log_minor = math.log(_largest_minor([[Fraction(int(x), scale) for x in row] for row in m]))
        assert log_minor <= shift + 1e-9
        assert log_minor <= cols[i] + 1e-9
        # per-column centres minimize each bordered column norm
        assert cols[i] <= stack_centred[i] + 1e-9
        if scale == 1:
            assert log_minor <= combined[i] + 1e-9


def test_minor_bound_examples():
    # 0/1 at n = 16: 12.99, under 26 ln 2 where the Hadamard bound is 22.18
    assert mc._shift_log_bound(0, 1, 16) == pytest.approx(12.9920, abs=1e-4)
    # the 3 x 3 0/1 matrix of determinant 2 needs the sqrt(k+1) factor
    assert mc._shift_log_bound(0, 1, 3) >= math.log(2)
    # [0, 1/4]: the largest minor is the empty one, not a side-2 minor
    assert mc._shift_log_bound(0, 0.25, 2) == 0.0
    # a 1 x 5 row of ones: its column norms sit below 1, clamped to 1
    ones = np.ones((1, 1, 5), dtype=np.int64)
    assert mc._column_log_bounds(ones)[0] == pytest.approx(0.5 * math.log(2))
    assert mc._minor_log_bounds(np.zeros((2, 3, 3), dtype=np.int64), 0, 0, 0.0).tolist() == [0.0, 0.0]


def test_batch_exact_ranks_mixed_float_and_modular():
    # +-100 stack: the stack bounds miss the float region, so each matrix is
    # routed by its own column bound; the sparse ones go float, the dense
    # ones modular, some of them on to the second prime.
    rng = np.random.default_rng(4)
    dense = rng.integers(-100, 101, size=(60, 6, 6))
    dense[::3, -1] = dense[::3, 0]
    sparse = rng.integers(-1, 2, size=(60, 6, 6))
    sparse[:, 0, 0] = 100
    sparse[1::3, -1] = sparse[1::3, 2]
    mats = np.concatenate([dense, sparse])[rng.permutation(120)]
    p1 = mc.random_prime(mc.RngStream(9, 1), 31)
    p2 = mc.random_prime(mc.RngStream(9, 2), 31)
    counters: dict = {}
    got = mc.batch_exact_ranks(mats, (p1, p2), counters)
    assert got.tolist() == _exact_ranks(mats)
    assert counters["float_bareiss"] == 60
    assert counters["second_prime"] >= 20


def test_column_bounds_centre_each_column():
    # two dense +-100 matrices hold -160 and 173, so the stack's range is
    # [-160, 173]. Centred on its middle, 6.5, the sparse {-1, 0, 1}
    # matrices with one 100 got bounds around 19.5, above 26 ln 2, and went
    # modular; centred per column they stay on the float path.
    rng = np.random.default_rng(12)
    dense = rng.integers(-100, 101, size=(60, 6, 6))
    dense[0, 0, 0], dense[1, 0, 0] = -160, 173
    dense[::3, -1] = dense[::3, 1]
    sparse = rng.integers(-1, 2, size=(60, 6, 6))
    sparse[:, 0, 0] = 100
    sparse[1::3, -1] = sparse[1::3, 2]
    mats = np.concatenate([dense, sparse])
    assert (mats.min(), mats.max()) == (-160, 173)
    assert (_stack_centred_column_log_bounds(sparse, 6.5) > FLOAT_LOG_BOUND).all()
    assert (mc._column_log_bounds(sparse) < FLOAT_LOG_BOUND).all()
    assert (mc._column_log_bounds(dense) >= FLOAT_LOG_BOUND).all()
    p1 = mc.random_prime(mc.RngStream(10, 1), 31)
    p2 = mc.random_prime(mc.RngStream(10, 2), 31)
    counters: dict = {}
    assert mc.batch_exact_ranks(mats, (p1, p2), counters).tolist() == _exact_ranks(mats)
    assert counters["float_bareiss"] == 60


def test_batch_exact_ranks_int64_min_entry():
    # |INT64_MIN| is not an int64; read as one, it hid the entry from the
    # bound and sent the matrix to float elimination, which lost the rank
    m = np.array([[[-(2**63), 0, -2], [-1, 1, 2], [-1, -1, -2]]], dtype=np.int64)
    assert mc.batch_exact_ranks(m, (2147483647, 2147483629)).tolist() == [3]
    assert mc._minor_log_bounds(m, -(2**63), 2, math.inf).tolist() == [mc._hadamard_log_bound(2.0**63, 3)]


# --- text IO ---------------------------------------------------------------


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
        mc.load_real_matrix(path)
