"""Unit tests for lattice distances, the LCD condition, and bracket estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklab import lcd

P = lcd.LCDParams(2.0, 0.25)


def ones_unit(n: int) -> np.ndarray:
    return np.ones(n) / math.sqrt(n)


def basis_vec(n: int, i: int = 0) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


# --- lattice distance --------------------------------------------------------


def test_dist_to_lattice_examples():
    assert lcd.dist_to_lattice([3.0, -2.0, 0.0]) == 0.0
    assert lcd.dist_to_lattice([0.4, 1.6]) == pytest.approx(math.sqrt(0.32))
    assert lcd.dist_to_lattice([0.5] * 4) == pytest.approx(1.0)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_dist_to_lattice_is_translation_invariant(xs):
    y = np.array(xs)
    shift = np.arange(1, y.size + 1, dtype=float)
    assert lcd.dist_to_lattice(y + shift) == pytest.approx(lcd.dist_to_lattice(y), abs=1e-9)
    assert 0.0 <= lcd.dist_to_lattice(y) <= math.sqrt(y.size) / 2 + 1e-12


def test_log_plus():
    assert lcd.log_plus(0.5) == 0.0
    assert lcd.log_plus(1.0) == 0.0
    assert lcd.log_plus(math.e) == pytest.approx(1.0)


# --- condition ---------------------------------------------------------------


def test_condition_below_cutoff_is_false():
    # alpha * ||image|| <= L makes the right side 0; strict inequality fails
    v = ones_unit(100)
    assert not lcd.lcd_condition(v[None, :], [8.0], P)
    assert not lcd.lcd_condition(v[None, :], [1.0], P)


def test_condition_worked_examples():
    v = ones_unit(100)
    assert lcd.lcd_condition(v[None, :], [10.0], P)  # integer image, log+ > 0
    e1 = basis_vec(100)
    assert lcd.lcd_condition(e1[None, :], [9.0], P)
    # two rows: the image 9 e1 has alpha ||y|| / L = 1.125 > 1, while 8 e1 sits at the cutoff
    V = np.eye(2, 100)
    assert lcd.lcd_condition(V, [9.0, 0.0], P)
    assert not lcd.lcd_condition(V, [8.0, 0.0], P)


def test_condition_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lcd.lcd_condition(np.eye(2), [1.0, 2.0, 3.0], P)


# --- lcd_vector --------------------------------------------------------------


def test_lcd_vector_all_ones_bands():
    # frozen from the fine-grid scan; the acceptance window is wider
    expected = {64: (8.0, 8.0), 100: (9.0, 9.5), 144: (10.5, 11.0)}
    for n, (lo_band, hi_band) in expected.items():
        est = lcd.lcd_vector(ones_unit(n), P, 20.0)
        assert lo_band <= est.upper <= hi_band, n
        assert est.lower >= P.L / P.alpha - 1e-12
        assert est.lower <= est.upper + 1e-9
        w = est.witness_theta
        assert lcd.lcd_condition(ones_unit(n)[None, :], w, P)
        assert abs(float(np.linalg.norm(w)) - est.upper) <= 1e-9


def test_lcd_vector_cutoff_boundary_case():
    # for a standard basis vector the condition holds immediately past the
    # cutoff L/alpha, so the bracket pins the infimum at exactly 8
    est = lcd.lcd_vector(basis_vec(50), P, 20.0)
    assert est.upper == pytest.approx(8.0, abs=1e-9)
    assert 8.0 <= float(np.linalg.norm(est.witness_theta)) <= 8.0 + 1e-9


def test_lcd_vector_no_witness_below_bound():
    # all-ones witness region starts near 9.24; a bound of 9 finds nothing
    est = lcd.lcd_vector(ones_unit(100), P, 9.0, grid_step=0.005)
    assert math.isinf(est.upper)
    assert est.witness_theta is None
    assert est.lower == pytest.approx(9.0)


def test_lcd_vector_scaling():
    v = ones_unit(100)
    a = lcd.lcd_vector(v, P, 20.0)
    b = lcd.lcd_vector(2 * v, P, 10.0, grid_step=0.01)
    assert b.upper == pytest.approx(a.upper / 2, abs=1e-6)
    assert b.lower == pytest.approx(a.lower / 2, abs=1e-2)


def test_lcd_vector_validation():
    with pytest.raises(ValueError):
        lcd.lcd_vector(np.zeros(5), P, 20.0)
    with pytest.raises(ValueError):
        lcd.lcd_vector(ones_unit(10), P, 7.9)  # below L/alpha
    with pytest.raises(ValueError):
        lcd.lcd_vector(ones_unit(10), P, 20.0, grid_step=-1.0)


def scan_ray_per_tick(u, params, search_bound, grid_step):
    """Reference for lcd._scan_ray: the condition tested one grid tick at a time."""
    u_norm = float(np.linalg.norm(u))
    if u_norm == 0.0:
        return None
    start = params.L / (params.alpha * u_norm)
    if start >= search_bound:
        return None
    ticks = int(math.ceil((search_bound - start) / grid_step))
    prev = start
    for i in range(1, ticks + 1):
        t = min(start + i * grid_step, search_bound)
        if lcd._ray_condition(u, t, params, u_norm):
            lo, hi = lcd._refine_crossing(u, prev, t, params, u_norm)
            return lo, hi, prev
        prev = t
    return None


def test_scan_ray_hit_on_first_tick():
    # a basis vector meets the condition right past the cutoff 8
    got = lcd._scan_ray(basis_vec(50, 3), P, 20.0, 0.01)
    assert got == scan_ray_per_tick(basis_vec(50, 3), P, 20.0, 0.01)
    assert got[2] == 8.0


def scan_edges(u, count: int) -> list[int]:
    # last tick of each of the first `count` blocks, sized as _scan_ray sizes
    # them: one full-width block, then blocks of prefix width
    first = lcd._SCAN_BLOCK_FLOATS // u.size
    block = lcd._SCAN_BLOCK_FLOATS // min(u.size, lcd._SCAN_PREFIX)
    return [first + b * block for b in range(count)]


def test_scan_ray_hit_in_later_block():
    # the all-ones crossing near 9.24 lies some 12,400 ticks past the cutoff
    u, step = ones_unit(100), 1e-4
    got = lcd._scan_ray(u, P, 20.0, step)
    assert got == scan_ray_per_tick(u, P, 20.0, step)
    assert (got[2] - 8.0) / step > scan_edges(u, 6)[-1]


def test_scan_ray_hit_at_block_edges():
    # steps placing the first hit on the last tick of a block, on the first
    # tick of the next, and next to them; the tick count shows the block
    u = ones_unit(100)
    first, second = scan_edges(u, 2)
    crossing = 9.2406139637
    for i in (first - 1, first, first + 1, second, second + 1):
        step = (crossing - 8.0) / (i - 0.5)
        counters: dict = {}
        got = lcd._scan_ray(u, P, 20.0, step, counters)
        assert got == scan_ray_per_tick(u, P, 20.0, step)
        assert got[2] == 8.0 + (i - 1) * step
        assert counters["ticks"] == next(e for e in scan_edges(u, 3) if e >= i)


def test_scan_ray_hit_on_clipped_last_tick():
    # ticks 8.3, 8.6, 8.9, 9.2 are clean; the last one is clipped to 9.3
    got = lcd._scan_ray(ones_unit(100), P, 9.3, 0.3)
    assert got == scan_ray_per_tick(ones_unit(100), P, 9.3, 0.3)
    assert got[2] == 8.0 + 4 * 0.3
    assert got[1] <= 9.3


def test_scan_ray_no_hit():
    assert lcd._scan_ray(ones_unit(100), P, 9.0, 1e-4) is None
    assert scan_ray_per_tick(ones_unit(100), P, 9.0, 1e-4) is None


def test_scan_ray_single_coordinate_and_zero_vector():
    for c in (0.37, 0.1, 1.3):
        u = np.array([c])
        assert lcd._scan_ray(u, P, 200.0, 0.003) == scan_ray_per_tick(u, P, 200.0, 0.003)
    assert lcd._scan_ray(np.zeros(5), P, 20.0, 0.01) is None


@pytest.mark.parametrize("n", [1, 7, 64, 100, 333])
@pytest.mark.parametrize("step", [0.5, 0.01, 7e-4])
def test_scan_ray_matches_per_tick_over_blocks(n, step):
    # off-lattice directions scanned over several blocks of ticks
    u = np.random.default_rng(n).normal(size=n)
    u *= 1.5 / np.linalg.norm(u)
    assert lcd._scan_ray(u, P, 12.0, step) == scan_ray_per_tick(u, P, 12.0, step)


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.05),
    st.floats(0.2, 3.0),
    st.floats(0.5, 4.0),
    st.floats(0.05, 1.0),
    st.floats(1.01, 6.0),
    st.integers(1, 3000),
    st.floats(0.0, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_scan_ray_matches_per_tick_reference(
    entries, seed, jitter, scale, L, alpha, bound_factor, ticks, clip
):
    # near-lattice directions hit at assorted ticks, exactly at the cutoff,
    # or never; clip < 1 leaves the last tick short of the bound
    u = np.array(entries, dtype=np.float64)
    u += jitter * np.random.default_rng(seed).normal(size=u.size)
    norm = float(np.linalg.norm(u))
    if norm > 0:
        u *= scale / norm
    params = lcd.LCDParams(L, alpha)
    start = L / (alpha * scale)
    bound = start * bound_factor
    step = (bound - start) / (ticks - clip)
    assert lcd._scan_ray(u, params, bound, step) == scan_ray_per_tick(u, params, bound, step)


# --- the two-stage screen ------------------------------------------------------

PREFIX = lcd._SCAN_PREFIX


def scan_counts(u, params, bound, step):
    counters: dict = {}
    got = lcd._scan_ray(u, params, bound, step, counters)
    assert got == scan_ray_per_tick(u, params, bound, step)
    return got, counters


def test_scan_ray_zero_prefix_passes_every_tick_to_the_full_sum():
    # t * 0 is on the lattice for every tick, so only the full sum can reject
    u = np.random.default_rng(3).normal(size=100)
    u[:PREFIX] = 0.0
    u *= 1.5 / np.linalg.norm(u)
    got, c = scan_counts(u, P, 12.0, 1e-3)
    assert got is None
    assert c["prefix_survivors"] == c["ticks"] > 0
    assert c["candidates"] == c["confirmed"] == 0


def test_scan_ray_integer_prefix_on_integer_ticks():
    # integer prefix coordinates on ticks start + i with start = 5: the
    # prefix sum is (all but) zero on every tick and the tail decides
    tail = np.random.default_rng(8).normal(size=40)
    head = np.array([1.0, -2.0, 0.0, 3.0] * (PREFIX // 4))
    u = np.concatenate([head, 0.1 * tail])
    params = lcd.LCDParams(0.01 * 5.0 * float(np.linalg.norm(u)), 0.01)
    assert params.L / (params.alpha * float(np.linalg.norm(u))) == pytest.approx(5.0)
    _, c = scan_counts(u, params, 60.0, 1.0)
    assert c["prefix_survivors"] == c["ticks"] == 55
    assert c["candidates"] < c["ticks"]


def test_scan_ray_hit_decided_past_the_prefix():
    # a zero prefix and an all-ones tail: the tail alone places the hit, and
    # it is the all-ones crossing of the tail scaled back to unit norm
    u = np.zeros(PREFIX + 100)
    u[PREFIX:] = ones_unit(100)
    got, c = scan_counts(u, P, 20.0, 1e-3)
    assert got is not None and 9.2 < got[1] < 9.3
    assert c["confirmed"] == 1
    assert c["prefix_survivors"] == c["ticks"]


def test_scan_ray_prefix_hits_vetoed_by_the_tail():
    # the prefix alone is an all-ones direction that hits right past the
    # cutoff; the tail keeps every full sum above the cut
    u = np.zeros(PREFIX + 100)
    u[:PREFIX] = 1.0
    u[PREFIX:] = ones_unit(100)
    u /= np.linalg.norm(u)
    head, _ = scan_counts(ones_unit(PREFIX), P, 20.0, 1e-3)
    got, c = scan_counts(u, P, 20.0, 1e-3)
    assert head is not None and head[2] == 8.0
    assert got is None
    assert c["prefix_survivors"] > c["candidates"] == 0


def test_scan_ray_hit_at_survivor_batch_edges():
    # with a zero prefix every tick survives the first stage, and the second
    # block's survivors get their full sums a full-width batch at a time: hits
    # on the last tick of a batch, on the first of the next, and on the last
    # tick of the block and the first of the next block
    u = np.zeros(PREFIX + 100)
    u[PREFIX:] = ones_unit(100)
    first, second = scan_edges(u, 2)
    crossing = 9.2406139637
    for i in (2 * first, 2 * first + 1, 3 * first + 1, second, second + 1):
        step = (crossing - 8.0) / (i - 0.5)
        got, _ = scan_counts(u, P, 20.0, step)
        assert got[2] == 8.0 + (i - 1) * step


@pytest.mark.parametrize("size", [PREFIX - 1, PREFIX, PREFIX + 1])
@pytest.mark.parametrize("seed", range(4))
def test_scan_ray_sizes_around_the_prefix(size, seed):
    # off-lattice and near-lattice directions one below, at and one above the
    # prefix width; at or below it the first stage is already the full sum
    rng = np.random.default_rng(seed)
    for u in (rng.normal(size=size), rng.integers(-2, 3, size=size) + 0.02 * rng.normal(size=size)):
        u *= 1.5 / np.linalg.norm(u)
        _, c = scan_counts(u, P, 30.0, 3e-3)
        if size <= PREFIX:
            assert c["candidates"] == c["prefix_survivors"]


def _slack_free_block_rejects(u, t, params, u_norm):
    # the first stage's comparison for one tick, without _SCREEN_SLACK
    y = np.array([t])[:, None] * u[:PREFIX]
    y -= np.rint(y)
    d2 = np.einsum("ij,ij->i", y, y)
    cut = params.L**2 * np.log(np.maximum(params.alpha * np.array([t]) * u_norm / params.L, 1.0))
    return not d2[0] < cut[0]


def _knife_edge_L(u, t, alpha):
    """An L at which the scalar test at tick t holds by the last bits, while
    the slack-free block comparison rejects the tick; None if no such L is
    within 400 ulps of the crossing."""
    u_norm = float(np.linalg.norm(u))
    d2 = lcd.dist_to_lattice(t * u) ** 2
    c = alpha * t * u_norm
    lo, hi = 1e-9 * c, c / math.sqrt(math.e)  # L^2 log(c / L) increases on (0, hi)
    if hi * hi / 2 <= d2:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * mid * math.log(c / mid) < d2 else (lo, mid)
    L = lo
    for _ in range(400):
        L = float(np.nextafter(L, math.inf))
        params = lcd.LCDParams(L, alpha)
        if lcd._ray_condition(u, t, params, u_norm) and _slack_free_block_rejects(
            u, t, params, u_norm
        ):
            return L
    return None


@pytest.mark.parametrize("size", [PREFIX, 100])
def test_scan_ray_slack_keeps_last_bit_hits(size):
    # ticks the scalar test accepts by the last bits, which a screen compared
    # without slack would drop; past the prefix u is zero, so both stages see
    # the same sum
    t, alpha, found = 40.0, 0.25, 0
    for seed in range(50):
        u = np.zeros(size)
        u[:PREFIX] = np.random.default_rng(seed).normal(size=PREFIX)
        u /= np.linalg.norm(u)
        L = _knife_edge_L(u, t, alpha)
        if L is None:
            continue
        params = lcd.LCDParams(L, alpha)
        start = L / (alpha * float(np.linalg.norm(u)))
        got, c = scan_counts(u, params, t, 1.5 * (t - start))  # one tick, clipped to t
        assert c["ticks"] == 1 and got is not None and got[2] == start
        found += 1
    assert found >= 3


def test_scan_counters_add_up_over_calls():
    u = ones_unit(100)
    one, two = {}, {"ticks": 5}
    lcd._scan_ray(u, P, 20.0, 1e-3, one)
    lcd._scan_ray(u, P, 20.0, 1e-3, two)
    assert set(one) == {"ticks", "prefix_survivors", "candidates", "confirmed", "refine_steps"}
    assert two == {**one, "ticks": one["ticks"] + 5}
    assert one["confirmed"] == 1
    # golden-section probes shrink the grid step 1e-3 to 1e-10 by factors in [1/phi, 1/phi^2]
    assert 17 <= one["refine_steps"] <= 34
    assert one["ticks"] >= one["prefix_survivors"] >= one["candidates"] >= one["confirmed"]
    empty: dict = {}
    assert lcd._scan_ray(np.zeros(5), P, 20.0, 0.01, empty) is None
    assert empty == dict.fromkeys(one, 0)
    via_vector: dict = {}
    lcd.lcd_vector(u, P, 20.0, 1e-3, counters=via_vector)
    assert via_vector == one


# --- the reused block buffers ---------------------------------------------------

WIDE = lcd._SCAN_BLOCK_FLOATS + 1  # survivor batches wider than the buffers


def _buffer_cases():
    """Scans of assorted widths: off-lattice, near-lattice, and a zero prefix
    followed by an all-ones stretch of at most 100 coordinates, which passes
    every tick to survivor batches longer than one full block and hits."""
    cases = []
    for width in (1, 15, 16, 17, 100, 327, WIDE):
        rng = np.random.default_rng(width)
        step = 2e-3 if width < WIDE else 0.1
        u = rng.normal(size=width)
        cases.append((1.5 * u / np.linalg.norm(u), P, 12.0, step))
        u = rng.integers(-2, 3, size=width) + 0.02 * rng.normal(size=width)
        cases.append((1.5 * u / np.linalg.norm(u), P, 12.0, step))
        if width > PREFIX:
            tail = min(width - PREFIX, 100)
            u = np.zeros(width)
            u[PREFIX : PREFIX + tail] = ones_unit(tail)
            cases.append((u, P, 12.0, step))
    return cases


def test_scan_ray_interleaved_widths_match_per_tick_in_either_order():
    # each call must overwrite every buffer entry it reads, so neither the
    # result nor the counters may depend on the scans that ran before it
    cases = _buffer_cases()
    expected = [scan_ray_per_tick(*case) for case in cases]
    assert sum(e is not None for e in expected) >= 10
    seen = {}
    for order in (range(len(cases)), reversed(range(len(cases)))):
        for k in order:
            counters: dict = {}
            assert lcd._scan_ray(*cases[k], counters) == expected[k]
            assert seen.setdefault(k, counters) == counters


@pytest.mark.parametrize("zero_prefix", [False, True])
def test_scan_ray_ignores_poisoned_buffers(zero_prefix):
    # hits on the last tick of the first block and of survivor batches, the
    # rows a short write into the buffers would leave stale
    u = ones_unit(100)
    if zero_prefix:
        u = np.zeros(PREFIX + 100)
        u[PREFIX:] = ones_unit(100)
    first = scan_edges(u, 1)[0]
    crossing = 9.2406139637
    for i in (first, 2 * first, 3 * first):
        step = (crossing - 8.0) / (i - 0.5)
        lcd._SCAN_BUF.fill(np.nan)
        lcd._SCAN_RINT.fill(np.nan)
        got = lcd._scan_ray(u, P, 20.0, step)
        assert got == scan_ray_per_tick(u, P, 20.0, step)
        assert got[2] == 8.0 + (i - 1) * step


def test_lcd_params_validation():
    with pytest.raises(ValueError):
        lcd.LCDParams(0.0, 0.5)
    with pytest.raises(ValueError):
        lcd.LCDParams(1.0, 0.0)
    with pytest.raises(ValueError):
        lcd.LCDParams(1.0, 1.5)


def test_estimate_record_roundtrip():
    est = lcd.lcd_vector(ones_unit(100), P, 20.0)
    rec = est.to_record()
    assert set(rec) == {"upper", "lower", "witness", "grid_step", "lower_heuristic"}
    assert rec["upper"] == est.upper
    assert rec["witness"] == [float(t) for t in est.witness_theta]


def test_estimate_invariants_enforced():
    with pytest.raises(ValueError):
        lcd.LCDEstimate(upper=1.0, lower=2.0, witness_theta=np.array([1.0]), grid_step=0.1)
    with pytest.raises(ValueError):
        lcd.LCDEstimate(upper=math.inf, lower=2.0, witness_theta=np.array([1.0]), grid_step=0.1)
