import itertools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ranklab import experiments
from ranklab.bounds import RegimeParams
from ranklab.experiments import (
    DeficiencyHistogram,
    QGTConfig,
    RankTrialConfig,
    _kernel_basis,
    centered_integer_dist,
    concentration_audit,
    decay_shape_fit,
    estimate_deficiency,
    exhaustive_deficiency,
    probe_kernel_of,
    qgt_adversarial,
    qgt_min_rank,
    kernel_structure_probe,
    wilson_interval,
)
from ranklab.matrix_core import (
    DistributionSpec,
    RngStream,
    bernoulli,
    centered_bernoulli,
    exact_rank,
    parse_distribution,
    rademacher,
    sample_array,
    uniform_int,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


# --- wilson intervals ---------------------------------------------------------


def test_wilson_frozen_values():
    lo, hi = wilson_interval(8, 16)
    assert lo == pytest.approx(0.27999563610326017, rel=1e-12)
    assert hi == pytest.approx(0.7200043638967398, rel=1e-12)


def test_wilson_boundary_counts_pin_to_unit_interval():
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    lo, hi = wilson_interval(1, 100)
    assert 0.0 < lo < 0.01 < hi < 0.06


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# --- exhaustive oracle ----------------------------------------------------------


def test_exhaustive_rademacher_n2():
    ex = exhaustive_deficiency(rademacher(), 2)
    assert ex.probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert ex.prob_at_least(1) == Fraction(1, 2)


def test_exhaustive_bernoulli_half_singularity():
    assert exhaustive_deficiency(bernoulli(0.5), 2).prob_at_least(1) == Fraction(5, 8)
    assert exhaustive_deficiency(bernoulli(0.5), 1).probs[1] == Fraction(1, 2)


def test_exhaustive_weighted_atoms_sum_to_one():
    ex = exhaustive_deficiency(bernoulli(0.25), 2)
    assert sum(ex.probs.values()) == Fraction(1)
    # singular 2x2 over {0,1}: det ad-bc = 0; P(entry=1) = 1/4
    # P(ad = bc) = P(ad=0, bc=0) + P(ad=1, bc=1) = (15/16)^2 + (1/16)^2
    assert ex.prob_at_least(1) == Fraction(15 * 15 + 1, 256)


@pytest.mark.parametrize(
    "name,dist,n",
    [
        ("rademacher_n3", rademacher(), 3),
        ("rademacher_n4", rademacher(), 4),
        ("bernoulli_half_n3", bernoulli(0.5), 3),
    ],
)
def test_exhaustive_matches_golden_files(name, dist, n):
    with open(GOLDEN / f"{name}_deficiency.json") as fh:
        frozen = json.load(fh)
    assert exhaustive_deficiency(dist, n).to_record() == frozen


def test_exhaustive_rejects_out_of_scope():
    with pytest.raises(ValueError, match="capped"):
        exhaustive_deficiency(rademacher(), 5)
    with pytest.raises(ValueError, match="integrality"):
        exhaustive_deficiency(centered_bernoulli(0.25), 2)


def _brute_force_law(atoms, n):
    """Deficiency law of n x n matrices with i.i.d. entries from (value,
    Fraction probability) atoms, one state at a time."""
    merged: dict[int, Fraction] = {}
    for v, p in atoms:
        merged[v] = merged.get(v, Fraction(0)) + p
    law: dict[int, Fraction] = {}
    for entries in itertools.product(sorted(merged), repeat=n * n):
        d = n - exact_rank(np.reshape(entries, (n, n)))
        law[d] = law.get(d, Fraction(0)) + math.prod(merged[v] for v in entries)
    return law


@st.composite
def sixteenth_atoms(draw):
    # 2-3 atoms, values may repeat, probabilities in sixteenths summing to 1
    size = draw(st.integers(2, 3))
    values = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=size - 1, max_size=size - 1)))
    sixteenths = [b - a for a, b in zip([0] + cuts, cuts + [16])]
    assume(len({v for v, s in zip(values, sixteenths) if s > 0}) >= 2)
    return [(v, Fraction(s, 16)) for v, s in zip(values, sixteenths)]


@given(sixteenth_atoms(), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_exhaustive_matches_brute_force(atoms, n):
    dist = DistributionSpec([(float(v), float(p)) for v, p in atoms])
    assert exhaustive_deficiency(dist, n).probs == _brute_force_law(atoms, n)


def test_exhaustive_weighted_three_atoms_n3():
    atoms = [(-1, Fraction(3, 16)), (0, Fraction(9, 16)), (2, Fraction(4, 16))]
    dist = parse_distribution("atoms:-1:0.1875,0:0.5625,2:0.25")
    ex = exhaustive_deficiency(dist, 3)
    assert ex.states == 3**9
    assert ex.probs == _brute_force_law(atoms, 3)
    assert sum(ex.probs.values()) == 1


def test_exhaustive_atoms_chosen_against_fixed_primes():
    # 2147483638^2 - 9^2 = (2^31 - 1)(2^31 - 19): ranks modulo exactly those
    # two primes agree that some nonsingular 2 x 2 matrices are singular
    values = (9, 2147483638)
    dist = parse_distribution("atoms:2147483638:0.5,9:0.5")
    want = Fraction(
        sum(exact_rank(np.reshape(m, (2, 2))) < 2 for m in itertools.product(values, repeat=4)),
        16,
    )
    assert want == Fraction(6, 16)
    assert exhaustive_deficiency(dist, 2).prob_at_least(1) == want


def test_exhaustive_atoms_chosen_against_drawn_primes():
    # the atoms are (p1 + p2)/2 and (p1 - p2)/2 for the pair exhaustive
    # enumeration draws, (1687314397, 1114966231), so [[a, b], [b, a]] has
    # det p1*p2 and both modular ranks agree on 1
    values = (1401140314, 286174083)
    dist = parse_distribution("atoms:1401140314:0.5,286174083:0.5")
    want = Fraction(
        sum(exact_rank(np.reshape(m, (2, 2))) < 2 for m in itertools.product(values, repeat=4)),
        16,
    )
    assert want == Fraction(3, 8)
    assert exhaustive_deficiency(dist, 2).prob_at_least(1) == want


# --- monte carlo estimator -------------------------------------------------------


def test_enumerate_all_equals_exhaustive_oracle():
    for dist, n in [(rademacher(), 2), (rademacher(), 3), (bernoulli(0.5), 2), (bernoulli(0.5), 3)]:
        states = len(dist.merged_atoms()) ** (n * n)
        cfg = RankTrialConfig(
            dist=dist, n=n, k_max=n, trials=states, master_seed=0, enumerate_all=True
        )
        hist = estimate_deficiency(cfg)
        truth = exhaustive_deficiency(dist, n)
        for d, p in truth.probs.items():
            assert Fraction(hist.counts.get(d, 0), states) == p


def test_enumerate_all_bernoulli_spec_value():
    cfg = RankTrialConfig(
        dist=bernoulli(0.5), n=2, k_max=2, trials=16, master_seed=0, enumerate_all=True
    )
    assert estimate_deficiency(cfg).p_hat(1) == 0.625


def test_sign_matrix_never_hits_zero_rank():
    cfg = RankTrialConfig(
        dist=rademacher(), n=2, k_max=2, trials=16, master_seed=0, enumerate_all=True
    )
    assert estimate_deficiency(cfg).successes(2) == 0


def test_enumerate_all_guards():
    with pytest.raises(ValueError, match="trials"):
        RankTrialConfig(dist=rademacher(), n=2, k_max=1, trials=10, master_seed=0, enumerate_all=True)
    with pytest.raises(ValueError, match="uniform"):
        RankTrialConfig(
            dist=bernoulli(0.25), n=2, k_max=1, trials=16, master_seed=0, enumerate_all=True
        )


def test_enumerate_all_shares_the_exhaustive_cap():
    with pytest.raises(ValueError, match="capped"):
        RankTrialConfig(
            dist=rademacher(), n=5, k_max=1, trials=2**25, master_seed=0, enumerate_all=True
        )
    with pytest.raises(ValueError, match="budget"):
        RankTrialConfig(
            dist=uniform_int(2), n=4, k_max=1, trials=5**16, master_seed=0, enumerate_all=True
        )


def test_estimator_reproducible_and_monotone():
    cfg = RankTrialConfig(dist=uniform_int(1), n=3, k_max=3, trials=3000, master_seed=404)
    h1 = estimate_deficiency(cfg)
    h2 = estimate_deficiency(cfg)
    assert h1.counts == h2.counts
    assert sum(h1.counts.values()) == 3000
    for k in range(1, 4):
        assert h1.successes(k) >= h1.successes(k + 1) if k < 3 else True
    other = estimate_deficiency(
        RankTrialConfig(dist=uniform_int(1), n=3, k_max=3, trials=3000, master_seed=405)
    )
    assert other.counts != h1.counts


def test_estimator_tracks_exhaustive_truth():
    cfg = RankTrialConfig(dist=rademacher(), n=3, k_max=2, trials=8192, master_seed=77)
    hist = estimate_deficiency(cfg)
    lo, hi = hist.wilson(1)
    assert lo < 0.625 < hi  # exhaustive singular probability at n=3


def test_wilson_coverage_against_exhaustive_truth():
    # 95% intervals over repeated seeded runs should cover the exact value
    # nearly always; 93/100 leaves slack for the finite-sample miss rate
    covered = 0
    for seed in range(1000, 1100):
        cfg = RankTrialConfig(dist=rademacher(), n=2, k_max=1, trials=512, master_seed=seed)
        lo, hi = estimate_deficiency(cfg).wilson(1)
        covered += lo <= 0.5 <= hi
    assert covered >= 93


def test_centering_bernoulli_gives_sign_matrix_law():
    assert centered_integer_dist(bernoulli(0.5)).atoms == rademacher().atoms
    assert centered_integer_dist(uniform_int(1)).atoms == uniform_int(1).atoms
    with pytest.raises(ValueError, match="integrality"):
        centered_integer_dist(centered_bernoulli(0.25))
    seeds = dict(n=2, k_max=2, trials=2048, master_seed=12)
    centered = estimate_deficiency(
        RankTrialConfig(dist=bernoulli(0.5), center_entries=True, **seeds)
    )
    signs = estimate_deficiency(RankTrialConfig(dist=rademacher(), **seeds))
    assert centered.counts == signs.counts


@pytest.mark.parametrize(
    "dist,n,trials,float_path",
    [
        (rademacher(), 10, 2100, True),
        # the shift bound puts 0/1 at n = 16 on the float path (log H = 12.99)
        (bernoulli(0.5), 16, 300, True),
        # no bound gets +-100 at n = 6 under 26 ln 2
        (DistributionSpec([(-100.0, 0.5), (100.0, 0.5)]), 6, 300, False),
    ],
)
def test_estimator_counts_float_path(dist, n, trials, float_path):
    cfg = RankTrialConfig(dist=dist, n=n, k_max=2, trials=trials, master_seed=3)
    counters: dict = {}
    estimate_deficiency(cfg, counters)
    assert counters.get("float_bareiss", 0) == (trials if float_path else 0)


def test_histogram_validation():
    with pytest.raises(ValueError, match="sum"):
        DeficiencyHistogram(n=2, trials=10, counts={0: 4, 1: 4})
    with pytest.raises(ValueError, match="keys"):
        DeficiencyHistogram(n=2, trials=10, counts={0: 6, 3: 4})


# --- decay fit -------------------------------------------------------------------


def _hist(n, counts):
    return DeficiencyHistogram(n=n, trials=sum(counts.values()), counts=counts)


def test_decay_fit_recovers_exact_exponential():
    # p_hat(k) = 4^-k on n=5: -log p = (log4/5) * (k n) exactly
    hist = _hist(5, {0: 48, 1: 12, 2: 3, 3: 1})
    rep = decay_shape_fit(hist, k_max=3)
    assert rep.slope == pytest.approx(math.log(4.0) / 5.0, rel=1e-12)
    assert rep.intercept == pytest.approx(0.0, abs=1e-12)
    assert max(abs(r) for r in rep.residuals) < 1e-12
    assert rep.ratio == pytest.approx(2.0, rel=1e-12)
    assert rep.ratio_in_window is True
    assert rep.zero_count_ks == ()


def test_decay_fit_flags_empty_levels_and_needs_two():
    hist = _hist(3, {0: 8, 1: 4, 2: 4})
    rep = decay_shape_fit(hist, k_max=3)
    assert rep.zero_count_ks == (3,)
    assert rep.ks == (1, 2)
    with pytest.raises(ValueError, match="insufficient"):
        decay_shape_fit(_hist(2, {0: 3, 1: 1}), k_max=2)


def test_decay_fit_rejects_flat_tail():
    with pytest.raises(ValueError, match="not positive"):
        decay_shape_fit(_hist(3, {0: 8, 2: 8}), k_max=2)


# --- concentration audit ----------------------------------------------------------


def test_concentration_sign_matrices_never_trip_hs():
    rep = concentration_audit(rademacher(), 10, 3000, RngStream(42, 0))
    assert rep.hs_count == 0
    assert rep.K == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-9)
    assert rep.hs_threshold == pytest.approx(2 * rep.K * 10)


def test_concentration_op_events_nested_in_C():
    rep = concentration_audit(bernoulli(0.5), 8, 2000, RngStream(5, 0))
    assert rep.op_counts[1.0] >= rep.op_counts[2.0] >= rep.op_counts[3.0]
    assert rep.op_counts[3.0] == 0  # centered +-1/2 entries: top sv ~ sqrt(n)
    assert rep.hs_count == 0


def test_concentration_deterministic():
    a = concentration_audit(uniform_int(2), 6, 1500, RngStream(9, 1))
    b = concentration_audit(uniform_int(2), 6, 1500, RngStream(9, 1))
    assert a.to_record() == b.to_record()


# --- group testing -----------------------------------------------------------------


def test_qgt_single_submatrix_is_plain_rank():
    cfg = QGTConfig(m=3, n=3, q=0.5, k_probe=1, sample_submatrices=1, exhaustive=True)
    rep = qgt_min_rank(cfg, RngStream(1, 0), matrix=np.eye(3, dtype=np.int64))
    assert rep.sets_checked == 1
    assert rep.min_rank == 3 and rep.max_deficiency == 0


def test_qgt_detects_planted_duplicate_column():
    cfg = QGTConfig(m=4, n=6, q=0.5, k_probe=1, sample_submatrices=1, exhaustive=True)
    a = np.random.default_rng(3).integers(0, 2, size=(4, 6))
    a[:, 3] = a[:, 0]
    rep = qgt_min_rank(cfg, RngStream(1, 0), matrix=a)
    assert rep.sets_checked == 15
    assert rep.max_deficiency >= 1
    assert 0 <= rep.min_rank <= 4


def test_qgt_sampled_run_reproducible_within_threshold():
    cfg = QGTConfig(m=6, n=40, q=0.5, k_probe=2, sample_submatrices=300)
    a = qgt_min_rank(cfg, RngStream(9, 0))
    b = qgt_min_rank(cfg, RngStream(9, 0))
    assert a.to_record() == b.to_record()
    assert 0 <= a.max_deficiency <= 6
    assert a.threshold == pytest.approx(4.0 * math.log(40))
    assert a.within_threshold


def test_qgt_config_guards():
    with pytest.raises(ValueError, match="budget"):
        QGTConfig(m=15, n=60, q=0.5, k_probe=1, sample_submatrices=1, exhaustive=True)
    with pytest.raises(ValueError):
        QGTConfig(m=5, n=4, q=0.5, k_probe=1, sample_submatrices=1)
    with pytest.raises(ValueError):
        QGTConfig(m=4, n=8, q=0.5, k_probe=4, sample_submatrices=1)


def test_adversarial_all_ones_rows_deterministic():
    rows = [[1] * 8, [1] * 8, [1] * 8, [1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]
    rep = qgt_adversarial(rows, k=3)
    assert rep.size_J == 8 and rep.has_m_columns
    assert rep.rank == 3 and rep.deficiency == 2  # exactly k - 1 here


def test_adversarial_sizing_regime_keeps_J_large():
    gen = np.random.default_rng(5)
    hits = 0
    for _ in range(60):
        a = (gen.random((10, 4000)) < 0.5).astype(np.int64)
        rep = qgt_adversarial(a, k=5, q=0.5)
        if rep.has_m_columns:
            hits += 1
            assert rep.deficiency >= 4  # k - 1 identical-row collapse
    assert rep.expected_J == pytest.approx(125.0)
    assert rep.sizing_ok is True
    assert hits >= 54  # Bin(4000, 1/32) below 10 is vanishingly rare


def test_adversarial_starved_regime_reports_small_J():
    a = np.zeros((7, 8), dtype=np.int64)
    a[:6, 0] = 1
    rep = qgt_adversarial(a, k=6, q=0.5)
    assert rep.size_J == 1 and not rep.has_m_columns
    assert rep.rank is None and rep.deficiency is None
    assert rep.sizing_ok is False
    with pytest.raises(ValueError):
        qgt_adversarial(a, k=7)


def test_adversarial_rank_is_exact_for_prime_product_entries():
    # det = (2^31 - 1)(2^31 - 19) is nonzero but vanishes modulo both primes,
    # so a rank check modulo that pair would report deficiency 1
    rep = qgt_adversarial([[1, 1], [0, (2**31 - 1) * (2**31 - 19)]], k=1)
    assert rep.rank == 2 and rep.deficiency == 0


# --- kernel probe --------------------------------------------------------------------


def _check_kernel_basis(b, rank):
    basis = _kernel_basis(b)
    n = b.shape[1]
    assert basis.shape == (n - rank, n)
    np.testing.assert_allclose(basis @ basis.T, np.eye(n - rank), atol=1e-10)
    assert np.linalg.norm(b @ basis.T) <= 1e-10
    return basis


def _row_sum_planted(n):
    b = np.random.default_rng(n).integers(-2, 3, size=(n - 2, n)).astype(np.float64)
    b[-1] = b[0] + b[1]
    return b


@pytest.mark.parametrize(
    "b,rank",
    [
        (_row_sum_planted(12), 9),  # a row that is the sum of two others
        (np.zeros((4, 7)), 0),
        (np.zeros((1, 7)), 0),
        (np.arange(1.0, 8.0)[None, :], 1),  # 1 x n, full row rank
        (np.eye(6), 6),  # square and invertible: no kernel
    ],
)
def test_kernel_basis_edge_inputs(b, rank):
    # the rank-deficient ones need the SVD branch: a QR of b^T would return
    # n - m rows, fewer than the kernel's n - rank
    assert exact_rank(b.astype(np.int64)) == rank
    _check_kernel_basis(b, rank)


@st.composite
def kernel_matrices(draw, noise=False):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, n - 1))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    b = np.array(rows, dtype=np.float64 if noise else np.int64)
    # sometimes replace rows by sums of earlier ones, planting dependent rows;
    # with noise, the planted rows are only nearly dependent
    for _ in range(draw(st.integers(0, 3)) if m > 1 else 0):
        i = draw(st.integers(1, m - 1))
        b[i] = b[draw(st.integers(0, i - 1))] + b[draw(st.integers(0, i - 1))]
        if noise:
            b[i] += 1e-13 * np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    return b


@given(kernel_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_spans_the_svd_kernel(b):
    bf = b.astype(np.float64)
    rank = exact_rank(b)
    basis = _check_kernel_basis(bf, rank)
    ref = np.linalg.svd(bf)[2][rank:]
    np.testing.assert_allclose(basis.T @ basis, ref.T @ ref, atol=1e-10)


@given(kernel_matrices(noise=True))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_rank_is_the_svd_rank_on_nearly_dependent_rows(b):
    # 1e-13 off a planted sum puts singular values on both sides of the
    # cutoff; the inverse's certificate must never claim a rank the SVD denies
    s = np.linalg.svd(b)[1]
    rank = int(np.count_nonzero(s > s[0] * max(b.shape) * np.finfo(np.float64).eps))
    _check_kernel_basis(b, rank)


def _leading_block_case(delta, m=5, n=8):
    # B1 = diag(1, ..., 1, delta) and B2 = 0: sigma_min(b) = delta, s[0] = 1
    b = np.zeros((m, n))
    b[np.arange(m), np.arange(m)] = 1.0
    b[-1, m - 1] = delta
    return b


_CUT = 8 * np.finfo(np.float64).eps  # s[0] * max(m, n) * eps of _leading_block_case


def _ill_conditioned_leading_block(sigma):
    # b is well conditioned and B1 has sigma_min = sigma, so the columns of
    # [-B1^-1 B2; I] miss the kernel by about eps / sigma before the
    # correction step
    g = np.random.default_rng(3)
    u = np.linalg.qr(g.standard_normal((30, 30)))[0]
    v = np.linalg.qr(g.standard_normal((30, 30)))[0]
    s = np.linspace(1.0, 3.0, 30)
    s[-1] = sigma
    return np.hstack(((u * s) @ v.T, g.standard_normal((30, 2))))


def _zero_first_column():
    b = np.random.default_rng(5).integers(-2, 3, size=(6, 9)).astype(np.float64)
    b[:, 0] = 0.0
    return b


@pytest.mark.parametrize(
    "b,rank,svd",
    [
        (np.random.default_rng(1).integers(0, 3, size=(98, 100)).astype(np.float64), 98, 0),
        (_ill_conditioned_leading_block(1e-8), 30, 0),
        # certified, but the corrected basis still misses the residual bound
        (_ill_conditioned_leading_block(1e-11), 30, 1),
        (_zero_first_column(), 6, 1),  # B1 singular, b of full row rank
        (_leading_block_case(4 * _CUT), 5, 1),  # above the cutoff, inside the margin
        (_leading_block_case(_CUT / 2), 4, 1),  # below the cutoff
        (np.random.default_rng(2).integers(-2, 3, size=(7, 7)).astype(np.float64), 7, 1),
        (np.random.default_rng(4).integers(-2, 3, size=(9, 4)).astype(np.float64), 4, 1),
    ],
    ids=["generic", "ill-conditioned-B1", "near-singular-B1", "singular-B1", "inside-margin",
         "below-cutoff", "square", "tall"],
)
def test_kernel_basis_takes_the_svd_only_without_a_certificate(b, rank, svd):
    counters: dict = {}
    basis = _kernel_basis(b, counters)
    assert counters == {"basis_svd": svd}
    np.testing.assert_allclose(basis @ basis.T, np.eye(b.shape[1] - rank), atol=1e-10)
    assert np.linalg.norm(b @ basis.T) <= 1e-13 * np.linalg.norm(b)
    ref = np.linalg.svd(b)[2][rank:]
    np.testing.assert_allclose(basis.T @ basis, ref.T @ ref, atol=1e-10)


def test_probe_counts_planted_rank_deficient_trial(monkeypatch):
    # trial 0's last row is the sum of its first two, so its kernel has
    # dimension k + 1 and the trial is degenerate
    planted = []

    def sample(dist, shape, gen):
        arr = sample_array(dist, shape, gen)
        if not planted:
            arr[-1] = arr[0] + arr[1]
            planted.append(arr)
        return arr

    monkeypatch.setattr(experiments, "sample_array", sample)
    regime = RegimeParams(k=2, tau=0.5, rho=0.3, delta=0.1, p=0.4, n=24)
    rep = kernel_structure_probe(
        uniform_int(2), 24, 2, 4, regime, RngStream(11, 0), directions=2
    )
    assert rep.dim_counts == {3: 1, 2: 3}
    assert rep.degenerate_trials == 1
    assert rep.directions_tested == 8


def test_probe_flags_planted_all_ones_kernel():
    n = 100
    b = np.zeros((n - 1, n))
    for i in range(n - 1):
        b[i, i], b[i, i + 1] = 1.0, -1.0
    regime = RegimeParams(k=1, tau=0.9, rho=0.5, delta=0.1, p=0.9, n=n)
    dim, probes, comp, incomp = probe_kernel_of(
        b, regime, RngStream(7, 0), directions=3, C_thresh=0.025
    )
    assert dim == 1
    assert all(p.flagged for p in probes)
    # the all-ones direction realigns with the lattice at sqrt(n)
    for p in probes:
        assert p.estimate.upper == pytest.approx(math.sqrt(n), rel=0.1)


def test_probe_generic_kernels_have_expected_dimension():
    regime = RegimeParams(k=2, tau=0.5, rho=0.3, delta=0.1, p=0.4, n=24)
    rep = kernel_structure_probe(
        uniform_int(2), 24, 2, 12, regime, RngStream(11, 0), directions=3
    )
    assert rep.dim_counts == {2: 12}
    assert rep.degenerate_trials == 0
    assert rep.comp_count + rep.incomp_count == rep.directions_tested == 36
    assert rep.flag_freq == 0.0
    assert rep.threshold_log == pytest.approx(0.1 * 24 / 2)


def test_probe_flags_when_condition_region_is_generous():
    # loose L and alpha at n=30 let the sqrt-log envelope overtake the
    # lattice-distance floor well inside the scan cap, so every direction
    # legitimately shows a small LCD certificate
    regime = RegimeParams(k=2, tau=0.9, rho=0.3, delta=0.1, p=0.9, n=30)
    rep = kernel_structure_probe(
        uniform_int(2), 30, 2, 4, regime, RngStream(4, 0), directions=2, C_thresh=2.0
    )
    assert rep.flagged_trials == rep.trials
    assert rep.censored_directions == 0


def test_probe_censors_unscannable_thresholds():
    # tight alpha at n=200 keeps the condition out of reach below the 1e6
    # scan cap while the threshold exp(0.1 * 200) sits far beyond it
    gen = RngStream(21, 0).generator()
    b = gen.integers(-2, 3, size=(199, 200)).astype(np.float64)
    regime = RegimeParams(k=1, tau=0.2, rho=0.1, delta=0.05, p=1.0, n=200)
    dim, probes, _, _ = probe_kernel_of(
        b, regime, RngStream(22, 0), directions=2, C_thresh=0.1
    )
    assert dim == 1
    for p in probes:
        assert p.censored and not p.flagged
        assert p.estimate.upper == math.inf


def test_probe_reports_match_pinned_records():
    # the LCD scan can move only the flagged, censored and comp/incomp
    # counts of a report and the probe brackets, so pin them: the
    # kernel-probe benchmark shape (n = 100, k = 2, 2 trials, 4 directions,
    # the CLI's default regime) on three seeds, the configs of the probe
    # tests above, and the planted all-ones kernel's estimates
    pinned = json.loads((GOLDEN / "kernel_probe_reports.json").read_text())
    regime = RegimeParams(k=2, tau=0.5, rho=0.3, delta=0.1, p=0.5, n=100)
    for case in pinned["workload_shape"]:
        rep = kernel_structure_probe(
            uniform_int(2), 100, 2, 2, regime, RngStream(case["seed"], 0), directions=4
        )
        assert rep.to_record() == case["report"], case["seed"]
    def reg(tau, p, n):
        return RegimeParams(k=2, tau=tau, rho=0.3, delta=0.1, p=p, n=n)

    configs = {
        "generous": (uniform_int(2), 30, 2, 4, reg(0.9, 0.9, 30), RngStream(4, 0),
                     {"directions": 2, "C_thresh": 2.0}),
        "generic": (uniform_int(2), 24, 2, 12, reg(0.5, 0.4, 24), RngStream(11, 0),
                    {"directions": 3}),
        "reproducible": (uniform_int(1), 20, 2, 6, reg(0.5, 0.4, 20), RngStream(2, 3), {}),
    }
    assert set(configs) == set(pinned["test_configs"])
    for name, (dist, n, k, trials, regime, rng, kw) in configs.items():
        rep = kernel_structure_probe(dist, n, k, trials, regime, rng, **kw)
        assert rep.to_record() == pinned["test_configs"][name], name
    n = 100
    b = np.zeros((n - 1, n))
    for i in range(n - 1):
        b[i, i], b[i, i + 1] = 1.0, -1.0
    regime = RegimeParams(k=1, tau=0.9, rho=0.5, delta=0.1, p=0.9, n=n)
    _, probes, _, _ = probe_kernel_of(b, regime, RngStream(7, 0), directions=3, C_thresh=0.025)
    assert [p.estimate.to_record() for p in probes] == pinned["planted_all_ones_estimates"]


def test_probe_structural_reports():
    regime = RegimeParams(k=2, tau=0.5, rho=0.3, delta=0.1, p=0.4, n=24)
    with pytest.raises(ValueError, match="need 1 <= k < n"):
        kernel_structure_probe(uniform_int(1), 10, 0, 5, regime, RngStream(1, 0))
    with pytest.raises(ValueError, match="capped"):
        kernel_structure_probe(uniform_int(1), 201, 2, 1, regime, RngStream(1, 0))


def test_probe_reproducible():
    regime = RegimeParams(k=2, tau=0.5, rho=0.3, delta=0.1, p=0.4, n=20)
    a = kernel_structure_probe(uniform_int(1), 20, 2, 6, regime, RngStream(2, 3))
    b = kernel_structure_probe(uniform_int(1), 20, 2, 6, regime, RngStream(2, 3))
    assert a.to_record() == b.to_record()
