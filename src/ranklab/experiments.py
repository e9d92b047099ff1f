"""Empirical engine: rank-deficiency estimation, decay-shape fits, norm
concentration audits, group-testing submatrix probes, and kernel structure
probes.

Trials are independent units. Every batch draws its own derived stream
keyed by the batch index, so results are bit-identical however the batches
are scheduled, and a run is fully reproducible from (config, master_seed).
Rank computations ride the certified modular fast path with an exact
fallback; nothing here trusts floating point for a rank.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import RegimeParams, extract_params
from .geometry import SparsityParams, classify
from .lcd import LCDEstimate, LCDParams, lcd_vector
from .matrix_core import (
    DistributionSpec,
    RngStream,
    batch_exact_ranks,
    exact_rank,
    int64_atoms,
    random_prime,
    sample_array,
)

__all__ = [
    "RankTrialConfig",
    "DeficiencyHistogram",
    "QGTConfig",
    "wilson_interval",
    "estimate_deficiency",
    "exhaustive_deficiency",
    "enumeration_states",
    "ExactDeficiency",
    "centered_integer_dist",
    "decay_shape_fit",
    "DecayFitReport",
    "concentration_audit",
    "ConcentrationReport",
    "qgt_min_rank",
    "QGTReport",
    "qgt_adversarial",
    "AdversarialReport",
    "kernel_structure_probe",
    "probe_kernel_of",
    "KernelProbeReport",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_BATCH = 1024


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# --- configuration and histogram ----------------------------------------------


@dataclass(frozen=True)
class RankTrialConfig:
    """Settings for one Monte Carlo rank-deficiency run.

    center_entries subtracts the exact mean (after integer rescaling, so
    ranks stay exact). enumerate_all replaces sampling with lexicographic
    enumeration of every matrix over the support; it requires uniform atom
    probabilities, trials equal to the enumeration count and the budget of
    enumeration_states, and exists so the estimator can be checked against
    the exhaustive oracle bit for bit.
    """

    dist: DistributionSpec
    n: int
    k_max: int
    trials: int
    master_seed: int
    center_entries: bool = False
    enumerate_all: bool = False

    def __post_init__(self) -> None:
        if not (1 <= self.k_max <= self.n):
            raise ValueError("need 1 <= k_max <= n")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if not self.dist.is_integral:
            raise ValueError("integrality: rank trials need integer atoms")
        if self.enumerate_all:
            states = enumeration_states(len(self.dist.merged_atoms()), self.n)
            if self.trials != states:
                raise ValueError(f"enumerate_all needs trials == {states}")
            if not self.dist.is_uniform:
                raise ValueError("enumerate_all needs uniform atom probabilities")


@dataclass(frozen=True)
class DeficiencyHistogram:
    """Tally of deficiency d = n - rank over a run, with interval helpers."""

    n: int
    trials: int
    counts: dict[int, int]

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.trials:
            raise ValueError("counts must sum to trials")
        if any(not (0 <= d <= self.n) for d in self.counts):
            raise ValueError("deficiency keys must lie in [0, n]")

    def successes(self, k: int) -> int:
        # trials with rank <= n - k, i.e. deficiency >= k
        return sum(c for d, c in self.counts.items() if d >= k)

    def p_hat(self, k: int) -> float:
        return self.successes(k) / self.trials

    def wilson(self, k: int) -> tuple[float, float]:
        return wilson_interval(self.successes(k), self.trials)

    def rows(self, k_max: int) -> list[dict]:
        out = []
        for k in range(1, k_max + 1):
            s = self.successes(k)
            lo, hi = self.wilson(k)
            out.append(
                {
                    "n": self.n,
                    "k": k,
                    "trials": self.trials,
                    "successes": s,
                    "p_hat": self.p_hat(k),
                    "wilson_lo": lo,
                    "wilson_hi": hi,
                }
            )
        return out

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "counts": {str(d): c for d, c in sorted(self.counts.items())},
        }


def centered_integer_dist(dist: DistributionSpec) -> DistributionSpec:
    """Shift atoms to mean zero, rescaled by the mean's denominator so the
    support stays integral. Rescaling by a positive constant never changes
    a rank, so deficiency statistics are unaffected by the scale factor."""
    if not dist.is_integral:
        raise ValueError("integrality: centering keeps integer atoms only for integer input")
    mu = dist.mean_fraction()
    return DistributionSpec(
        [(float(int(v) * mu.denominator - mu.numerator), p) for v, p in dist.atoms]
    )


def _draw_primes(rng: RngStream) -> tuple[int, int]:
    # two independent 31-bit primes for the batched modular rank path
    p1 = random_prime(rng.derive(101), bits=31)
    while True:
        p2 = random_prime(rng.derive(211), bits=31)
        if p2 != p1:
            return p1, p2
        rng = rng.derive(3)


def enumeration_states(base: int, n: int) -> int:
    """Count of n x n matrices over `base` atoms, after the enumeration
    budget that every exhaustive run shares: n <= 4 and at most 2^32 states."""
    if not (1 <= n <= 4):
        raise ValueError("exhaustive enumeration capped at n = 4")
    states = base ** (n * n)
    if states > 2**32:
        raise ValueError("enumeration budget exceeded")
    return states


def _enumerated_digits(base: int, n: int, start: int, stop: int) -> np.ndarray:
    """Atom indices of matrices number start..stop-1 in lexicographic entry
    order: row i holds the n*n mixed-radix digits of matrix index start + i."""
    rem = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((len(rem), n * n), dtype=np.int64)
    for pos in range(n * n - 1, -1, -1):
        digits[:, pos] = rem % base
        rem //= base
    return digits


def estimate_deficiency(config: RankTrialConfig, counters: dict | None = None) -> DeficiencyHistogram:
    """Monte Carlo (or enumerated) deficiency histogram for square matrices.

    Ranks come from the batched two-prime modular path with exact fallback,
    so every tally is an exact rank even when the certification bound does
    not apply. Batches of fixed size use streams derived from the batch
    index, which makes the histogram independent of execution order.
    """
    dist = centered_integer_dist(config.dist) if config.center_entries else config.dist
    root = RngStream(config.master_seed, 0)
    primes = _draw_primes(root.derive(999_983))
    n = config.n
    lut = int64_atoms(v for v, _ in dist.merged_atoms())
    tallies = np.zeros(n + 1, dtype=np.int64)
    done = 0
    batch_index = 0
    while done < config.trials:
        take = min(_BATCH, config.trials - done)
        if config.enumerate_all:
            digits = _enumerated_digits(lut.size, n, done, done + take)
            mats = lut[digits].reshape(take, n, n)
        else:
            gen = root.derive(1, batch_index).generator()
            mats = sample_array(dist, (take, n, n), gen)
        ranks = batch_exact_ranks(mats, primes, counters)
        tallies += np.bincount(n - ranks, minlength=n + 1)
        done += take
        batch_index += 1
    counts = {d: int(c) for d, c in enumerate(tallies) if c > 0}
    return DeficiencyHistogram(n=n, trials=config.trials, counts=counts)


@dataclass(frozen=True)
class ExactDeficiency:
    """Exact deficiency law from full enumeration; probabilities are rational."""

    n: int
    states: int
    probs: dict[int, Fraction]

    def prob_at_least(self, k: int) -> Fraction:
        return sum((p for d, p in self.probs.items() if d >= k), Fraction(0))

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "states": self.states,
            "probs": {str(d): [p.numerator, p.denominator] for d, p in sorted(self.probs.items())},
        }


def exhaustive_deficiency(dist: DistributionSpec, n: int) -> ExactDeficiency:
    """Exact deficiency probabilities by enumerating every matrix, n <= 4.

    Atom probabilities enter as exact binary rationals, so the output
    fractions are the true law of the (float-valued) spec. A matrix's
    weight depends only on how many entries take each atom, so states are
    tallied per (deficiency, atom-count class) and each class is weighted
    once. Ranks come from batch_exact_ranks with primes drawn from a fixed
    stream. Its ranks are exact for any primes: small atoms take its
    certified paths, and large ones are settled by the second prime when
    the two primes' product exceeds the minor bound and by the exact
    fallback otherwise, so atoms chosen against the fixed pair cost time,
    never correctness.
    """
    atoms = dist.merged_atoms()
    states = enumeration_states(len(atoms), n)
    if not dist.is_integral:
        raise ValueError("integrality: enumeration needs integer atoms")
    lut = int64_atoms(v for v, _ in atoms)
    weights = [Fraction(p) for _, p in atoms]
    primes = _draw_primes(RngStream(0))

    # (deficiency, sorted digit row) -> number of states; the sorted row is
    # the state's atom-count class
    tally: Counter = Counter()
    for start in range(0, states, _BATCH):
        digits = _enumerated_digits(lut.size, n, start, min(start + _BATCH, states))
        ranks = batch_exact_ranks(lut[digits].reshape(-1, n, n), primes)
        keys = np.column_stack([n - ranks, np.sort(digits, axis=1)])
        rows, sizes = np.unique(keys, axis=0, return_counts=True)
        tally.update(dict(zip(map(tuple, rows.tolist()), sizes.tolist())))
    per_def: dict[int, Fraction] = {}
    for (d, *cls), size in tally.items():
        per_def[d] = per_def.get(d, Fraction(0)) + size * math.prod(weights[i] for i in cls)
    total = sum(per_def.values())
    probs = {d: p / total for d, p in sorted(per_def.items())}
    return ExactDeficiency(n=n, states=states, probs=probs)


# --- decay-shape fit ------------------------------------------------------------


@dataclass(frozen=True)
class DecayFitReport:
    """Least-squares read of -log p_hat against k*n across deficiency levels."""

    n: int
    ks: tuple[int, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    ratio: float | None
    ratio_window: tuple[float, float]
    ratio_in_window: bool | None
    zero_count_ks: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "ks": list(self.ks),
            "slope": self.slope,
            "intercept": self.intercept,
            "residuals": list(self.residuals),
            "ratio": self.ratio,
            "ratio_window": list(self.ratio_window),
            "ratio_in_window": self.ratio_in_window,
            "zero_count_ks": list(self.zero_count_ks),
        }


def decay_shape_fit(
    hist: DeficiencyHistogram,
    k_max: int | None = None,
    ratio_window: tuple[float, float] = (1.6, 2.6),
) -> DecayFitReport:
    """Fit -log p_hat(rank <= n-k) ~ slope * (k*n) + intercept by least squares.

    Levels with zero observed successes carry no usable log and are flagged,
    never extrapolated. At least two usable levels are required, and the
    fitted slope must come out positive (the tail must actually decay). The
    k=2 over k=1 ratio of -log p_hat is reported against the window; that
    check is informational, finite n is allowed to sit outside it.
    """
    k_max = hist.n if k_max is None else k_max
    usable, zeros = [], []
    for k in range(1, k_max + 1):
        s = hist.successes(k)
        (zeros if s == 0 else usable).append(k)
    if len(usable) < 2:
        raise ValueError("insufficient data: need at least two deficiency levels with hits")
    xs = np.array([k * hist.n for k in usable], dtype=np.float64)
    ys = np.array([-math.log(hist.p_hat(k)) for k in usable], dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    if not slope > 1e-12:
        raise ValueError(f"fitted slope {slope} is not positive; no decay to report")
    resid = ys - (slope * xs + intercept)
    ratio = None
    in_window = None
    if 1 in usable and 2 in usable:
        ratio = float(ys[usable.index(2)] / ys[usable.index(1)])
        in_window = ratio_window[0] <= ratio <= ratio_window[1]
    return DecayFitReport(
        n=hist.n,
        ks=tuple(usable),
        xs=tuple(float(x) for x in xs),
        ys=tuple(float(y) for y in ys),
        slope=float(slope),
        intercept=float(intercept),
        residuals=tuple(float(r) for r in resid),
        ratio=ratio,
        ratio_window=ratio_window,
        ratio_in_window=in_window,
        zero_count_ks=tuple(zeros),
    )


# --- concentration audit ---------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    n: int
    trials: int
    K: float
    hs_threshold: float
    hs_count: int
    op_thresholds: dict[float, float]
    op_counts: dict[float, int]

    @property
    def hs_freq(self) -> float:
        return self.hs_count / self.trials

    def op_freq(self, C: float) -> float:
        return self.op_counts[C] / self.trials

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "K": self.K,
            "hs_threshold": self.hs_threshold,
            "hs_count": self.hs_count,
            "op": {str(c): self.op_counts[c] for c in sorted(self.op_counts)},
        }


def concentration_audit(
    dist: DistributionSpec,
    n: int,
    trials: int,
    rng: RngStream,
    op_constants: tuple[float, ...] = (1.0, 2.0, 3.0),
    K: float | None = None,
) -> ConcentrationReport:
    """Count tail events for the HS norm of raw matrices and the operator
    norm of centered ones.

    The HS event is ||A||_HS >= 2*K*n with K the distribution's psi_2
    parameter; at moderate n its probability is so small that the honest
    statement is a zero count. Operator-norm events use mean-centered
    entries and thresholds C*sqrt(n) per requested C; frequencies are
    nested, larger C can only shrink the count.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    if K is None:
        K = extract_params(dist).K
    hs_threshold = 2.0 * K * n
    mean = dist.mean()
    op_counts = {float(c): 0 for c in op_constants}
    hs_count = 0
    done = 0
    batch_index = 0
    while done < trials:
        take = min(2048, trials - done)
        gen = rng.derive(7, batch_index).generator()
        mats = sample_array(dist, (take, n, n), gen).astype(np.float64)
        hs = np.sqrt(np.einsum("bij,bij->b", mats, mats))
        hs_count += int(np.count_nonzero(hs >= hs_threshold))
        centered = mats - mean
        top = np.linalg.svd(centered, compute_uv=False)[:, 0]
        for c in op_counts:
            op_counts[c] += int(np.count_nonzero(top >= c * math.sqrt(n)))
        done += take
        batch_index += 1
    return ConcentrationReport(
        n=n,
        trials=trials,
        K=float(K),
        hs_threshold=hs_threshold,
        hs_count=hs_count,
        op_thresholds={c: c * math.sqrt(n) for c in op_counts},
        op_counts=op_counts,
    )


# --- group-testing submatrix probes ----------------------------------------------


@dataclass(frozen=True)
class QGTConfig:
    """Submatrix rank audit settings: m tests, n items, Bernoulli(q) design."""

    m: int
    n: int
    q: float
    k_probe: int
    sample_submatrices: int
    exhaustive: bool = False

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")
        if not (0.0 < self.q < 1.0):
            raise ValueError("need 0 < q < 1")
        if not (0 <= self.k_probe < self.m):
            raise ValueError("need 0 <= k_probe < m")
        if self.sample_submatrices < 1 and not self.exhaustive:
            raise ValueError("need at least one sampled column set")
        if self.exhaustive and math.comb(self.n, self.m) > 10**6:
            raise ValueError("exhaustive column enumeration over budget")


@dataclass(frozen=True)
class QGTReport:
    m: int
    n: int
    q: float
    sets_checked: int
    exhaustive: bool
    min_rank: int
    max_deficiency: int
    threshold: float
    within_threshold: bool
    worst_columns: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "q": self.q,
            "sets_checked": self.sets_checked,
            "exhaustive": self.exhaustive,
            "min_rank": self.min_rank,
            "max_deficiency": self.max_deficiency,
            "threshold": self.threshold,
            "within_threshold": self.within_threshold,
            "worst_columns": list(self.worst_columns),
        }


def qgt_min_rank(
    config: QGTConfig,
    rng: RngStream,
    C_q: float = 4.0,
    matrix: np.ndarray | None = None,
) -> QGTReport:
    """Minimum rank over m-column submatrices of a Bernoulli(q) test matrix.

    Ranks are over the rationals. A matrix may be supplied directly (for
    planted checks); otherwise one m x n draw is made from the stream.
    Column sets are either all of them (within the enumeration budget) or
    sampled without replacement per set.
    """
    m, n = config.m, config.n
    if matrix is None:
        gen = rng.derive(17).generator()
        a = (gen.random((m, n)) < config.q).astype(np.int64)
    else:
        a = np.asarray(matrix, dtype=np.int64)
        if a.shape != (m, n):
            raise ValueError(f"matrix shape {a.shape} does not match config ({m}, {n})")
    if config.exhaustive:
        col_sets = list(itertools.combinations(range(n), m))
    else:
        gen = rng.derive(23).generator()
        col_sets = [
            tuple(int(j) for j in sorted(gen.choice(n, size=m, replace=False)))
            for _ in range(config.sample_submatrices)
        ]
    primes = _draw_primes(rng.derive(29))
    min_rank = m
    worst: tuple[int, ...] = tuple(col_sets[0])
    for start in range(0, len(col_sets), _BATCH):
        chunk = col_sets[start : start + _BATCH]
        stack = np.stack([a[:, list(cols)] for cols in chunk])
        ranks = batch_exact_ranks(stack, primes)
        i = int(np.argmin(ranks))
        if int(ranks[i]) < min_rank:
            min_rank = int(ranks[i])
            worst = chunk[i]
    deficiency = m - min_rank
    threshold = C_q * math.log(n)
    return QGTReport(
        m=m,
        n=n,
        q=config.q,
        sets_checked=len(col_sets),
        exhaustive=config.exhaustive,
        min_rank=min_rank,
        max_deficiency=deficiency,
        threshold=threshold,
        within_threshold=deficiency <= threshold,
        worst_columns=worst,
    )


@dataclass(frozen=True)
class AdversarialReport:
    m: int
    n: int
    k: int
    size_J: int
    has_m_columns: bool
    rank: int | None
    deficiency: int | None
    expected_J: float | None
    sizing_ok: bool | None

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "size_J": self.size_J,
            "has_m_columns": self.has_m_columns,
            "rank": self.rank,
            "deficiency": self.deficiency,
            "expected_J": self.expected_J,
            "sizing_ok": self.sizing_ok,
        }


def qgt_adversarial(a, k: int, q: float | None = None) -> AdversarialReport:
    """Audit the all-ones-rows construction on a 0/1 test matrix.

    J collects the columns whose first k entries are all one. Whenever J
    has at least m = rows(a) members, the m x m submatrix on any m of them
    repeats one nonzero row k times, which forces deficiency >= k - 1 (k
    identical rows collapse to one, not to zero). Supplying q adds the
    sizing cross-check n*q^k >= 10*m.
    """
    arr = np.asarray(a, dtype=np.int64)
    m, n = arr.shape
    if not (1 <= k < m):
        raise ValueError("need 1 <= k < m")
    J = np.flatnonzero((arr[:k] == 1).all(axis=0))
    has = len(J) >= m
    rank = deficiency = None
    if has:
        rank = exact_rank(arr[:, J[:m]])
        deficiency = m - rank
    expected = sizing_ok = None
    if q is not None:
        expected = n * q**k
        sizing_ok = expected >= 10.0 * m
    return AdversarialReport(
        m=m,
        n=n,
        k=k,
        size_J=len(J),
        has_m_columns=has,
        rank=rank,
        deficiency=deficiency,
        expected_J=expected,
        sizing_ok=sizing_ok,
    )


# --- kernel structure probe --------------------------------------------------------


@dataclass(frozen=True)
class DirectionProbe:
    scale: float
    estimate: LCDEstimate
    unit_lcd_upper: float
    flagged: bool
    censored: bool


@dataclass(frozen=True)
class KernelProbeReport:
    """Observational summary of kernel geometry over (n-k) x n trials.

    flag_freq is the fraction of trials where some sampled kernel direction
    showed an LCD certificate below the exp(C*n/k) threshold. No sharp
    assertion is attached: at these sizes the threshold sits far above
    anything a generic direction attains, and the interesting output is
    the frequency itself next to the annotated exponential rarity.
    """

    n: int
    k: int
    trials: int
    dim_counts: dict[int, int] = field(default_factory=dict)
    degenerate_trials: int = 0
    comp_count: int = 0
    incomp_count: int = 0
    directions_tested: int = 0
    flagged_directions: int = 0
    flagged_trials: int = 0
    censored_directions: int = 0
    threshold_log: float = 0.0
    note: str = ""

    @property
    def flag_freq(self) -> float:
        return self.flagged_trials / self.trials if self.trials else 0.0

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "dim_counts": {str(d): c for d, c in sorted(self.dim_counts.items())},
            "degenerate_trials": self.degenerate_trials,
            "comp_count": self.comp_count,
            "incomp_count": self.incomp_count,
            "directions_tested": self.directions_tested,
            "flagged_directions": self.flagged_directions,
            "flagged_trials": self.flagged_trials,
            "censored_directions": self.censored_directions,
            "threshold_log": self.threshold_log,
            "note": self.note,
        }


def _kernel_basis(b: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis rows of an m x n matrix b.

    The rank is the number of singular values above the standard cutoff
    s[0] * max(m, n) * eps, from an SVD that computes no singular vectors.
    When b has full row rank (rank == m, the generic case for m < n), the
    kernel is the orthogonal complement of the row space, and the last
    n - m columns of a complete QR of b^T are an orthonormal basis of it.
    Unpivoted Householder QR does not reveal rank, so a rank-deficient b
    takes the trailing right singular vectors of a full SVD instead.
    """
    m, n = b.shape
    s = np.linalg.svd(b, compute_uv=False)
    tol = (s[0] if s.size else 0.0) * max(m, n) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(s > tol))
    if rank == m:
        return np.linalg.qr(b.T, mode="complete")[0][:, m:].T
    return np.linalg.svd(b)[2][rank:]


def probe_kernel_of(
    b: np.ndarray,
    regime: RegimeParams,
    rng: RngStream,
    directions: int = 4,
    C_thresh: float = 0.1,
    grid_points: int = 4000,
    counters: dict | None = None,
) -> tuple[int, list[DirectionProbe], int, int]:
    """LCD and sparsity probe of one matrix kernel.

    Returns (kernel_dim, direction probes, comp count, incomp count).
    Directions are random unit combinations of the kernel basis, rescaled
    into [r*sqrt(n), R]; each gets an LCD bracket against the threshold
    exp(C*n/k). Thresholds past 1e6 are not scanned; those probes come
    back censored rather than pretending a verdict. `counters`, if given,
    adds the LCD scan's tick and refinement counts (lcd_vector).

    The kernel basis is orthonormal (_kernel_basis). The rank counts the
    singular values above s[0] * max(m, n) * eps; a full-row-rank b takes
    its basis from a complete QR of b^T, a rank-deficient one from the
    trailing right singular vectors of a full SVD. Any orthonormal basis
    makes each direction uniform on the kernel's unit sphere, but the
    basis fixes which directions a given rng draws.
    """
    n = b.shape[1]
    basis = _kernel_basis(np.asarray(b, dtype=np.float64))
    dim = basis.shape[0]
    if dim == 0:
        return 0, [], 0, 0
    params = LCDParams(L=regime.L, alpha=regime.alpha)
    sp = SparsityParams(s=max(1, int(regime.tau**2 * n)), tau=regime.tau**4)
    threshold = math.exp(min(C_thresh * n / regime.k, 700.0))
    lo_scale = regime.r * math.sqrt(n)
    scale = min(max(1.0, lo_scale), regime.R)
    gen = rng.generator()
    probes: list[DirectionProbe] = []
    comp = incomp = 0
    for _ in range(directions):
        coeffs = gen.standard_normal(dim)
        v = coeffs @ basis
        v /= np.linalg.norm(v)
        if classify(v, sp) == "compressible":
            comp += 1
        else:
            incomp += 1
        w = scale * v
        start = params.L / (params.alpha * scale)
        censored = threshold > 1e6
        bound = min(threshold, 1e6)
        if bound <= start * (1.0 + 1e-9):
            est = LCDEstimate(upper=math.inf, lower=start, witness_theta=None, grid_step=0.0)
        else:
            est = lcd_vector(
                w, params, bound, grid_step=(bound - start) / grid_points, counters=counters
            )
        unit_upper = est.upper * scale  # LCD of the unit direction
        flagged = math.isfinite(est.upper) and est.upper < threshold
        probes.append(
            DirectionProbe(
                scale=scale,
                estimate=est,
                unit_lcd_upper=unit_upper,
                flagged=flagged,
                censored=censored and not flagged,
            )
        )
    return dim, probes, comp, incomp


def kernel_structure_probe(
    dist: DistributionSpec,
    n: int,
    k: int,
    trials: int,
    regime: RegimeParams,
    rng: RngStream,
    directions: int = 4,
    C_thresh: float = 0.1,
    counters: dict | None = None,
) -> KernelProbeReport:
    """Sample (n-k) x n matrices and probe their kernels; observational only.

    `counters`, if given, adds the LCD scan's tick and refinement counts
    over every probed direction (lcd_vector).
    """
    if n > 200:
        raise ValueError("kernel probe capped at n = 200")
    if k < 0 or k >= n:
        raise ValueError("need 0 <= k < n")
    if k == 0:
        return KernelProbeReport(
            n=n, k=k, trials=0, note="no kernel: square matrices are generically invertible"
        )
    dim_counts: dict[int, int] = {}
    degenerate = comp = incomp = tested = flagged = flagged_trials = censored = 0
    for t in range(trials):
        gen = rng.derive(5, t).generator()
        b = sample_array(dist, (n - k, n), gen).astype(np.float64)
        dim, probes, c, i = probe_kernel_of(
            b, regime, rng.derive(6, t), directions=directions, C_thresh=C_thresh,
            counters=counters,
        )
        dim_counts[dim] = dim_counts.get(dim, 0) + 1
        if dim != k:
            degenerate += 1
        comp += c
        incomp += i
        tested += len(probes)
        hit = sum(1 for p in probes if p.flagged)
        flagged += hit
        censored += sum(1 for p in probes if p.censored)
        if hit:
            flagged_trials += 1
    return KernelProbeReport(
        n=n,
        k=k,
        trials=trials,
        dim_counts=dim_counts,
        degenerate_trials=degenerate,
        comp_count=comp,
        incomp_count=incomp,
        directions_tested=tested,
        flagged_directions=flagged,
        flagged_trials=flagged_trials,
        censored_directions=censored,
        threshold_log=C_thresh * n / k,
        note="violating directions are expected exponentially rarely in n",
    )
