"""Least-common-denominator estimation.

The LCD of a matrix V (with respect to parameters L, alpha) is the infimal
norm of a coefficient vector theta whose image V^T theta sits abnormally
close to the integer lattice:

    dist(V^T theta, Z^n) < L * sqrt(log+(alpha * ||V^T theta|| / L)).

That infimum is not computable exactly, so estimates are reported as a
bracket: `upper` is pinned by an explicit witness re-verified at report
time, `lower` is a certificate about what was scanned. For one search
dimension the scan is exhaustive on a grid and the bracket is tight; for
m >= 2 the search is multi-start and the lower end is only the trivial
cutoff bound, flagged as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import norm as _norm
from scipy.stats import qmc

from .geometry import SparsityParams, classify
from .matrix_core import RngStream

__all__ = [
    "LCDParams",
    "LCDEstimate",
    "GuardReport",
    "log_plus",
    "dist_to_lattice",
    "lcd_condition",
    "lcd_vector",
    "lcd_matrix",
    "incomp_lcd_guard",
]

_REFINE_TOL = 1e-10
_MATRIX_DIM_CAP = 8
_SCAN_BLOCK_FLOATS = 2**15  # entries of one screened block, or batch, of ray ticks
_SCAN_PREFIX = 16  # coordinates of u summed for every tick before the full sum
_SCREEN_SLACK = 1e-9
_SCAN_COUNTERS = ("ticks", "prefix_survivors", "candidates", "confirmed")


@dataclass(frozen=True)
class LCDParams:
    """Scale L and sharpness alpha of the lattice-proximity condition."""

    L: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.L > 0):
            raise ValueError("need L > 0")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("need 0 < alpha <= 1")


@dataclass(frozen=True)
class LCDEstimate:
    """Bracketed LCD estimate.

    upper is the infimum estimate; witness_theta is an explicit coefficient
    vector satisfying the condition with norm within 1e-9 of upper (None
    only when upper is infinite). lower is certified by the scan for one
    search dimension and merely the trivial cutoff bound when
    lower_heuristic is set.
    """

    upper: float
    lower: float
    witness_theta: np.ndarray | None
    grid_step: float
    lower_heuristic: bool = False

    def __post_init__(self) -> None:
        if self.upper < self.lower - 1e-9:
            raise ValueError("bracket inverted: upper < lower")
        if math.isinf(self.upper) != (self.witness_theta is None):
            raise ValueError("witness must accompany a finite upper")

    def to_record(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "witness": None
            if self.witness_theta is None
            else [float(t) for t in self.witness_theta],
            "grid_step": self.grid_step,
            "lower_heuristic": self.lower_heuristic,
        }


def log_plus(t: float) -> float:
    """max(log t, 0), with nonpositive arguments mapping to 0."""
    if t <= 1.0:
        return 0.0
    return math.log(t)


def dist_to_lattice(y) -> float:
    """Euclidean distance from y to the nearest integer vector."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.linalg.norm(y - np.rint(y)))


def _as_matrix(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ValueError("expected a matrix (or a vector treated as one row)")
    return a


def lcd_condition(V, theta, params: LCDParams) -> bool:
    """Strict lattice-proximity test at coefficient vector theta.

    V is m x n; theta has m coordinates (scalars are accepted for m = 1).
    False whenever alpha * ||V^T theta|| <= L, because log+ vanishes and the
    inequality is strict.
    """
    V = _as_matrix(V)
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape != (V.shape[0],):
        raise ValueError(
            f"dimension mismatch: theta has {theta.shape[0]} coordinates, V has {V.shape[0]} rows"
        )
    y = V.T @ theta
    rhs = params.L * math.sqrt(log_plus(params.alpha * float(np.linalg.norm(y)) / params.L))
    return dist_to_lattice(y) < rhs


def _ray_condition(u: np.ndarray, t: float, params: LCDParams, u_norm: float) -> bool:
    # condition along theta = t * direction, where u = V^T direction
    rhs = params.L * math.sqrt(log_plus(params.alpha * t * u_norm / params.L))
    y = t * u
    return float(np.linalg.norm(y - np.rint(y))) < rhs


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def _refine_crossing(u, lo, hi, params, u_norm):
    """Shrink a (false, true] bracket with golden-ratio probes until tight.

    Returns (lo, hi) with hi - lo <= _REFINE_TOL, condition false at lo
    (or lo is the cutoff start) and true at hi.
    """
    for _ in range(200):
        if hi - lo <= _REFINE_TOL:
            break
        mid = hi - _INV_GOLDEN * (hi - lo)
        if _ray_condition(u, mid, params, u_norm):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _scan_ray(
    u: np.ndarray,
    params: LCDParams,
    search_bound: float,
    grid_step: float,
    counters: dict | None = None,
):
    """Grid scan for the smallest witness scale along one direction.

    u is the image of the unit direction. The grid is the ticks
    t_i = min(start + i * grid_step, search_bound), i >= 1, after the cutoff
    start = L / (alpha * ||u||). Returns (lo, hi, last_clean), the refined
    crossing bracket of the first tick where the condition holds plus the
    tick before it (start for the first), or None when the whole grid is
    clean.

    Ticks are screened a block at a time in numpy, in two stages against
    the same cut, L^2 log+(alpha t ||u|| / L) with a relative slack of
    _SCREEN_SLACK. The first stage sums the squared lattice distance over
    the first _SCAN_PREFIX coordinates of u only. Every term of that sum is
    nonnegative, so the prefix sum is a lower bound of the full one, and a
    tick whose prefix sum already reaches the cut is no candidate. The
    second stage sums over all coordinates for the ticks that survive. The
    block's row sums and the scalar test's norm may differ in the last
    bits, and the slack keeps either stage from dropping a tick the scalar
    test would accept. Candidates are then confirmed in order by
    _ray_condition, which alone decides the hit, so the result is the one a
    tick-by-tick scalar loop returns.

    Blocks after the first hold _SCAN_BLOCK_FLOATS prefix entries. The
    first block, and each batch of survivors summed in full, hold
    _SCAN_BLOCK_FLOATS entries of the whole of u, so a hit in the first
    ticks costs little more than one full-width block.

    `counters`, if given, adds the ticks screened under "ticks", those
    passing the prefix stage under "prefix_survivors", those passing the
    full sum under "candidates" and the hits confirmed under "confirmed"
    (each key is set, zeros included). Ticks and prefix survivors count
    whole blocks, candidates whole batches, also past a confirmed hit.
    """
    tally = {} if counters is None else counters
    for key in _SCAN_COUNTERS:
        tally.setdefault(key, 0)
    u_norm = float(np.linalg.norm(u))
    if u_norm == 0.0:
        return None
    start = params.L / (params.alpha * u_norm)
    if start >= search_bound:
        return None
    ticks = int(math.ceil((search_bound - start) / grid_step))
    head = u[:_SCAN_PREFIX]
    block = max(1, _SCAN_BLOCK_FLOATS // head.size)
    full_block = max(1, _SCAN_BLOCK_FLOATS // u.size)
    first, size = 1, full_block
    while first <= ticks:
        # row 0 is tick first - 1, the clean tick before the block (start when first == 1)
        i = np.arange(first - 1, min(first + size, ticks + 1))
        first, size = first + size, block
        t = np.minimum(start + i * grid_step, search_bound)
        cut = params.L**2 * np.log(np.maximum(params.alpha * t[1:] * u_norm / params.L, 1.0))
        cut *= 1.0 + _SCREEN_SLACK
        y = t[1:, None] * head
        y -= np.rint(y)
        survivors = np.flatnonzero(np.einsum("ij,ij->i", y, y) < cut)
        tally["ticks"] += t.size - 1
        tally["prefix_survivors"] += survivors.size
        for part in range(0, survivors.size, full_block):
            keep = survivors[part : part + full_block]
            if u.size > head.size:
                y = t[keep + 1, None] * u
                y -= np.rint(y)
                keep = keep[np.einsum("ij,ij->i", y, y) < cut[keep]]
            tally["candidates"] += keep.size
            for j in keep:
                prev, hit = float(t[j]), float(t[j + 1])
                if _ray_condition(u, hit, params, u_norm):
                    tally["confirmed"] += 1
                    lo, hi = _refine_crossing(u, prev, hit, params, u_norm)
                    return lo, hi, prev
    return None


def lcd_vector(
    v,
    params: LCDParams,
    search_bound: float,
    grid_step: float | None = None,
    counters: dict | None = None,
) -> LCDEstimate:
    """Bracket the LCD of a single vector by exhaustive 1-d grid scan.

    Scans scalar multipliers over (L/(alpha*||v||), search_bound] at the
    given step (default: search_bound / 1000), then refines the first hit
    down to 1e-10. upper is the low end of the refined crossing bracket and
    the witness sits on its high end, so the two agree to 1e-9 as promised;
    lower is the last grid point verified clean. With no hit anywhere,
    upper is +inf and lower is the search bound. `counters`, if given,
    adds the scan's tick counts as _scan_ray describes.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        raise ValueError("zero vector has no denominator structure")
    if search_bound <= params.L / params.alpha:
        raise ValueError("search_bound must exceed L/alpha")
    if grid_step is None:
        grid_step = search_bound * 1e-3
    if grid_step <= 0:
        raise ValueError("need grid_step > 0")

    start = params.L / (params.alpha * v_norm)
    hit = _scan_ray(v, params, search_bound, grid_step, counters)
    if hit is None:
        return LCDEstimate(
            upper=math.inf,
            lower=max(search_bound, start),
            witness_theta=None,
            grid_step=grid_step,
        )
    lo, hi, last_clean = hit
    witness = np.array([hi])
    if not lcd_condition(v[None, :], witness, params):
        raise RuntimeError("witness failed re-verification")
    return LCDEstimate(
        upper=max(lo, start),
        lower=max(last_clean, start),
        witness_theta=witness,
        grid_step=grid_step,
    )


def _ball_directions(m: int, count: int, seed: int) -> np.ndarray:
    """Quasi-random unit directions in R^m (scrambled Sobol through the normal map)."""
    eng = qmc.Sobol(d=m, scramble=True, seed=seed)
    g = _norm.ppf(np.clip(eng.random(count), 1e-12, 1 - 1e-12))
    bad = np.linalg.norm(g, axis=1) == 0
    g[bad] = 1.0
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _polish_witness(V, theta, params, rounds: int = 80):
    """Greedy norm reduction of a verified witness.

    Tries per-coordinate nudges and global shrinks, keeping only moves that
    stay witnesses while strictly reducing the norm. Purely deterministic.
    """
    best = theta.copy()
    best_norm = float(np.linalg.norm(best))
    step = 0.05 * best_norm
    for _ in range(rounds):
        improved = False
        for cand in _polish_moves(best, step):
            cn = float(np.linalg.norm(cand))
            if cn < best_norm - 1e-15 and lcd_condition(V, cand, params):
                best, best_norm, improved = cand, cn, True
        if not improved:
            step *= 0.5
            if step < 1e-10 * max(best_norm, 1.0):
                break
    return best


def _polish_moves(theta: np.ndarray, step: float):
    yield theta * (1.0 - step / max(float(np.linalg.norm(theta)), 1e-300))
    for j in range(theta.size):
        for sgn in (1.0, -1.0):
            cand = theta.copy()
            cand[j] += sgn * step
            yield cand


def lcd_matrix(
    V,
    params: LCDParams,
    search_bound: float,
    budget: int = 64,
    rng: RngStream | None = None,
) -> LCDEstimate:
    """Bracket the LCD of an m x n matrix, m <= 8, by multi-start ray search.

    Rays: the m coordinate axes plus `budget` quasi-random directions seeded
    from rng. Each ray gets the 1-d grid scan; the best hit is polished by
    coordinate descent. The lower end is only the trivial cutoff bound
    L/(alpha*s1(V)) and is flagged heuristic for m >= 2, since exhausting a
    ball in several dimensions is out of reach.
    """
    V = _as_matrix(V)
    m = V.shape[0]
    if m > _MATRIX_DIM_CAP:
        raise ValueError(f"search dimension {m} over cap {_MATRIX_DIM_CAP}")
    if budget < 1:
        raise ValueError("need budget >= 1")
    if m == 1:
        return lcd_vector(V[0], params, search_bound)
    s1 = float(np.linalg.svd(V, compute_uv=False)[0])
    if s1 == 0.0:
        raise ValueError("zero matrix has no denominator structure")
    trivial = params.L / (params.alpha * s1)
    grid_step = search_bound * 1e-3

    seed = 0 if rng is None else rng.derive(817).stream_id % (2**32)
    dirs = np.vstack([np.eye(m), _ball_directions(m, budget, int(seed))])
    best_theta = None
    best_norm = math.inf
    for d in dirs:
        res = _scan_ray(V.T @ d, params, search_bound, grid_step)
        if res is None:
            continue
        _, hi, _ = res
        if hi < best_norm:
            best_norm = hi
            best_theta = hi * d
    if best_theta is None:
        return LCDEstimate(
            upper=math.inf,
            lower=trivial,
            witness_theta=None,
            grid_step=grid_step,
            lower_heuristic=True,
        )
    best_theta = _polish_witness(V, best_theta, params)
    if not lcd_condition(V, best_theta, params):
        raise RuntimeError("witness failed re-verification")
    upper = float(np.linalg.norm(best_theta))
    return LCDEstimate(
        upper=max(upper, trivial),
        lower=trivial,
        witness_theta=best_theta,
        grid_step=grid_step,
        lower_heuristic=True,
    )


@dataclass(frozen=True)
class GuardReport:
    """Outcome of the incompressible-direction lattice-distance guard."""

    hypothesis_met: bool
    applicable: bool
    holds: bool
    slack: float
    image_norm: float
    lattice_dist: float
    rhs: float

    @property
    def status(self) -> str:
        if not self.hypothesis_met:
            return "hypothesis unmet"
        if not self.applicable:
            return "outside admissible ball"
        return "holds" if self.holds else "violated"


def incomp_lcd_guard(
    U, s: int, alpha: float, L: float, theta: Sequence[float]
) -> GuardReport:
    """Check that incompressible directions keep their small multiples off the lattice.

    U is n x l with columns spanning the directions of interest; s is the
    support budget of the compressibility test. Whenever the direction of
    U theta is incompressible under (s, alpha) and ||U theta|| <= sqrt(s)/2,
    the distance from U theta to Z^n must be at least
    L * sqrt(log+(alpha ||U theta|| / L)). A compressible direction is a
    failed hypothesis, reported, never asserted against.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("U must be a matrix")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.shape[0] != U.shape[1]:
        raise ValueError("dimension mismatch between U and theta")
    y = U @ theta
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        return GuardReport(True, True, True, 0.0, 0.0, 0.0, 0.0)
    direction = y / norm
    hypothesis_met = classify(direction, SparsityParams(s, alpha)) == "incompressible"
    applicable = norm <= math.sqrt(s) / 2.0
    dist = dist_to_lattice(y)
    rhs = L * math.sqrt(log_plus(alpha * norm / L))
    holds = dist >= rhs
    return GuardReport(
        hypothesis_met=bool(hypothesis_met),
        applicable=bool(applicable),
        holds=bool(holds),
        slack=float(dist - rhs),
        image_norm=norm,
        lattice_dist=float(dist),
        rhs=float(rhs),
    )
