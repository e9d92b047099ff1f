"""Least-common-denominator estimation.

The LCD of a matrix V (with respect to parameters L, alpha) is the infimal
norm of a coefficient vector theta whose image V^T theta sits abnormally
close to the integer lattice:

    dist(V^T theta, Z^n) < L * sqrt(log+(alpha * ||V^T theta|| / L)).

That infimum is not computable exactly, so estimates are reported as a
bracket: `upper` is pinned by an explicit witness re-verified at report
time, `lower` is a certificate about what was scanned. The estimator here
takes one direction at a time, m = 1, where the scan is exhaustive on a grid
and the bracket is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LCDParams",
    "LCDEstimate",
    "log_plus",
    "dist_to_lattice",
    "lcd_condition",
    "lcd_vector",
]

_REFINE_TOL = 1e-10
_SCAN_BLOCK_FLOATS = 2**15  # entries of one screened block, or batch, of ray ticks
_SCAN_PREFIX = 16  # coordinates of u summed for every tick before the full sum
_SCREEN_SLACK = 1e-9
_SCAN_COUNTERS = ("ticks", "prefix_survivors", "candidates", "confirmed", "refine_steps")
# block buffers of _scan_ray's lattice offsets, allocated once per process
_SCAN_BUF = np.empty(_SCAN_BLOCK_FLOATS)
_SCAN_RINT = np.empty(_SCAN_BLOCK_FLOATS)


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
    only when upper is infinite). lower is certified by the scan;
    lower_heuristic flags a lower end that is not, and lcd_vector never
    sets it.
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


def _refine_crossing(u, lo, hi, params, u_norm, counters: dict | None = None):
    """Shrink a (false, true] bracket with golden-ratio probes until tight.

    Returns (lo, hi) with hi - lo <= _REFINE_TOL, condition false at lo
    (or lo is the cutoff start) and true at hi. `counters`, if given, adds
    the number of probes under "refine_steps".
    """
    for _ in range(200):
        if hi - lo <= _REFINE_TOL:
            break
        if counters is not None:
            counters["refine_steps"] = counters.get("refine_steps", 0) + 1
        mid = hi - _INV_GOLDEN * (hi - lo)
        if _ray_condition(u, mid, params, u_norm):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _lattice_sq_dists(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Squared distance from t_i * u to Z^n for each tick t_i.

    The offsets t_i * u - rint(t_i * u) are written into views of _SCAN_BUF
    and _SCAN_RINT, which every call overwrites in full, so a block allocates
    nothing of its size. Only a block of more than _SCAN_BLOCK_FLOATS
    entries, which needs u.size > _SCAN_BLOCK_FLOATS, gets arrays of its own.
    """
    shape = (t.size, u.size)
    size = t.size * u.size
    if size <= _SCAN_BLOCK_FLOATS:
        y = _SCAN_BUF[:size].reshape(shape)
        r = _SCAN_RINT[:size].reshape(shape)
    else:
        y, r = np.empty(shape), np.empty(shape)
    np.multiply(t[:, None], u, out=y)
    np.rint(y, out=r)
    np.subtract(y, r, out=y)
    return np.einsum("ij,ij->i", y, y)


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
    ticks costs little more than one full-width block. Both stages compute
    their lattice offsets in _lattice_sq_dists, into views of the two
    module-level buffers _SCAN_BUF and _SCAN_RINT (_SCAN_BLOCK_FLOATS floats
    each). So no block allocates an array of its size, which the allocator
    could hand back to the system and fault in again for the next block. A
    survivor batch wider than the buffers, which only a u of more than
    _SCAN_BLOCK_FLOATS coordinates makes, allocates its own arrays. The
    buffers are shared, so _scan_ray must not run in two threads at once.

    `counters`, if given, adds the ticks screened under "ticks", those
    passing the prefix stage under "prefix_survivors", those passing the
    full sum under "candidates", the hits confirmed under "confirmed" and
    the golden-section probes that refine a confirmed hit under
    "refine_steps" (each key is set, zeros included). Ticks and prefix
    survivors count whole blocks, candidates whole batches, also past a
    confirmed hit.
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
        survivors = np.flatnonzero(_lattice_sq_dists(t[1:], head) < cut)
        tally["ticks"] += t.size - 1
        tally["prefix_survivors"] += survivors.size
        for part in range(0, survivors.size, full_block):
            keep = survivors[part : part + full_block]
            if u.size > head.size:
                keep = keep[_lattice_sq_dists(t[keep + 1], u) < cut[keep]]
            tally["candidates"] += keep.size
            for j in keep:
                prev, hit = float(t[j]), float(t[j + 1])
                if _ray_condition(u, hit, params, u_norm):
                    tally["confirmed"] += 1
                    lo, hi = _refine_crossing(u, prev, hit, params, u_norm, tally)
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
