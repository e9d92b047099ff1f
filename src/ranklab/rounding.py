"""Randomized rounding of vectors onto scaled integer lattices.

random_round is the plain unbiased quantizer: each coordinate moves to one
of its two neighbors on the delta-grid with probabilities chosen so the
expectation is exact. sparse_round works on magnitudes with pitch
tau/sqrt(n), so small coordinates collapse to exact zeros while the total
perturbation stays below tau. approx_tuple rejection-samples joint
roundings of an almost-orthogonal tuple until the rounded tuple keeps its
geometry and its image under a given matrix stays controlled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ao_check
from .matrix_core import RngStream

__all__ = [
    "ApproxTupleResult",
    "random_round",
    "sparse_round",
    "approx_tuple",
]


def random_round(x, delta: float, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Round each coordinate to a neighboring multiple of delta, unbiased.

    v_i is delta*floor(x_i/delta) or delta*ceil(x_i/delta), the upper choice
    taken with probability equal to the fractional part, so E[v_i] = x_i and
    |v_i - x_i| <= delta on every draw. Coordinates already on the grid
    never move.
    """
    if not (delta > 0):
        raise ValueError("need delta > 0")
    x = np.asarray(x, dtype=np.float64)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    q = x / delta
    base = np.floor(q)
    frac = q - base
    up = gen.random(x.shape) < frac
    return delta * (base + up)


def sparse_round(x, tau: float, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Unbiased magnitude rounding onto the (tau/sqrt(n))-grid.

    Magnitudes are floored toward zero and then pushed up one pitch with the
    unbiasing probability; signs are preserved and exact zeros stay zero.
    Any coordinate below one pitch in magnitude becomes an exact zero with
    the complementary probability, which is what makes the output sparse for
    compressible inputs. ||v - x||_2 <= tau always, E[v] = x.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("need 0 < tau < 1")
    x = np.asarray(x, dtype=np.float64)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    pitch = tau / math.sqrt(x.size)
    mag = np.abs(x)
    base = np.floor(mag / pitch)
    frac = mag / pitch - base
    up = gen.random(x.shape) < frac
    return np.sign(x) * pitch * (base + up)


@dataclass(frozen=True)
class ApproxTupleResult:
    """Outcome of the joint-rounding rejection search.

    accepted: a draw passed all three checks and survived re-verification.
    tries: number of draws consumed. rounded: the accepted tuple (or the
    best-margin rejected tuple on exhaustion). Margins are signed, positive
    means satisfied: ao_margin is the distance of the extreme singular
    values from the (1/4)-band edges, linf_margin is delta minus the largest
    coordinate move, image_margin is the slack in ||B(u_j - v_j)|| <= 2*K*delta*n.
    """

    accepted: bool
    tries: int
    rounded: tuple
    ao_margin: float
    linf_margin: float
    image_margin: float


def _measure(B: np.ndarray, vectors, rounded, delta: float, K: float):
    n = vectors[0].size
    ao = ao_check(rounded, nu=0.25)
    ao_margin = min(ao.s_min - 0.75, 1.25 - ao.s_max)
    linf = max(float(np.abs(u - v).max()) for u, v in zip(rounded, vectors))
    image = max(float(np.linalg.norm(B @ (u - v))) for u, v in zip(rounded, vectors))
    return ao_margin, delta - linf, 2.0 * K * delta * n - image


def approx_tuple(
    B,
    vectors,
    delta: float,
    max_tries: int,
    rng: RngStream,
    K: float,
) -> ApproxTupleResult:
    """Search for a joint delta-rounding of an almost-orthogonal tuple.

    The input tuple must already pass ao_check at nu = 1/8. Each try rounds
    every vector independently with random_round and accepts when the
    rounded tuple (a) is (1/4)-almost-orthogonal, (b) moved no coordinate by
    more than delta, and (c) has ||B(u_j - v_j)|| <= 2*K*delta*n for all j.
    The accepted draw is re-verified from scratch before being returned.
    Exhaustion after max_tries is a normal outcome carrying the best draw
    seen, ranked by the smallest of its margins.
    """
    if max_tries < 1:
        raise ValueError("need max_tries >= 1")
    if not (delta > 0):
        raise ValueError("need delta > 0")
    if K <= 0:
        raise ValueError("need K > 0")
    vectors = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    if not ao_check(vectors, nu=0.125).certified:
        raise ValueError("input tuple is not (1/8)-almost-orthogonal")
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[1] != vectors[0].size:
        raise ValueError("B column count must match vector dimension")

    best = None
    best_score = -math.inf
    for t in range(max_tries):
        gen = rng.derive(t).generator()
        rounded = tuple(random_round(v, delta, gen) for v in vectors)
        margins = _measure(B, vectors, rounded, delta, K)
        if all(m >= 0.0 for m in margins):
            # verify the accepted draw once more, independent of the loop
            rechecked = _measure(B, vectors, rounded, delta, K)
            if all(m >= 0.0 for m in rechecked):
                return ApproxTupleResult(True, t + 1, rounded, *rechecked)
        score = min(margins)
        if score > best_score:
            best_score = score
            best = (rounded, margins)
    rounded, margins = best
    return ApproxTupleResult(False, max_tries, rounded, *margins)
