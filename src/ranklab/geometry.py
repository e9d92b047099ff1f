"""Sparse-distance geometry and almost-orthogonal vector systems.

Three layers live here. dist_to_sparse / classify split unit vectors into
compressible and incompressible according to how well an s-sparse vector
approximates them. ao_check certifies that a tuple of vectors is
nu-almost-orthogonal through the extreme singular values of its normalized
column matrix. greedy_ao_extract runs the inductive minimal-configuration
construction: from a finite candidate set inside a subspace it either
extracts an l-tuple that is (1/8)-almost-orthogonal and locally isolated
from the candidates, or certifies a candidate-free subspace of complementary
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SparsityParams",
    "AOSystem",
    "TriangularAOReport",
    "ExtractionResult",
    "dist_to_sparse",
    "classify",
    "ao_check",
    "triangular_ao_bound_check",
    "greedy_ao_extract",
]

_SPHERE_TOL = 1e-9
_AO_SLACK = 1e-9
_AO_MAX_VECTORS = 64


@dataclass(frozen=True)
class SparsityParams:
    """Support budget s and distance threshold tau for the sphere partition."""

    s: int
    tau: float

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("need s >= 1")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("need 0 < tau < 1")


def dist_to_sparse(x, s: int) -> float:
    """Euclidean distance from x to the set of vectors with at most s nonzeros.

    Equals the norm of x after zeroing its s largest-magnitude coordinates;
    magnitude ties keep the lower index. s = 0 gives the full norm, s >= n
    gives 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a vector")
    if s < 0 or s > x.size:
        raise ValueError("need 0 <= s <= len(x)")
    if s == 0:
        return float(np.linalg.norm(x))
    order = np.argsort(-np.abs(x), kind="stable")
    tail = x[order[s:]]
    return float(np.linalg.norm(tail))


def classify(x, params: SparsityParams) -> str:
    """Partition a unit vector: "compressible" when dist_to_sparse(x, s) <= tau,
    "incompressible" otherwise. Non-unit input is rejected ("not on sphere")."""
    x = np.asarray(x, dtype=np.float64)
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > _SPHERE_TOL:
        raise ValueError(f"not on sphere: norm is {nrm!r}")
    if params.s > x.size:
        raise ValueError("sparsity budget exceeds dimension")
    return "compressible" if dist_to_sparse(x, params.s) <= params.tau else "incompressible"


@dataclass(frozen=True)
class AOSystem:
    """An l-tuple of nonzero vectors with its almost-orthogonality certificate.

    s_min and s_max are the extreme singular values of the matrix whose
    columns are the vectors normalized to unit length. The certificate holds
    iff both lie within nu of 1 (slack 1e-9 for float round-off).
    """

    vectors: tuple
    nu: float
    s_min: float
    s_max: float

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def certified(self) -> bool:
        return (1.0 - self.nu - _AO_SLACK <= self.s_min) and (
            self.s_max <= 1.0 + self.nu + _AO_SLACK
        )


def _as_vectors(vectors) -> list[np.ndarray]:
    out = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    if not out:
        raise ValueError("need at least one vector")
    dim = out[0].size
    if any(v.size != dim for v in out):
        raise ValueError("vectors must share a dimension")
    return out


def ao_check(vectors: Sequence, nu: float) -> AOSystem:
    """Measure almost-orthogonality of a vector tuple.

    Returns the AOSystem record; callers read .certified for the verdict.
    At most 64 vectors (dense SVD of the normalized column matrix); zero
    vectors are rejected.
    """
    if nu < 0:
        raise ValueError("need nu >= 0")
    vecs = _as_vectors(vectors)
    if len(vecs) > _AO_MAX_VECTORS:
        raise ValueError(f"at most {_AO_MAX_VECTORS} vectors")
    norms = [np.linalg.norm(v) for v in vecs]
    if any(n == 0.0 for n in norms):
        raise ValueError("zero vector in system")
    w = np.stack([v / n for v, n in zip(vecs, norms)], axis=1)
    sv = np.linalg.svd(w, compute_uv=False)
    return AOSystem(
        vectors=tuple(vecs), nu=float(nu), s_min=float(sv[-1]), s_max=float(sv[0])
    )


@dataclass(frozen=True)
class TriangularAOReport:
    """Outcome record for the triangular projection-to-orthogonality bound.

    hypothesis_met: every v_{j+1} projects onto span(v_1..v_j) with norm at
    most (nu/sqrt(l)) of its own norm. When that holds the tuple must be
    (2 nu)-almost-orthogonal and the Gram determinant must satisfy
    det(V^T V)^(1/2) >= 2^(-l) * prod ||v_j||; both are measured here and
    compared in log domain.
    """

    nu: float
    hypothesis_met: bool
    max_projection_ratio: float
    ao: AOSystem
    ao_ok: bool
    log_det_sqrt: float
    log_det_floor: float
    det_ok: bool


def _proj_norm(frame: np.ndarray, v: np.ndarray) -> float:
    # frame rows orthonormal; projection norm is the coefficient norm
    if frame.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(frame @ v))


def _mgs_extend(frame: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Append the component of v orthogonal to an orthonormal row frame.

    Modified Gram-Schmidt with one re-orthogonalization pass whenever the
    residual loses more than half its length, which keeps the frame
    orthonormal to working precision. Vectors numerically inside the span
    leave the frame unchanged.
    """
    w = v.copy()
    for q in frame:
        w -= (q @ w) * q
    if np.linalg.norm(w) < 0.5 * np.linalg.norm(v):
        for q in frame:
            w -= (q @ w) * q
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * max(1.0, np.linalg.norm(v)):
        return frame
    return np.vstack([frame, w / nw])


def triangular_ao_bound_check(vectors: Sequence, nu: float) -> TriangularAOReport:
    """Check the chained-projection hypothesis and both of its conclusions.

    Nothing raises: a violated hypothesis comes back as hypothesis_met =
    False with the worst ratio, and the conclusion fields are still measured
    so the caller can see how far off the tuple is.
    """
    if nu > 0.25:
        raise ValueError("need nu <= 1/4")
    if nu < 0:
        raise ValueError("need nu >= 0")
    vecs = _as_vectors(vectors)
    l = len(vecs)
    norms = [np.linalg.norm(v) for v in vecs]
    if any(n == 0.0 for n in norms):
        raise ValueError("zero vector in system")
    thresh = nu / math.sqrt(l)
    frame = np.zeros((0, vecs[0].size))
    worst = 0.0
    for j, v in enumerate(vecs):
        if j > 0:
            worst = max(worst, _proj_norm(frame, v) / norms[j])
        frame = _mgs_extend(frame, v)
    hypothesis_met = worst <= thresh + _AO_SLACK

    ao = ao_check(vecs, 2.0 * nu)
    cols = np.stack(vecs, axis=1)
    sign, logdet = np.linalg.slogdet(cols.T @ cols)
    log_det_sqrt = 0.5 * logdet if sign > 0 else -math.inf
    log_floor = -l * math.log(2.0) + math.fsum(math.log(n) for n in norms)
    det_ok = log_det_sqrt >= log_floor - _AO_SLACK
    return TriangularAOReport(
        nu=float(nu),
        hypothesis_met=bool(hypothesis_met),
        max_projection_ratio=float(worst),
        ao=ao,
        ao_ok=ao.certified,
        log_det_sqrt=float(log_det_sqrt),
        log_det_floor=float(log_floor),
        det_ok=bool(det_ok),
    )


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of the greedy extraction: exactly one branch is populated.

    Branch 1 carries the extracted AOSystem plus the sampled isolation audit
    (condition_b_ok: no sampled small combination of the chosen vectors
    lands within proximity_eps of a candidate). Branch 2 carries an
    orthonormal basis, one row per vector, of a candidate-free subspace of
    dimension dim(E) - l inside E.
    """

    ao: AOSystem | None
    basis_f: np.ndarray | None
    trace: tuple = field(default=())
    chosen_indices: tuple = field(default=())
    condition_b_ok: bool | None = None
    min_sample_distance: float = math.inf

    def __post_init__(self) -> None:
        if (self.ao is None) == (self.basis_f is None):
            raise ValueError("exactly one branch must be populated")

    @property
    def branch(self) -> int:
        return 1 if self.ao is not None else 2


def _ball_sample(l: int, radius: float, count: int) -> np.ndarray:
    """Quasi-random points in the l-ball of the given radius (Sobol + inverse CDF)."""
    from scipy.stats import norm as _norm, qmc  # about 1 s to import, so only when sampling

    eng = qmc.Sobol(d=l + 1, scramble=False)
    u = eng.random(count)
    # first l coordinates give a direction, the last one a radius fraction
    g = _norm.ppf(np.clip(u[:, :l], 1e-12, 1 - 1e-12))
    g[np.all(g == 0, axis=1)] = 1.0
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    radii = radius * np.clip(u[:, l], 1e-12, 1.0) ** (1.0 / l)
    return dirs * radii[:, None]


def greedy_ao_extract(
    candidates: Sequence,
    basis_e: np.ndarray,
    l: int,
    proximity_eps: float = 1e-6,
    isolation_samples: int = 1024,
) -> ExtractionResult:
    """Greedy minimal-configuration extraction from a finite candidate set.

    Repeatedly picks the smallest-norm candidate (ties to the lower index)
    whose projection onto the span of the already-chosen vectors is at most
    ||v_j|| / (16 sqrt(l)), v_j the last chosen. Eligibility also requires
    norm >= ||v_j||, which the construction asserts anyway; enforcing it
    keeps the chosen norms provably nondecreasing. If the eligible set dries
    up before l picks, returns branch 2: an orthonormal basis of a
    candidate-free subspace of E of dimension dim(E) - l, orthogonal to all
    chosen vectors. Otherwise returns the l-tuple as branch 1 together with
    a sampled isolation audit: quasi-random coefficient vectors theta with
    ||theta|| <= 1/(20 sqrt(l)) must give sum theta_i v_i farther than
    proximity_eps from every candidate.
    """
    basis_e = np.asarray(basis_e, dtype=np.float64)
    if basis_e.ndim != 2:
        raise ValueError("basis_e must be a 2-d array, one basis vector per row")
    k, n = basis_e.shape
    if k < 1 or k > n:
        raise ValueError("basis_e must have 1 <= rows <= cols")
    gram = basis_e @ basis_e.T
    if not np.allclose(gram, np.eye(k), atol=1e-8):
        raise ValueError("basis_e rows must be orthonormal")
    if not (1 <= l < k):
        raise ValueError("need 1 <= l < dim(E)")
    vecs = _as_vectors(candidates)
    if vecs[0].size != n:
        raise ValueError("candidate dimension does not match basis")
    norms = np.array([np.linalg.norm(v) for v in vecs])
    if np.any(norms == 0.0):
        raise ValueError("zero vector among candidates")
    for i, v in enumerate(vecs):
        resid = v - basis_e.T @ (basis_e @ v)
        if np.linalg.norm(resid) > proximity_eps:
            raise ValueError(f"not in subspace: candidate {i}")

    thresh_factor = 1.0 / (16.0 * math.sqrt(l))
    order = np.lexsort((np.arange(len(vecs)), norms))  # by norm, then index
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    frame = np.zeros((0, n))
    while len(chosen) < l:
        last_norm = norms[chosen[-1]] if chosen else 0.0
        pick = None
        proj_at_pick = 0.0
        for i in order:
            if i in chosen:
                continue
            if chosen and norms[i] < last_norm:
                continue
            proj = _proj_norm(frame, vecs[i])
            bound = thresh_factor * last_norm if chosen else 0.0
            if not chosen or proj <= bound + _AO_SLACK:
                pick = int(i)
                proj_at_pick = proj
                break
        if pick is None:
            break
        chosen.append(pick)
        trace.append((pick, float(proj_at_pick)))
        frame = _mgs_extend(frame, vecs[pick])

    if len(chosen) < l:
        # eligible set exhausted: certify a candidate-free subspace of E
        # orthogonal to everything chosen so far
        coords = np.stack([basis_e @ vecs[i] for i in chosen], axis=0) if chosen else np.zeros((0, k))
        _, _, vt = np.linalg.svd(coords, full_matrices=True) if coords.size else (None, None, np.eye(k))
        ortho_coords = vt[len(chosen):]
        basis_f = ortho_coords[: k - l] @ basis_e
        return ExtractionResult(
            ao=None,
            basis_f=basis_f,
            trace=tuple(trace),
            chosen_indices=tuple(chosen),
        )

    tuple_vecs = [vecs[i] for i in chosen]
    ao = ao_check(tuple_vecs, nu=0.125)
    thetas = _ball_sample(l, 1.0 / (20.0 * math.sqrt(l)), isolation_samples)
    vmat = np.stack(tuple_vecs, axis=0)  # l x n
    combos = thetas @ vmat
    cand = np.stack(vecs, axis=0)
    # distance of every combo to every candidate; counts stay modest
    d2 = (
        np.sum(combos * combos, axis=1)[:, None]
        - 2.0 * combos @ cand.T
        + np.sum(cand * cand, axis=1)[None, :]
    )
    min_dist = float(math.sqrt(max(float(d2.min()), 0.0)))
    return ExtractionResult(
        ao=ao,
        basis_f=None,
        trace=tuple(trace),
        chosen_indices=tuple(chosen),
        condition_b_ok=min_dist > proximity_eps,
        min_sample_distance=min_dist,
    )
