"""Independent exact deficiency law for 3 x 3 integer matrices.

Shares no code with ranklab: every matrix over the atoms is listed with
itertools.product and ranked from its determinant and 2 x 2 minors in
int64, then states are tallied per (rank, atom-count vector) class and each
class is weighted once with exact Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

_PAIRS = tuple(itertools.combinations(range(3), 2))


def _rank3(a: np.ndarray) -> np.ndarray:
    """Exact ranks of a (N, 3, 3) int64 stack with small entries."""
    det = (
        a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
        - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
        + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
    )
    minor2 = np.zeros(len(a), dtype=bool)
    for i, j in _PAIRS:
        for k, l in _PAIRS:
            minor2 |= a[:, i, k] * a[:, j, l] - a[:, i, l] * a[:, j, k] != 0
    nonzero = (a != 0).any(axis=(1, 2))
    return np.where(det != 0, 3, np.where(minor2, 2, np.where(nonzero, 1, 0)))


def exact_law(atoms, probs, n: int = 3) -> dict[int, Fraction]:
    """{deficiency: probability} for n x n matrices of i.i.d. entries taking
    atoms[j] with probability probs[j] (exact rationals summing to one)."""
    if n != 3:
        raise ValueError("the oracle ranks 3 x 3 matrices only")
    if max(abs(int(a)) for a in atoms) > 1 << 15:
        raise ValueError("atoms too large for exact int64 minors")
    probs = [Fraction(p) for p in probs]
    if sum(probs) != 1:
        raise ValueError("probabilities must sum to one")
    b = len(atoms)
    digits = np.array(list(itertools.product(range(b), repeat=n * n)), dtype=np.int64)
    mats = np.asarray([int(a) for a in atoms], dtype=np.int64)[digits].reshape(-1, n, n)
    ranks = _rank3(mats)
    counts = np.stack([(digits == j).sum(axis=1) for j in range(b)], axis=1)
    classes, tally = np.unique(np.column_stack([ranks, counts]), axis=0, return_counts=True)
    law: dict[int, Fraction] = {}
    for (rank, *cs), states in zip(classes.tolist(), tally.tolist()):
        weight = states * math.prod(p**c for p, c in zip(probs, cs))
        law[n - rank] = law.get(n - rank, Fraction(0)) + weight
    return {d: p for d, p in sorted(law.items()) if p}
