"""Exact and modular linear algebra for integer random matrices.

This module owns the plumbing everything else builds on: finite entry
distributions, deterministic counter-based RNG streams, an arbitrary
precision integer matrix container, fraction-free exact rank, rank over
GF(p), and the dense-matrix norms. The exact rank path never touches
floating point; the float paths (SVD, operator norm) are capped at sizes
where dense routines are unconditionally safe.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DistributionSpec",
    "IntMatrix",
    "RngStream",
    "rademacher",
    "bernoulli",
    "centered_bernoulli",
    "uniform_int",
    "parse_distribution",
    "sample_matrix",
    "sample_array",
    "exact_rank",
    "modular_rank",
    "hs_norm",
    "op_norm",
    "singular_values",
    "is_prime",
    "random_prime",
    "load_int_matrix",
    "load_real_matrix",
    "save_matrix_text",
]

_MASK64 = (1 << 64) - 1

_PROB_TOL = 1e-12
_SVD_MAX_SIDE = 64


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; used to derive child stream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Named randomness source: (master_seed, stream_id) keys a Philox stream.

    Philox is counter based, so the triple (master_seed, stream_id,
    draw_index) fully determines every value ever produced, independent of
    batching or thread scheduling. Streams with distinct ids never overlap.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed <= _MASK64):
            raise ValueError("master_seed must fit in 64 bits")
        if not (0 <= self.stream_id <= _MASK64):
            raise ValueError("stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = (self.master_seed << 64) | self.stream_id
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *indices: int) -> "RngStream":
        """Deterministic child stream; mixing is splitmix64 over the path."""
        sid = self.stream_id
        for ix in indices:
            sid = _splitmix64(sid ^ _splitmix64(int(ix) & _MASK64))
        return RngStream(self.master_seed, sid)


class DistributionSpec:
    """Finite distribution for matrix entries, given as (value, probability) atoms.

    Probabilities must sum to one within 1e-12 and at least two distinct
    values must carry positive probability (constant entries make every
    question trivial). Values may repeat in the atom list; they are merged
    where that matters.
    """

    __slots__ = ("atoms", "name")

    def __init__(self, atoms: Iterable[tuple[float, float]], name: str | None = None):
        atoms = tuple((float(v), float(p)) for v, p in atoms)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        for v, p in atoms:
            if not math.isfinite(v):
                raise ValueError("atom values must be finite")
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"atom probability {p} outside [0, 1]")
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        support = {v for v, p in atoms if p > 0}
        if len(support) < 2:
            raise ValueError("need at least two distinct atoms with positive probability")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):  # immutable by convention, like the dataclasses
        raise AttributeError("DistributionSpec is immutable")

    def __repr__(self) -> str:
        return f"DistributionSpec({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DistributionSpec) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    @property
    def is_integral(self) -> bool:
        return all(float(v).is_integer() for v in self.values)

    @property
    def is_uniform(self) -> bool:
        """True when every atom has the same probability (needed for enumeration)."""
        return len(set(self.probs)) == 1

    def mean(self) -> float:
        return math.fsum(v * p for v, p in self.atoms)

    def mean_fraction(self) -> Fraction:
        """Exact mean; float atoms are binary rationals, so this is lossless."""
        return sum((Fraction(v) * Fraction(p) for v, p in self.atoms), Fraction(0))

    def max_abs(self) -> float:
        return max(abs(v) for v, p in self.atoms if p > 0)

    def merged_atoms(self) -> tuple[tuple[float, float], ...]:
        """Atoms with duplicate values merged, sorted by value."""
        acc: dict[float, float] = {}
        for v, p in self.atoms:
            acc[v] = acc.get(v, 0.0) + p
        return tuple(sorted(acc.items()))

    def to_text(self) -> str:
        if self.name is not None:
            return self.name
        return "atoms:" + ",".join(f"{v:g}:{p:g}" for v, p in self.atoms)


def rademacher() -> DistributionSpec:
    """Uniform on {-1, +1}."""
    return DistributionSpec([(-1.0, 0.5), (1.0, 0.5)], name="rademacher")


def bernoulli(q: float) -> DistributionSpec:
    """P(1) = q, P(0) = 1 - q on {0, 1}."""
    if not (0.0 < q < 1.0):
        raise ValueError("bernoulli parameter must be in (0, 1)")
    return DistributionSpec([(0.0, 1.0 - q), (1.0, q)], name=f"bernoulli({q:g})")


def centered_bernoulli(q: float) -> DistributionSpec:
    """Bernoulli(q) shifted to mean zero: takes 1-q w.p. q and -q w.p. 1-q."""
    if not (0.0 < q < 1.0):
        raise ValueError("centered-bernoulli parameter must be in (0, 1)")
    return DistributionSpec(
        [(-q, 1.0 - q), (1.0 - q, q)], name=f"centered-bernoulli({q:g})"
    )


def uniform_int(a: int) -> DistributionSpec:
    """Uniform on the integers -a..a inclusive."""
    a = int(a)
    if a < 1:
        raise ValueError("uniform-int needs a >= 1")
    span = 2 * a + 1
    return DistributionSpec(
        [(float(v), 1.0 / span) for v in range(-a, a + 1)], name=f"uniform-int({a})"
    )


_BUILTIN_RE = re.compile(r"^([a-z-]+)(?:\(([^)]*)\))?$")


def parse_distribution(text: str) -> DistributionSpec:
    """Parse "rademacher", "bernoulli(0.3)", "uniform-int(2)" or "atoms:v:p,...".

    The atoms form lists value:probability pairs separated by commas.
    """
    text = text.strip()
    if text.startswith("atoms:"):
        pairs = []
        for chunk in text[len("atoms:"):].split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            v, _, p = chunk.rpartition(":")
            if not v:
                raise ValueError(f"bad atom {chunk!r}, expected value:prob")
            pairs.append((float(v), float(p)))
        return DistributionSpec(pairs)
    m = _BUILTIN_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized distribution {text!r}")
    name, arg = m.group(1), m.group(2)
    if name == "rademacher":
        if arg is not None:
            raise ValueError("rademacher takes no argument")
        return rademacher()
    if name == "bernoulli":
        return bernoulli(float(arg))
    if name == "centered-bernoulli":
        return centered_bernoulli(float(arg))
    if name == "uniform-int":
        return uniform_int(int(arg))
    raise ValueError(f"unrecognized distribution {text!r}")


@dataclass(frozen=True)
class IntMatrix:
    """Row-major integer matrix with arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")
        for row in self.entries:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError("IntMatrix entries must be python ints")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        grid = tuple(tuple(int(e) for e in r) for r in rows)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(list(zip(*self.entries)))

    def to_numpy(self, dtype=np.float64) -> np.ndarray:
        return np.array(self.entries, dtype=dtype)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def _as_int_rows(a) -> list[list[int]]:
    """Accept IntMatrix, nested sequences, or an integer ndarray."""
    if isinstance(a, IntMatrix):
        return a.to_lists()
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("expected integer entries")
        return [[int(x) for x in row] for row in a]
    rows = [[int(x) for x in row] for row in a]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return rows


def sample_array(
    dist: DistributionSpec, shape: tuple[int, ...], rng: RngStream | np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. entries; int64 array for integral atoms, float64 otherwise.

    Uniform-probability supports use a single integers() call, which is the
    hot path; weighted supports go through inverse-CDF index sampling. Both
    are deterministic functions of the stream.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    values = np.array(dist.values)
    k = len(values)
    if dist.is_uniform:
        idx = gen.integers(0, k, size=shape)
    else:
        cdf = np.cumsum(dist.probs)
        cdf[-1] = 1.0  # guard the top edge against fsum drift
        idx = np.searchsorted(cdf, gen.random(shape), side="right")
    out = values[idx]
    if dist.is_integral:
        return out.astype(np.int64)
    return out


def sample_matrix(
    dist: DistributionSpec,
    rows: int,
    cols: int,
    rng: RngStream | np.random.Generator,
    kind: str | None = None,
):
    """Sample a rows x cols matrix; kind is "int", "real", or None for auto.

    Returns an IntMatrix for integral atoms and a float ndarray otherwise.
    Asking for kind="int" with non-integral atoms is an integrality error.
    """
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if kind is None:
        kind = "int" if dist.is_integral else "real"
    if kind == "int":
        if not dist.is_integral:
            raise ValueError("integrality: distribution has non-integer atoms")
        arr = sample_array(dist, (rows, cols), rng)
        return IntMatrix.from_rows(arr.tolist())
    if kind == "real":
        return sample_array(dist, (rows, cols), rng).astype(np.float64)
    raise ValueError(f"kind must be 'int' or 'real', got {kind!r}")


# ---------------------------------------------------------------------------
# exact and modular rank


def exact_rank(a) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    All arithmetic is exact on python ints; each elimination step divides by
    the previous pivot, which Sylvester's identity guarantees to be exact
    even when zero columns are skipped. Pivot choice: largest absolute value
    in the current column, ties to the lowest row index, so results are
    reproducible entry-for-entry.
    """
    m = _as_int_rows(a)
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        best = rank
        best_abs = abs(m[rank][col])
        for i in range(rank + 1, nrows):
            v = abs(m[i][col])
            if v > best_abs:
                best, best_abs = i, v
        if best_abs == 0:
            continue
        if best != rank:
            m[rank], m[best] = m[best], m[rank]
        piv_row = m[rank]
        piv = piv_row[col]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = ri[col]
            ri[col + 1 :] = [
                (piv * x - f * y) // prev
                for x, y in zip(ri[col + 1 :], piv_row[col + 1 :])
            ]
            ri[col] = 0
        prev = piv
        rank += 1
    return rank


def modular_rank(a, prime: int) -> int:
    """Rank over GF(prime) by ordinary Gaussian elimination on python ints.

    Works for primes of any size (61-bit primes are the intended use).
    The result is a lower bound for exact_rank: entries that vanish mod the
    prime can only lose pivots, never gain them.
    """
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    m = [[e % prime for e in row] for row in _as_int_rows(a)]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], prime - 2, prime)
        piv_row = m[rank]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = (ri[col] * inv) % prime
            if f:
                ri[col:] = [(x - f * y) % prime for x, y in zip(ri[col:], piv_row[col:])]
        rank += 1
    return rank


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: RngStream | np.random.Generator, bits: int = 61) -> int:
    """Uniform-ish random prime with the given bit length."""
    if bits < 3:
        raise ValueError("need bits >= 3")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    while True:
        c = int(gen.integers(lo, hi, endpoint=True)) | 1
        if is_prime(c):
            return c


# Float64 Bareiss is exact while every intermediate piv*x - lead*y stays
# below 2^53; both products are minors, so 2*H^2 < 2^53 suffices.
_FLOAT_EXACT_LOG_BOUND = 26 * math.log(2)


def _eliminate(a: np.ndarray, p: int | None) -> np.ndarray:
    """Ranks of a stack laid out (col, row, matrix), eliminated in place.

    With a prime p the entries are int64 residues and the arithmetic is
    GF(p); p < 2^31 keeps piv*x - lead*y inside int64. With p None the
    entries are float64 integers and the update is fraction-free (Bareiss):
    each step divides by the previous pivot, so every entry stays a minor of
    the input and every division is exact.

    Rows are never swapped. A matrix's pivot is its first row with a nonzero
    entry in the column; the update cancels the pivot row itself to zero,
    so it never pivots again, and every other row is rescaled, including
    rows whose lead is 0 (Bareiss needs them to stay minors). Only columns
    right of the pivot are updated. In a matrix without a pivot every lead
    is 0, and scale 1 with divisor 1 makes the update a no-op there.
    Matrices sit on the last axis, so every step runs over long contiguous
    runs.
    """
    ncol, nrow, nmat = a.shape
    rank = np.zeros(nmat, dtype=np.int64)
    prev = np.ones(nmat, dtype=a.dtype)
    mat_ix = np.arange(nmat)
    one = a.dtype.type(1)
    for col in range(ncol):
        lead = a[col]
        nz = lead != 0
        has = nz.any(axis=0)
        if not has.any():
            continue
        rank += has
        piv = nz.argmax(axis=0)
        pv = lead[piv, mat_ix]
        rest = a[col + 1 :]
        piv_row = rest[:, piv, mat_ix]
        rest *= np.where(has, pv, one)
        rest -= lead * piv_row[:, None, :]
        if p is None:
            rest /= np.where(has, prev, one)
            prev = np.where(has, pv, prev)
        else:
            rest %= p
    return rank


def _batch_rank_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a (matrix, row, col) stack; needs p < 2^31."""
    if p >= 1 << 31:
        raise ValueError("batched kernel needs a prime below 2^31")
    a = np.asarray(mats).transpose(2, 1, 0).astype(np.int64, order="C")
    a %= p
    return _eliminate(a, p)


def _batch_rank_float(mats: np.ndarray) -> np.ndarray:
    """Exact ranks of a (matrix, row, col) stack by float64 Bareiss; only
    valid when the stack's Hadamard bound is below _FLOAT_EXACT_LOG_BOUND."""
    return _eliminate(np.asarray(mats).transpose(2, 1, 0).astype(np.float64, order="C"), None)


def _hadamard_log_bound(max_abs_entry: float, side: int) -> float:
    """log of the Hadamard bound on any minor: (max|a| * sqrt(side))^side."""
    if max_abs_entry <= 0:
        return 0.0
    return side * (math.log(max_abs_entry) + 0.5 * math.log(side))


def batch_exact_ranks(
    mats: np.ndarray, primes: tuple[int, int], counters: dict | None = None
) -> np.ndarray:
    """Exact ranks for a stack of integer matrices, by one of three paths.

    H is the Hadamard bound of the stack, (max|a| * sqrt(s))^s with
    s = min(rows, cols); it bounds every minor.

    1. H < primes[0] and 2*H^2 < 2^53: float64 Bareiss elimination. Every
       intermediate value is an integer below 2^53, so the ranks are exact.
    2. H < primes[0] otherwise: ranks mod primes[0]. No nonzero minor is
       divisible by the prime, so the ranks are exact.
    3. Otherwise: ranks mod primes[0]. Full rank is certified (modular rank
       never exceeds the exact one); deficient-looking matrices are ranked
       again mod primes[1], and any disagreement falls back to exact_rank.

    Callers must pass independently drawn random primes (31-bit, below the
    batched kernel's limit). A wrong answer on path 3 then requires both
    primes to divide the same nonzero minor, probability on the order of
    (log(minor)/2^25)^2 per matrix, which is negligible; fixed small primes
    void the guarantee. `counters`, if given, adds the matrices ranked on
    path 1 under "float_bareiss", those re-ranked mod primes[1] under
    "second_prime" and those sent to exact_rank under "exact_fallback".
    """
    mats = np.asarray(mats, dtype=np.int64)
    nmat, nrow, ncol = mats.shape
    full = min(nrow, ncol)
    p1, p2 = primes
    max_abs = float(np.abs(mats).max(initial=0))
    log_h = _hadamard_log_bound(max_abs, full)
    if log_h < math.log(p1) and log_h < _FLOAT_EXACT_LOG_BOUND:
        if counters is not None:
            counters["float_bareiss"] = counters.get("float_bareiss", 0) + nmat
        return _batch_rank_float(mats)
    r1 = _batch_rank_mod(mats, p1)
    if log_h < math.log(p1):
        return r1
    suspect = np.nonzero(r1 < full)[0]
    if suspect.size == 0:
        return r1
    if counters is not None:
        counters["second_prime"] = counters.get("second_prime", 0) + int(suspect.size)
    r2 = _batch_rank_mod(mats[suspect], p2)
    out = r1.copy()
    agree = r2 == r1[suspect]
    out[suspect[agree]] = r2[agree]
    for i in suspect[~agree]:
        if counters is not None:
            counters["exact_fallback"] = counters.get("exact_fallback", 0) + 1
        out[i] = exact_rank(mats[i])
    return out


# ---------------------------------------------------------------------------
# norms


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm; the entry-square sum is exact for ints."""
    if isinstance(a, IntMatrix):
        total = sum(e * e for row in a.entries for e in row)
        return math.sqrt(total)
    arr = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.sum(arr * arr)))


def op_norm(a, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    The start vector is deterministic (slowly varying ramp) so repeated
    calls agree bit-for-bit. Iteration stops when successive estimates move
    by less than tol relative, or at the iteration cap.
    """
    arr = a.to_numpy() if isinstance(a, IntMatrix) else np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    scale = np.abs(arr).max()
    if scale == 0:
        return 0.0
    n = arr.shape[1]
    x = 1.0 + np.arange(n) / (n + 1.0)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(max_iter):
        y = arr @ x
        z = arr.T @ y
        nz = np.linalg.norm(z)
        if nz == 0:
            # start vector sits in the kernel; nudge deterministically
            x = np.roll(x, 1)
            continue
        new_sigma = float(np.linalg.norm(y))
        x = z / nz
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            sigma = new_sigma
            break
        sigma = new_sigma
    return sigma


def singular_values(a) -> np.ndarray:
    """All singular values, nonincreasing; small dense matrices only."""
    arr = a.to_numpy() if isinstance(a, IntMatrix) else np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if min(arr.shape) > _SVD_MAX_SIDE:
        raise ValueError("too large for dense SVD")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    return np.linalg.svd(arr, compute_uv=False)


# ---------------------------------------------------------------------------
# text serialization: first line "rows cols", then whitespace-separated rows


def save_matrix_text(a, path) -> None:
    if isinstance(a, IntMatrix):
        rows, cols = a.rows, a.cols
        lines = [" ".join(str(e) for e in row) for row in a.entries]
    else:
        arr = np.asarray(a)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        rows, cols = arr.shape
        lines = [" ".join(repr(float(e)) for e in row) for row in arr]
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for line in lines:
            fh.write(line + "\n")


def _read_grid(path) -> tuple[int, int, list[list[str]]]:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        grid = []
        for line in fh:
            if line.strip():
                grid.append(line.split())
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise ValueError("matrix body does not match declared shape")
    return rows, cols, grid


def load_int_matrix(path) -> IntMatrix:
    _, _, grid = _read_grid(path)
    return IntMatrix.from_rows([[int(x) for x in row] for row in grid])


def load_real_matrix(path) -> np.ndarray:
    _, _, grid = _read_grid(path)
    return np.array([[float(x) for x in row] for row in grid], dtype=np.float64)
