"""Exact and modular linear algebra for integer random matrices.

This module owns the plumbing everything else builds on: finite entry
distributions, deterministic counter-based RNG streams, fraction-free exact
rank, rank over GF(p), the batched rank kernel with its certification, and
the text format for real matrices. An integer matrix is an int64 ndarray or
a nested list of python ints; the exact rank path never touches floating
point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "DistributionSpec",
    "RngStream",
    "rademacher",
    "bernoulli",
    "centered_bernoulli",
    "uniform_int",
    "parse_distribution",
    "sample_array",
    "int64_atoms",
    "exact_rank",
    "modular_rank",
    "is_prime",
    "random_prime",
    "load_real_matrix",
    "save_matrix_text",
]

_MASK64 = (1 << 64) - 1

_PROB_TOL = 1e-12


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
    if arg is None and name in ("bernoulli", "centered-bernoulli", "uniform-int"):
        raise ValueError(f"{name} needs an argument, as in {name}(...)")
    if name == "bernoulli":
        return bernoulli(float(arg))
    if name == "centered-bernoulli":
        return centered_bernoulli(float(arg))
    if name == "uniform-int":
        return uniform_int(int(arg))
    raise ValueError(f"unrecognized distribution {text!r}")


def _as_int_rows(a) -> list[list[int]]:
    """Accept nested sequences of ints or an integer ndarray."""
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("expected integer entries")
        return [[int(x) for x in row] for row in a]
    rows = [[_int_entry(x) for x in row] for row in a]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return rows


def _int_entry(x) -> int:
    # int(x) would truncate 0.5 to 0 and so change the rank
    if not isinstance(x, (int, np.integer)):
        raise ValueError("expected integer entries")
    return int(x)


_INT64_MAX = (1 << 63) - 1


def int64_atoms(values: Iterable[float]) -> np.ndarray:
    """int64 lookup table of integral atom values, indexed by atom number.

    Raises ValueError for a value outside +-(2^63 - 1): int64 cannot hold
    it, and the symmetric range keeps |a| an int64 for every entry.
    """
    table = []
    for v in values:
        if abs(int(v)) > _INT64_MAX:
            raise ValueError(f"atom {v:g} does not fit in int64")
        table.append(int(v))
    return np.array(table, dtype=np.int64)


def sample_array(
    dist: DistributionSpec, shape: tuple[int, ...], rng: RngStream | np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. entries; int64 array for integral atoms, float64 otherwise.

    Uniform-probability supports use a single integers() call, which is the
    hot path; weighted supports go through inverse-CDF index sampling. Both
    are deterministic functions of the stream. The drawn atom indices pick
    from an int64_atoms table for integral atoms, so an atom outside int64
    raises ValueError. When that table is 0..b-1, as for bernoulli(0.5), the
    indices are the entries and are returned without the gather.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    table = int64_atoms(dist.values) if dist.is_integral else np.array(dist.values)
    if dist.is_uniform:
        idx = gen.integers(0, table.size, size=shape)
    else:
        cdf = np.cumsum(dist.probs)
        cdf[-1] = 1.0  # guard the top edge against fsum drift
        idx = np.searchsorted(cdf, gen.random(shape), side="right")
    if dist.is_integral and np.array_equal(table, np.arange(table.size)):
        return idx
    return table[idx]


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

    A matrix's pivot is its first row at or below row rank_m (its rank so
    far) with a nonzero entry in the column. The pivot row is moved up to
    row rank_m: its values are kept aside for the update, the row that sat
    at rank_m takes its place, and row rank_m is set to zero, which is what
    the update leaves in a pivot row. So in every matrix the rows above
    rank_m are zero in every column still to come, and each step searches
    and updates only the rows from lo = min(rank) of the batch down. Only
    matrices with a pivot in the column move a row: a pivotless matrix
    keeps its rank, and a move there would zero a live row.

    Every updated row is rescaled, including rows whose lead is 0 (Bareiss
    needs them to stay minors); a move only reorders rows, so every entry
    stays a minor up to sign. In a matrix without a pivot every lead is 0,
    and scale 1 with divisor 1 makes the update a no-op there. Only columns
    right of the pivot are updated, and lead * pivot row is written into
    one buffer allocated per call. Matrices sit on the last axis, so every
    step runs over long contiguous runs; `a` must be C-contiguous, since
    rows are moved through a flat (col, row * nmat + matrix) view of it.
    """
    ncol, nrow, nmat = a.shape
    rank = np.zeros(nmat, dtype=np.int64)
    prev = np.ones(nmat, dtype=a.dtype)
    mat_ix = np.arange(nmat)
    one = a.dtype.type(1)
    flat = a.reshape(ncol, nrow * nmat)
    first = np.arange(nrow, 0, -1)[:, None]  # row i scores nrow - i
    outer = np.empty(a[1:].size, dtype=a.dtype)
    for col in range(ncol):
        lo = int(rank.min(initial=nrow))  # initial: a batch of no matrices
        lead = a[col, lo:]
        # the first nonzero lead scores highest and 0 means no pivot;
        # argmax over the row axis would copy the column first
        score = ((lead != 0) * first[lo:]).max(axis=0, initial=0)
        has = score > 0
        if not has.any():
            continue
        # a pivotless matrix points at its last row, whose lead is 0
        piv = (nrow - np.maximum(score, 1)) * nmat + mat_ix
        pv = flat[col, piv]
        piv_row = flat[col + 1 :, piv]
        top = rank * nmat + mat_ix
        move = has & (piv != top)
        if move.any():
            flat[col:, piv[move]] = flat[col:, top[move]]
            flat[col:, top[move]] = 0
        rest = a[col + 1 :, lo:]
        update = outer[: rest.size].reshape(rest.shape)
        np.multiply(lead, piv_row[:, None, :], out=update)
        rest *= np.where(has, pv, one)
        rest -= update
        if p is None:
            rest /= np.where(has, prev, one)
            prev = np.where(has, pv, prev)
        else:
            rest %= p
        rank += has
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
    valid when every minor's bound is below _FLOAT_EXACT_LOG_BOUND."""
    return _eliminate(np.asarray(mats).transpose(2, 1, 0).astype(np.float64, order="C"), None)


def _hadamard_log_bound(max_abs_entry: float, side: int) -> float:
    """log of the Hadamard bound on any minor: (max|a| * sqrt(side))^side."""
    if max_abs_entry <= 0:
        return 0.0
    return side * (math.log(max_abs_entry) + 0.5 * math.log(side))


def _shift_log_bound(lo: float, hi: float, side: int) -> float:
    """log of a bound on every minor, of every size k <= side, of a matrix
    with entries in [lo, hi] and min(rows, cols) = side.

    With c = (lo + hi)/2 and d = (hi - lo)/2, border a k x k minor M with a
    first row (1, c, ..., c) over a zero column, which keeps det M, and
    subtract that row from the others: the columns become (1, -1, ..., -1)
    and (c, M_j - c), of norms sqrt(k+1) and at most sqrt(c^2 + k d^2), so
    Hadamard's inequality gives |det M| <= sqrt(k+1) (c^2 + k d^2)^(k/2).
    Bareiss compares minors of every size, so the maximum over k is taken;
    k = 0 is the empty minor, 1.
    """
    c, d = (lo + hi) / 2, (hi - lo) / 2
    best = 0.0
    for k in range(1, side + 1):
        g = c * c + k * d * d
        if g > 0:  # g = 0 only for an all-zero stack, whose minors are 0
            best = max(best, 0.5 * math.log(k + 1) + 0.5 * k * math.log(g))
    return best


def _column_log_bounds(mats: np.ndarray) -> np.ndarray:
    """Per matrix, log of sqrt(s+1) * prod_j max(1, sqrt(|a_j|^2 - S_j^2/(m+1)))
    over the columns a_j, with S_j the sum of a_j, m the row count and
    s = min(rows, cols).

    The bordered matrix of _shift_log_bound, built on a k x k minor, keeps
    det M for any border row (c_j) over the minor's columns: its column
    norms are sqrt(k+1) <= sqrt(s+1) and at most sqrt(c_j^2 + |a_j - c_j|^2).
    c_j = S_j/(m+1) minimizes that, to sqrt(|a_j|^2 - S_j^2/(m+1)), so every
    column gets its own centre. The clamp at 1 lets the product over every
    column bound the product over any subset of them.
    """
    _, nrow, ncol = mats.shape
    shifted = mats.astype(np.float64)
    # einsum: a sum over the middle axis is several times slower
    centre = np.einsum("mij->mj", shifted) / (nrow + 1)
    shifted -= centre[:, None, :]
    col_sq = np.einsum("mij,mij->mj", shifted, shifted) + centre * centre
    return 0.5 * math.log(min(nrow, ncol) + 1) + 0.5 * np.log(np.maximum(col_sq, 1.0)).sum(axis=1)


def _minor_log_bounds(mats: np.ndarray, cut: float) -> np.ndarray:
    """Per matrix of an int64 (matrix, row, col) stack, log H with H a bound
    on |every minor| of the matrix, empty minor included.

    The stack's Hadamard bound needs its min and max. Only when it is >= cut
    does the stack's shift bound follow, and only when that is >= cut too
    does each matrix get its own column bound. The smallest bound computed
    is returned.
    """
    nmat, nrow, ncol = mats.shape
    if mats.size == 0:
        return np.zeros(nmat)
    side = min(nrow, ncol)
    # as python ints, |INT64_MIN| = 2^63 stays exact instead of wrapping
    lo, hi = int(mats.min()), int(mats.max())
    log_h = _hadamard_log_bound(float(max(-lo, hi)), side)
    if log_h < cut:
        return np.full(nmat, log_h)
    log_h = min(log_h, _shift_log_bound(float(lo), float(hi), side))
    if log_h < cut:
        return np.full(nmat, log_h)
    return np.minimum(log_h, _column_log_bounds(mats))


def batch_exact_ranks(
    mats: np.ndarray, primes: tuple[int, int], counters: dict | None = None
) -> np.ndarray:
    """Exact ranks for a stack of integer matrices, each by one of three paths.

    H is a bound on every minor of a matrix (_minor_log_bounds): the
    smallest of the stack's Hadamard bound (max|a| * sqrt(s))^s with
    s = min(rows, cols), the stack's shift bound around the centre of its
    entry range, and, when neither puts the stack on path 1, the matrix's
    own bordered column-norm bound. Each matrix takes a path by its own H.

    1. H < primes[0] and 2*H^2 < 2^53: float64 Bareiss elimination. Every
       intermediate value is an integer below 2^53, so the ranks are exact.
    2. H < primes[0] otherwise: ranks mod primes[0]. No nonzero minor is
       divisible by the prime, so the ranks are exact.
    3. Otherwise: ranks mod primes[0]. Full rank is certified (modular rank
       never exceeds the exact one); deficient-looking matrices are ranked
       again mod primes[1]. Agreement is certified when H < primes[0] *
       primes[1]: a rank too low mod both primes means both divide a nonzero
       minor, which is then at least their product. Disagreement, and
       agreement when H >= primes[0] * primes[1], fall back to exact_rank.

    Every returned rank is therefore exact, whatever the primes (distinct
    31-bit primes, below the batched kernel's limit). Random primes keep the
    fallback rare; a fixed pair only makes inputs built against it slow.
    `counters`, if given, adds the matrices ranked on path 1 under
    "float_bareiss", those re-ranked mod primes[1] under "second_prime" and
    those sent to exact_rank under "exact_fallback".
    """
    mats = np.asarray(mats, dtype=np.int64)
    nmat, nrow, ncol = mats.shape
    full = min(nrow, ncol)
    p1, p2 = primes
    if p1 == p2:
        raise ValueError("need two distinct primes")
    log_p1 = math.log(p1)
    float_cut = min(log_p1, _FLOAT_EXACT_LOG_BOUND)
    log_h = _minor_log_bounds(mats, float_cut)
    on_float = log_h < float_cut
    n_float = int(np.count_nonzero(on_float))
    if counters is not None and n_float:
        counters["float_bareiss"] = counters.get("float_bareiss", 0) + n_float
    if n_float == nmat:
        return _batch_rank_float(mats)
    out = np.empty(nmat, dtype=np.int64)
    if n_float:
        out[on_float] = _batch_rank_float(mats[on_float])
    rest = np.flatnonzero(~on_float)
    out[rest] = _batch_rank_mod(mats[rest], p1)
    suspect = rest[(out[rest] < full) & (log_h[rest] >= log_p1)]
    if suspect.size == 0:
        return out
    if counters is not None:
        counters["second_prime"] = counters.get("second_prime", 0) + int(suspect.size)
    r2 = _batch_rank_mod(mats[suspect], p2)
    agree = (r2 == out[suspect]) & (log_h[suspect] < log_p1 + math.log(p2))
    for i in suspect[~agree]:
        if counters is not None:
            counters["exact_fallback"] = counters.get("exact_fallback", 0) + 1
        out[i] = exact_rank(mats[i])
    return out


# ---------------------------------------------------------------------------
# text serialization: first line "rows cols", then whitespace-separated rows


def save_matrix_text(a, path) -> None:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = arr.shape
    lines = [" ".join(repr(float(e)) for e in row) for row in arr]
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for line in lines:
            fh.write(line + "\n")


def load_real_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        grid = [line.split() for line in fh if line.strip()]
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise ValueError("matrix body does not match declared shape")
    return np.array([[float(x) for x in row] for row in grid], dtype=np.float64)
