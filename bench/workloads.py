"""Benchmark workloads: per-op CLI inputs drawn from the workload seed, the
work units each op completes, and the check applied to each op's outputs.

Every op gets its own inputs, derived from (workload, seed, op index), so a
result cache carried across ops cannot fake a gain. The untimed warm-up op
uses an input no timed op sees.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracle import exact_law

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    index: int  # -1 for the warm-up op
    argv: tuple[str, ...]  # CLI arguments without --out
    units: int  # work units the op completes when it succeeds
    spec: dict  # what the output check needs to know about the input


@dataclass(frozen=True)
class Outputs:
    csv_text: str
    result: dict  # the "result" member of the run's JSON summary


def _op_rng(name: str, seed: int, index: int) -> random.Random:
    # str seeds go through SHA-512, so the stream is stable across processes
    return random.Random(f"{name}/{seed}/{index}")


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


class Workload:
    name: str
    unit: str
    setup_argv: tuple[str, ...]  # the smallest call of the same subcommand

    def op(self, seed: int, index: int) -> Op:
        raise NotImplementedError

    def invariant_check(self, op: Op, out: Outputs) -> str | None:
        """Return None when the outputs hold, else a reason."""
        raise NotImplementedError

    def check(self, op: Op, out: Outputs, reference: dict) -> tuple[str, str | None]:
        """(check kind, failure reason or None) for one op's outputs."""
        digests = reference.get(self.name, {}).get(str(op.spec["seed"]), [])
        if 0 <= op.index < len(digests):
            got = csv_digest(out.csv_text)
            return "digest", None if got == digests[op.index] else f"CSV digest {got[:12]} differs"
        return "invariants", self.invariant_check(op, out)

    def ops(self, seed: int):
        """Op 0, 1, 2, ... for this seed; never exhausted."""
        index = 0
        while True:
            yield self.op(seed, index)
            index += 1


def csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


class RankProb(Workload):
    """rank-prob over a fixed distribution and size; each op has its own
    ranklab master seed, so each op ranks different matrices."""

    unit = "matrices"

    def __init__(self, name: str, dist: str, n: int, k_max: int, trials: int):
        self.name, self.dist, self.n, self.k_max, self.trials = name, dist, n, k_max, trials
        self.setup_argv = ("rank-prob", "--dist", dist, "--n", "2", "--k-max", "1", "--trials", "8")

    def op(self, seed: int, index: int) -> Op:
        master = _op_rng(self.name, seed, index).getrandbits(63)
        argv = ("rank-prob", "--dist", self.dist, "--n", str(self.n), "--k-max", str(self.k_max),
                "--trials", str(self.trials), "--seed", str(master))
        return Op(index, argv, self.trials, {"seed": seed, "master": master})

    def invariant_check(self, op: Op, out: Outputs) -> str | None:
        hist = out.result["histogram"]
        counts = {int(d): c for d, c in hist["counts"].items()}
        if hist["trials"] != self.trials or sum(counts.values()) != self.trials:
            return "histogram counts do not sum to trials"
        rows = _rows(out.csv_text)
        if [int(r["k"]) for r in rows] != list(range(1, self.k_max + 1)):
            return "CSV rows do not cover k = 1..k_max"
        for r in rows:
            k, s = int(r["k"]), int(r["successes"])
            if int(r["n"]) != self.n or int(r["trials"]) != self.trials:
                return f"row k={k}: wrong n or trials"
            if s != sum(c for d, c in counts.items() if d >= k):
                return f"row k={k}: successes disagree with the histogram"
            p, lo, hi = float(r["p_hat"]), float(r["wilson_lo"]), float(r["wilson_hi"])
            if abs(p - s / self.trials) > 1e-11 or not (lo <= p <= hi):
                return f"row k={k}: p_hat off or outside its Wilson interval"
        return None


class ExactLaw(Workload):
    """exhaustive --n 3 over three distinct atoms from [-4, 4] with
    probabilities in sixteenths, checked against an independent oracle.
    Per-state Fraction weighting in exhaustive_deficiency dominates the op;
    the rank kernel is a small share of it."""

    name = "exact_law"
    unit = "states"
    n = 3
    setup_argv = ("exhaustive", "--dist", "atoms:-1:0.25,0:0.5,2:0.25", "--n", "1")

    def _draw(self, seed: int, index: int, seen: set) -> tuple:
        rng = _op_rng(self.name, seed, index)
        while True:
            atoms = tuple(sorted(rng.sample(range(-4, 5), 3)))
            cut = sorted(rng.sample(range(1, 16), 2))
            drawn = (atoms, (cut[0], cut[1] - cut[0], 16 - cut[1]))
            if drawn not in seen:
                seen.add(drawn)
                return drawn

    def op(self, seed: int, index: int) -> Op:
        # redraw inputs that the warm-up or an earlier op of this seed used
        seen: set = set()
        atoms, sixteenths = self._draw(seed, -1, seen)
        for i in range(index + 1):
            atoms, sixteenths = self._draw(seed, i, seen)
        dist = "atoms:" + ",".join(f"{a}:{s / 16!r}" for a, s in zip(atoms, sixteenths))
        probs = tuple(Fraction(s, 16) for s in sixteenths)
        states = len(atoms) ** (self.n * self.n)
        argv = ("exhaustive", "--dist", dist, "--n", str(self.n))
        return Op(index, argv, states, {"seed": seed, "atoms": atoms, "probs": probs})

    def check(self, op: Op, out: Outputs, reference: dict) -> tuple[str, str | None]:
        return "oracle", self.invariant_check(op, out)

    def invariant_check(self, op: Op, out: Outputs) -> str | None:
        law = exact_law(op.spec["atoms"], op.spec["probs"], self.n)
        rec = out.result["exact"]
        got = {int(d): Fraction(num, den) for d, (num, den) in rec["probs"].items()}
        if rec["states"] != op.units:
            return f"states {rec['states']} != {op.units}"
        if got != law:
            return f"law {got} differs from the oracle's {law}"
        for r in _rows(out.csv_text):
            k = int(r["k"])
            if Fraction(int(r["prob_num"]), int(r["prob_den"])) != sum(
                (p for d, p in law.items() if d >= k), Fraction(0)
            ):
                return f"CSV P(deficiency >= {k}) differs from the oracle"
        return None


class KernelProbe(Workload):
    """kernel-probe: the Python grid scan in lcd_vector is most of the op and
    the rank path is idle, so this is the workload that measures lcd."""

    name = "kernel_probe"
    unit = "directions"
    n, k, trials, directions = 100, 2, 2, 4
    setup_argv = ("kernel-probe", "--n", "4", "--k", "1", "--trials", "1", "--directions", "1")

    def op(self, seed: int, index: int) -> Op:
        master = _op_rng(self.name, seed, index).getrandbits(63)
        argv = ("kernel-probe", "--n", str(self.n), "--k", str(self.k), "--trials", str(self.trials),
                "--directions", str(self.directions), "--seed", str(master))
        return Op(index, argv, self.trials * self.directions, {"seed": seed, "master": master})

    def invariant_check(self, op: Op, out: Outputs) -> str | None:
        rows = _rows(out.csv_text)
        dims = {int(r["kernel_dim"]): int(r["count"]) for r in rows}
        rep = out.result["report"]
        if sum(dims.values()) != self.trials or rep["trials"] != self.trials:
            return "kernel-dimension counts do not sum to trials"
        if min(dims) < self.k:
            return f"kernel dimension below k = {self.k}"
        if rep["directions_tested"] != self.directions * sum(c for d, c in dims.items() if d > 0):
            return "directions_tested disagrees with the kernel-dimension counts"
        return None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the Hadamard bound certifies every batch on the first prime
        RankProb("mc_certified", "rademacher", 10, 2, 8192),
        # log H = 22.2 > ln p1: about 3% of matrices are re-ranked mod a second prime
        RankProb("mc_uncertified", "bernoulli(0.5)", 16, 2, 2048),
        ExactLaw(),
        KernelProbe(),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
