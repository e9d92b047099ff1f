"""Checks of the benchmark's own machinery: python -m pytest bench"""

import json
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from oracle import exact_law
from run import TAIL_BEYOND, tail
from spans import Tracer
from workloads import WORKLOADS

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


@pytest.mark.parametrize(
    "name, atoms",
    [("rademacher_n3_deficiency.json", (-1, 1)), ("bernoulli_half_n3_deficiency.json", (0, 1))],
)
def test_oracle_reproduces_golden_laws(name, atoms):
    golden = json.loads((GOLDEN / name).read_text())
    want = {int(d): Fraction(num, den) for d, (num, den) in golden["probs"].items()}
    assert exact_law(atoms, (Fraction(1, 2), Fraction(1, 2)), golden["n"]) == want


def test_exact_law_ops_draw_distinct_inputs():
    wl = WORKLOADS["exact_law"]
    specs = [wl.op(3, i).spec for i in range(-1, 60)]
    drawn = {(s["atoms"], s["probs"]) for s in specs}
    assert len(drawn) == len(specs)
    assert all(sum(s["probs"]) == 1 and len(set(s["atoms"])) == 3 for s in specs)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    assert totals["outer"]["total_s"] == 10.0 and totals["outer"]["self_s"] == 6.0
    assert totals["inner"]["calls"] == 2 and totals["inner"]["self_s"] == 4.0


@pytest.mark.parametrize("n", [1, 2, 12, 20, 40, 200])
def test_tail_keeps_ten_ops_beyond_and_never_falls_below_the_median(n):
    times = [float(i) for i in range(n)]
    pct, value = tail(times)
    assert value >= statistics.median(times)
    beyond = sum(t > value for t in times)
    assert beyond == min(TAIL_BEYOND, n - (n // 2 + 1))
    assert pct == 100.0 * (n - beyond) / n
