"""ranklab benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload mc_certified --seed 1 --seconds 15 --trace 0

Run from the repository root. The package is imported from ./src in this
process, and each op is one in-process ranklab.cli.run([...]) call that
writes its CSV and JSON. Ops run one after another in a closed loop with no
pool and BLAS held to one thread, so a run is one core's worth of load. Op
inputs come from --seed; each op gets its own input. The last stdout line is
the JSON result; a full record goes to .bench_out/.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced ops and reports per-layer metrics, averaged per traced op, from spans
recorded around the layers' entry points (see spans.py). A single process
has no queue, so the spans hold no wait time: only busy (self) time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

# one core's worth of load: no BLAS thread pool, here or in set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outputs, load_reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

# fresh interpreter: time the package import plus a first tiny call
_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import ranklab.cli
t1 = time.perf_counter()
code = ranklab.cli.run(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1, "code": code}))
"""


class BenchError(Exception):
    pass


def _import_cli():
    if not (SRC / "ranklab" / "cli.py").is_file():
        raise BenchError(f"no ranklab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ranklab.cli

    if Path(ranklab.cli.__file__).resolve().parent != SRC / "ranklab":
        raise BenchError(f"ranklab imported from {ranklab.cli.__file__}, not from {SRC}")
    return ranklab.cli


def _run_op(cli, op, prefix: str, tracer: Tracer | None) -> tuple[float, int]:
    argv = [*op.argv, "--out", prefix]
    try:
        if tracer is None:
            t0 = time.perf_counter()
            code = cli.run(argv)
            return time.perf_counter() - t0, code
        tracer.op = op.index
        tracer.install(sys.modules)
        try:
            with tracer.span("cli.run") as span:
                code = cli.run(argv)
        finally:
            tracer.remove()
        return span["end"] - span["start"], code
    except Exception:  # an op that crashes counts as failed; the run goes on
        traceback.print_exc()
        return math.nan, -1


def _read_outputs(prefix: str) -> Outputs:
    with open(prefix + ".csv") as fh:
        csv_text = fh.read()
    with open(prefix + ".json") as fh:
        result = json.load(fh)["result"]
    for ext in (".csv", ".json"):
        os.remove(prefix + ext)
    return Outputs(csv_text, result)


def run_ops(cli, wl, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Warm up once, then run ops until the timed ops add up to `seconds`.

    Output checks run after each op, outside its timed span. With trace,
    odd-numbered ops run traced and even-numbered ones untraced.
    """
    reference = load_reference()
    prefix = os.path.join(work, "op")
    warm = wl.op(seed, -1)
    _, code = _run_op(cli, warm, prefix, None)
    if code != 0:
        raise BenchError(f"warm-up op failed with exit code {code}: {warm.argv}")
    _read_outputs(prefix)

    tracer = Tracer(time.perf_counter) if trace else None
    plain = {"times": [], "units": 0}
    traced = {"times": [], "units": 0}
    checks: Counter = Counter()
    attempted = failed = 0
    busy = 0.0
    for op in wl.ops(seed):
        if busy >= seconds:
            break
        use = tracer if trace and op.index % 2 == 1 else None
        dt, code = _run_op(cli, op, prefix, use)
        attempted += 1
        busy += dt if math.isfinite(dt) else 0.0
        if code != 0:
            failed += 1
            print(f"op {op.index} exited {code}: {' '.join(op.argv)}", file=sys.stderr)
            continue
        kind, reason = wl.check(op, _read_outputs(prefix), reference)
        checks[kind] += 1
        if reason is not None:
            failed += 1
            print(f"op {op.index} failed its {kind} check: {reason}", file=sys.stderr)
            continue
        side = traced if use is not None else plain
        side["times"].append(dt)
        side["units"] += op.units
    return {"plain": plain, "traced": traced, "tracer": tracer, "checks": dict(checks),
            "attempted": attempted, "failed": failed}


def measure_setup(argv: tuple[str, ...], work: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES):
        prefix = os.path.join(work, f"setup{i}")
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *argv, "--out", prefix],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if sample["code"] != 0:
            raise BenchError(f"set-up call {argv} exited {sample['code']}")
        samples.append(sample)
        _read_outputs(prefix)
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops above
    it, but never below the median when a run has few ops."""
    s = sorted(times)
    at_or_below = max(len(s) - TAIL_BEYOND, len(s) // 2 + 1)
    return 100.0 * at_or_below / len(s), s[at_or_below - 1]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the largest waited-for one
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(wl, res: dict, setup: list[dict], rss_mb: float) -> tuple[dict, dict]:
    times = res["plain"]["times"]
    if not times:
        raise BenchError("no op completed")
    pct, tail_s = tail(times)
    setup_s = [s["import_s"] + s["first_call_s"] for s in setup]
    metrics = {
        "throughput": (res["plain"]["units"] / math.fsum(times), "units/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }
    n = len(times)
    notes = {
        "throughput": f"{wl.unit}/s over {n} ops",
        "op_s_p50": f"{n} ops",
        "op_s_tail": f"p{pct:.1f}, {n} ops",
        "setup_s": f"median of {len(setup)} fresh imports + first call "
                   f"(import alone {statistics.median(s['import_s'] for s in setup):.3f} s)",
        "peak_rss_mb": "this process plus its largest child",
        "ok_share": f"{res['attempted']} ops, failed_share {res['failed'] / res['attempted']:g}",
    }
    return metrics, notes


# per-layer metric: (span name, total key, unit); values are per traced op
_LAYER_SUMS = {
    "matrix_core.batch_exact_ranks.calls": ("matrix_core.batch_exact_ranks", "calls", "count"),
    "matrix_core.batch_exact_ranks.matrices": ("matrix_core.batch_exact_ranks", "matrices", "count"),
    "matrix_core.batch_exact_ranks.bytes_in": ("matrix_core.batch_exact_ranks", "bytes_in", "bytes"),
    "matrix_core.batch_exact_ranks.self_s": ("matrix_core.batch_exact_ranks", "self_s", "s"),
    "matrix_core.sample_array.calls": ("matrix_core.sample_array", "calls", "count"),
    "matrix_core.sample_array.entries": ("matrix_core.sample_array", "entries", "count"),
    "matrix_core.sample_array.self_s": ("matrix_core.sample_array", "self_s", "s"),
    "matrix_core.second_prime.matrices": ("experiments.estimate_deficiency", "second_prime", "count"),
    "matrix_core.exact_fallback.matrices": ("experiments.estimate_deficiency", "exact_fallback", "count"),
    "matrix_core.exact_rank.calls": ("matrix_core.exact_rank", "calls", "count"),
    "matrix_core.exact_rank.self_s": ("matrix_core.exact_rank", "self_s", "s"),
    "matrix_core.random_prime.calls": ("matrix_core.random_prime", "calls", "count"),
    "matrix_core.random_prime.self_s": ("matrix_core.random_prime", "self_s", "s"),
    "experiments.estimate_deficiency.self_s": ("experiments.estimate_deficiency", "self_s", "s"),
    "experiments.exhaustive_deficiency.states": ("experiments.exhaustive_deficiency", "states", "count"),
    "experiments.exhaustive_deficiency.self_s": ("experiments.exhaustive_deficiency", "self_s", "s"),
    "experiments.kernel_structure_probe.self_s": ("experiments.kernel_structure_probe", "self_s", "s"),
    "lcd.lcd_vector.calls": ("lcd.lcd_vector", "calls", "count"),
    "lcd.lcd_vector.self_s": ("lcd.lcd_vector", "self_s", "s"),
    "geometry.classify.calls": ("geometry.classify", "calls", "count"),
    "geometry.classify.self_s": ("geometry.classify", "self_s", "s"),
    "cli.run.self_s": ("cli.run", "self_s", "s"),
    "trace.op_s": ("cli.run", "total_s", "s"),
}


def per_layer(res: dict) -> tuple[dict, dict]:
    traced, plain = res["traced"], res["plain"]
    if not traced["times"] or not plain["times"]:
        raise BenchError("a traced run needs at least one traced and one untraced op")
    totals = res["tracer"].totals()
    ops = len(traced["times"])

    def total(span, key):
        return totals[span][key] if span in totals else 0.0

    metrics = {name: (total(span, key) / ops, unit) for name, (span, key, unit) in _LAYER_SUMS.items()}
    est_matrices = total("experiments.estimate_deficiency", "matrices")
    second = total("experiments.estimate_deficiency", "second_prime")
    lcd_calls = total("lcd.lcd_vector", "calls")
    metrics["matrix_core.first_prime_certified.ratio"] = (
        1.0 - second / est_matrices if est_matrices else 1.0, "ratio")
    metrics["lcd.lcd_vector.witness_ratio"] = (
        total("lcd.lcd_vector", "witness") / lcd_calls if lcd_calls else 0.0, "ratio")
    rate = lambda side: side["units"] / math.fsum(side["times"])  # noqa: E731
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    notes = {
        "matrix_core.first_prime_certified.ratio":
            f"base: {est_matrices:.0f} matrices ranked by estimate_deficiency; 1.0 when none",
        "lcd.lcd_vector.witness_ratio": f"base: {lcd_calls:.0f} lcd_vector calls",
        "trace.overhead_ratio": f"traced / untraced throughput, {ops} traced and {len(plain['times'])} plain ops",
        "per_op": f"values are totals over {ops} traced ops divided by {ops}; no wait time in one process",
    }
    return metrics, notes


def _cache_sizes() -> dict:
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": _cache_sizes(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        cli = _import_cli()
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work:
            res = run_ops(cli, wl, args.seed, args.seconds, bool(args.trace), work)
            if args.trace:
                metrics, notes = per_layer(res)
            else:
                rss_mb = _peak_rss_mb()  # before the set-up children run
                metrics, notes = end_to_end(wl, res, measure_setup(wl.setup_argv, work), rss_mb)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    record = {
        "workload": wl.name, "unit": wl.unit, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": environment(args.seed),
        "checks": res["checks"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "notes": notes,
    }
    if args.trace:
        record["spans"] = res["tracer"].spans
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name} (unit {wl.unit}), seed {args.seed}, trace {args.trace}; record in {out_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:<14.6g} {unit:8s} {notes.get(name, '')}")
    print(f"  checks {res['checks']}; attempted {res['attempted']}, failed {res['failed']}")
    print(f"  env {json.dumps(record['env'])}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
