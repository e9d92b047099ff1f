"""Run the benchmark over several workloads and seeds and summarise it.

    python3 bench/report.py                       # every workload, seed 1
    python3 bench/report.py --workloads exact_law --seeds 1-10

Each run is a fresh `python3 bench/run.py` process, which prints every
metric by name with its unit and sample count. After all runs, one table
per workload gives each metric's median over seeds and its spread, the
distance between the first and third quartile as a share of the median,
next to a third of the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the summary to this file")
    ap.add_argument("--label", default="", help="free text stored in the --json summary, e.g. the commit")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    failed_runs = 0
    summary = {}
    env = {}
    wall_s = []
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall_s.append(time.perf_counter() - t0)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                failed_runs += 1
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if not env:
                record = ROOT / ".bench_out" / f"{wl}-seed{seed}-trace{args.trace}.json"
                env = {k: v for k, v in json.loads(record.read_text())["env"].items() if k != "seed"}
        summary[wl] = runs

    table = {}
    for wl, runs in summary.items():
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{wl}: {len(runs)} runs, {attempted} ops, failed_share {failed / attempted:g}")
        print(f"  {'metric':44s} {'median':>12s} {'unit':8s} {'spread':>7s} {'bound/3':>7s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            third = bounds[name] / 3 if name in bounds else None
            flag = " !" if third is not None and name != "setup_s" and s > third else ""
            print(f"  {name:44s} {statistics.median(values):12.6g} {first['unit']:8s} {s:7.3f} "
                  f"{'' if third is None else f'{third:7.3f}'}{flag}")
            table.setdefault(wl, {})[name] = {
                "median": statistics.median(values), "unit": first["unit"], "spread": s, "runs": len(values)}
    print(f"\n{len(wall_s)} runs took {sum(wall_s):.0f} s of wall time, the longest {max(wall_s):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"label": args.label, "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
             "env": env, "run_wall_s": {"max": max(wall_s), "median": statistics.median(wall_s)},
             "workloads": table}, indent=1) + "\n")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
