"""Command-line front door.

Every subcommand resolves its parameters from three layers (built-in
defaults, then a flat key=value config file, then explicit flags), runs
one operation, and writes a CSV table plus a JSON run summary. Outputs go
through a write-temp-then-rename step so a failed run never leaves a
partial file, and nothing time-dependent enters the CSV, which keeps
reruns of the same resolved config byte-identical.

Exit codes: 0 success, 2 configuration problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .bounds import (
    RegimeParams,
    compressible_event_bound,
    lattice_ball_count,
    matrixV_event_bound,
    net_cardinality_bound,
    sbp_lcd_bound,
    sbp_proj_bound,
    tensorization_bound,
)
from .experiments import (
    QGTConfig,
    RankTrialConfig,
    decay_shape_fit,
    enumeration_states,
    estimate_deficiency,
    exhaustive_deficiency,
    kernel_structure_probe,
    qgt_adversarial,
    qgt_min_rank,
    concentration_audit,
)
from .geometry import greedy_ao_extract
from .lcd import _SCAN_COUNTERS, LCDParams, lcd_vector
from .matrix_core import RngStream, load_real_matrix, parse_distribution
from .rounding import random_round, sparse_round

DEFAULT_SEED = 1818  # fixed, never wall clock: reruns must agree


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Param:
    name: str  # dashed long name
    kind: str  # int | float | str | flag
    default: object  # None means required (flags default to False)
    help: str


def _convert(p: Param, raw: str):
    try:
        if p.kind == "int":
            return int(raw)
        if p.kind == "float":
            return float(raw)
        if p.kind == "flag":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for '{p.name}': {raw!r}") from None


def load_config(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are skipped."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"parse error at line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip().replace("_", "-")
            if not key:
                raise ConfigError(f"parse error at line {lineno}: empty key")
            out[key] = value.strip()
    return out


_COMMON = [
    Param("out", "str", "ranklab_run", "output path prefix for .csv/.json"),
    Param("config", "str", None, "flat key=value config file (flags override it)"),
    Param("seed", "int", DEFAULT_SEED, "master seed; fixed default for reproducibility"),
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# --- handlers: each returns (csv rows incl. header, json payload) -----------------


def _hist_rows(hist, k_max):
    rows = [["n", "k", "trials", "successes", "p_hat", "wilson_lo", "wilson_hi"]]
    for r in hist.rows(k_max):
        rows.append(
            [r["n"], r["k"], r["trials"], r["successes"], _fmt(r["p_hat"]), _fmt(r["wilson_lo"]), _fmt(r["wilson_hi"])]
        )
    return rows


def _rank_config(res) -> RankTrialConfig:
    dist = res["dist-spec"]
    n = res["n"]
    if res["exhaustive"]:
        trials = enumeration_states(len(dist.merged_atoms()), n)
        res["trials"] = trials  # echo the effective count, not the unused default
    else:
        trials = res["trials"]
    return RankTrialConfig(
        dist=dist,
        n=n,
        k_max=res["k-max"],
        trials=trials,
        master_seed=res["seed"],
        center_entries=res["center"],
        enumerate_all=bool(res["exhaustive"]),
    )


def _histogram(res):
    """estimate_deficiency on the resolved config, with the count of
    matrices that took each certification path (batch_exact_ranks)."""
    counters = dict.fromkeys(("float_bareiss", "second_prime", "exact_fallback"), 0)
    hist = estimate_deficiency(_rank_config(res), counters)
    return hist, counters


def _run_rank_prob(res):
    hist, counters = _histogram(res)
    return _hist_rows(hist, res["k-max"]), {"histogram": hist.to_record(), "counters": counters}


def _run_exhaustive(res):
    ex = exhaustive_deficiency(res["dist-spec"], res["n"])
    rows = [["n", "k", "prob_num", "prob_den", "p_hat"]]
    for k in range(1, res["n"] + 1):
        p = ex.prob_at_least(k)
        rows.append([res["n"], k, p.numerator, p.denominator, _fmt(float(p))])
    return rows, {"exact": ex.to_record()}


def _run_decay_fit(res):
    hist, counters = _histogram(res)
    fit = decay_shape_fit(hist, res["k-max"])
    payload = {"histogram": hist.to_record(), "fit": fit.to_record(), "counters": counters}
    return _hist_rows(hist, res["k-max"]), payload


def _named_vector(res) -> np.ndarray:
    n = res["n"]
    name = res["vector"]
    if name == "ones":
        return np.ones(n) / math.sqrt(n)
    if name == "e1":
        v = np.zeros(n)
        v[0] = 1.0
        return v
    if name.startswith("file:"):
        v = load_real_matrix(name[5:]).reshape(-1)
        if v.size != n:
            raise ConfigError(f"bad value for 'n': {n}, but the file vector has {v.size} entries")
        return v
    raise ConfigError(f"unknown vector '{name}' (use ones, e1, or file:PATH)")


def _run_lcd(res):
    v = _named_vector(res)
    est = lcd_vector(v, LCDParams(L=res["L"], alpha=res["alpha"]), res["bound"], res["step"])
    rows = [
        ["n", "norm", "upper", "lower", "witness_found", "grid_step"],
        [v.size, _fmt(float(np.linalg.norm(v))), _fmt(est.upper), _fmt(est.lower),
         int(est.witness_theta is not None), _fmt(est.grid_step)],
    ]
    return rows, {"estimate": est.to_record()}


def _run_ao_extract(res):
    cands = [row for row in load_real_matrix(res["candidates"])]
    n = cands[0].size
    k = res["subspace-dim"] if res["subspace-dim"] > 0 else n
    basis_e = np.eye(n)[:k]
    result = greedy_ao_extract(
        cands, basis_e, res["l"], proximity_eps=res["eps"], isolation_samples=res["samples"]
    )
    if result.branch == 1:
        rows = [["index", "norm"]]
        for idx, vec in zip(result.chosen_indices, result.ao.vectors):
            rows.append([idx, _fmt(float(np.linalg.norm(vec)))])
        payload = {
            "branch": 1,
            "chosen_indices": list(result.chosen_indices),
            "certified": result.ao.certified,
            "s_min": result.ao.s_min,
            "s_max": result.ao.s_max,
            "condition_b_ok": result.condition_b_ok,
            "min_sample_distance": result.min_sample_distance,
        }
    else:
        rows = [["basis_row", "norm"]]
        for i, vec in enumerate(result.basis_f):
            rows.append([i, _fmt(float(np.linalg.norm(vec)))])
        payload = {
            "branch": 2,
            "basis_rows": result.basis_f.shape[0],
            "basis": [[float(x) for x in row] for row in result.basis_f],
        }
    return rows, payload


def _run_round_demo(res):
    n, draws = res["n"], res["draws"]
    root = RngStream(res["seed"], 0)
    x = root.derive(1).generator().standard_normal(n)
    total = np.zeros(n)
    max_linf = 0.0
    off_grid = 0
    zero_counts = 0
    for t in range(draws):
        stream = root.derive(2, t)
        if res["mode"] == "plain":
            v = random_round(x, res["delta"], stream)
            scaled = v / res["delta"]
            off_grid += int(np.any(np.abs(scaled - np.rint(scaled)) > 1e-9))
        elif res["mode"] == "sparse":
            v = sparse_round(x, res["tau"], stream)
            zero_counts += int(np.count_nonzero(v == 0.0))
        else:
            raise ConfigError(f"unknown mode '{res['mode']}' (plain or sparse)")
        total += v
        max_linf = max(max_linf, float(np.max(np.abs(v - x))))
    mean = total / draws
    rows = [["coord", "x", "empirical_mean", "abs_bias"]]
    for i in range(n):
        rows.append([i, _fmt(float(x[i])), _fmt(float(mean[i])), _fmt(abs(float(mean[i] - x[i])))])
    payload = {
        "mode": res["mode"],
        "draws": draws,
        "max_linf": max_linf,
        "max_abs_bias": float(np.max(np.abs(mean - x))),
        "off_grid_draws": off_grid,
        "mean_zero_fraction": zero_counts / (draws * n) if res["mode"] == "sparse" else None,
    }
    return rows, payload


def _run_qgt_audit(res):
    cfg = QGTConfig(
        m=res["m"],
        n=res["n"],
        q=res["q"],
        k_probe=0,
        sample_submatrices=res["samples"],
        exhaustive=bool(res["exhaustive"]),
    )
    rep = qgt_min_rank(cfg, RngStream(res["seed"], 0), C_q=res["C-q"])
    rows = [
        ["m", "n", "q", "sets_checked", "min_rank", "max_deficiency", "threshold", "within"],
        [rep.m, rep.n, _fmt(rep.q), rep.sets_checked, rep.min_rank, rep.max_deficiency,
         _fmt(rep.threshold), int(rep.within_threshold)],
    ]
    return rows, {"report": rep.to_record()}


def _run_qgt_adversarial(res):
    m, n, q, k = res["m"], res["n"], res["q"], res["k"]
    root = RngStream(res["seed"], 0)
    rows = [["matrix", "size_J", "has_m_columns", "deficiency"]]
    hits = 0
    min_def = None
    expected = sizing = None
    for i in range(res["matrices"]):
        gen = root.derive(4, i).generator()
        a = (gen.random((m, n)) < q).astype(np.int64)
        rep = qgt_adversarial(a, k, q=q)
        expected, sizing = rep.expected_J, rep.sizing_ok
        hits += rep.has_m_columns
        if rep.deficiency is not None:
            min_def = rep.deficiency if min_def is None else min(min_def, rep.deficiency)
        rows.append([i, rep.size_J, int(rep.has_m_columns),
                     -1 if rep.deficiency is None else rep.deficiency])
    payload = {
        "matrices": res["matrices"],
        "freq_has_m_columns": hits / res["matrices"],
        "min_deficiency": min_def,
        "expected_J": expected,
        "sizing_ok": sizing,
        "k": k,
    }
    return rows, payload


def _run_kernel_probe(res):
    if res["k"] < 1:  # no kernel to probe, so --trials would go unused
        raise ConfigError(f"bad value for 'k': {res['k']} (kernel-probe needs k >= 1)")
    regime = RegimeParams(
        k=res["k"], tau=res["tau"], rho=res["rho"], delta=res["delta"],
        p=res["p"], n=res["n"],
    )
    counters = dict.fromkeys((*_SCAN_COUNTERS, "basis_svd"), 0)
    rep = kernel_structure_probe(
        res["dist-spec"], res["n"], res["k"], res["trials"], regime,
        RngStream(res["seed"], 0), directions=res["directions"], C_thresh=res["C-thresh"],
        counters=counters,
    )
    rows = [["kernel_dim", "count"]]
    for d, c in sorted(rep.dim_counts.items()):
        rows.append([d, c])
    return rows, {"report": rep.to_record(), "counters": counters}


def _need(res, formula, *names):
    missing = [x for x in names if res[x] is None]
    if missing:
        raise ConfigError(f"formula '{formula}' needs --{' --'.join(missing)}")


def _run_bounds_eval(res):
    f = res["formula"]
    # the count envelope carries its own constant; the exponential bounds expose c = 1
    C = res["C"] if res["C"] is not None else (2.0 if f == "lattice-ball" else 1.0)
    if f == "sbp-lcd":
        _need(res, f, "m", "L", "alpha", "det-sqrt", "D", "t")
        rep = sbp_lcd_bound(int(res["m"]), res["L"], res["alpha"], res["det-sqrt"], res["D"], res["t"], C)
    elif f == "sbp-proj":
        _need(res, f, "m", "L", "alpha", "D", "t")
        rep = sbp_proj_bound(int(res["m"]), res["L"], res["alpha"], res["D"], res["t"], C)
    elif f == "tensorization":
        _need(res, f, "m", "M", "t", "n")
        rep = tensorization_bound(res["m"], res["M"], res["t"], int(res["n"]), C)
    elif f == "lattice-ball":
        _need(res, f, "n", "R")
        result = lattice_ball_count(int(res["n"]), res["R"], C)
        rows = [
            ["formula", "n", "R", "count", "bound_log"],
            [f, int(res["n"]), _fmt(res["R"]), result.count, _fmt(result.bound.log_value)],
        ]
        return rows, {"count": result.count, "bound": result.bound.to_record()}
    elif f == "net-cardinality":
        _need(res, f, "d", "n", "l", "rho", "r", "delta")
        d = [float(x) for x in res["d"].split(",") if x.strip()]
        rep = net_cardinality_bound(d, int(res["n"]), int(res["l"]), res["rho"], res["r"], res["delta"], C, res["R"])
    elif f == "compressible":
        _need(res, f, "l", "n")
        rep = compressible_event_bound(int(res["l"]), int(res["n"]), C)
    elif f == "matrix-v":
        _need(res, f, "l", "n")
        rep = matrixV_event_bound(int(res["l"]), int(res["n"]))
    else:
        raise ConfigError(f"unknown formula '{f}'")
    rows = [["formula", "log_value"], [rep.formula_id, _fmt(rep.log_value)]]
    return rows, {"report": rep.to_record()}


def _run_concentration(res):
    cs = tuple(float(x) for x in res["C-list"].split(",") if x.strip())
    rep = concentration_audit(
        res["dist-spec"], res["n"], res["trials"], RngStream(res["seed"], 0),
        op_constants=cs,
    )
    rows = [["event", "threshold", "count", "freq"]]
    rows.append(["hs", _fmt(rep.hs_threshold), rep.hs_count, _fmt(rep.hs_freq)])
    for c in sorted(rep.op_counts):
        rows.append([f"op_C{_fmt(c)}", _fmt(rep.op_thresholds[c]), rep.op_counts[c], _fmt(rep.op_freq(c))])
    return rows, {"report": rep.to_record()}


_DIST_HELP = "entry distribution, e.g. rademacher, bernoulli(0.5), uniform-int(2), atoms:v:p,..."

SUBCOMMANDS: dict[str, tuple[str, list[Param], object]] = {
    "rank-prob": (
        "Monte Carlo rank-deficiency histogram for square matrices",
        [
            Param("dist", "str", "rademacher", _DIST_HELP),
            Param("n", "int", None, "matrix side"),
            Param("k-max", "int", 1, "largest deficiency level to report"),
            Param("trials", "int", 10000, "number of sampled matrices"),
            Param("center", "flag", False, "subtract the exact entry mean (integer rescaled)"),
            Param("exhaustive", "flag", False, "enumerate every matrix instead of sampling"),
        ],
        _run_rank_prob,
    ),
    "exhaustive": (
        "exact rational deficiency law by full enumeration (n <= 4)",
        [
            Param("dist", "str", "rademacher", _DIST_HELP),
            Param("n", "int", None, "matrix side"),
        ],
        _run_exhaustive,
    ),
    "decay-fit": (
        "deficiency histogram plus least-squares decay-shape fit",
        [
            Param("dist", "str", "rademacher", _DIST_HELP),
            Param("n", "int", None, "matrix side"),
            Param("k-max", "int", 2, "largest deficiency level in the fit"),
            Param("trials", "int", 100000, "number of sampled matrices"),
            Param("center", "flag", False, "subtract the exact entry mean"),
            Param("exhaustive", "flag", False, "enumerate every matrix instead of sampling"),
        ],
        _run_decay_fit,
    ),
    "lcd": (
        "bracket the least common denominator of a vector",
        [
            Param("vector", "str", "ones", "ones (normalized), e1, or file:PATH"),
            Param("n", "int", None, "dimension (must match a file vector's length)"),
            Param("L", "float", 2.0, "condition scale L"),
            Param("alpha", "float", 0.25, "condition sharpness alpha"),
            Param("bound", "float", None, "scan multipliers up to this bound"),
            Param("step", "float", None, "grid step (default bound/1000)"),
        ],
        _run_lcd,
    ),
    "ao-extract": (
        "greedy almost-orthogonal extraction from a candidate file",
        [
            Param("candidates", "str", None, "text file of candidate row vectors"),
            Param("l", "int", None, "number of vectors to extract"),
            Param("subspace-dim", "int", 0, "coordinate subspace dimension (0 = full space)"),
            Param("eps", "float", 1e-6, "isolation audit proximity"),
            Param("samples", "int", 1024, "isolation audit sample count"),
        ],
        _run_ao_extract,
    ),
    "round-demo": (
        "empirical unbiasedness demo for grid rounding",
        [
            Param("mode", "str", "plain", "plain or sparse"),
            Param("n", "int", 50, "vector dimension"),
            Param("delta", "float", 0.1, "grid pitch (plain mode)"),
            Param("tau", "float", 0.2, "sparsity scale (sparse mode)"),
            Param("draws", "int", 10000, "number of rounding draws"),
        ],
        _run_round_demo,
    ),
    "qgt-audit": (
        "minimum rank over column submatrices of a Bernoulli test matrix",
        [
            Param("m", "int", None, "rows / submatrix side"),
            Param("n", "int", None, "columns"),
            Param("q", "float", 0.5, "Bernoulli parameter"),
            Param("samples", "int", 1000, "sampled column sets (ignored when exhaustive)"),
            Param("exhaustive", "flag", False, "enumerate all column sets (budget-capped)"),
            Param("C-q", "float", 4.0, "deficiency threshold constant, C_q * log n"),
        ],
        _run_qgt_audit,
    ),
    "qgt-adversarial": (
        "all-ones-rows adversarial construction audit",
        [
            Param("m", "int", None, "rows"),
            Param("n", "int", None, "columns"),
            Param("q", "float", 0.5, "Bernoulli parameter"),
            Param("k", "int", None, "all-ones row count"),
            Param("matrices", "int", 100, "sampled matrices"),
        ],
        _run_qgt_adversarial,
    ),
    "kernel-probe": (
        "observational LCD/sparsity probe of random matrix kernels",
        [
            Param("dist", "str", "uniform-int(2)", _DIST_HELP),
            Param("n", "int", None, "columns (n <= 200)"),
            Param("k", "int", None, "kernel dimension target (rows = n - k)"),
            Param("trials", "int", 20, "matrices to probe"),
            Param("directions", "int", 4, "kernel directions per trial"),
            Param("C-thresh", "float", 0.1, "threshold exponent constant in exp(C n / k)"),
            Param("tau", "float", 0.5, "regime tau"),
            Param("rho", "float", 0.3, "regime rho"),
            Param("delta", "float", 0.1, "regime delta"),
            Param("p", "float", 0.5, "regime anti-concentration p"),
        ],
        _run_kernel_probe,
    ),
    "bounds-eval": (
        "evaluate one closed-form bound in log domain",
        [
            Param("formula", "str", None,
                  "sbp-lcd | sbp-proj | tensorization | lattice-ball | net-cardinality | compressible | matrix-v"),
            Param("m", "float", None, "small-ball dimension"),
            Param("L", "float", None, "condition scale"),
            Param("alpha", "float", None, "condition sharpness"),
            Param("det-sqrt", "float", None, "sqrt determinant factor"),
            Param("D", "float", None, "LCD value (inf allowed)"),
            Param("t", "float", None, "small-ball radius"),
            Param("M", "float", None, "levy bound for tensorization"),
            Param("n", "int", None, "ambient dimension"),
            Param("l", "int", None, "tuple length"),
            Param("R", "float", None, "radius / upper scale"),
            Param("rho", "float", None, "net rho"),
            Param("r", "float", None, "net r"),
            Param("delta", "float", None, "net delta"),
            Param("d", "str", None, "comma-separated scale list for net-cardinality"),
            Param("C", "float", None, "absolute constant: 1 if omitted, except lattice-ball's envelope constant 2"),
        ],
        _run_bounds_eval,
    ),
    "concentration-audit": (
        "tail event counts for HS and operator norms",
        [
            Param("dist", "str", "rademacher", _DIST_HELP),
            Param("n", "int", None, "matrix side"),
            Param("trials", "int", 10000, "sampled matrices"),
            Param("C-list", "str", "1,2,3", "comma-separated operator-norm constants"),
        ],
        _run_concentration,
    ),
}

# subcommands that rank integer matrices drawn from --dist
_RANK_SUBCOMMANDS = {"rank-prob", "exhaustive", "decay-fit"}

_FORMULA_OPTIONAL = {"m", "L", "alpha", "det-sqrt", "D", "t", "M", "n", "l", "R", "rho", "r", "delta", "d", "C"}


@functools.cache  # the tree never changes, so build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ranklab", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (desc, params, _) in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=desc, description=desc)
        for p in list(params) + _COMMON:
            flag = f"--{p.name}"
            text = p.help if p.default is None else f"{p.help} (default: {p.default})"
            if p.kind == "flag":
                sp.add_argument(flag, action="store_true", default=None, help=text)
            else:
                typ = {"int": int, "float": float, "str": str}[p.kind]
                sp.add_argument(flag, type=typ, default=None, help=text, metavar=p.kind.upper())
    return parser


def _resolve(name: str, args: argparse.Namespace) -> dict:
    _, params, _ = SUBCOMMANDS[name]
    table = {p.name: p for p in list(params) + _COMMON}
    file_vals: dict[str, str] = {}
    cfg_path = getattr(args, "config")
    if cfg_path:
        file_vals = load_config(cfg_path)
        for key in file_vals:
            if key not in table or key == "config":
                raise ConfigError(f"unknown config key '{key}'")
    resolved = {}
    for p in table.values():
        flag_val = getattr(args, p.name.replace("-", "_"))
        if flag_val is not None:
            resolved[p.name] = flag_val
        elif p.name in file_vals:
            resolved[p.name] = _convert(p, file_vals[p.name])
        else:
            resolved[p.name] = False if p.kind == "flag" and p.default is None else p.default
    missing = [
        k for k, v in resolved.items()
        if v is None and k not in ("config", "step") and not (name == "bounds-eval" and k in _FORMULA_OPTIONAL)
    ]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(sorted(missing))}")
    if "dist" in resolved:
        # parsed once here, so a malformed --dist is a configuration error;
        # the text stays under "dist" for the JSON echo
        try:
            resolved["dist-spec"] = parse_distribution(resolved["dist"])
        except ValueError as e:
            raise ConfigError(f"bad value for 'dist': {e}") from None
        if name in _RANK_SUBCOMMANDS and not resolved["dist-spec"].is_integral:
            raise ConfigError(f"bad value for 'dist': {name} needs integer atoms")
    return resolved


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json_safe(x):
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, float) and math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return x


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed the message
        return 0 if e.code in (0, None) else 2
    if args.subcommand is None:
        parser.print_help()
        return 2
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    try:
        resolved = _resolve(args.subcommand, args)
        handler = SUBCOMMANDS[args.subcommand][2]
        rows, payload = handler(resolved)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = resolved["out"]
    files = {}
    if rows is not None:
        files[f"{out}.csv"] = _csv_text(rows)
    summary = {
        "subcommand": args.subcommand,
        "config": _json_safe({k: v for k, v in resolved.items() if k not in ("config", "dist-spec")}),
        "seed": resolved["seed"],
        "started": started,
        "elapsed_s": round(time.monotonic() - t0, 6),
        "outputs": [*files, f"{out}.json"],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ranklab": __version__,
        },
        "result": _json_safe(payload),
    }
    files[f"{out}.json"] = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    written = []
    try:
        for path, text in files.items():
            _atomic_write(path, text)
            written.append(path)
    except OSError as e:  # a missing or unwritable output directory
        for path in written:  # a CSV without its JSON is no result
            os.remove(path)
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
