"""Spans around ranklab's layers, recorded from outside the package.

Each wrapper is installed at the module attribute the caller looks up (for
example ranklab.experiments.batch_exact_ranks, which estimate_deficiency
calls through its own module globals), so the package itself is unchanged.
Spans stay in memory as dicts with name, start, end, parent span, op id and
count attributes; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager


def _batch_counts(args, kwargs, result):
    mats = args[0]
    nmat, nrow, ncol = mats.shape
    return {"matrices": nmat, "bytes_in": nmat * nrow * ncol * 8}


def _sample_counts(args, kwargs, result):
    return {"entries": math.prod(args[1])}


def _estimate_counts(args, kwargs, result):
    counters = args[1] if len(args) > 1 else kwargs["counters"]
    return {
        "matrices": args[0].trials,
        "second_prime": counters.get("second_prime", 0),
        "exact_fallback": counters.get("exact_fallback", 0),
    }


def _with_counters(args, kwargs):
    # counters is estimate_deficiency's public fallback-statistics argument
    if len(args) < 2 and kwargs.get("counters") is None:
        kwargs = {**kwargs, "counters": {}}
    return args, kwargs


# (module, attribute, span name, count attributes, argument hook)
LAYERS = (
    ("ranklab.cli", "estimate_deficiency", "experiments.estimate_deficiency", _estimate_counts, _with_counters),
    ("ranklab.cli", "exhaustive_deficiency", "experiments.exhaustive_deficiency",
     lambda a, k, r: {"states": r.states}, None),
    ("ranklab.cli", "kernel_structure_probe", "experiments.kernel_structure_probe", None, None),
    ("ranklab.experiments", "batch_exact_ranks", "matrix_core.batch_exact_ranks", _batch_counts, None),
    ("ranklab.experiments", "sample_array", "matrix_core.sample_array", _sample_counts, None),
    ("ranklab.experiments", "random_prime", "matrix_core.random_prime", None, None),
    ("ranklab.matrix_core", "exact_rank", "matrix_core.exact_rank", None, None),
    ("ranklab.experiments", "lcd_vector", "lcd.lcd_vector",
     lambda a, k, r: {"witness": int(r.witness_theta is not None)}, None),
    ("ranklab.experiments", "classify", "geometry.classify", None, None),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.op: int | None = None

    def _enter(self, name: str) -> dict:
        span = {"name": name, "start": self.clock(), "end": None,
                "parent": self._open[-1] if self._open else None, "op": self.op, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def _wrap(self, fn, name, counts, hook):
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            s = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(s)
            if counts is not None:
                s["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Replace every LAYERS attribute with a traced wrapper; undo with remove()."""
        for mod_name, attr, name, counts, hook in LAYERS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts, hook))

    def remove(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and summed counts."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            row = out[s["name"]]
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += s["end"] - s["start"] - child_s[i]
            for key, value in s["counts"].items():
                row[key] += value
        return out
