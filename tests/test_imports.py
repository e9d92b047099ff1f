"""scipy.stats is imported only where geometry draws its Sobol points.

It costs about 1 s and 60 MB per process, and no benchmark workload needs it,
so importing ranklab.cli and running the rank, exhaustive and kernel-probe
subcommands must leave it unloaded. scipy.linalg (about 0.3 s) must stay
unloaded too: the kernel probe's linear algebra is numpy.linalg's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ranklab
from ranklab import geometry

SRC = Path(ranklab.__file__).resolve().parents[1]

# the smallest call of each benchmark workload's subcommand
SETUP_ARGVS = [
    ["rank-prob", "--dist", "rademacher", "--n", "2", "--k-max", "1", "--trials", "8"],
    ["rank-prob", "--dist", "bernoulli(0.5)", "--n", "2", "--k-max", "1", "--trials", "8"],
    ["exhaustive", "--dist", "atoms:-1:0.25,0:0.5,2:0.25", "--n", "1"],
    ["kernel-probe", "--n", "4", "--k", "1", "--trials", "1", "--directions", "1"],
]

_CHILD = r"""
import json, sys
import ranklab.cli
codes = [ranklab.cli.run(argv + ["--out", f"{sys.argv[1]}/run{i}"])
         for i, argv in enumerate(json.loads(sys.argv[2]))]
print(json.dumps({"codes": codes, "stats": "scipy.stats" in sys.modules,
                  "linalg": "scipy.linalg" in sys.modules}))
"""


def _fresh_interpreter(code: str, *args: str) -> str:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_benchmark_setup_calls_leave_scipy_stats_unloaded(tmp_path):
    got = json.loads(_fresh_interpreter(_CHILD, str(tmp_path), json.dumps(SETUP_ARGVS)))
    assert got == {"codes": [0] * len(SETUP_ARGVS), "stats": False, "linalg": False}


def test_sobol_draws_unchanged_by_the_deferred_import():
    # recorded while scipy.stats was still imported at module load (scipy 1.17.1)
    ball = [
        [-5.77350269189626e-06, -5.77350269189626e-06, -5.77350269189626e-06],
        [0.045824321233286766, 0.045824321233286766, 0.045824321233286766],
        [0.03637078786572404, -0.03637078786572404, -0.03637078786572404],
        [-0.05245575317108241, 0.05245575317108241, 0.05245575317108241],
        [-0.055221566665743405, -0.055221566665743405, 0.055221566665743405],
        [0.041634158882780214, 0.041634158882780214, -0.041634158882780214],
        [0.01643388066369994, -0.05932946954028595, 0.05932946954028595],
        [-0.04655544219104833, 0.012895557420987218, -0.012895557420987218],
    ]
    # the relative tolerance admits last-bit differences in other scipy builds' quantiles
    np.testing.assert_allclose(geometry._ball_sample(3, 0.1, 8), ball, rtol=1e-13, atol=0)
