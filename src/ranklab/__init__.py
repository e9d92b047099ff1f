"""ranklab: rank-deficiency experiments for random integer matrices.

Modules are intentionally flat: matrix_core (exact/modular rank,
distributions, RNG streams), geometry (sparse approximation and
almost-orthogonal systems), lcd (least common denominator estimation),
rounding (randomized lattice rounding), bounds (closed-form probability
bound evaluators), experiments (Monte Carlo drivers), cli (command line).
Import the module you need; nothing heavy happens at package import time,
and importing ranklab.cli loads no scipy statistics module either: that
takes about 1 s, so geometry imports it only where its isolation audit
draws Sobol points.
"""

__version__ = "0.1.0"
