"""Regenerate reference.json: CSV digests of the first ops of each
digest-checked workload, for the default seed and one held-out seed.

    python3 bench/make_reference.py

Each op's outputs must pass the workload's invariant check before its
digest is recorded. Regenerate only when a change is meant to alter the
CSV bytes; a digest mismatch in a run otherwise means a wrong answer.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import OUT_DIR, _import_cli, _read_outputs
from workloads import REFERENCE_PATH, WORKLOADS, csv_digest

SEEDS = (1, 97)  # the default seed and a held-out seed
OPS = 160  # about the ops of one run; later ops get the invariant check


def main() -> int:
    cli = _import_cli()
    reference: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="ref-") as work:
        prefix = os.path.join(work, "op")
        for wl in WORKLOADS.values():
            if wl.name == "exact_law":  # checked by its oracle instead
                continue
            for seed in SEEDS:
                digests = []
                for index in range(OPS):
                    op = wl.op(seed, index)
                    if cli.run([*op.argv, "--out", prefix]) != 0:
                        raise SystemExit(f"{wl.name} op {index} failed: {op.argv}")
                    out = _read_outputs(prefix)
                    reason = wl.invariant_check(op, out)
                    if reason is not None:
                        raise SystemExit(f"{wl.name} op {index}: {reason}")
                    digests.append(csv_digest(out.csv_text))
                reference.setdefault(wl.name, {})[str(seed)] = digests
                print(f"{wl.name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
