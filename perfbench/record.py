"""Record perfbench/reference.json: the fingerprints and F references.

    python3 perfbench/record.py

Run it from the root of a checkout, on a commit whose answers are known to be
right, after a change that alters the solver's trajectory; commit the new file
together with the F and iteration deltas that ``run.py`` printed before it.

- ``fingerprints``: block 0 of every workload for seeds 0-9, from a traced
  pass (outer iterations, Newton iterations, line-search trials, mean F and
  mean sparsity).
- ``spca_F``: F of every SPCA seed 0-39, which the spca-large-r check compares
  against; ``spca_F_band`` widens their range by 5% for other seeds.
- ``sweep_F``: the median F of each sweep cell over seeds 0-39, the level of
  the global minimum that most seeds reach.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_SEEDS = range(10)
F_SEEDS = range(40)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    from perfbench import workloads
    from stiefelprox.problems import make_problem
    from stiefelprox.solver import solve
    from stiefelprox.stiefel import random_point

    def final_F(kind, n, r, mu, seed):
        problem = make_problem(kind, n, r, mu, seed)
        return problem.objective(solve(problem, random_point(n, r, seed)).point.data)

    spca = workloads.WORKLOADS["spca-large-r"].block(0, 0)[0]
    spca_F = {str(s): final_F("spca", spca.n, spca.r, spca.mu, s) for s in F_SEEDS}
    lo, hi = min(spca_F.values()), max(spca_F.values())
    sweep = workloads.WORKLOADS["sweep"]
    reference = {
        "fingerprints": {},
        "spca_F": spca_F,
        "spca_F_band": [lo - 0.05 * abs(lo), hi + 0.05 * abs(hi)],
        "sweep_F": {
            f"cm_n{n}_r{sweep.r}_mu{sweep.mu:g}_nls_svd": float(
                np.median([final_F("cm", n, sweep.r, sweep.mu, s) for s in F_SEEDS])
            )
            for n in sweep.n_values
        },
    }
    for name, w in workloads.WORKLOADS.items():
        reference["fingerprints"][name] = {}
        for seed in FINGERPRINT_SEEDS:
            block, tracer = w.traced_block(seed, reference)
            if block.failed:
                raise SystemExit(f"{name} seed {seed} failed its checks: {block.errors}")
            layers = workloads.layer_metrics(tracer)
            reference["fingerprints"][name][str(seed)] = workloads.block_fingerprint(layers)
            print(name, seed, reference["fingerprints"][name][str(seed)], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
