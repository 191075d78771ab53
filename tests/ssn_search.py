"""Seeded random subproblems for ssn_solve, and the histogram of how it stops on them.

Seed s draws n in [3, 12], r in [1, min(5, n)], X = random_point(n, r, s),
G = 2 N(0, 1), metric weights 10^U(-5, 5) (ten decades, where a Newton step
on the dual is least reliable) and mu ~ U(0, 1), all from default_rng(s).
Each is solved to tol 1e-8 in at most 100 Newton steps. A solve is "far" when
it ends with a residual above 1e-6.

    python tests/ssn_search.py --seeds 3000
"""

from __future__ import annotations

import argparse
from collections import Counter

from tooling import positive_int  # first: it sets up the process

import numpy as np

from stiefelprox import random_point, ssn_solve

TOL = 1e-8
MAX_ITER = 100
FAR = 1e-6


def random_subproblem(seed: int):
    """(X, G, w, mu) of seed's subproblem."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    r = int(rng.integers(1, min(5, n) + 1))
    X = random_point(n, r, seed)
    G = 2.0 * rng.standard_normal((n, r))
    w = 10.0 ** rng.uniform(-5, 5, n)
    return X, G, w, float(rng.uniform(0.0, 1.0))


def stop_histogram(seeds) -> tuple[Counter, Counter]:
    """Counts of each stop over the seeds, and of each stop among the far solves."""
    stops, far = Counter(), Counter()
    for seed in seeds:
        res = ssn_solve(*random_subproblem(seed), None, TOL, MAX_ITER)
        stops[res.stop] += 1
        if res.residual_norm > FAR:
            far[res.stop] += 1
    return stops, far


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=positive_int, default=300, help="solve seeds 0 .. SEEDS-1, at least 1")
    args = parser.parse_args()
    stops, far = stop_histogram(range(args.seeds))
    print(f"{args.seeds} subproblems, tol {TOL:g}, max_iter {MAX_ITER}")
    for stop in sorted(stops):
        print(f"  {stop:10s} {stops[stop]:6d}   residual > {FAR:g}: {far[stop]}")
    print(f"  far total  {sum(far.values()):6d}")


if __name__ == "__main__":
    main()
