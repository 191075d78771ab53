"""Subproblems at the SSN's roundoff floor, stored as arrays.

The fixture of test_stops_when_cycling_at_the_roundoff_floor: two ssn_solve
calls of an SPCA(40,12,0.5) solve from seed 0 under a 5-pair L-BFGS memory,
the last ("last") and the eighth from last ("earlier"). Their X, G, w, mu and
lam0 are kept in roundoff_floor.npz beside this file, so the test replays
them without running the solver. To extract them again:

    python tests/roundoff_floor.py
"""

from __future__ import annotations

import argparse
import functools
from pathlib import Path

import tooling  # noqa: F401  first: it sets up the process

import numpy as np

import stiefelprox.solver as solver_module
from stiefelprox import StiefelPoint, make_spca, random_point

FIXTURE = Path(__file__).with_name("roundoff_floor.npz")
FIELDS = ("X", "G", "w", "mu", "lam0")
CALLS = {"last": -1, "earlier": -8}


def load(name: str) -> tuple:
    """(X, G, w, mu, lam0) of the named call, as ssn_solve takes them."""
    with np.load(FIXTURE) as arrays:
        X, G, w, mu, lam0 = (arrays[f"{name}_{field}"] for field in FIELDS)
    return StiefelPoint(X), G, w, float(mu), lam0


def extract() -> dict[str, np.ndarray]:
    """The arrays of both calls, keyed "<call>_<field>", from a fresh solve."""
    calls = []
    ssn_solve, memory = solver_module.ssn_solve, solver_module.LbfgsMemory

    def recording(X, G, w, mu, lam0, tol, max_iter):
        calls.append((X.data, G, w, mu, lam0))
        return ssn_solve(X, G, w, mu, lam0, tol, max_iter)

    solver_module.ssn_solve = recording
    solver_module.LbfgsMemory = functools.partial(memory, capacity=5)
    try:
        solver_module.solve(make_spca(40, 12, 0.5, 0), random_point(40, 12, 0))
    finally:
        solver_module.ssn_solve, solver_module.LbfgsMemory = ssn_solve, memory
    return {f"{name}_{field}": np.asarray(value)
            for name, index in CALLS.items() for field, value in zip(FIELDS, calls[index])}


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    np.savez(FIXTURE, **extract())
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
