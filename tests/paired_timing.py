"""Paired in-process timing of two stiefelprox source trees on the same solves.

Each tree's package is imported under its own module name (the package uses
only relative imports, so a renamed copy loads), with one BLAS thread. Both
sides solve the same instances from the same initial points; which side goes
first alternates by seed and round, so a drift of the machine's speed falls
on both. It prints each side's outer iterations, which a bit-identical change
leaves equal, and the median, min and max of the per-round time ratios
new/base. It screens ideas quickly; a performance claim still needs the
benchmark's interleaved runs (perfbench/run.py).

    python tests/paired_timing.py BASE_SRC NEW_SRC --instance cm128 --seeds 0-3 --rounds 8 --mode nls

BASE_SRC and NEW_SRC are directories that hold a stiefelprox/ package, such
as the src/ of two checkouts. --mode picks the solver mode (nls, arpqn or
pg) both sides run.
"""

from __future__ import annotations

import os

# BLAS reads these only when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

INSTANCES = {
    "cm64": ("cm", 64, 4, 0.1),
    "cm128": ("cm", 128, 4, 0.1),
    "spca300": ("spca", 300, 20, 0.6),
}


def load_package(src: Path, name: str):
    """Import src/stiefelprox as the module `name`."""
    init = src / "stiefelprox" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"paired_timing: no stiefelprox package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source directory of the base side")
    parser.add_argument("new", type=Path, help="source directory of the new side")
    parser.add_argument("--instance", choices=sorted(INSTANCES), default="cm128")
    parser.add_argument("--seeds", type=seed_range, default=range(4), help="inclusive range, e.g. 0-3")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--mode", choices=["nls", "arpqn", "pg"], default="nls")
    args = parser.parse_args()

    kind, n, r, mu = INSTANCES[args.instance]
    sides = []
    for label, src in (("base", args.base), ("new", args.new)):
        pkg = load_package(src.resolve(), f"stiefelprox_{label}")
        # each seed's instance and initial point, built once per side
        jobs = [(pkg.make_problem(kind, n, r, mu, seed), pkg.random_point(n, r, seed)) for seed in args.seeds]
        sides.append((label, pkg, jobs, pkg.SolverConfig(mode=pkg.Mode(args.mode))))

    iterations = {label: 0 for label, *_ in sides}
    ratios = []
    for rnd in range(args.rounds):
        seconds = {label: 0.0 for label, *_ in sides}
        for i, seed in enumerate(args.seeds):
            order = sides if (seed + rnd) % 2 == 0 else sides[::-1]
            for label, pkg, jobs, config in order:
                problem, x0 = jobs[i]
                start = time.perf_counter()
                res = pkg.solve(problem, x0, config)
                seconds[label] += time.perf_counter() - start
                if rnd == 0:
                    iterations[label] += len(res.trace)
        ratios.append(seconds["new"] / seconds["base"])
        print(f"round {rnd}: base {seconds['base']:.3f} s, new {seconds['new']:.3f} s, ratio {ratios[-1]:.3f}")

    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    print(f"{args.instance} {(n, r, mu)} {args.mode} seeds {seeds}, {args.rounds} rounds")
    for label in iterations:
        print(f"  {label} outer iterations {iterations[label]}")
    if iterations["base"] != iterations["new"]:
        print("  iteration counts differ: the change is not bit-identical")
    print(f"  time ratio new/base: median {statistics.median(ratios):.3f}, "
          f"min {min(ratios):.3f}, max {max(ratios):.3f}")


if __name__ == "__main__":
    main()
