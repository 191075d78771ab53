"""Paired in-process timing of two stiefelprox source trees on the same solves.

Each tree's package is imported under its own module name (the package uses
only relative imports, so a renamed copy loads), with one BLAS thread. Both
sides solve the same instances from the same initial points; which side goes
first alternates by seed and round, so a drift of the machine's speed falls
on both. It prints each side's outer iterations; whether the two sides'
results are bit-identical, by a hash per seed of the trace records' reprs,
the status, the final ||V||^2 and the final point's bytes, naming the first
seed that differs; the per-round time ratios new/base as median, quartiles,
min and max, per solve and per accepted outer iteration (the benchmark's
outer_iter_cost is per iteration, and a change that moves iteration counts
reads differently in the two units); and in how many rounds the new side was
faster per solve.

The ratio is noisy: on a 2-core VM, CM(64,4,0.1) seeds 0-7 over 16 rounds
of one tree against itself gave per-round ratios of 0.865-1.130 (median
0.995). A screen therefore counts only when at least 9 of 10 rounds favour
one side and the median's distance from 1 exceeds that base-vs-base spread;
a performance claim still needs the benchmark's interleaved runs
(perfbench/run.py).

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
import hashlib
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


def result_digest(res) -> str:
    """A hash of everything a solve returns: equal on both sides exactly when
    the trajectories are bit for bit the same."""
    h = hashlib.sha256(repr((res.trace, res.status.value, res.final_norm_v_sq)).encode())
    h.update(res.point.data.tobytes())
    return h.hexdigest()


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source directory of the base side")
    parser.add_argument("new", type=Path, help="source directory of the new side")
    parser.add_argument("--instance", choices=sorted(INSTANCES), default="cm128")
    parser.add_argument("--seeds", type=seed_range, default=range(4), help="inclusive range, e.g. 0-3")
    parser.add_argument("--rounds", type=positive_int, default=8, help="timed rounds, at least 1")
    parser.add_argument("--mode", choices=["nls", "arpqn", "pg"], default="nls")
    args = parser.parse_args(argv)

    kind, n, r, mu = INSTANCES[args.instance]
    sides = []
    for label, src in (("base", args.base), ("new", args.new)):
        pkg = load_package(src.resolve(), f"stiefelprox_{label}")
        # each seed's instance and initial point, built once per side
        jobs = [(pkg.make_problem(kind, n, r, mu, seed), pkg.random_point(n, r, seed)) for seed in args.seeds]
        sides.append((label, pkg, jobs, pkg.SolverConfig(mode=pkg.Mode(args.mode))))

    iterations = {label: 0 for label, *_ in sides}
    digests = {label: {} for label, *_ in sides}
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
                    digests[label][seed] = result_digest(res)
        ratios.append(seconds["new"] / seconds["base"])
        print(f"round {rnd}: base {seconds['base']:.3f} s, new {seconds['new']:.3f} s, ratio {ratios[-1]:.3f}")

    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    print(f"{args.instance} {(n, r, mu)} {args.mode} seeds {seeds}, {args.rounds} rounds")
    for label in iterations:
        print(f"  {label} outer iterations {iterations[label]}")
    differing = [seed for seed in args.seeds if digests["base"][seed] != digests["new"][seed]]
    if differing:
        print(f"  results differ first at seed {differing[0]} ({len(differing)} of {len(args.seeds)} seeds): "
              "the change is not bit-identical")
    else:
        print(f"  bit-identical on all {len(args.seeds)} seeds")
    # both sides run the same iterations every round, so the ratio per
    # iteration is the ratio per solve times base/new iterations
    per_iteration = [x * iterations["base"] / iterations["new"] for x in ratios]
    for unit, values in (("solve", ratios), ("accepted outer iteration", per_iteration)):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  time ratio new/base per {unit}: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
              f"min {min(values):.3f}, max {max(values):.3f}")
    print(f"  new faster in {sum(x < 1.0 for x in ratios)} of {len(ratios)} rounds")


if __name__ == "__main__":
    main()
