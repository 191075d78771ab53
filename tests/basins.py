"""The basin census: where the checkout's solver ends on the gate's seeded runs.

It solves, from random_point(n, r, seed):
- CM(128,10,0.1) seeds 0-9 under nls and arpqn (criterion 4's instance);
- CM(64,4,0.1) seeds 0-19 (criterion 1's);
- CM(256,4,0.1) seeds 0-2 under the svd, qr and cayley retractions
  (criterion 3's);
- SPCA(300,20,0.6) seeds 0-3, each seed also drawing the data (perfbench's
  spca-large-r).

It prints one line per run: instance, seed, mode or retraction, status,
iterations, F to 10 significant digits, the relative gap to the lowest F the
census saw on that instance and seed, and the first 12 hex digits of the
result's digest, which is equal for two runs exactly when their trajectories
are bit for bit the same. A CM(128,10) line also names where the run ended:
"lower" (F < 4.8150, the stationary point near 4.8146), "upper" (the one at
4.8155-4.8157) or "above" both, an early stop; the counts of each per mode
follow. The output holds no timing, so two checkouts' censuses compare with
diff, and a change that moves trajectories shows whether it moves how often
runs land at the upper point or only which seeds do.

    python tests/basins.py > basins.txt
"""

import argparse
from collections import Counter

from tooling import result_digest  # first: it sets up the process

from stiefelprox import Mode, RetractionKind, SolverConfig, make_problem, random_point, solve

CM128 = ("cm", 128, 10, 0.1)
# ((kind, n, r, mu), seeds, {label: config}); the labels name what the runs
# of one instance and seed vary
CENSUS = (
    (CM128, range(10), {mode.value: SolverConfig(mode=mode) for mode in (Mode.NONMONOTONE, Mode.MONOTONE)}),
    (("cm", 64, 4, 0.1), range(20), {Mode.NONMONOTONE.value: SolverConfig()}),
    (("cm", 256, 4, 0.1), range(3), {kind.value: SolverConfig(retraction=kind) for kind in RetractionKind}),
    (("spca", 300, 20, 0.6), range(4), {Mode.NONMONOTONE.value: SolverConfig()}),
)
# CM(128,10,0.1)'s two stationary values lie 0.9-1.1e-3 apart, about
# criterion 4's per-seed bound
UPPER_FROM, ABOVE_FROM = 4.8150, 4.8160


def basin(F: float) -> str:
    """Where a CM(128,10,0.1) run that ends at F stopped."""
    return "lower" if F < UPPER_FROM else "upper" if F < ABOVE_FROM else "above"


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for instance, seeds, configs in CENSUS:
        kind, n, r, mu = instance
        name = f"{kind.upper()}({n},{r},{mu:g})"
        counts = {label: Counter() for label in configs}
        for seed in seeds:
            problem = make_problem(kind, n, r, mu, seed)
            runs = {}
            for label, config in configs.items():
                res = solve(problem, random_point(n, r, seed), config)
                runs[label] = res, problem.objective(res.point.data)
            lowest = min(F for _, F in runs.values())
            for label, (res, F) in runs.items():
                line = (f"{name} seed {seed:2d} {label:6s} {res.status.value:9s} {len(res.trace):5d} iters "
                        f"F {F:.10g} gap {(F - lowest) / abs(lowest):.2e} {result_digest(res)[:12]}")
                if instance == CM128:
                    where = basin(F)
                    counts[label][where] += 1
                    line += f" {where}"
                print(line, flush=True)
        if instance == CM128:
            for label, count in counts.items():
                print(f"{name} {label}: " + ", ".join(f"{count[b]} {b}" for b in ("lower", "upper", "above")))


if __name__ == "__main__":
    main()
