"""Benchmark harness: seed sweeps over problem/solver grids, CSV summaries.

Every run regenerates its instance and initial point from (kind, n, r, mu,
seed) so sweeps are reproducible bit for bit; only the cpu_s column varies
between repetitions. Runs are independent and execute on a process pool whose
size is capped by the BENCH_THREADS environment variable (0 or unset: one
worker per CPU this process may use).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._checks import check_integer
from .problems import check_problem_args, make_problem, sparsity
from .solver import Mode, SolverConfig, Status, solve, write_trace_csv
from .stiefel import RetractionKind, random_point

# CLI and ExperimentSpec names: make_problem's kinds, and the enums' values ("nls", "svd", ...)
PROBLEM_NAMES = ("cm", "spca")
MODE_NAMES = sorted(m.value for m in Mode)
RETRACTION_NAMES = sorted(k.value for k in RetractionKind)

SUMMARY_CSV_HEADER = "label,iter,F,sparsity,cpu_s,linesearch,ssn_iters,failures,nonconverged"

# SolverConfig fields that ExperimentSpec.overrides may set; the CLI gives each
# its own flag (sigma0 -> --sigma0), typed by the field's default
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SolverConfig) if f.name not in ("mode", "retraction"))


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    n_values: tuple
    r_values: tuple
    mu_values: tuple
    modes: tuple = ("nls",)
    retractions: tuple = ("svd",)
    seeds: int = 50
    base_seed: int = 0
    overrides: dict = field(default_factory=dict)
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("n_values", "r_values", "mu_values", "modes", "retractions"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not values:
                raise ValueError(f"{name} must be a nonempty tuple or list, got {values!r}")
        choices = (("problem", (self.problem,), PROBLEM_NAMES), ("mode", self.modes, MODE_NAMES),
                   ("retraction", self.retractions, RETRACTION_NAMES))
        for kind, values, known in choices:
            for value in values:
                if value not in known:
                    raise ValueError(f"unknown {kind} {value!r}")
        check_integer("seeds", self.seeds, 1)
        check_integer("base_seed", self.base_seed, 0)
        if not isinstance(self.overrides, Mapping):
            raise ValueError(f"overrides must be a mapping, got {self.overrides!r}")
        unknown = set(self.overrides) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")
        # out-of-range values fail here, not once per run inside the sweep
        SolverConfig(**self.overrides)
        labels = set()  # a cell's label names its summary row and trace files, so none may repeat
        for n, r, mu, *solver in itertools.product(self.n_values, self.r_values, self.mu_values,
                                                   self.modes, self.retractions):
            check_problem_args(self.problem, n, r, mu)
            if (label := run_label(self.problem, n, r, mu, *solver)) in labels:
                raise ValueError(f"two grid cells share the label {label!r}")
            labels.add(label)


@dataclass(frozen=True)
class SummaryRow:
    """Seed-averaged results for one (problem point, mode, retraction) cell.

    The averages are over the runs that returned. failures counts the runs
    that raised, and error holds the first of their messages (not written to
    the CSV); nonconverged counts the runs that returned a status other than
    converged.
    """

    label: str
    iterations: float
    F: float
    sparsity: float
    cpu_s: float
    linesearch: float
    ssn_iters: float
    failures: int
    nonconverged: int
    error: str = ""


def build_config(mode: str, retraction: str, overrides: dict) -> SolverConfig:
    return SolverConfig(**{**overrides, "mode": Mode(mode), "retraction": RetractionKind(retraction)})


def run_label(kind: str, n: int, r: int, mu: float, mode: str, retraction: str) -> str:
    return f"{kind}_n{n}_r{r}_mu{mu:g}_{mode}_{retraction}"


def _run_single(task: tuple) -> tuple[tuple, bool] | str:
    """Worker: one (instance, seed) solve. Returns SummaryRow's six statistics,
    in field order, and whether the run converged, or the error text if it raised."""
    kind, n, r, mu, config, seed, trace_path = task
    try:
        problem = make_problem(kind, n, r, mu, seed)
        X0 = random_point(n, r, seed)
        t0 = time.perf_counter()
        result = solve(problem, X0, config)
        cpu = time.perf_counter() - t0
        if trace_path is not None:
            write_trace_csv(result.trace, trace_path)
        trace, X = result.trace, result.point.data
        ls_trials, ssn_iters = sum(t.ls_trials for t in trace), sum(t.ssn_iters for t in trace)
        stats = (len(trace), problem.objective(X), sparsity(X), cpu, ls_trials, ssn_iters / max(1, len(trace)))
        return stats, result.status is Status.CONVERGED
    except Exception as exc:  # isolated: a failed run must not abort the sweep
        return f"{type(exc).__name__}: {exc}"


def _pool_size(n_tasks: int) -> int:
    raw = os.environ.get("BENCH_THREADS", "") or "0"
    if not raw.isdecimal():
        raise ValueError(f"BENCH_THREADS must be an integer >= 0 (0 means every usable CPU), got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(int(raw) or cpus, n_tasks))


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """One SummaryRow per (sweep point, mode, retraction), seed-averaged."""
    cells = list(itertools.product(spec.n_values, spec.r_values, spec.mu_values, spec.modes, spec.retractions))
    labels = [run_label(spec.problem, *cell) for cell in cells]
    trace_dir = Path(spec.trace_dir) if spec.trace_dir else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for label, (n, r, mu, mode, retraction) in zip(labels, cells):
        config = build_config(mode, retraction, spec.overrides)
        for seed in range(spec.base_seed, spec.base_seed + spec.seeds):
            tpath = str(trace_dir / f"{label}_seed{seed}.csv") if trace_dir else None
            tasks.append((spec.problem, n, r, mu, config, seed, tpath))

    # results come back in task order, so each cell's runs are one slice
    workers = _pool_size(len(tasks))
    if workers == 1:
        outs = list(map(_run_single, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(_run_single, tasks))

    rows = []
    for ci, label in enumerate(labels):
        cell = outs[ci * spec.seeds : (ci + 1) * spec.seeds]
        errors = [o for o in cell if isinstance(o, str)]
        good = [o for o in cell if not isinstance(o, str)]
        # averaged over the runs that returned; with none, no iterations and no F
        stats = [float(np.mean(col)) for col in zip(*(s for s, _ in good))] or [0.0, np.nan, np.nan, 0.0, 0.0, 0.0]
        nonconverged = sum(not converged for _, converged in good)
        rows.append(SummaryRow(label, *stats, len(errors), nonconverged, errors[0] if errors else ""))
    return rows


def emit_csv(rows: Sequence[SummaryRow], path) -> None:
    """UTF-8 summary CSV, 6 significant digits, '\\n' newlines."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SUMMARY_CSV_HEADER + "\n")
        for row in rows:
            label, *stats, failures, nonconverged, _ = dataclasses.astuple(row)
            fh.write(",".join([label, *(f"{x:.6g}" for x in stats), str(failures), str(nonconverged)]) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Sweep the composite Stiefel solvers over problem grids and seeds.",
    )
    parser.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    parser.add_argument("--n", required=True, type=int, nargs="+", help="column lengths to sweep")
    parser.add_argument("--r", required=True, type=int, nargs="+", help="column counts to sweep")
    parser.add_argument("--mu", required=True, type=float, nargs="+", help="l1 weights to sweep")
    parser.add_argument("--mode", type=str, nargs="+", default=["nls"], choices=MODE_NAMES)
    parser.add_argument("--retraction", type=str, nargs="+", default=["svd"], choices=RETRACTION_NAMES)
    parser.add_argument("--seeds", type=int, default=50, help="runs per cell (seed = base+i)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="summary CSV path")
    for name in _CONFIG_FIELDS:
        default = getattr(SolverConfig, name)
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=type(default), default=default, help="default %(default)s")
    parser.add_argument("--trace-dir", default=None, help="write per-run iteration traces here")
    args = parser.parse_args(argv)

    try:
        spec = ExperimentSpec(
            problem=args.problem,
            n_values=tuple(args.n),
            r_values=tuple(args.r),
            mu_values=tuple(args.mu),
            modes=tuple(args.mode),
            retractions=tuple(args.retraction),
            seeds=args.seeds,
            base_seed=args.base_seed,
            overrides={name: getattr(args, name) for name in _CONFIG_FIELDS},
            trace_dir=args.trace_dir,
        )
        rows = run_experiment(spec)
    except ValueError as exc:
        raise SystemExit(f"bench: {exc}") from None
    emit_csv(rows, args.out)
    failed = sum(row.failures for row in rows)
    nonconverged = sum(row.nonconverged for row in rows)
    print(f"wrote {len(rows)} rows to {args.out} ({failed} failed runs, {nonconverged} not converged)")
    for row in rows:
        if row.failures:
            print(f"  {row.label}: {row.failures} failed, first error: {row.error}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
