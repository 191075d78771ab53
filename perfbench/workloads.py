"""The benchmark's workloads, their correctness checks and their metrics.

A workload is a sequence of blocks; block b of a run with seed ``base`` is a
fixed list of solves whose seeds follow from ``base`` and b, and solve i of a
block uses one seed for both its instance and its initial point. A timed run
solves blocks 0, 1, 2, ... one after another in this process (closed loop:
each solve starts when the previous one returns) until the next block would
end after ``seconds``. A traced run repeats block 0 instead, alternating
untraced and traced passes, so its counts are the same on every pass.

Only ``sweep`` goes through ``stiefelprox.bench`` and its process pool.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
import scipy

from stiefelprox.bench import ExperimentSpec, build_config, run_experiment
from stiefelprox.problems import make_problem
from stiefelprox.solver import Status, solve
from stiefelprox.stiefel import feasibility_residual, random_point

from . import THREAD_VARS
from .refstep import PoolRefClock, RefClock
from .tracing import Tracer, layer_metrics, outcome

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# set-ups timed per block; their median over the run is setup_s
SETUP_REPEATS = 5
# A sweep cell's mean F may lie this far below and above the recorded median.
# About 1 seed in 20 of CM(n,4,0.1) stops in a local minimum 0.1-0.26 above the
# global one, so the upper side admits most of a cell's 8 runs doing so; the
# lower side admits no F below the global minimum.
SWEEP_F_BELOW = 0.01
SWEEP_F_ABOVE = 0.25
FINGERPRINT_KEYS = ("outer_iters", "newton_iters", "ls_trials", "F_mean", "sparsity_mean")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclasses.dataclass(frozen=True)
class Job:
    kind: str
    n: int
    r: int
    mu: float
    seed: int
    mode: str = "nls"


@dataclasses.dataclass
class Solved:
    job: Job
    seconds: float
    result: Any = None  # SolveResult, or None when solve raised
    F: float = math.nan
    sparsity: float = math.nan
    error: str = ""


@dataclasses.dataclass
class Block:
    """What one pass over a block did."""

    attempted: int
    failed: int
    wall_s: float  # first solve start to last solve end
    solve_s: list  # wall time per solve; sweep: per cell mean of the bench's cpu_s
    task_s: float  # sum of per-solve wall times
    iters: int  # accepted outer iterations
    fingerprint: dict
    errors: list


def check_solve(s: Solved, reference: dict) -> str:
    """The per-solve contract; returns '' when the solve is correct."""
    if s.result is None:
        return s.error
    job, res = s.job, s.result
    if res.status is not Status.CONVERGED:
        return f"status {res.status.value}"
    feas = feasibility_residual(res.point)
    if not feas <= 1e-10:
        return f"feasibility {feas:.3g} > 1e-10"
    if not res.final_norm_v_sq <= 1e-8 * job.n * job.r:
        return f"||V||^2 {res.final_norm_v_sq:.3g} > 1e-8*n*r"
    if job.kind == "spca":
        ref = reference["spca_F"].get(str(job.seed))
        if ref is not None and not abs(s.F - ref) <= 0.01 * abs(ref):
            return f"F {s.F:.6g} differs from recorded {ref:.6g} by more than 1%"
        lo, hi = reference["spca_F_band"]
        if ref is None and not lo <= s.F <= hi:
            return f"F {s.F:.6g} outside recorded band [{lo:.6g}, {hi:.6g}]"
    return ""


def check_cm_small_r(solved: list[Solved]) -> list[str]:
    """Criterion 1 of the acceptance gate on a 20-seed block, by the median.

    About 1 seed in 130 of CM(64,4,0.1) converges to a local minimum 0.1-0.3
    above the global one; two such seeds in a block move its mean by 0.02
    (seeds 809-828 do), and the median does not move.
    """
    F = float(np.median([s.F for s in solved]))
    sp = float(np.median([s.sparsity for s in solved]))
    errors = []
    if not abs(F - 1.425) <= 0.02:
        errors.append(f"median F {F:.4f} outside 1.425 +- 0.02")
    if not 0.75 <= sp <= 0.85:
        errors.append(f"median sparsity {sp:.3f} outside [0.75, 0.85]")
    return errors


def check_modes_agree(solved: list[Solved]) -> list[str]:
    """Criterion 4: the monotone and nonmonotone searches reach the same F.

    On a rare seed the two converge to different local minima (seed 720 of
    CM(128,4,0.1): 2.034 under arpqn, 1.885 under nls and pg), so one seed in
    four may disagree; more than that fails the block.
    """
    F = {(s.job.seed, s.job.mode): s.F for s in solved}
    seeds = sorted({s.job.seed for s in solved})
    errors = []
    for seed in seeds:
        gap = abs(F[(seed, "arpqn")] - F[(seed, "nls")])
        if not gap <= 1e-3:
            errors.append(f"seed {seed}: |F_arpqn - F_nls| = {gap:.3g} > 1e-3")
    return errors if len(errors) > len(seeds) // 4 else []


def no_block_check(solved: list[Solved]) -> list[str]:
    return []


@dataclasses.dataclass(frozen=True)
class SerialWorkload:
    """Solves run one at a time in this process."""

    name: str
    block: Callable[[int, int], list[Job]]  # (base seed, block index) -> jobs
    check_block: Callable[[list[Solved]], list[str]] = no_block_check
    # reference steps after each solve, as a share of its time
    ref_fraction: float = 0.08

    def setup(self, base: int, b: int, make: Callable = make_problem) -> list:
        return [
            (job, make(job.kind, job.n, job.r, job.mu, job.seed), random_point(job.n, job.r, job.seed))
            for job in self.block(base, b)
        ]

    def ref_clock(self) -> RefClock:
        job = self.block(0, 0)[0]
        return RefClock(job.n, job.r, self.ref_fraction)

    def run_block(
        self, inputs: list, reference: dict, run: Callable = solve, clock: Optional[RefClock] = None
    ) -> Block:
        solved = []
        paused = 0.0  # time on reference steps, kept out of the block's wall time
        start = time.perf_counter()
        for job, problem, x0 in inputs:
            config = build_config(job.mode, "svd", {})
            t0 = time.perf_counter()
            try:
                result = run(problem, x0, config)
            except Exception as exc:  # a crashed solve is a failed solve, not a crashed benchmark
                solved.append(Solved(job, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}"))
            else:
                solved.append(Solved(job, time.perf_counter() - t0, result, **outcome(problem, result)))
            if clock is not None:
                paused += clock.follow(solved[-1].seconds)
        wall = time.perf_counter() - start - paused
        errors = [f"{s.job}: {e}" for s in solved if (e := check_solve(s, reference))]
        failed = len(errors)
        if not errors:
            block_errors = self.check_block(solved)
            errors += block_errors
            failed = len(solved) if block_errors else 0
        records = [t for s in solved if s.result is not None for t in s.result.trace]
        return Block(
            attempted=len(solved),
            failed=failed,
            wall_s=wall,
            solve_s=[s.seconds for s in solved],
            task_s=sum(s.seconds for s in solved),
            iters=len(records),
            fingerprint={
                "outer_iters": len(records),
                "ls_trials": sum(t.ls_trials for t in records),
                "F_mean": float(np.mean([s.F for s in solved])),
                "sparsity_mean": float(np.mean([s.sparsity for s in solved])),
            },
            errors=errors,
        )

    def traced_block(self, base: int, reference: dict) -> tuple[Block, Tracer]:
        tracer = Tracer()
        with tracer.installed():
            inputs = self.setup(base, 0, tracer.make_problem)
            block = self.run_block(inputs, reference, tracer.solve)
        return block, tracer

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def bench_threads(workers: int):
    """Cap the bench's process pool through BENCH_THREADS for the duration."""
    saved = os.environ.get("BENCH_THREADS")
    os.environ["BENCH_THREADS"] = str(workers)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["BENCH_THREADS"]
        else:
            os.environ["BENCH_THREADS"] = saved


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """``bench.run_experiment`` over compressed-modes cells on a process pool."""

    name: str
    n_values: tuple
    r: int
    mu: float
    seeds: int  # runs per cell and block
    # reference steps after each run_experiment call, as a share of its time,
    # in each of nproc processes at once
    ref_fraction: float = 0.1

    def spec(self, base: int, b: int) -> ExperimentSpec:
        return ExperimentSpec(
            problem="cm", n_values=self.n_values, r_values=(self.r,), mu_values=(self.mu,),
            seeds=self.seeds, base_seed=base + self.seeds * b,
        )

    def setup(self, base: int, b: int) -> ExperimentSpec:
        # the bench builds instances inside its workers; build the same ones
        # here so that set-up cost is measured the same way on every workload
        spec = self.spec(base, b)
        for n in spec.n_values:
            for i in range(spec.seeds):
                make_problem("cm", n, self.r, self.mu, spec.base_seed + i)
                random_point(n, self.r, spec.base_seed + i)
        return spec

    def ref_clock(self) -> PoolRefClock:
        return PoolRefClock(max(self.n_values), self.r, self.ref_fraction, nproc())

    def run_block(
        self, spec: ExperimentSpec, reference: dict, workers: Optional[int] = None,
        clock: Optional[PoolRefClock] = None,
    ) -> Block:
        with bench_threads(workers or nproc()):
            start = time.perf_counter()
            rows = run_experiment(spec)
            wall = time.perf_counter() - start
        if clock is not None:
            clock.follow(wall)
        errors, failed = [], 0
        for row in rows:
            ref = reference["sweep_F"][row.label]
            row_errors = [f"{row.label}: {row.failures} failed runs"] if row.failures else []
            if not ref - SWEEP_F_BELOW <= row.F <= ref + SWEEP_F_ABOVE:
                row_errors.append(
                    f"{row.label}: mean F {row.F:.5g} outside [{ref - SWEEP_F_BELOW:.5g}, {ref + SWEEP_F_ABOVE:.5g}]"
                )
            errors += row_errors
            failed += spec.seeds if row_errors else 0
        good = [spec.seeds - row.failures for row in rows]
        iters = round(sum(row.iterations * g for row, g in zip(rows, good)))
        return Block(
            attempted=spec.seeds * len(rows),
            failed=failed,
            wall_s=wall,
            solve_s=[row.cpu_s for row in rows],
            task_s=sum(row.cpu_s * g for row, g in zip(rows, good)),
            iters=iters,
            fingerprint={
                "outer_iters": iters,
                "ls_trials": round(sum(row.linesearch * g for row, g in zip(rows, good))),
                "F_mean": float(np.mean([row.F for row in rows])),
                "sparsity_mean": float(np.mean([row.sparsity for row in rows])),
            },
            errors=errors,
        )

    def traced_block(self, base: int, reference: dict) -> tuple[Block, Tracer]:
        # serial, so that every layer call happens in this process
        tracer = Tracer()
        with tracer.installed():
            block = self.run_block(self.spec(base, 0), reference, workers=1)
        return block, tracer

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    w.name: w
    for w in (
        SerialWorkload(
            "cm-small-r",
            lambda base, b: [Job("cm", 64, 4, 0.1, base + 20 * b + i) for i in range(20)],
            check_cm_small_r,
        ),
        SerialWorkload(
            "spca-large-r",
            lambda base, b: [Job("spca", 300, 20, 0.6, base + 2 * b + i) for i in range(2)],
        ),
        SerialWorkload(
            "cm-modes",
            lambda base, b: [
                Job("cm", 128, 4, 0.1, base + 4 * b + i, mode) for i in range(4) for mode in ("nls", "arpqn", "pg")
            ],
            check_modes_agree,
        ),
        SweepWorkload("sweep", n_values=(64, 128), r=4, mu=0.1, seeds=8),
    )
}


def measure(w, base: int, seconds: float, reference: dict) -> dict:
    """Untraced timed run: end-to-end metrics plus block 0's fingerprint."""
    setups: list[float] = []
    blocks: list[Block] = []
    clock = w.ref_clock()
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = w.setup(base, len(blocks))
            setups.append(time.perf_counter() - t0)
        blocks.append(w.run_block(inputs, reference, clock=clock))
        if time.perf_counter() - start + blocks[-1].wall_s * (1.0 + w.ref_fraction) > seconds:
            break
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    samples = [t for b in blocks for t in b.solve_s]
    wall = sum(b.wall_s for b in blocks)
    iters = max(1, sum(b.iters for b in blocks))
    task = sum(b.task_s for b in blocks)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for b in blocks for e in b.errors],
        "blocks": len(blocks),
        "fingerprint": blocks[0].fingerprint,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "solves_per_s": ((attempted - failed) / wall, "1/s"),
            "iters_per_s": (iters / wall, "1/s"),
            "solve_s_p50": (statistics.median(samples), "s"),
            "ms_per_outer_iter": (1000.0 * task / iters, "ms"),
            "failed_frac": (failed / attempted, "ratio"),
            "peak_rss_mb": (w.peak_rss_mb(), "MB"),
            "ref_step_ms": (1000.0 * clock.step_s, "ms"),
            "outer_iter_cost": (task / iters / clock.step_s, "refsteps"),
            "outer_iter_wall_cost": (wall / iters / clock.step_s, "refsteps"),
        },
        "samples": len(samples),
    }


def trace(w, base: int, seconds: float, reference: dict) -> dict:
    """Traced run: block 0 untraced and traced in turn; per-layer metrics."""
    inputs = w.setup(base, 0)
    untraced: list[Block] = []
    pool: list[Block] = []
    traced: list[tuple[Block, Tracer]] = []
    start = time.perf_counter()
    while True:
        if isinstance(w, SweepWorkload):
            pool.append(w.run_block(inputs, reference))
            untraced.append(w.run_block(inputs, reference, workers=1))
        else:
            untraced.append(w.run_block(inputs, reference))
        traced.append(w.traced_block(base, reference))
        cycle = untraced[-1].wall_s + traced[-1][0].wall_s + (pool[-1].wall_s if pool else 0.0)
        if time.perf_counter() - start + cycle > seconds:
            break
    # every value from the traced pass of median solve time, so that its
    # layer times still add up to its solve time
    per_pass = sorted((layer_metrics(tracer) for _, tracer in traced), key=lambda m: m["solver.solve_s"])
    layers = per_pass[(len(per_pass) - 1) // 2]
    # the bench layer: the pool on sweep, the benchmark's own serial loop elsewhere
    runs = pool or untraced
    wall = statistics.median(b.wall_s for b in runs)
    task = statistics.median(b.task_s for b in runs)
    workers = min(nproc(), runs[0].attempted) if pool else 1
    layers.update({
        "bench.workers": workers,
        "bench.wall_s": wall,
        "bench.task_s_sum": task,
        "bench.pool_busy_frac": task / (workers * wall),
        "perfbench.trace_overhead_frac": (
            statistics.median(b.wall_s for b, _ in traced) / statistics.median(b.wall_s for b in untraced) - 1.0
        ),
    })
    blocks = untraced + pool + [b for b, _ in traced]
    fingerprint = block_fingerprint(layers)
    return {
        "attempted": sum(b.attempted for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "errors": [e for b in blocks for e in b.errors],
        "blocks": len(blocks),
        "fingerprint": fingerprint,
        "layers": layers,
        "tracers": [tracer for _, tracer in traced],
    }


def block_fingerprint(layers: dict) -> dict:
    """The deterministic per-layer values that identify a trajectory."""
    return {key: layers[("subproblem." if key == "newton_iters" else "solver.") + key] for key in FINGERPRINT_KEYS}


def fingerprint_diff(recorded: Optional[dict], seen: dict) -> list[str]:
    """Differences between a run's block-0 fingerprint and the recorded one."""
    if recorded is None:
        return ["no recorded fingerprint for this seed"]
    diffs = []
    for key in FINGERPRINT_KEYS:
        if key not in seen or key not in recorded:
            continue
        old, new = recorded[key], seen[key]
        if isinstance(old, int) and new != old:
            diffs.append(f"{key} {old} -> {new} ({new - old:+d}, {100.0 * (new - old) / max(1, old):+.2f}%)")
        elif not isinstance(old, int) and not math.isclose(new, old, rel_tol=1e-9, abs_tol=1e-12):
            diffs.append(f"{key} {old:.10g} -> {new:.10g} ({new - old:+.3g})")
    return diffs


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "sweep_workers": nproc(),
    }
