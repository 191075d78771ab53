"""Span tracing of the stiefelprox layers, done from outside the package.

The solver resolves ``ssn_solve``, ``build_diag``, ``metric_norm_sq`` and
``line_search`` as attributes of ``stiefelprox.solver`` at call time, and the
bench resolves ``make_problem`` and ``solve`` as attributes of
``stiefelprox.bench``; ``Tracer.installed`` swaps those attributes for timing
wrappers and puts the originals back afterwards. ``eval_f``/``eval_grad_f``
are wrapped by handing ``solve`` a ``dataclasses.replace`` of the problem.

Every wrapped call becomes one ``Span``. Spans stay in memory until the
benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

import numpy as np

import stiefelprox.bench
import stiefelprox.problems
import stiefelprox.solver

# the solver's call-time lookups the tracer replaces, with their span names
_SOLVER_CALLS = {
    "ssn_solve": "subproblem.ssn_solve",
    "build_diag": "metric.build_diag",
    "metric_norm_sq": "metric.metric_norm_sq",
    "line_search": "solver.line_search",
}

NO_SOLVE = -1


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    solve_id: int  # NO_SOLVE outside solve()
    detail: Any = None


class Tracer:
    """Records one span per call into a wrapped layer function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solves: list[tuple[Any, Any]] = []  # (problem, SolveResult) per solve
        self._stack: list[int] = []
        self._solve_ids = itertools.count()
        self._solve_id = NO_SOLVE

    def wrap(self, name: str, fn: Callable, detail: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._solve_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if detail is not None:
                span.detail = detail(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def make_problem(self, kind: str, n: int, r: int, mu: float, seed: int):
        """Traced ``make_problem`` whose result has traced ``eval_f``/``eval_grad_f``."""
        problem = self.wrap("problems.make_problem", stiefelprox.problems.make_problem)(kind, n, r, mu, seed)
        return dataclasses.replace(
            problem,
            eval_f=self.wrap("problems.eval_f", problem.eval_f),
            eval_grad_f=self.wrap("problems.eval_grad_f", problem.eval_grad_f),
        )

    def solve(self, problem, x0, config=None):
        """Traced ``solve``; each call gets its own solve id."""
        self._solve_id = next(self._solve_ids)
        try:
            result = self.wrap("solver.solve", stiefelprox.solver.solve)(problem, x0, config)
        finally:
            self._solve_id = NO_SOLVE
        self.solves.append((problem, result))
        return result

    @contextmanager
    def installed(self):
        """Route the solver's and the bench's layer calls through this tracer."""
        solver, bench = stiefelprox.solver, stiefelprox.bench
        saved = [(solver, attr, getattr(solver, attr)) for attr in _SOLVER_CALLS]
        saved += [(bench, attr, getattr(bench, attr)) for attr in ("make_problem", "solve")]
        try:
            for attr, name in _SOLVER_CALLS.items():
                detail = _ssn_detail if attr == "ssn_solve" else None
                setattr(solver, attr, self.wrap(name, getattr(solver, attr), detail))
            bench.make_problem = self.make_problem
            bench.solve = self.solve
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, fh) -> None:
        """One JSON object per span and line."""
        for s in self.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "solve": s.solve_id}) + "\n")


def _ssn_detail(result) -> tuple[int, bool]:
    return result.ssn_iters, result.converged


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and busy times of the spans and solves recorded so far.

    Only spans inside a solve count towards the solver's layers, so objective
    evaluations made afterwards to check the answer do not.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start

    def total(name: str, self_time: bool = False) -> tuple[int, float]:
        calls, busy = 0, 0.0
        for i, s in enumerate(spans):
            if s.name == name and (s.solve_id != NO_SOLVE or name == "problems.make_problem"):
                calls += 1
                busy += s.end - s.start - (child_s[i] if self_time else 0.0)
        return calls, busy

    ssn = [s.detail for s in spans if s.name == "subproblem.ssn_solve" and s.solve_id != NO_SOLVE]
    ssn_calls, ssn_s = total("subproblem.ssn_solve")
    newton_iters = sum(it for it, _ in ssn)
    build_calls, build_s = total("metric.build_diag")
    norm_calls, norm_s = total("metric.metric_norm_sq")
    _, retract_s = total("solver.line_search", self_time=True)
    f_calls, f_s = total("problems.eval_f")
    g_calls, g_s = total("problems.eval_grad_f")
    _, make_s = total("problems.make_problem")
    solve_calls, solve_s = total("solver.solve")
    _, self_s = total("solver.solve", self_time=True)
    records = [t for _, res in tracer.solves for t in res.trace]
    outcomes = [outcome(p, res) for p, res in tracer.solves]
    return {
        "subproblem.ssn_calls": ssn_calls,
        "subproblem.ssn_s": ssn_s,
        "subproblem.newton_iters": newton_iters,
        "subproblem.ms_per_newton_iter": 1000.0 * ssn_s / max(1, newton_iters),
        "subproblem.converged_ratio": sum(c for _, c in ssn) / max(1, ssn_calls),
        "metric.build_diag_calls": build_calls,
        "metric.build_diag_s": build_s,
        "metric.norm_sq_calls": norm_calls,
        "metric.norm_sq_s": norm_s,
        # each line-search trial is one retraction plus one eval_f
        "stiefel.retract_calls": sum(
            1 for s in spans
            if s.name == "problems.eval_f" and s.parent is not None and spans[s.parent].name == "solver.line_search"
        ),
        "stiefel.retract_s": retract_s,
        "problems.eval_f_calls": f_calls,
        "problems.eval_f_s": f_s,
        "problems.eval_grad_f_calls": g_calls,
        "problems.eval_grad_f_s": g_s,
        "problems.make_s": make_s,
        "solver.solves": solve_calls,
        "solver.solve_s": solve_s,
        "solver.outer_iters": len(records),
        "solver.resolves": sum(t.resolves - 1 for t in records),
        "solver.ls_trials": sum(t.ls_trials for t in records),
        "solver.backtracks": sum(t.backtracks for t in records),
        "solver.self_s": self_s,
        "solver.F_mean": sum(o["F"] for o in outcomes) / max(1, len(outcomes)),
        "solver.sparsity_mean": sum(o["sparsity"] for o in outcomes) / max(1, len(outcomes)),
    }


def outcome(problem, result) -> dict[str, float]:
    """Objective and sparsity of a solve's returned point."""
    X = result.point.data
    eval_f = getattr(problem.eval_f, "__wrapped__", problem.eval_f)
    return {
        "F": float(eval_f(X)) + problem.mu * float(np.abs(X).sum()),
        "sparsity": stiefelprox.problems.sparsity(X),
    }

