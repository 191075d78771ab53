"""A fixed reference step, timed alternately with the workload's solves.

A virtual machine that shares its host's cores changes speed by up to 2x
within seconds and over minutes. On a 2-core x86-64 one, a CM(64,4) solve
repeated back to back took between 0.8 and 1.8 ms per iteration, in CPU time
as in wall time, and a wall-clock cost per iteration spread over 20% of its
median from one run to the next. ``RefClock`` times a fixed step, built only
from NumPy and independent of the package, between the timed units of work
and for a share of each unit's time, so that it sees the machine in the
states the solves saw. A cost in reference steps (the work's time over the
time of one step) follows what the package does and cancels most of what the
machine does.

The step mirrors one proximal-gradient iteration on an n x r iterate: a
gradient product, an r x r symmetrisation, a soft-thresholded tangent step,
an SVD retraction and a dense solve over the r(r+1)/2 dual unknowns.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Optional

import numpy as np

WARMUP_STEPS = 20


class RefClock:
    """Reference steps on arrays of the workload's shape (n, r).

    ``fraction`` is the share of each timed unit of work spent on steps after
    it. Few long units need a larger share than many short ones, because each
    unit's steps sample the machine's speed once.
    """

    def __init__(self, n: int, r: int, fraction: float) -> None:
        self.fraction = fraction
        rng = np.random.default_rng(20240417)
        a = rng.standard_normal((n, n))
        self._a = a + a.T
        self._x = np.linalg.qr(rng.standard_normal((n, r)))[0]
        m = r * (r + 1) // 2
        k = rng.standard_normal((m, m))
        self._k = k @ k.T + m * np.eye(m)
        self._b = rng.standard_normal(m)
        self.seconds = 0.0  # time inside timed steps
        self.steps = 0
        for _ in range(WARMUP_STEPS):
            self._step()

    def _step(self) -> float:
        x = self._x
        g = self._a @ x
        m = x.T @ g
        y = x - 0.01 * (g - x @ (0.5 * (m + m.T)))
        z = np.sign(y) * np.maximum(np.abs(y) - 1e-3, 0.0)
        u, _, vt = np.linalg.svd(z, full_matrices=False)
        q = u @ vt
        w = np.linalg.solve(self._k, self._b)
        return float(np.vdot(q, q)) + float(w[0])

    def follow(self, busy_s: float) -> float:
        """Time steps for ``fraction`` of ``busy_s`` (at least one); returns the time taken."""
        start = time.perf_counter()
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            self._step()
            spent += time.perf_counter() - t0
            self.steps += 1
            if spent >= self.fraction * busy_s:
                break
        self.seconds += spent
        return time.perf_counter() - start

    @property
    def step_s(self) -> float:
        return self.seconds / self.steps


_worker_clock: Optional[RefClock] = None


def _start_worker(n: int, r: int, fraction: float) -> None:
    global _worker_clock
    _worker_clock = RefClock(n, r, fraction)


def _follow_in_worker(busy_s: float) -> tuple[float, int]:
    seconds, steps = _worker_clock.seconds, _worker_clock.steps
    _worker_clock.follow(busy_s)
    return _worker_clock.seconds - seconds, _worker_clock.steps - steps


class PoolRefClock:
    """``RefClock`` steps in ``processes`` processes at once.

    For work that itself ran on that many processes at once: the host slows
    two busy cores by a factor of its own, which one process does not see.
    Each ``follow`` starts its processes and waits for them to end, so that
    none is alive while the work starts its own.
    """

    def __init__(self, n: int, r: int, fraction: float, processes: int) -> None:
        self._args = (n, r, fraction)
        self.processes = processes
        self.seconds = 0.0
        self.steps = 0

    def follow(self, busy_s: float) -> float:
        start = time.perf_counter()
        with multiprocessing.Pool(self.processes, _start_worker, self._args) as pool:
            for seconds, steps in pool.map(_follow_in_worker, [busy_s] * self.processes, chunksize=1):
                self.seconds += seconds
                self.steps += steps
            pool.close()
            pool.join()
        return time.perf_counter() - start

    @property
    def step_s(self) -> float:
        return self.seconds / self.steps
