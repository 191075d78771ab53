"""Diagonal metric from damped limited-memory BFGS curvature pairs.

The quasi-Newton operator B is never materialized: only diag(B) is needed for
the subproblem metric, and it is accumulated matrix-free from the stored
(s, y_damped) pairs. A regularizer sigma >= 0 is added on top, so the working
metric is diag(B) + sigma * I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CurvaturePair:
    """One displacement/gradient-difference pair after damping.

    s_dot_y = tr(s^T y_damped) is cached; damping guarantees
    s_dot_y >= 0.25 * theta * tr(s^T s) with theta the scale used at damping time.
    """

    s: np.ndarray
    y_damped: np.ndarray
    s_dot_y: float


def damp_pair(s: np.ndarray, y: np.ndarray, theta: float) -> CurvaturePair:
    """Blend y toward theta*s until the curvature tr(s^T y_bar) is safely positive.

    With a = theta * tr(s^T s) and b = tr(s^T y):
        beta = 1                      if b >= 0.25 * a,
        beta = 0.75 * a / (a - b)     otherwise,
    and y_bar = beta * y + (1 - beta) * theta * s. In the damped branch
    tr(s^T y_bar) = 0.25 * a exactly.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    sts = float(np.sum(s * s))
    if sts == 0.0:
        raise ValueError("zero displacement: pair must be skipped")
    a = theta * sts
    b = float(np.sum(s * y))
    if b >= 0.25 * a:
        beta = 1.0
        y_bar = np.array(y, dtype=float)
    else:
        beta = 0.75 * a / (a - b)
        y_bar = beta * y + (1.0 - beta) * theta * s
    return CurvaturePair(np.array(s, dtype=float), y_bar, float(np.sum(s * y_bar)))


def theta_init(s_prev: np.ndarray, y_prev: np.ndarray, theta_floor: float) -> float:
    """Scale for the initial operator B_0 = theta * I from the latest raw pair.

    theta = max(tr(y^T y) / tr(s^T y), theta_floor). Nonpositive curvature
    falls back to the floor, and so does curvature at roundoff level,
    tr(s^T y) <= 1e-12 ||s|| ||y||: a step orders of magnitude below the
    iterate's scale gives a quotient that overflows the metric.
    """
    sy = float(np.sum(s_prev * y_prev))
    yy = float(np.sum(y_prev * y_prev))
    if sy <= 1e-12 * math.sqrt(float(np.sum(s_prev * s_prev)) * yy):
        return theta_floor
    return max(yy / sy, theta_floor)


@dataclass
class LbfgsMemory:
    """Bounded history of damped curvature pairs plus the current theta scale."""

    capacity: int = 5
    theta_floor: float = 1e-3
    theta: float = 1.0
    pairs: list[CurvaturePair] = field(default_factory=list)

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store a new raw pair: refresh theta, damp, append, trim to capacity.

        Degenerate displacements (tr(s^T s) == 0) are skipped so a stalled
        step cannot poison the metric.
        """
        if float(np.sum(s * s)) == 0.0:
            return
        self.theta = theta_init(s, y, self.theta_floor)
        self.pairs.append(damp_pair(s, y, self.theta))
        if len(self.pairs) > self.capacity:
            del self.pairs[: len(self.pairs) - self.capacity]


def build_diag(memory: LbfgsMemory, n: int) -> np.ndarray:
    """diag(B) after applying every stored pair to B_0 = theta * I, matrix-free.

    The recursion B <- B - (B s)(B s)^T / tr(s^T B s) + y y^T / tr(s^T y) is
    tracked through the n x r products U_j = B s_j for the pairs still to be
    applied; the diagonal picks up row-wise squared norms. Cost O(n r^2 p^2);
    the n x n matrix is never formed. Pairs with tr(s^T B s) <= 1e-12 ||s||^2
    are skipped (degenerate curvature).
    """
    d = np.full(n, memory.theta, dtype=float)
    pairs = memory.pairs
    q = len(pairs)
    if q == 0:
        return d
    U = [memory.theta * p.s for p in pairs]
    for i in range(q):
        s_i, y_i, e_i = pairs[i].s, pairs[i].y_damped, pairs[i].s_dot_y
        Ui = U[i]
        c_i = float(np.sum(s_i * Ui))
        if c_i <= 1e-12 * float(np.sum(s_i * s_i)):
            continue
        d += np.sum(y_i * y_i, axis=1) / e_i - np.sum(Ui * Ui, axis=1) / c_i
        for j in range(i + 1, q):
            s_j = pairs[j].s
            U[j] = U[j] - Ui @ ((Ui.T @ s_j) / c_i) + y_i @ ((y_i.T @ s_j) / e_i)
    # roundoff containment: diag of a positive definite matrix is positive
    return np.maximum(d, 1e-12 * max(memory.theta, float(d.max(initial=0.0))))


@dataclass(frozen=True)
class DiagonalMetric:
    """Positive diagonal d plus regularizer sigma; weights are d + sigma."""

    d: np.ndarray
    sigma: float = 0.0

    def weights(self) -> np.ndarray:
        return self.d + self.sigma


def metric_norm_sq(metric: DiagonalMetric, V: np.ndarray) -> float:
    """tr(V^T (diag d + sigma I) V) = sum_i (d_i + sigma) sum_j V_ij^2."""
    return float(np.sum(metric.weights() * np.sum(V * V, axis=1)))
