"""Diagonal metric from damped limited-memory BFGS curvature pairs.

The quasi-Newton operator B is never materialized: only diag(B) is needed for
the subproblem metric, and it is accumulated matrix-free from the stored
(s, y_damped) pairs. A regularizer sigma >= 0 is added on top, so the working
metric is diag(B) + sigma * I, passed around as its weights w = d + sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from ._checks import check_integer


class CurvaturePair(NamedTuple):
    """One displacement/gradient-difference pair after damping.

    s_dot_y = tr(s^T y_damped) and s_dot_s = tr(s^T s), as push computed
    them; damping guarantees s_dot_y >= 0.25 * theta * s_dot_s with theta the
    scale used at damping time.
    """

    s: np.ndarray
    y_damped: np.ndarray
    s_dot_y: float
    s_dot_s: float


@dataclass
class LbfgsMemory:
    """Bounded history of damped curvature pairs plus the current theta scale."""

    capacity: int = 3  # 5 pairs reach no gap to the limit sooner; 2 move SPCA's final F by > 1%
    theta: float = field(default=1.0, init=False)  # refreshed by push, not a keyword
    pairs: list[CurvaturePair] = field(default_factory=list, init=False)

    theta_floor: ClassVar[float] = 1e-3  # lower bound on theta, readable but not a keyword

    def __post_init__(self) -> None:
        check_integer("capacity", self.capacity, 1)

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store a new raw pair: refresh theta, damp, append, trim to capacity.

        The scale of the initial operator B_0 = theta * I comes from this raw
        pair: theta = max(tr(y^T y) / tr(s^T y), theta_floor). Nonpositive
        curvature falls back to the floor, and so does curvature at roundoff
        level, tr(s^T y) <= 1e-12 ||s|| ||y||: a step orders of magnitude below
        the iterate's scale gives a quotient that overflows the metric.

        Damping then blends y toward theta*s until the curvature tr(s^T y_bar)
        is safely positive. With a = theta * tr(s^T s) and b = tr(s^T y):
            beta = 1                      if b >= 0.25 * a,
            beta = 0.75 * a / (a - b)     otherwise,
        and y_bar = beta * y + (1 - beta) * theta * s. In the damped branch
        tr(s^T y_bar) = 0.25 * a exactly.

        Degenerate displacements (tr(s^T s) == 0) are skipped so a stalled
        step cannot poison the metric. A pair whose s and y differ in shape,
        that is not 2-d, whose shape differs from the stored pairs', or with a
        non-finite entry, raises ValueError.
        """
        if s.shape != y.shape:
            raise ValueError(f"s and y must have the same shape, got {s.shape} and {y.shape}")
        if s.ndim != 2:
            raise ValueError(f"s and y must be 2-d, got shape {s.shape}")
        if self.pairs and s.shape != self.pairs[0].s.shape:
            raise ValueError(f"pair shape {s.shape} differs from the stored pairs' {self.pairs[0].s.shape}")
        sts = float(np.vdot(s, s))
        sty = float(np.vdot(s, y))
        yty = float(np.vdot(y, y))
        if not math.isfinite(sts + yty):
            raise ValueError(f"s and y must be finite, got tr(s^T s) = {sts} and tr(y^T y) = {yty}")
        if sts == 0.0:
            return
        if sty <= 1e-12 * math.sqrt(sts * yty):
            self.theta = self.theta_floor
        else:
            self.theta = max(yty / sty, self.theta_floor)
        a = self.theta * sts
        if sty >= 0.25 * a:
            pair = CurvaturePair(np.array(s, dtype=float), np.array(y, dtype=float), sty, sts)
        else:
            beta = 0.75 * a / (a - sty)
            y_bar = beta * y + (1.0 - beta) * self.theta * s
            pair = CurvaturePair(np.array(s, dtype=float), y_bar, float(np.vdot(s, y_bar)), sts)
        self.pairs.append(pair)
        if len(self.pairs) > self.capacity:
            del self.pairs[: len(self.pairs) - self.capacity]


def build_diag(memory: LbfgsMemory, n: int) -> np.ndarray:
    """diag(B) after applying every stored pair to B_0 = theta * I, matrix-free.

    The recursion B <- B - (B s)(B s)^T / tr(s^T B s) + y y^T / tr(s^T y)
    gives B_j = theta I + W_j diag(scale_j) W_j^T before pair j, where the
    columns of W_j are [U_0, y_0, ..., U_{j-1}, y_{j-1}], U_k = B_k s_k, and
    scale is -1/c_k on the U_k columns, 1/e_k on the y_k columns
    (c_k = tr(s_k^T U_k), e_k = tr(s_k^T y_k)). It is evaluated left-looking
    in a fresh n x 2qr array W: for each pair, with P = W[:, :2jr],

        U_j = theta s_j + P diag(scale[:2jr]) P^T s_j,

    then U_j and y_j fill the next 2r columns, and at the end
    diag(B) = theta + (W o W) scale. Cost O(n r^2 q^2); the n x n matrix is
    never formed. Pairs with c <= 1e-12 ||s||^2 are skipped (degenerate
    curvature): their columns are zeroed and their scale is 0. An n that is
    not an integer >= 1 or not the pairs' row count raises ValueError.
    """
    check_integer("n", n, 1)
    theta = memory.theta
    pairs = memory.pairs
    if not pairs:
        return np.full(n, theta, dtype=float)
    if pairs[0].s.shape[0] != n:
        raise ValueError(f"n = {n} does not match the stored pairs' {pairs[0].s.shape[0]} rows")
    r = pairs[0].s.shape[1]
    W = np.empty((n, 2 * r * len(pairs)))
    scale = np.zeros((W.shape[1], 1))
    for j, pair in enumerate(pairs):
        lo, mid, hi = 2 * j * r, (2 * j + 1) * r, (2 * j + 2) * r
        s = pair.s
        if j == 0:
            U = theta * s
        else:
            P = W[:, :lo]
            U = theta * s + P @ ((P.T @ s) * scale[:lo])
        c = float(np.vdot(s, U))
        if c <= 1e-12 * pair.s_dot_s:
            W[:, lo:hi] = 0.0
            continue
        W[:, lo:mid] = U
        W[:, mid:hi] = pair.y_damped
        scale[lo:mid] = -1.0 / c
        scale[mid:hi] = 1.0 / pair.s_dot_y
    # every column was written above, so W is squared in place
    d = theta + np.square(W, out=W) @ scale[:, 0]
    # roundoff containment: diag of a positive definite matrix is positive
    return np.maximum(d, 1e-12 * max(theta, float(d.max(initial=0.0))))


def metric_norm_sq(w: np.ndarray, V: np.ndarray) -> float:
    """tr(V^T diag(w) V) = sum_i w_i sum_j V_ij^2, with w = d + sigma the metric weights."""
    return float((w * (V * V).sum(axis=1)).sum())
