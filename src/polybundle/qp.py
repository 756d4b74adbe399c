"""Regularized quadratic subproblem over the nonnegative scaled simplex.

Solves
    min  1/2 u'(t B'B + xi I)u + (a - B'(y + t b))'u
    s.t. u >= 0,  1'u <= rho
with a primal active-set method, and certifies the result through a KKT
residual.  The candidate point is z = y + t(b - B u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

QP_TOL_BASE = 1e-10
ITER_CAP_FACTOR = 50


class SingularSubproblem(RuntimeError):
    """Quadratic term numerically singular with xi = 0."""


class NonConvergence(RuntimeError):
    """Active-set iteration cap exceeded; carries the best iterate."""

    def __init__(self, message: str, u: np.ndarray, residual: float):
        super().__init__(message)
        self.u = u
        self.residual = residual


@dataclass
class SubproblemData:
    B: np.ndarray            # m x (l+1)
    a: np.ndarray            # l+1
    y: np.ndarray            # m, current center
    b: np.ndarray            # m, right-hand side
    t: float                 # step size > 0
    xi: float = 0.0          # regularization >= 0
    rho: float = 1.0         # penalty / trace bound > 0

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("step size must be positive")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    def hessian(self) -> np.ndarray:
        p = self.B.shape[1]
        return self.t * (self.B.T @ self.B) + self.xi * np.eye(p)

    def linear(self) -> np.ndarray:
        return self.a - self.B.T @ (self.y + self.t * self.b)


@dataclass
class QpSolution:
    u: np.ndarray
    z: np.ndarray
    kkt_residual: float
    active_set: np.ndarray   # indices with u_i at the zero bound
    simplex_active: bool
    objective: float


def _factor(h: np.ndarray, xi: float):
    try:
        return scipy.linalg.cho_factor(h, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        if xi == 0.0:
            raise SingularSubproblem(
                "t B'B singular and xi = 0; increase xi"
            ) from exc
        raise


def _eqp_solve(h: np.ndarray, q: np.ndarray, free: np.ndarray,
               simplex_active: bool, rho: float, xi: float,
               refine: int = 2):
    """Minimizer on the current working set; returns (u_hat, mu).

    Iterative refinement counters the ill-conditioning the tiny-xi
    regularization leaves in the working-set system; a bare solve would cap
    the certifiable KKT residual near 1e-8.
    """
    p = q.size
    u = np.zeros(p)
    if not free.any():
        return u, 0.0
    hff = h[np.ix_(free, free)]
    qf = q[free]
    c = _factor(hff, xi)

    if not simplex_active:
        x = scipy.linalg.cho_solve(c, -qf, check_finite=False)
        for _ in range(refine):
            r = -qf - hff @ x
            x = x + scipy.linalg.cho_solve(c, r, check_finite=False)
        u[free] = x
        return u, 0.0

    # block elimination of the augmented system [H 1; 1' 0][u; mu] = [-q; rho]
    ones = np.ones(int(free.sum()))
    h1 = scipy.linalg.cho_solve(c, ones, check_finite=False)
    denom = h1.sum()
    if abs(denom) < 1e-300:
        raise SingularSubproblem("degenerate simplex working set")
    hq = scipy.linalg.cho_solve(c, -qf, check_finite=False)
    mu = (hq.sum() - rho) / denom
    x = hq - mu * h1
    for _ in range(refine):
        r1 = -qf - hff @ x - mu
        r2 = rho - x.sum()
        s1 = scipy.linalg.cho_solve(c, r1, check_finite=False)
        dmu = (s1.sum() - r2) / denom
        x = x + s1 - dmu * h1
        mu = mu + dmu
    u[free] = x
    return u, float(mu)


def solve_subproblem(d: SubproblemData,
                     warm_start: np.ndarray | None = None) -> QpSolution:
    """Primal active-set method for the simplex-constrained QP.

    ``warm_start`` is a boolean mask of bound constraints to start active;
    the iterate always starts at the feasible point u = 0.
    """
    h = d.hessian()
    q = d.linear()
    p = q.size
    scale = 1.0 + float(np.abs(q).max(initial=0.0))
    tol = QP_TOL_BASE * scale

    if warm_start is not None and warm_start.size == p:
        bound_active = warm_start.astype(bool).copy()
    else:
        bound_active = np.ones(p, dtype=bool)
    simplex_active = False
    u = np.zeros(p)
    mu = 0.0

    max_iters = ITER_CAP_FACTOR * p
    for _ in range(max_iters):
        free = ~bound_active
        u_hat, mu = _eqp_solve(h, q, free, simplex_active, d.rho, d.xi)
        step = u_hat - u
        if np.abs(step).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(u).max(initial=0.0)):
            # at the working-set minimizer; check multipliers
            g = h @ u + q
            lam = g + (mu if simplex_active else 0.0)
            worst_idx, worst = -1, -tol
            for i in np.flatnonzero(bound_active):
                if lam[i] < worst:
                    worst, worst_idx = lam[i], i
            if simplex_active and mu < worst:
                worst, worst_idx = mu, -2
            if worst_idx == -1:
                break
            if worst_idx == -2:
                simplex_active = False
            else:
                bound_active[worst_idx] = False
            continue
        # longest feasible step toward u_hat
        alpha = 1.0
        block_bound, block_simplex = -1, False
        neg = free & (step < 0)
        for i in np.flatnonzero(neg):
            cand = -u[i] / step[i]
            if cand < alpha:
                alpha, block_bound = cand, i
        if not simplex_active:
            sd = step.sum()
            if sd > 1e-16:
                cand = (d.rho - u.sum()) / sd
                if cand < alpha:
                    alpha, block_bound, block_simplex = cand, -1, True
        u = u + max(alpha, 0.0) * step
        if block_simplex:
            simplex_active = True
        elif block_bound >= 0:
            u[block_bound] = 0.0
            bound_active[block_bound] = True
        elif alpha >= 1.0:
            u = u_hat
    else:
        res = kkt_residual(d, u)
        raise NonConvergence("active-set iteration cap exceeded", u, res)

    u = np.where(np.abs(u) < 1e-300, 0.0, u)
    z = d.y + d.t * (d.b - d.B @ u)
    res = kkt_residual(d, u)
    return QpSolution(
        u=u, z=z, kkt_residual=res,
        active_set=np.flatnonzero(bound_active),
        simplex_active=simplex_active,
        objective=float(0.5 * u @ (h @ u) + q @ u),
    )


def kkt_residual(d: SubproblemData, u: np.ndarray) -> float:
    """Max violation over stationarity/complementarity and primal feasibility.

    The simplex multiplier is recovered by least squares on the active set:
    stationarity forces mu = -g_i on every strictly free coordinate.
    """
    u = np.asarray(u, dtype=np.float64)
    h = d.hessian()
    q = d.linear()
    g = h @ u + q
    scale = 1.0 + float(np.abs(q).max(initial=0.0))
    slack = d.rho - u.sum()
    mu = 0.0
    if slack <= QP_TOL_BASE * scale * 10 + 1e-12 * d.rho:
        free = u > QP_TOL_BASE * scale
        if free.any():
            mu = max(0.0, float(-g[free].mean()))
    parts = [
        float(np.abs(np.minimum(u, g + mu)).max(initial=0.0)),
        float(max(-u.min(initial=0.0), 0.0)),
        float(max(-slack, 0.0)),
        float(abs(min(mu, max(slack, 0.0)))),
    ]
    return max(parts)


def qp_tolerance(d: SubproblemData) -> float:
    """Certification threshold 1e-10 * (1 + ||q||_inf)."""
    return QP_TOL_BASE * (1.0 + float(np.abs(d.linear()).max(initial=0.0)))
