"""Regularized quadratic subproblem over the nonnegative scaled simplex.

Solves
    min  1/2 u'(t B'B + xi I)u + (a - B'(y + t b))'u
    s.t. u >= 0,  1'u <= rho
with a primal active-set method, and certifies the result through a KKT
residual.  The candidate point is z = y + t(b - B u).  Each working-set
system is factored with LAPACK ``dpotrf`` and solved with ``dpotrs``,
followed by ``REFINE_STEPS`` passes of iterative refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

QP_TOL_BASE = 1e-10
ITER_CAP_FACTOR = 50
REFINE_STEPS = 2  # iterative-refinement passes per working-set solve


class SingularSubproblem(RuntimeError):
    """Quadratic term numerically singular with xi = 0."""


class NonConvergence(RuntimeError):
    """Active-set iteration cap exceeded, or a KKT residual above its
    certificate; carries the last iterate and its residual."""

    def __init__(self, message: str, u: np.ndarray, residual: float):
        super().__init__(message)
        self.u = u
        self.residual = residual


@dataclass(frozen=True)
class SubproblemData:
    """The QP's inputs, with its quadratic term ``h``, linear term ``q`` and
    KKT certificate ``tol`` built once from them."""

    B: np.ndarray            # m x (l+1)
    a: np.ndarray            # l+1
    y: np.ndarray            # m, current center
    b: np.ndarray            # m, right-hand side
    t: float                 # step size > 0
    xi: float = 0.0          # regularization >= 0
    rho: float = 1.0         # penalty / trace bound > 0
    h: np.ndarray = field(init=False, repr=False)    # t B'B + xi I
    q: np.ndarray = field(init=False, repr=False)    # a - B'(y + t b)
    tol: float = field(init=False, repr=False)       # QP_TOL_BASE (1 + ||q||_inf)

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("step size must be positive")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        h = self.t * (self.B.T @ self.B) + self.xi * np.eye(self.B.shape[1])
        q = self.a - self.B.T @ (self.y + self.t * self.b)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", QP_TOL_BASE * (
            1.0 + float(np.abs(q).max(initial=0.0))))


@dataclass
class QpSolution:
    u: np.ndarray
    z: np.ndarray
    kkt_residual: float
    bound_active: np.ndarray  # mask of the u_i held at the zero bound
    simplex_active: bool
    objective: float


def _factor(h: np.ndarray, xi: float) -> np.ndarray:
    """Lower Cholesky factor of h (upper triangle left as it was)."""
    c, info = dpotrf(h, lower=1, clean=0)
    if info > 0:
        if xi == 0.0:
            raise SingularSubproblem("t B'B singular and xi = 0; increase xi")
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor is not positive definite")
    return c


def _solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(c, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _eqp_solve(h: np.ndarray, q: np.ndarray, free: np.ndarray,
               simplex_active: bool, rho: float, xi: float):
    """Minimizer on the current working set; returns (u_hat, mu).

    Iterative refinement counters the ill-conditioning the tiny-xi
    regularization leaves in the working-set system; a bare solve would cap
    the certifiable KKT residual near 1e-8.
    """
    u = np.zeros(q.size)
    idx = free.nonzero()[0]
    if idx.size == 0:
        return u, 0.0
    hff = h.take(idx, 0).take(idx, 1)
    qf = q.take(idx)
    c = _factor(hff, xi)

    if not simplex_active:
        x = _solve(c, -qf)
        for _ in range(REFINE_STEPS):
            r = -qf - hff @ x
            x = x + _solve(c, r)
        u[idx] = x
        return u, 0.0

    # block elimination of the augmented system [H 1; 1' 0][u; mu] = [-q; rho]
    h1 = _solve(c, np.ones(idx.size))
    denom = h1.sum()
    if abs(denom) < 1e-300:
        raise SingularSubproblem("degenerate simplex working set")
    hq = _solve(c, -qf)
    mu = (hq.sum() - rho) / denom
    x = hq - mu * h1
    for _ in range(REFINE_STEPS):
        r1 = -qf - hff @ x - mu
        r2 = rho - x.sum()
        s1 = _solve(c, r1)
        dmu = (s1.sum() - r2) / denom
        x = x + s1 - dmu * h1
        mu = mu + dmu
    u[idx] = x
    return u, float(mu)


def solve_subproblem(d: SubproblemData,
                     warm_start: np.ndarray | None = None) -> QpSolution:
    """Primal active-set method for the simplex-constrained QP.

    ``warm_start`` is a boolean mask, one entry per column of ``B``, of bound
    constraints to start active; without it every bound starts active.  The
    iterate always starts at the feasible point u = 0.  Raises
    ``NonConvergence`` when the iteration cap is hit or the KKT residual of
    the result exceeds its certificate ``d.tol``.
    """
    h, q, tol = d.h, d.q, d.tol
    p = q.size

    if warm_start is None:
        bound_active = np.ones(p, dtype=bool)
    elif warm_start.size == p:
        bound_active = warm_start.astype(bool)
    else:
        raise ValueError(f"warm-start mask has {warm_start.size} entries, "
                         f"expected {p}")
    simplex_active = False
    u = np.zeros(p)
    mu = 0.0

    max_iters = ITER_CAP_FACTOR * p
    for _ in range(max_iters):
        free = ~bound_active
        u_hat, mu = _eqp_solve(h, q, free, simplex_active, d.rho, d.xi)
        step = u_hat - u
        if np.abs(step).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(u).max(initial=0.0)):
            # at the working-set minimizer; the most negative multiplier below
            # -tol leaves the working set (ties to the lowest index)
            g = h @ u + q
            lam = g + (mu if simplex_active else 0.0)
            worst_idx, worst = -1, -tol
            active = bound_active.nonzero()[0]
            if active.size:
                i = active[lam.take(active).argmin()]
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
        # longest feasible step toward u_hat; ties to the lowest index
        alpha = 1.0
        block_bound, block_simplex = -1, False
        neg = (free & (step < 0)).nonzero()[0]
        if neg.size:
            ratios = -u.take(neg) / step.take(neg)
            j = ratios.argmin()
            if ratios[j] < alpha:
                alpha, block_bound = ratios[j], neg[j]
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
    res = kkt_residual(d, u)
    if res > tol:
        raise NonConvergence(
            f"KKT residual {res:.3g} above its certificate {tol:.3g}", u, res)
    z = d.y + d.t * (d.b - d.B @ u)
    return QpSolution(
        u=u, z=z, kkt_residual=res,
        bound_active=bound_active,
        simplex_active=simplex_active,
        objective=float(0.5 * u @ (h @ u) + q @ u),
    )


def kkt_residual(d: SubproblemData, u: np.ndarray) -> float:
    """Max violation over stationarity/complementarity and primal feasibility.

    The simplex multiplier is recovered by least squares on the active set:
    stationarity forces mu = -g_i on every strictly free coordinate.
    """
    u = np.asarray(u, dtype=np.float64)
    g = d.h @ u + d.q
    slack = d.rho - u.sum()
    mu = 0.0
    if slack <= d.tol * 10 + 1e-12 * d.rho:
        free = u > d.tol
        if free.any():
            mu = max(0.0, float(-g[free].mean()))
    parts = [
        float(np.abs(np.minimum(u, g + mu)).max(initial=0.0)),
        float(max(-u.min(initial=0.0), 0.0)),
        float(max(-slack, 0.0)),
        float(abs(min(mu, max(slack, 0.0)))),
    ]
    return max(parts)
