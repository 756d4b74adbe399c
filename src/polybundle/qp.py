"""Regularized quadratic subproblem over the nonnegative scaled simplex.

Solves
    min  1/2 u'(t B'B + xi I)u + (a - B'(y + t b))'u
    s.t. u >= 0,  1'u <= rho
with a primal active-set method, and certifies the result through a KKT
residual.  The candidate point is z = y + t(b - B u).  Each working-set
system is factored with LAPACK ``dpotrf`` and solved with ``dpotrs``,
followed by ``REFINE_STEPS`` passes of iterative refinement; a system that
does not factor raises ``np.linalg.LinAlgError``.  The solver passes xi > 0,
which makes the quadratic term positive definite.

The method may start from any feasible point and working set (``QpStart``),
such as the previous QP's solution.  Its result is the minimizer of the
final working set, so a start that reaches the same set gives the same bits.
A full step leaves the working set unchanged, so its minimizer is kept and
the same set is never solved twice in a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

QP_TOL_BASE = 1e-10
ITER_CAP_FACTOR = 50
REFINE_STEPS = 2  # iterative-refinement passes per working-set solve


class NonConvergence(RuntimeError):
    """Active-set iteration cap exceeded, or a KKT residual not within its
    certificate."""


@dataclass(frozen=True)
class SubproblemData:
    """The QP's inputs, with its quadratic term ``h``, linear term ``q`` and
    KKT certificate ``tol`` built once from them."""

    B: np.ndarray            # m x (l+1)
    a: np.ndarray            # l+1
    y: np.ndarray            # m, current center
    b: np.ndarray            # m, right-hand side
    t: float                 # step size > 0
    xi: float = 0.0          # regularization >= 0; the solver's is > 0
    rho: float = 1.0         # penalty / trace bound > 0
    h: np.ndarray = field(init=False, repr=False)    # t B'B + xi I
    q: np.ndarray = field(init=False, repr=False)    # a - B'(y + t b)
    tol: float = field(init=False, repr=False)       # QP_TOL_BASE (1 + ||q||_inf)

    def __post_init__(self):
        if not 0 < self.t < np.inf:
            raise ValueError("step size must be finite and positive")
        if not 0 <= self.xi < np.inf:
            raise ValueError("xi must be finite and nonnegative")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and positive")
        h = self.t * (self.B.T @ self.B) + self.xi * np.eye(self.B.shape[1])
        q = self.a - self.B.T @ (self.y + self.t * self.b)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", QP_TOL_BASE * (
            1.0 + float(np.abs(q).max(initial=0.0))))


@dataclass(frozen=True)
class QpStart:
    """A feasible point and the working set to start the active-set method
    from: every coordinate held at its bound must be 0 there."""

    u: np.ndarray
    bound_active: np.ndarray  # mask of the u_i that start at the zero bound
    simplex_active: bool

    @classmethod
    def priced(cls, d: SubproblemData, u: np.ndarray, simplex_active: bool):
        """The start at the feasible point u that holds at the bound every
        coordinate at 0 whose gradient ``(h u + q)_i`` is nonnegative; the
        others start free."""
        return cls(u, (u == 0.0) & (d.h @ u + d.q >= 0.0), simplex_active)

    def check(self, d: SubproblemData):
        """ValueError unless this is a feasible start of the QP d: 1'u <= rho,
        with equality when the simplex starts active, both within d.tol."""
        p = d.q.size
        if self.u.shape != (p,) or self.bound_active.shape != (p,):
            raise ValueError(f"warm start has {self.u.size} coordinates and "
                             f"{self.bound_active.size} bounds, expected {p}")
        if not np.isfinite(self.u).all() or (self.u < 0.0).any():
            raise ValueError("warm-start point must be finite and nonnegative")
        if (self.u[self.bound_active.astype(bool)] != 0.0).any():
            raise ValueError("warm-start point is nonzero on a bound coordinate")
        excess = self.u.sum() - d.rho
        if (abs(excess) if self.simplex_active else excess) > d.tol:
            raise ValueError(f"warm-start point is off the simplex: "
                             f"1'u - rho = {excess:.3g}")


@dataclass
class QpSolution:
    u: np.ndarray
    z: np.ndarray
    kkt_residual: float
    bound_active: np.ndarray  # mask of the u_i held at the zero bound
    simplex_active: bool
    objective: float


def _factor(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of h (upper triangle left as it was)."""
    c, info = dpotrf(h, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor is not positive definite")
    return c


def _solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(c, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _eqp_solve(h: np.ndarray, q: np.ndarray, free: np.ndarray,
               simplex_active: bool, rho: float):
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
    c = _factor(hff)

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
        raise np.linalg.LinAlgError("degenerate simplex working set")
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
                     warm_start: QpStart | None = None) -> QpSolution:
    """Primal active-set method for the simplex-constrained QP.

    ``warm_start`` is the feasible point and working set to start from;
    without it the method starts at u = 0 with every bound active.  The
    result is the minimizer of the final working set, with every free
    coordinate at exactly 0 moved to the bound set first, so every start
    that ends at that working set gives the same bits.  Raises
    ``NonConvergence`` when the iteration cap is hit or the KKT residual of
    the result is not within its certificate ``d.tol`` (a NaN is not), and
    ``np.linalg.LinAlgError`` when a working-set system does not factor.
    """
    h, q, tol = d.h, d.q, d.tol
    p = q.size

    start = warm_start if warm_start is not None else QpStart(
        np.zeros(p), np.ones(p, dtype=bool), False)
    start.check(d)
    u = start.u.astype(np.float64)
    bound_active = start.bound_active.astype(bool)
    simplex_active = start.simplex_active
    mu = 0.0

    max_iters = ITER_CAP_FACTOR * p
    at_minimizer = False  # u is u_hat, the current working set's minimizer
    for _ in range(max_iters):
        free = ~bound_active
        if not at_minimizer:
            u_hat, mu = _eqp_solve(h, q, free, simplex_active, d.rho)
            step = u_hat - u
            at_minimizer = np.abs(step).max(initial=0.0) <= 1e-14 * (
                1.0 + np.abs(u).max(initial=0.0))
        if at_minimizer:
            # at the working-set minimizer; a free coordinate at exactly 0
            # would only change the last bits of the others, so it is bound
            at_minimizer = False
            zero = free & (u_hat == 0.0)
            if zero.any():
                bound_active |= zero
                continue
            # the most negative multiplier below -tol leaves the working set
            # (ties to the lowest index)
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
                u = u_hat
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
            # a full step: the working set is unchanged, and solving it
            # again would give the same bits
            u, at_minimizer = u_hat, True
    else:
        raise NonConvergence("active-set iteration cap exceeded")

    u = np.where(np.abs(u) < 1e-300, 0.0, u)
    res = kkt_residual(d, u)
    if not res <= tol:
        raise NonConvergence(
            f"KKT residual {res:.3g} not within its certificate {tol:.3g}")
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
