"""Reference active-set QP: the ``solve_subproblem`` that polybundle's
LAPACK-direct version replaced, with ``cho_factor``/``cho_solve``, the
``np.ix_`` gather of the free block and the per-index ratio test and
multiplier scan.  It starts at u = 0 and returns whatever point it reaches,
certified or not.

Kept only as a test oracle.  The tests compare results, not paths: where
the reference raises, the package raises the same exception class (a
working-set system that does not factor is ``np.linalg.LinAlgError`` in
both); where the reference certifies its point, the package ends at the
same final working set and simplex flag, with ``u``, ``z`` and the
objective equal within the KKT certificate.
"""

import numpy as np
import scipy.linalg

from polybundle.qp import (
    ITER_CAP_FACTOR,
    QP_TOL_BASE,
    REFINE_STEPS,
    NonConvergence,
    QpSolution,
    SubproblemData,
    kkt_residual,
)


def _eqp_solve(h: np.ndarray, q: np.ndarray, free: np.ndarray,
               simplex_active: bool, rho: float):
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
    c = scipy.linalg.cho_factor(hff, lower=True, check_finite=False)

    if not simplex_active:
        x = scipy.linalg.cho_solve(c, -qf, check_finite=False)
        for _ in range(REFINE_STEPS):
            r = -qf - hff @ x
            x = x + scipy.linalg.cho_solve(c, r, check_finite=False)
        u[free] = x
        return u, 0.0

    # block elimination of the augmented system [H 1; 1' 0][u; mu] = [-q; rho]
    ones = np.ones(int(free.sum()))
    h1 = scipy.linalg.cho_solve(c, ones, check_finite=False)
    denom = h1.sum()
    if abs(denom) < 1e-300:
        raise np.linalg.LinAlgError("degenerate simplex working set")
    hq = scipy.linalg.cho_solve(c, -qf, check_finite=False)
    mu = (hq.sum() - rho) / denom
    x = hq - mu * h1
    for _ in range(REFINE_STEPS):
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
    h = d.h
    q = d.q
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
        u_hat, mu = _eqp_solve(h, q, free, simplex_active, d.rho)
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
        bound_active=bound_active,
        simplex_active=simplex_active,
        objective=float(0.5 * u @ (h @ u) + q @ u),
    )
