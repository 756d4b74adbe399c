"""An interior-point reference for Max-Cut that no solve calls.

The primal-dual predictor-corrector of Helmberg, Rendl, Vanderbei and
Wolkowicz (1996, SIAM J. Optim. 6) for

    min <C, X>  s.t.  diag(X) = b, X PSD,   and   max b'y  s.t.  Z = C - Diag(y) PSD,

on the HKM direction, whose Schur matrix is Z^-1 o X.  Kept only for the
tests: it gives the optimum of a Max-Cut instance independently of the
bundle method, its eigensolves and its certificates.
"""

import numpy as np
import scipy.linalg as sla


def _step(m: np.ndarray, d: np.ndarray) -> float:
    """The step along d from the positive definite m: 1 if m + d has a
    Cholesky factor, else 0.95 times the first 0.8^k that keeps one."""
    alpha = 1.0
    while alpha > 1e-12:
        try:
            np.linalg.cholesky(m + alpha * d)
        except np.linalg.LinAlgError:
            alpha *= 0.8
            continue
        return alpha if alpha == 1.0 else 0.95 * alpha
    raise np.linalg.LinAlgError("no step keeps the matrix positive definite")


def maxcut_hrvw(c: np.ndarray, b: np.ndarray, gap: float = 1e-8,
                maxiter: int = 100):
    """(X, y) at a relative gap (<C, X> - b'y) / (1 + |b'y|) of
    at most ``gap``, from X = Diag(b) and y below the Gershgorin bound of C.

    X keeps diag(X) = b to rounding and Z = C - Diag(y) stays positive
    definite, so b'y <= p* <= <C, X>.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.diag(b)
    y = np.diag(c) - (np.abs(c).sum(axis=1) - np.abs(np.diag(c))) - 1.0
    for _ in range(maxiter):
        z = c - np.diag(y)
        dual = float(b @ y)
        if float(np.vdot(c, x)) - dual <= gap * (1.0 + abs(dual)):
            return x, y
        mu = float(np.vdot(z, x)) / n
        lz = np.linalg.cholesky(z)
        zinv, info = sla.lapack.dpotri(lz, lower=1)
        if info:
            raise np.linalg.LinAlgError(f"dpotri returned info = {info}")
        zinv = np.tril(zinv) + np.tril(zinv, -1).T
        schur = sla.cho_factor(zinv * x, check_finite=False)

        def direction(target, zc):
            # Z dX + dZ X = target I - Z X - Z zc with dZ = -Diag(dy) and
            # diag(dX) = b - diag(X); the symmetric part of dX
            dy = sla.cho_solve(schur, b - target * np.diag(zinv) + np.diag(zc),
                               check_finite=False)
            dx = target * zinv - x - zc + zinv @ (dy[:, None] * x)
            return 0.5 * (dx + dx.T), dy

        dx, dy = direction(0.0, np.zeros((n, n)))
        ap, ad = _step(x, dx), _step(z, -np.diag(dy))
        mu_aff = float(np.vdot(z - ad * np.diag(dy), x + ap * dx)) / n
        sigma = (mu_aff / mu) ** 3
        # the corrector's second-order term dZ dX of the predictor
        dx, dy = direction(sigma * mu, zinv @ (-dy[:, None] * dx))
        ap, ad = _step(x, dx), _step(z, -np.diag(dy))
        x = x + ap * dx
        y = y + ad * dy
    raise RuntimeError(f"no relative gap {gap} in {maxiter} iterations")
