"""Polyhedral lower-approximation model: storage, generation, and updates.

The model at iteration k is
    F_k(y) = -b'y + max <eta*W + P diag(x) P', A'y - C>
over eta >= 0, x >= 0, eta + 1'x <= rho.  The aggregate matrix W is carried
only through the pair (a_bar, B_bar) = (<C, W>, A(W)) unless materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConstraintOperator, svec_indices

UNIT_NORM_TOL = 1e-6


class BundleCapError(RuntimeError):
    """Internal error: an update would exceed the bundle cap."""


@dataclass
class BundleState:
    """Active bundle columns plus the scalar/vector aggregate pair."""

    P: np.ndarray          # n x l, unit-norm columns
    a_hat: np.ndarray      # l,   <C, p_i p_i'>
    B_hat: np.ndarray      # m x l, A(p_i p_i')
    a_bar: float = 0.0     # <C, W>
    B_bar: np.ndarray = None  # m,  A(W)
    W: np.ndarray | None = None  # optional materialized aggregate (dense n x n)

    def __post_init__(self):
        if self.B_bar is None:
            self.B_bar = np.zeros(self.B_hat.shape[0])

    @property
    def l(self) -> int:
        return self.P.shape[1]

    def model_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, B) with the aggregate as entry/column 0."""
        a = np.concatenate([[self.a_bar], self.a_hat])
        b = np.column_stack([self.B_bar, self.B_hat])
        return a, b


def pvec_generate(p: np.ndarray, op: ConstraintOperator, cvec: np.ndarray):
    """svec the rank-one outer products of the columns of p.

    Returns (Pvec, a, B) with Pvec[:, i] = svec(p_i p_i'), a = Pvec' cvec and
    B = avec' Pvec.  The sparse avec product makes the cost nnz(avec)*l plus
    the dense n^2 l of forming Pvec.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    if p.ndim != 2:
        raise ValueError("p must be an n x l matrix")
    norms = np.linalg.norm(p, axis=0)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError("bundle columns must be unit-norm")
    rows, cols, scale = svec_indices(p.shape[0])
    pvec = p[rows, :] * p[cols, :] * scale[:, None]
    a = pvec.T @ np.asarray(cvec, dtype=np.float64)
    b = op.avec.T @ pvec
    return pvec, a, np.asarray(b)


def model_eval(y: np.ndarray, a: np.ndarray, b_mat: np.ndarray,
               rho: float, b: np.ndarray) -> float:
    """Closed-form model value -b'y + rho * max(max_j (B'y - a)_j, 0).

    The maximum of a linear functional over {u >= 0, 1'u <= rho} sits at 0 or
    at a scaled vertex rho*e_j.
    """
    coeffs = b_mat.T @ y - a
    return float(-(b @ y) + rho * max(float(coeffs.max(initial=0.0)), 0.0))


def select_aggregation(x: np.ndarray, l: int, r: int, l_max: int,
                       gamma1: float, gamma2: float):
    """Split bundle indices into (p_bar to aggregate, p_hat to keep).

    When there is room for the r new columns, only weights below gamma1 are
    aggregated; otherwise the below-gamma2 weights plus however many smallest
    weights are needed so that |p_hat| + r <= l_max.  Ties among smallest
    weights break toward the lower column index.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != l:
        raise ValueError("weight vector length must equal bundle count")
    if l_max < r:
        raise ValueError("l_max must be at least the appended rank")
    if l <= l_max - r:
        mask = x <= gamma1
    else:
        mask = x <= gamma2
        forced = l - (l_max - r)
        order = np.argsort(x, kind="stable")
        mask = mask.copy()
        mask[order[:forced]] = True
    p_bar = np.flatnonzero(mask)
    p_hat = np.flatnonzero(~mask)
    return p_bar, p_hat


def aggregate_and_append(state: BundleState, eta: float, x: np.ndarray,
                         v_new: np.ndarray, a_new: np.ndarray,
                         b_new: np.ndarray, p_bar: np.ndarray,
                         p_hat: np.ndarray, l_max: int) -> BundleState:
    """Fold the p_bar columns into the aggregate and append the new block."""
    x = np.asarray(x, dtype=np.float64)
    x_bar = x[p_bar]
    mass = eta + x_bar.sum()
    if mass > 0.0:
        a_bar = (eta * state.a_bar + state.a_hat[p_bar] @ x_bar) / mass
        b_bar = (eta * state.B_bar + state.B_hat[:, p_bar] @ x_bar) / mass
    else:
        a_bar, b_bar = 0.0, np.zeros_like(state.B_bar)

    w = None
    if state.W is not None:
        if mass > 0.0:
            pb = state.P[:, p_bar]
            w = (eta * state.W + (pb * x_bar) @ pb.T) / mass
        else:
            w = np.zeros_like(state.W)

    p = np.column_stack([state.P[:, p_hat], v_new])
    a_hat = np.concatenate([state.a_hat[p_hat], np.atleast_1d(a_new)])
    b_hat = np.column_stack([state.B_hat[:, p_hat], b_new])
    if p.shape[1] > l_max:
        raise BundleCapError(
            f"bundle count {p.shape[1]} exceeds cap {l_max} after update"
        )
    return BundleState(P=p, a_hat=a_hat, B_hat=b_hat,
                       a_bar=float(a_bar), B_bar=b_bar, W=w)
