"""Polyhedral lower-approximation model: storage, generation, and updates.

The model at iteration k is
    F_k(y) = -b'y + max <eta*W + P diag(x) P', A'y - C>
over eta >= 0, x >= 0, eta + 1'x <= rho.  The aggregate matrix W is carried
only through its model column (<C, W>, A(W)) unless materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConstraintOperator, SvecSupport

UNIT_NORM_TOL = 1e-6
GAMMA1 = 1e-6  # aggregation threshold on a weight while the bundle has room
GAMMA2 = 1e-7  # aggregation threshold on a weight once the cap forces room


@dataclass
class BundleState:
    """Active bundle columns and the model arrays the QP reads.

    Entry and column 0 of (a, B) belong to the aggregate W; entry and column
    i belong to the bundle column p_i = P[:, i-1].
    """

    P: np.ndarray          # n x l, unit-norm columns
    a: np.ndarray          # l+1: <C, W>, then <C, p_i p_i'>
    B: np.ndarray          # m x (l+1): A(W), then A(p_i p_i')
    W: np.ndarray | None = None  # optional materialized aggregate (dense n x n)

    @classmethod
    def fresh(cls, p: np.ndarray, a: np.ndarray, b_mat: np.ndarray,
              materialize_w: bool) -> BundleState:
        """Bundle of the columns p alone, with an empty aggregate."""
        n = p.shape[0]
        return cls(P=p, a=np.concatenate([[0.0], a]),
                   B=np.column_stack([np.zeros(b_mat.shape[0]), b_mat]),
                   W=np.zeros((n, n)) if materialize_w else None)

    @property
    def l(self) -> int:
        return self.P.shape[1]


def pvec_generate(p: np.ndarray, op: ConstraintOperator, support: SvecSupport):
    """Bundle columns of the rank-one matrices p_i p_i' for the columns of p.

    ``support`` is ``SvecSupport.of(op, cvec)``, as ``SdpProblem.support`` holds it.
    Returns (a, B) with a_i = <C, p_i p_i'> and B[:, i] = A(p_i p_i'), both
    from Pvec[:, i] = svec(p_i p_i') at the support's positions:
    a = Pvec' cvec and B = avec' Pvec.  The cost is the support size times l
    to form Pvec plus nnz(avec)*l for B.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("p must be an n x l matrix")
    norms = np.linalg.norm(p, axis=0)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError("bundle columns must be unit-norm")
    if support.avec.shape[1] != op.m:
        raise ValueError("support was taken from another operator")
    pvec = support.rank_one(p)
    return pvec.T @ support.cvec, np.asarray(support.avec.T @ pvec)


def model_eval(y: np.ndarray, a: np.ndarray, b_mat: np.ndarray,
               rho: float, b: np.ndarray) -> float:
    """Closed-form model value -b'y + rho * max(max_j (B'y - a)_j, 0).

    The maximum of a linear functional over {u >= 0, 1'u <= rho} sits at 0 or
    at a scaled vertex rho*e_j.
    """
    coeffs = b_mat.T @ y - a
    return float(-(b @ y) + rho * max(float(coeffs.max(initial=0.0)), 0.0))


def select_aggregation(x: np.ndarray, r: int, l_max: int):
    """Split bundle indices into (p_bar to aggregate, p_hat to keep).

    While the x.size columns leave room for the r new ones, only weights
    below GAMMA1 are aggregated; otherwise the below-GAMMA2 weights plus the
    smallest weights (ties toward the lower index) so that |p_hat| + r <=
    l_max.  This split is the one place the bundle cap is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if l_max < r:
        raise ValueError("l_max must be at least the appended rank")
    room = l_max - r
    if x.size <= room:
        mask = x <= GAMMA1
    else:
        mask = x <= GAMMA2
        mask[np.argsort(x, kind="stable")[:x.size - room]] = True
    p_bar = np.flatnonzero(mask)
    p_hat = np.flatnonzero(~mask)
    return p_bar, p_hat


def aggregate_and_append(state: BundleState, eta: float, x: np.ndarray,
                         v_new: np.ndarray, a_new: np.ndarray,
                         b_new: np.ndarray, p_bar: np.ndarray,
                         p_hat: np.ndarray) -> BundleState:
    """Fold the p_bar columns into the aggregate and append the new block."""
    x = np.asarray(x, dtype=np.float64)
    x_bar = x[p_bar]
    mass = eta + x_bar.sum()
    if mass > 0.0:
        a_bar = (eta * state.a[0] + state.a[1 + p_bar] @ x_bar) / mass
        b_bar = (eta * state.B[:, 0] + state.B[:, 1 + p_bar] @ x_bar) / mass
    else:
        a_bar, b_bar = 0.0, np.zeros(state.B.shape[0])

    w = None
    if state.W is not None:
        if mass > 0.0:
            pb = state.P[:, p_bar]
            w = (eta * state.W + (pb * x_bar) @ pb.T) / mass
        else:
            w = np.zeros_like(state.W)

    p = np.column_stack([state.P[:, p_hat], v_new])
    a = np.concatenate([[a_bar], state.a[1 + p_hat], np.atleast_1d(a_new)])
    b_mat = np.column_stack([b_bar, state.B[:, 1 + p_hat], b_new])
    return BundleState(P=p, a=a, B=b_mat, W=w)
