"""Polyhedral lower-approximation model: storage, generation, and updates.

The model at iteration k is
    F_k(y) = -b'y + max <eta*W + P diag(x) P', A'y - C>
over eta >= 0, x >= 0, eta + 1'x <= rho.  The aggregate matrix W is never
formed: it is carried only through linear images that one rule folds, its
model column (<C, W>, A(W)) and, when the solver asks for them, its values
at the support's positions (the columns' values there are formed from P).
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
    i belong to the bundle column p_i = P[:, i-1].  ``w_supp`` is svec(W) at
    the positions of ``support``, the instance's ``SvecSupport``, when the
    state is taken on one; both are None otherwise.
    """

    P: np.ndarray          # n x l, unit-norm columns
    a: np.ndarray          # l+1: <C, W>, then <C, p_i p_i'>
    B: np.ndarray          # m x (l+1): A(W), then A(p_i p_i')
    w_supp: np.ndarray | None = None
    support: SvecSupport | None = None

    @classmethod
    def fresh(cls, p: np.ndarray, a: np.ndarray, b_mat: np.ndarray,
              support: SvecSupport | None = None) -> BundleState:
        """Bundle of the columns p alone, with an empty aggregate W = 0; with
        its support values when ``support`` is given."""
        return cls(P=p, a=np.concatenate([[0.0], a]),
                   B=np.column_stack([np.zeros(b_mat.shape[0]), b_mat]),
                   w_supp=None if support is None else np.zeros_like(support.cvec),
                   support=support)

    @property
    def l(self) -> int:
        return self.P.shape[1]


def pvec_generate(p: np.ndarray, op: ConstraintOperator, support: SvecSupport):
    """Bundle columns of the rank-one matrices p_i p_i' for the columns of p.

    ``support`` is ``SvecSupport.of(op, C)``, as ``SdpProblem.support`` holds it.
    Returns (a, B) with a_i = <C, p_i p_i'> and B[:, i] = A(p_i p_i'),
    both from Pvec[:, i] = svec(p_i p_i') at the support's positions:
    a = Pvec' cvec and B = avec' Pvec.  Pvec is not kept.  The cost is the
    support size times l to form Pvec plus nnz(avec)*l for B.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("p must be an n x l matrix")
    norms = np.linalg.norm(p, axis=0)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError("bundle columns must be unit-norm")
    if support.avec.shape[1] != op.m:
        raise ValueError("support was taken from another operator")
    # a and B read the (support, columns) layout in C order, whose BLAS
    # and sparsetools kernels fix their bits
    pvec = support.rank_one(p)
    return pvec.T @ support.cvec, np.asarray(support.avec.T @ pvec)


def support_values(state: BundleState, u: np.ndarray) -> np.ndarray:
    """svec(X) at the support's positions for the model's
    X = eta*W + P diag(x) P' with the weights u = (eta, x), from ``w_supp``
    and the columns of positive weight: a weight a hair below 0, which the
    QP may leave, counts as 0, so X is a sum of PSD terms."""
    eta, x = max(float(u[0]), 0.0), u[1:]
    act = np.flatnonzero(x > 0.0)
    return eta * state.w_supp + x[act] @ _by_column(state.support, state.P[:, act])


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
    """Fold the p_bar columns into the aggregate and append the new block.

    Every image of W the state carries is folded by one rule,
    (eta * image + sum_{i in p_bar} x_i * image(p_i p_i')) / mass for
    mass = eta + sum x[p_bar], or zeros at mass 0.
    """
    x = np.asarray(x, dtype=np.float64)
    x_bar = x[p_bar]
    mass = eta + x_bar.sum()

    def fold(image, folded):
        if image is None:
            return None
        return (eta * image + folded()) / mass if mass > 0.0 else np.zeros_like(image)

    a_bar = fold(state.a[0], lambda: state.a[1 + p_bar] @ x_bar)
    b_bar = fold(state.B[:, 0], lambda: state.B[:, 1 + p_bar] @ x_bar)
    w_supp = fold(state.w_supp,
                  lambda: x_bar @ _by_column(state.support, state.P[:, p_bar]))

    p = np.column_stack([state.P[:, p_hat], v_new])
    a = np.concatenate([[a_bar], state.a[1 + p_hat], np.atleast_1d(a_new)])
    b_mat = np.column_stack([b_bar, state.B[:, 1 + p_hat], b_new])
    return BundleState(P=p, a=a, B=b_mat, w_supp=w_supp, support=state.support)


def _by_column(support: SvecSupport, p: np.ndarray) -> np.ndarray:
    """``support.rank_one(p)`` as a (columns, support) block in C order, the
    layout whose gemv kernel the weighted sums over it were pinned with."""
    return np.ascontiguousarray(support.rank_one(p).T)
