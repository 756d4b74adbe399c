"""Reference linear algebra that no solve calls: the svec of rank-one
matrices by their definition, the norm of the constraint operator, and the
dense aggregate W with the model primal it gives.

Kept only for the tests.  ``svec_rank_one`` is the bit reference for
``SvecSupport.rank_one``; ``norm_estimate`` gives acceptance criterion c09
its Lipschitz bound; ``fold_dense`` and ``model_primal`` form the n x n
matrices that the solver carries only through their linear images.
"""

import numpy as np

from polybundle.linalg import ConstraintOperator, SymMatrix, svec


def svec_rank_one(p: np.ndarray) -> np.ndarray:
    """Column i is svec(p_i p_i') for column p_i of the n x l matrix p."""
    return np.column_stack([svec(np.outer(c, c)).values for c in p.T])


def norm_estimate(op: ConstraintOperator, iters: int = 100,
                  seed: int = 0) -> float:
    """Operator norm of A (= largest singular value of avec) by power
    iteration."""
    rng = np.random.default_rng(seed)
    g = op.avec.T @ op.avec  # m x m
    y = rng.standard_normal(op.m)
    y /= np.linalg.norm(y)
    lam = 0.0
    for _ in range(iters):
        y2 = g @ y
        lam = float(np.linalg.norm(y2))
        if lam == 0.0:
            return 0.0
        y = y2 / lam
    return float(np.sqrt(lam))


def fold_dense(w: np.ndarray, state, eta: float, x: np.ndarray,
               p_bar: np.ndarray) -> np.ndarray:
    """The dense aggregate W after ``aggregate_and_append`` folds the p_bar
    columns of ``state`` with the weights (eta, x):
    (eta*W + sum_{i in p_bar} x_i p_i p_i') / mass for mass = eta +
    sum x[p_bar], or zeros at mass 0.  The oracle of the images the bundle
    carries: a[0] = <C, W>, B[:, 0] = A(W) and w_supp = svec(W) at the
    support."""
    x_bar = np.asarray(x, dtype=np.float64)[p_bar]
    mass = eta + x_bar.sum()
    if not mass > 0.0:
        return np.zeros_like(w)
    p = state.P[:, p_bar]
    return (eta * w + (p * x_bar) @ p.T) / mass


def model_primal(w: np.ndarray, state, u: np.ndarray) -> SymMatrix:
    """The model's primal X = eta*W + P diag(x) P' for the weights
    u = (eta, x) on ``state``, whose dense aggregate is ``w``."""
    eta, x = float(u[0]), np.asarray(u[1:], dtype=np.float64)
    xmat = eta * w + (state.P * x) @ state.P.T
    return SymMatrix.from_dense(0.5 * (xmat + xmat.T))
