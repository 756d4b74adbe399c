"""Reference linear algebra that no solve calls: the svec of rank-one
matrices by their definition, and the norm of the constraint operator.

Kept only for the tests.  ``svec_rank_one`` is the bit reference for
``SvecSupport.rank_one``; ``norm_estimate`` gives acceptance criterion c09
its Lipschitz bound.
"""

import numpy as np

from polybundle.linalg import ConstraintOperator, svec


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
