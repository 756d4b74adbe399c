"""Polyhedral bundle method for the exact-penalty dual SDP.

Minimizes F(y) = -b'y + rho * max(lambda_max(A'y - C), 0) by solving small
regularized QPs over the polyhedral lower model, with bundle aggregation,
adaptive step sizes, optional rank prediction, and relative KKT termination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bundle as bundle_mod
from . import qp as qp_mod
from .bundle import BundleState, model_eval, pvec_generate, select_aggregation
from .linalg import (
    DENSE_EIG_CUTOFF,
    SymMatrix,
    extreme_eigs,
    smat_dense,
    svec_indices,
)
from .problems import SdpProblem

STATUS_CONVERGED = "Converged"
STATUS_ITER_LIMIT = "IterLimit"
STATUS_TIME_LIMIT = "TimeLimit"
STATUS_SUBPROBLEM_FAILURE = "SubproblemFailure"

LMAX_PRESETS = ("half", "sq", "2sq", "5sq")


def lmax_from_policy(policy, r: int) -> int:
    """Bundle cap from a preset name or an explicit integer."""
    if isinstance(policy, str):
        if policy == "half":
            val = r * (r + 1) // 2 + r
        elif policy == "sq":
            val = r * r
        elif policy == "2sq":
            val = 2 * r * r
        elif policy == "5sq":
            val = 5 * r * r
        else:
            raise ValueError(f"unknown l_max preset {policy!r}")
    else:
        val = int(policy)
    if val < r:
        raise ValueError("l_max must be at least the per-iteration rank")
    return val


@dataclass
class SolverParams:
    """Tunable knobs of the bundle method; defaults follow the low-condition regime."""

    t0: float = 1e-2
    t_min: float = 1e-3
    t_max: float = 1.0
    beta1: float = 0.05
    beta2: float = 0.65
    beta3: float = 0.001
    xi: float = 1e-8
    rho: float | None = None
    gamma1: float = 1e-6
    gamma2: float = 1e-7
    rank: int | None = None
    l_max: int | str = "half"
    eps: float = 1e-4
    maxiter: int = 500
    time_limit_secs: float | None = None
    nullmax: int = 5
    predict_rank: bool = False
    prior_rank: int | None = None
    predcountmax: int = 10
    materialize_w: bool = False

    def validate(self):
        if not 0 < self.beta3 < self.beta1 < self.beta2 < 1:
            raise ValueError("need 0 < beta3 < beta1 < beta2 < 1")
        if not 0 < self.t_min <= self.t_max:
            raise ValueError("need 0 < t_min <= t_max")
        if not self.t_min <= self.t0 <= self.t_max:
            raise ValueError("t0 must lie in [t_min, t_max]")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")
        if self.nullmax < 0:
            raise ValueError("nullmax must be nonnegative")
        if self.predict_rank and self.prior_rank is None:
            raise ValueError("prior_rank required when predict_rank is set")
        if isinstance(self.l_max, str) and self.l_max not in LMAX_PRESETS:
            raise ValueError(f"l_max preset must be one of {LMAX_PRESETS}")


@dataclass
class IterationRecord:
    k: int
    step_type: str            # "descent" | "null"
    F_y: float
    F_z: float
    model_value: float
    delta_pred: float
    delta_true: float
    t: float
    l: int
    delta1: float
    delta4: float
    delta5: float
    delta6: float
    eig_min_S: float
    elapsed_secs: float


@dataclass
class IterationInfo:
    """Snapshot handed to the per-iteration callback (model audit hooks)."""

    y: np.ndarray             # center the subproblem was solved at
    z: np.ndarray             # candidate
    t: float                  # step used by this iteration's subproblem
    a_post: np.ndarray        # model (a, B) after the bundle update
    B_post: np.ndarray
    F_z: float
    model_z: float
    lam_max_z: float          # lambda_max(A'z - C)
    v_min: np.ndarray         # eigenvector of lambda_min(C - A'z)


@dataclass
class SolveResult:
    status: str
    y: np.ndarray
    S: SymMatrix
    u: np.ndarray
    objective_dual: float
    objective_primal: float
    X: SymMatrix | None
    delta1: float
    delta4: float
    delta5: float
    delta6: float
    iterations: int
    wall_secs: float
    trace: list[IterationRecord]
    rank_used: int
    rho: float

    @property
    def max_delta(self) -> float:
        return max(self.delta1, self.delta4, self.delta5, self.delta6)


def dual_slack(problem: SdpProblem, y: np.ndarray):
    """S = C - A'y, dense for small n, sparse CSR above the dense cutoff."""
    svals = problem.cvec - problem.op.avec @ y
    if problem.n <= DENSE_EIG_CUTOFF:
        return smat_dense(svals)
    rows, cols, scale = svec_indices(problem.n)
    entries = svals / scale
    nz = entries != 0.0
    r, c, v = rows[nz], cols[nz], entries[nz]
    off = r != c
    return sp.csr_matrix(
        (np.concatenate([v, v[off]]),
         (np.concatenate([r, c[off]]), np.concatenate([c, r[off]]))),
        shape=(problem.n, problem.n),
    )


def penalty_eval(problem: SdpProblem, y: np.ndarray, r: int, rho: float,
                 n_eigs: int | None = None):
    """Exact-penalty value and the bottom eigenpairs of the dual slack.

    Returns (F, lam_max, V, eigvals) where lam_max = lambda_max(A'y - C),
    V holds the eigenvectors of the r smallest eigenvalues of S = C - A'y
    (ascending) and eigvals are the n_eigs (default r) smallest eigenvalues.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    k = max(r, n_eigs or r)
    s = dual_slack(problem, y)
    eig = extreme_eigs(s, min(k, problem.n), which="smallest")
    lam_max = -float(eig.values[0])
    f = -float(problem.b @ y) + rho * max(lam_max, 0.0)
    return f, lam_max, eig.vectors[:, :r], eig.values


def descent_decision(f_y: float, f_z: float, model_z: float, t: float,
                     nullcount: int, params: SolverParams):
    """Accept/reject the candidate and adapt the step size.

    Returns (accept, t_new, nullcount_new).
    """
    delta_pred = f_y - model_z
    delta_true = f_y - f_z
    if params.beta1 * delta_pred <= delta_true:
        t_new = t
        if params.beta2 * delta_pred <= delta_true:
            t_new = min(2.0 * t, params.t_max)
        return True, t_new, 0
    nullcount += 1
    t_new = t
    if params.beta3 * delta_pred >= delta_true and nullcount >= params.nullmax:
        t_new = max(0.5 * t, params.t_min)
        nullcount = 0
    return False, t_new, nullcount


def termination_check(b: np.ndarray, u: np.ndarray, a: np.ndarray,
                      b_mat: np.ndarray, y: np.ndarray, lambda_min_s: float,
                      f_y: float, model_z: float, eps: float):
    """Relative KKT quantities (delta1, delta4, delta5, delta6, done).

    delta2 and delta3 vanish by construction (X >= 0 on the model side and
    S = C - A'y exactly) and are not computed.
    """
    norm_b = float(np.linalg.norm(b))
    delta1 = float(np.linalg.norm(b_mat @ u - b)) / (1.0 + norm_b)
    delta4 = max(-lambda_min_s, 0.0)
    au = float(a @ u)
    by = float(b @ y)
    delta5 = abs(au - by) / (1.0 + abs(au) + abs(by))
    delta6 = abs(f_y - model_z) / (1.0 + abs(f_y))
    done = max(delta1, delta4, delta5, delta6) <= eps
    return delta1, delta4, delta5, delta6, done


@dataclass
class RankPrediction:
    """State of the rank-prediction phase."""

    prior_rank: int
    predcountmax: int
    r_prev: int = 0
    predcount: int = 0
    active: bool = True


def rank_predict_step(p: np.ndarray, s_eigs_ascending: np.ndarray,
                      state: RankPrediction):
    """One gap-detection step; returns (finalize, predicted_rank).

    The singular values of the bundle and the bottom eigenvalues of the dual
    slack both develop a gap at the optimal rank; the prediction is the max
    of the two gap positions, finalized once stable for predcountmax+1
    consecutive iterations.
    """
    r = state.prior_rank
    sigma = np.linalg.svd(p, compute_uv=False)
    sigma = np.concatenate([sigma, np.zeros(max(0, r + 1 - sigma.size))])
    # The bundle gains exactly r fresh orthonormal columns per iteration, so
    # its tail singular values collapse near position r whenever retained
    # columns lie in the span of the new block; a gap detected at r itself is
    # that artifact, not the optimum (the prior is chosen strictly larger
    # than the true rank, so positions 1..r-1 lose nothing).
    span = max(r - 1, 1)
    sig_gaps = sigma[:span] - sigma[1:span + 1]
    r_bar = int(np.argmax(sig_gaps)) + 1

    e = np.asarray(s_eigs_ascending, dtype=np.float64)
    e = np.concatenate([e, np.full(max(0, r + 1 - e.size), e[-1] if e.size else 0.0)])
    eig_gaps = e[1:r + 1] - e[:r]
    r_hat = int(np.argmax(eig_gaps)) + 1

    r_k = max(r_bar, r_hat)
    if r_k == state.r_prev:
        state.predcount += 1
    else:
        state.predcount = 0
    state.r_prev = r_k
    if state.predcount > state.predcountmax:
        state.active = False
        return True, r_k
    return False, r_k


def recover_primal(state: BundleState, u: np.ndarray) -> SymMatrix:
    """Materialized primal X = eta*W + P diag(x) P' for the weights u."""
    if state.W is None:
        raise ValueError("aggregate W not materialized; enable materialize_w")
    eta, x = float(u[0]), np.asarray(u[1:], dtype=np.float64)
    xmat = eta * state.W + (state.P * x) @ state.P.T
    return SymMatrix.from_dense(0.5 * (xmat + xmat.T))


def solve(problem: SdpProblem, params: SolverParams | None = None,
          callback=None, y0: np.ndarray | None = None) -> SolveResult:
    """Run the full bundle method on a standard-form SDP.

    ``y0`` sets the starting dual center (default: the origin).  ``callback``,
    if given, receives an ``IterationInfo`` after every iteration.
    """
    params = params or SolverParams()
    params.validate()
    rho, r_iter = _rho_and_rank(problem, params)
    l_max = lmax_from_policy(params.l_max, r_iter)
    pred = (RankPrediction(r_iter, params.predcountmax)
            if params.predict_rank else None)
    y = np.zeros(problem.m) if y0 is None else np.array(y0, dtype=np.float64)
    if y.shape != (problem.m,) or not np.all(np.isfinite(y)):
        raise ValueError("y0 must be a finite length-m vector")

    b = problem.b
    start = time.perf_counter()
    n_eigs = r_iter + 1 if params.predict_rank else r_iter
    f_y, lam_max_y, v, _ = penalty_eval(problem, y, r_iter, rho, n_eigs)
    _, a_new, b_new = pvec_generate(v, problem.op, problem.cvec)
    bundle = solved_on = _fresh_bundle(problem, params, v, a_new, b_new)
    u = np.zeros(1 + bundle.l)
    t, nullcount, warm = params.t0, 0, None
    trace: list[IterationRecord] = []
    deltas = [np.inf] * 4
    status = STATUS_ITER_LIMIT

    for k in range(1, params.maxiter + 1):
        a, b_mat = bundle.model_arrays()
        data = qp_mod.SubproblemData(B=b_mat, a=a, y=y, b=b, t=t,
                                     xi=params.xi, rho=rho)
        try:
            sol = qp_mod.solve_subproblem(data, warm_start=warm)
        except qp_mod.SingularSubproblem:
            status = STATUS_SUBPROBLEM_FAILURE
            break
        u, z, solved_on = sol.u, sol.z, bundle
        model_z = model_eval(z, a, b_mat, rho, b)
        f_z, lam_max_z, v_new, eigs_z, a_new, b_new = _oracle(
            problem, z, r_iter, rho, pred is not None and pred.active)
        bundle, warm = _update_bundle(bundle, sol, v_new, a_new, b_new,
                                      r_iter, l_max, params)

        # the descent test moves the center; F_y stays the pre-step value
        # for the termination test and the trace
        accept, t, nullcount = descent_decision(f_y, f_z, model_z, t,
                                                nullcount, params)
        if accept:
            y, lam_max_y = z, lam_max_z
        *deltas, done = termination_check(b, u, a, b_mat, y, -lam_max_y, f_y,
                                          model_z, params.eps)
        elapsed = time.perf_counter() - start
        trace.append(IterationRecord(
            k=k, step_type="descent" if accept else "null", F_y=f_y, F_z=f_z,
            model_value=model_z, delta_pred=f_y - model_z,
            delta_true=f_y - f_z, t=t, l=bundle.l, delta1=deltas[0],
            delta4=deltas[1], delta5=deltas[2], delta6=deltas[3],
            eig_min_S=-lam_max_z, elapsed_secs=elapsed))
        if callback is not None:
            a_post, b_post = bundle.model_arrays()
            callback(IterationInfo(
                y=data.y, z=z, t=data.t, a_post=a_post, B_post=b_post, F_z=f_z,
                model_z=model_z, lam_max_z=lam_max_z, v_min=v_new[:, 0]))
        if accept:
            f_y = f_z
        if done:
            status = STATUS_CONVERGED
            break
        if pred is not None and pred.active:
            finalize, r_pred = rank_predict_step(bundle.P, eigs_z, pred)
            if finalize:  # restart at the candidate with the predicted rank
                y, f_y, lam_max_y = z, f_z, lam_max_z
                t = max(0.5 * t, params.t_min)
                r_iter, l_max = r_pred, lmax_from_policy(params.l_max, r_pred)
                bundle = _fresh_bundle(problem, params, v_new[:, :r_pred],
                                       a_new[:r_pred], b_new[:, :r_pred])
                warm = None
        if params.time_limit_secs is not None and elapsed > params.time_limit_secs:
            status = STATUS_TIME_LIMIT
            break

    wall = time.perf_counter() - start
    s_final = SymMatrix.from_dense(smat_dense(problem.cvec - problem.op.avec @ y))
    # u and its primal quantities refer to the bundle u was solved on
    failed = status == STATUS_SUBPROBLEM_FAILURE
    return SolveResult(
        status=status, y=y, S=s_final, u=u,
        objective_dual=float(b @ y),
        objective_primal=(float("nan") if failed
                          else float(solved_on.model_arrays()[0] @ u)),
        X=(recover_primal(solved_on, u)
           if params.materialize_w and not failed else None),
        delta1=deltas[0], delta4=deltas[1], delta5=deltas[2],
        delta6=deltas[3], iterations=len(trace), wall_secs=wall, trace=trace,
        rank_used=r_iter, rho=rho,
    )


def _rho_and_rank(problem: SdpProblem, params: SolverParams):
    """Penalty weight and starting rank, from the params or the instance.

    rho defaults to 2*trace+1 for the instance's known primal trace; the rank
    is the prior under rank prediction, else params.rank or the known rank.
    """
    rho = params.rho
    if rho is None:
        if problem.known_trace is None:
            raise ValueError(
                "rho not set and the instance carries no known primal trace"
            )
        rho = 2.0 * problem.known_trace + 1.0
    if params.predict_rank:
        r = params.prior_rank
    else:
        r = params.rank if params.rank is not None else problem.known_rank
        if r is None:
            raise ValueError("rank not set; supply params.rank or enable predict_rank")
    if r < 1:
        raise ValueError("rank must be at least 1")
    return rho, r


def _oracle(problem: SdpProblem, z: np.ndarray, r: int, rho: float,
            extra_eig: bool):
    """Penalty value at the candidate plus the bundle columns of its bottom
    r eigenvectors, rescaled to unit norm.

    Returns (F, lam_max, V, eigvals, a, B) as ``penalty_eval`` and
    ``pvec_generate`` give them; ``extra_eig`` asks for eigenvalue r+1 too,
    whose gap rank prediction reads.
    """
    f, lam_max, v, eigs = penalty_eval(problem, z, r, rho,
                                       r + 1 if extra_eig else r)
    norms = np.linalg.norm(v, axis=0)
    v = v / np.where(norms == 0.0, 1.0, norms)
    _, a, b_mat = pvec_generate(v, problem.op, problem.cvec)
    return f, lam_max, v, eigs, a, b_mat


def _fresh_bundle(problem: SdpProblem, params: SolverParams, v: np.ndarray,
                  a: np.ndarray, b_mat: np.ndarray) -> BundleState:
    """Bundle of the columns v alone, with an empty aggregate."""
    w = np.zeros((problem.n, problem.n)) if params.materialize_w else None
    return BundleState(P=v, a_hat=a, B_hat=b_mat, a_bar=0.0,
                       B_bar=np.zeros(problem.m), W=w)


def _update_bundle(bundle: BundleState, sol, v_new: np.ndarray,
                   a_new: np.ndarray, b_new: np.ndarray, r: int, l_max: int,
                   params: SolverParams):
    """Aggregate the low-weight columns and append the new block.

    Returns the new bundle and the QP warm start: the previous active set
    mapped onto the new layout, with the appended columns inactive.
    """
    eta, x = float(sol.u[0]), sol.u[1:]
    p_bar, p_hat = select_aggregation(x, bundle.l, r, l_max,
                                      params.gamma1, params.gamma2)
    bundle = bundle_mod.aggregate_and_append(
        bundle, eta, x, v_new, a_new, b_new, p_bar, p_hat, l_max
    )
    active = np.zeros(sol.u.size, dtype=bool)
    active[sol.active_set] = True
    warm = np.concatenate([active[:1], active[1 + p_hat], np.zeros(r, dtype=bool)])
    return bundle, warm
