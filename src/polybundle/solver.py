"""Polyhedral bundle method for the exact-penalty dual SDP.

Minimizes F(y) = -b'y + rho * max(lambda_max(A'y - C), 0) by solving small
regularized QPs over the polyhedral lower model, with bundle aggregation,
adaptive step sizes, optional rank prediction, and relative KKT termination.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import bundle as bundle_mod
from . import qp as qp_mod
from .bundle import BundleState, model_eval, pvec_generate, select_aggregation
from .linalg import EigenConvergenceError, SymMatrix, extreme_eigs
from .problems import SdpProblem

STATUS_CONVERGED = "Converged"
STATUS_ITER_LIMIT = "IterLimit"
STATUS_TIME_LIMIT = "TimeLimit"
STATUS_SUBPROBLEM_FAILURE = "SubproblemFailure"
STATUS_EIGEN_FAILURE = "EigenFailure"

# bundle-cap presets: the cap for per-iteration rank r
LMAX_PRESETS = {
    "half": lambda r: r * (r + 1) // 2 + r,
    "sq": lambda r: r * r,
    "2sq": lambda r: 2 * r * r,
    "5sq": lambda r: 5 * r * r,
}
NULLMAX = 5  # bad null steps in a row before the step size is halved
PREDCOUNT_MAX = 10  # a predicted rank is final once repeated this many times
T_MIN, T_MAX = 1e-3, 1.0  # bounds of the step size t
# descent when F(y) - F(z) >= BETA1 (F(y) - model(z)); t doubles from BETA2
# on; a null step at BETA3 or below counts as bad
BETA1, BETA2, BETA3 = 0.05, 0.65, 0.001


def _count(name: str, value, alternatives: str = ""):
    """The integer rule of every count setting: an integral number, numpy
    integers included, that is not a bool; else a ValueError naming it."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer{alternatives}, not {value!r}")


def lmax_from_policy(policy, r: int) -> int:
    """Bundle cap from a preset name or an explicit integer."""
    if isinstance(policy, str) and policy in LMAX_PRESETS:
        val = LMAX_PRESETS[policy](r)
    else:
        val = _count("l_max", policy, f" or one of {', '.join(LMAX_PRESETS)}")
    if val < r:
        raise ValueError("l_max must be at least the per-iteration rank")
    return val


@dataclass
class SolverParams:
    """Tunable knobs of the bundle method; defaults follow the low-condition regime."""

    t0: float = 1e-2
    xi: float = 1e-8
    rho: float | None = None
    rank: int | None = None
    l_max: int | str = "half"
    eps: float = 1e-4
    maxiter: int = 500
    time_limit_secs: float | None = None
    prior_rank: int | None = None  # set: predict the rank, starting from this one
    materialize_w: bool = False

    def validate(self):
        if not T_MIN <= self.t0 <= T_MAX:
            raise ValueError(f"t0 must lie in [{T_MIN:g}, {T_MAX:g}]")
        if not 0 < self.xi < math.inf:
            raise ValueError("xi must be finite and positive")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and positive")
        limit = self.time_limit_secs
        if limit is not None and not 0 < limit < math.inf:
            raise ValueError("time_limit_secs must be finite and positive")
        if _count("maxiter", self.maxiter) < 1:
            raise ValueError("maxiter must be at least 1")
        for name in ("rank", "prior_rank"):
            if getattr(self, name) is not None:
                _count(name, getattr(self, name))
        lmax_from_policy(self.l_max, 0)  # raises unless a preset or an int


@dataclass
class IterationRecord:
    """One iteration, as the trace and each --trace-out row report it."""

    k: int
    step_type: str            # "descent" | "null"
    F_y: float                # penalty value at the center, before the step
    F_z: float                # penalty value at the candidate
    model_value: float        # model value at the candidate
    t: float                  # step size after adaptation
    l: int
    delta1: float
    delta4: float
    delta5: float
    delta6: float
    eig_min_S: float          # lambda_min(C - A'z)
    elapsed_secs: float


@dataclass
class IterationInfo:
    """Snapshot handed to the per-iteration callback (model audit hooks):
    the iteration's record plus the arrays a record does not hold."""

    record: IterationRecord
    y: np.ndarray             # center the subproblem was solved at
    z: np.ndarray             # candidate
    t: float                  # step used by this iteration's subproblem
    a_post: np.ndarray        # model (a, B) after the bundle update
    B_post: np.ndarray
    v_min: np.ndarray         # eigenvector of lambda_min(C - A'z)


@dataclass
class SolveResult:
    status: str
    y: np.ndarray
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
    failure: str | None       # the failed layer's message, on a failure status

    @property
    def max_delta(self) -> float:
        return max(self.delta1, self.delta4, self.delta5, self.delta6)


def dual_slack(problem: SdpProblem, y: np.ndarray):
    """S = C - A'y, as ``SvecSupport.slack`` stores it."""
    return problem.support.slack(y)


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
    eig = extreme_eigs(s, min(k, problem.n))
    lam_max = -float(eig.values[0])
    f = -float(problem.b @ y) + rho * max(lam_max, 0.0)
    return f, lam_max, eig.vectors[:, :r], eig.values


def descent_decision(f_y: float, f_z: float, model_z: float, t: float,
                     nullcount: int):
    """Accept/reject the candidate and adapt the step size.

    Returns (accept, t_new, nullcount_new).
    """
    delta_pred = f_y - model_z
    delta_true = f_y - f_z
    if BETA1 * delta_pred <= delta_true:
        t_new = t
        if BETA2 * delta_pred <= delta_true:
            t_new = min(2.0 * t, T_MAX)
        return True, t_new, 0
    nullcount += 1
    t_new = t
    if BETA3 * delta_pred >= delta_true and nullcount >= NULLMAX:
        t_new = max(0.5 * t, T_MIN)
        nullcount = 0
    return False, t_new, nullcount


def primal_infeasibility(a_x: np.ndarray, b: np.ndarray) -> float:
    """delta1 = ||A(X) - b|| / (1 + ||b||), for A(X) given as ``a_x``."""
    return float(np.linalg.norm(a_x - b)) / (1.0 + float(np.linalg.norm(b)))


def duality_gap(primal: float, dual: float) -> float:
    """delta5 = |a'u - b'y| / (1 + |a'u| + |b'y|)."""
    return abs(primal - dual) / (1.0 + abs(primal) + abs(dual))


def termination_check(b: np.ndarray, u: np.ndarray, a: np.ndarray,
                      b_mat: np.ndarray, y: np.ndarray, lambda_min_s: float,
                      f_y: float, model_z: float, eps: float):
    """Relative KKT quantities (delta1, delta4, delta5, delta6, done).

    delta2 and delta3 vanish by construction (X >= 0 on the model side and
    S = C - A'y exactly) and are not computed.
    """
    delta1 = primal_infeasibility(b_mat @ u, b)
    delta4 = max(-lambda_min_s, 0.0)
    delta5 = duality_gap(float(a @ u), float(b @ y))
    delta6 = abs(f_y - model_z) / (1.0 + abs(f_y))
    done = max(delta1, delta4, delta5, delta6) <= eps
    return delta1, delta4, delta5, delta6, done


@dataclass
class RankPrediction:
    """State of the rank-prediction phase; ``solve`` drops it once the
    prediction is final."""

    prior_rank: int
    r_prev: int = 0
    predcount: int = 0


def rank_predict_step(p: np.ndarray, s_eigs_ascending: np.ndarray,
                      state: RankPrediction):
    """One gap-detection step; returns (finalize, predicted_rank).

    The singular values of the bundle and the bottom eigenvalues of the dual
    slack both develop a gap at the optimal rank; the prediction is the max
    of the two gap positions, finalized once stable for PREDCOUNT_MAX + 1
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
    return state.predcount > PREDCOUNT_MAX, r_k


def recover_primal(state: BundleState, u: np.ndarray) -> SymMatrix:
    """Materialized primal X = eta*W + P diag(x) P' for the weights u."""
    if state.W is None:
        raise ValueError("aggregate W not materialized; enable materialize_w")
    eta, x = float(u[0]), np.asarray(u[1:], dtype=np.float64)
    xmat = eta * state.W + (state.P * x) @ state.P.T
    return SymMatrix.from_dense(0.5 * (xmat + xmat.T))


def solve(problem: SdpProblem, params: SolverParams | None = None,
          callback=None) -> SolveResult:
    """Run the full bundle method on a standard-form SDP from y = 0.

    ``callback``, if given, receives an ``IterationInfo`` after every
    iteration.
    """
    params = params or SolverParams()
    rho, r_iter, l_max = problem_settings(problem, params)
    pred = RankPrediction(r_iter) if params.prior_rank is not None else None
    y = np.zeros(problem.m)

    b = problem.b
    start = time.perf_counter()
    u = np.zeros(1)
    t, nullcount, warm = params.t0, 0, None
    trace: list[IterationRecord] = []
    deltas = [np.inf] * 4
    status, failure = STATUS_ITER_LIMIT, None
    # rank prediction reads the gap after eigenvalue r, so it asks for r + 1
    n_eigs = r_iter + 1 if pred is not None else r_iter
    try:
        f_y, lam_max_y, v, _ = penalty_eval(problem, y, r_iter, rho, n_eigs)
        a_new, b_new = pvec_generate(v, problem.op, problem.support)
        bundle = solved_on = BundleState.fresh(v, a_new, b_new, params.materialize_w)
        u = np.zeros(1 + bundle.l)
        for k in range(1, params.maxiter + 1):
            a, b_mat = bundle.a, bundle.B
            data = qp_mod.SubproblemData(B=b_mat, a=a, y=y, b=b, t=t,
                                         xi=params.xi, rho=rho)
            qp_start = None if warm is None else qp_mod.QpStart.priced(data, *warm)
            try:
                sol = qp_mod.solve_subproblem(data, warm_start=qp_start)
            except (qp_mod.NonConvergence, np.linalg.LinAlgError) as exc:
                status, failure = STATUS_SUBPROBLEM_FAILURE, str(exc)
                break
            u, z, solved_on = sol.u, sol.z, bundle
            model_z = model_eval(z, a, b_mat, rho, b)
            f_z, lam_max_z, v_new, eigs_z, a_new, b_new = _oracle(
                problem, z, r_iter, rho, n_eigs)
            bundle, warm = _update_bundle(bundle, sol, v_new, a_new, b_new,
                                          r_iter, l_max)

            # the descent test moves the center; F_y stays the pre-step value
            # for the termination test and the trace
            accept, t, nullcount = descent_decision(f_y, f_z, model_z, t,
                                                    nullcount)
            if accept:
                y, lam_max_y = z, lam_max_z
            *deltas, done = termination_check(b, u, a, b_mat, y, -lam_max_y, f_y,
                                              model_z, params.eps)
            elapsed = time.perf_counter() - start
            trace.append(IterationRecord(
                k=k, step_type="descent" if accept else "null", F_y=f_y, F_z=f_z,
                model_value=model_z, t=t, l=bundle.l, delta1=deltas[0],
                delta4=deltas[1], delta5=deltas[2], delta6=deltas[3],
                eig_min_S=-lam_max_z, elapsed_secs=elapsed))
            if callback is not None:
                callback(IterationInfo(
                    record=trace[-1], y=data.y, z=z, t=data.t, a_post=bundle.a,
                    B_post=bundle.B, v_min=v_new[:, 0]))
            if accept:
                f_y = f_z
            if done:
                status = STATUS_CONVERGED
                break
            if pred is not None:
                finalize, r_pred = rank_predict_step(bundle.P, eigs_z, pred)
                if finalize:  # restart at the candidate with the predicted rank
                    pred = None
                    y, f_y, lam_max_y = z, f_z, lam_max_z
                    t = max(0.5 * t, T_MIN)
                    r_iter, l_max = r_pred, lmax_from_policy(params.l_max, r_pred)
                    n_eigs = r_pred
                    bundle = BundleState.fresh(v_new[:, :r_pred], a_new[:r_pred],
                                               b_new[:, :r_pred], params.materialize_w)
                    warm = None
            if params.time_limit_secs is not None and elapsed > params.time_limit_secs:
                status = STATUS_TIME_LIMIT
                break
    except EigenConvergenceError as exc:
        # the eigensolve at the start or at a candidate failed; y is the
        # last center and the trace ends with the last full iteration
        status, failure = STATUS_EIGEN_FAILURE, str(exc)

    wall = time.perf_counter() - start
    # u and its primal quantities refer to the bundle u was solved on
    failed = failure is not None
    return SolveResult(
        status=status, y=y, u=u,
        objective_dual=float(b @ y),
        objective_primal=(float("nan") if failed
                          else float(solved_on.a @ u)),
        X=(recover_primal(solved_on, u)
           if params.materialize_w and not failed else None),
        delta1=deltas[0], delta4=deltas[1], delta5=deltas[2],
        delta6=deltas[3], iterations=len(trace), wall_secs=wall, trace=trace,
        rank_used=r_iter, rho=rho, failure=failure,
    )


def problem_settings(problem: SdpProblem, params: SolverParams):
    """Penalty weight, starting rank and bundle cap, from the params or the
    instance; ValueError when validate() or the instance rejects them.

    rho defaults to 2*trace+1 for the instance's known primal trace.  The rank
    is the prior when one is set (rank prediction), else params.rank, else the
    instance's known rank, else min(n, ceil(sqrt(2m))): by the Barvinok-Pataki
    bound some optimal X has a rank r with r(r+1)/2 <= m.  It must be an
    integer in [1, n]; the cap must be at least the rank.
    """
    params.validate()
    rho = params.rho
    if rho is None:
        if problem.known_trace is None:
            raise ValueError(
                "rho not set and the instance carries no known primal trace"
            )
        rho = 2.0 * problem.known_trace + 1.0
    if params.prior_rank is not None:
        r = params.prior_rank
    elif params.rank is not None:
        r = params.rank
    elif problem.known_rank is not None:
        r = problem.known_rank
    else:
        r = min(problem.n, math.ceil(math.sqrt(2 * problem.m)))
    if not 1 <= _count("rank", r) <= problem.n:
        raise ValueError(f"rank must lie in [1, n = {problem.n}], got {r}")
    return rho, r, lmax_from_policy(params.l_max, r)


def _oracle(problem: SdpProblem, z: np.ndarray, r: int, rho: float, n_eigs: int):
    """Penalty value at the candidate plus the bundle columns of its bottom
    r eigenvectors, rescaled to unit norm.

    Returns (F, lam_max, V, eigvals, a, B) as ``penalty_eval`` and
    ``pvec_generate`` give them, with the n_eigs smallest eigenvalues.
    """
    f, lam_max, v, eigs = penalty_eval(problem, z, r, rho, n_eigs)
    norms = np.linalg.norm(v, axis=0)
    v = v / np.where(norms == 0.0, 1.0, norms)
    a, b_mat = pvec_generate(v, problem.op, problem.support)
    return f, lam_max, v, eigs, a, b_mat


def _update_bundle(bundle: BundleState, sol, v_new: np.ndarray,
                   a_new: np.ndarray, b_new: np.ndarray, r: int, l_max: int):
    """Aggregate the low-weight columns and append the new block.

    Returns the new bundle and the next QP's starting point with its simplex
    flag: the previous solution mapped onto the new layout, with the
    aggregated mass on column 0 and the appended columns at 0.  Aggregation
    keeps the mass, so the point is feasible.  ``QpStart.priced`` picks its
    bound set once the next QP's data exist.
    """
    eta, x = float(sol.u[0]), sol.u[1:]
    p_bar, p_hat = select_aggregation(x, r, l_max)
    bundle = bundle_mod.aggregate_and_append(
        bundle, eta, x, v_new, a_new, b_new, p_bar, p_hat
    )
    # a free coordinate may end a hair below 0; the start only needs to be
    # feasible, and the QP's result is the minimizer of its final working set
    u0 = np.maximum(np.concatenate([[eta + x[p_bar].sum()], x[p_hat], np.zeros(r)]),
                    0.0)
    return bundle, (u0, sol.simplex_active)
