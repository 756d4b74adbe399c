"""Polyhedral bundle method for the exact-penalty dual SDP.

Minimizes F(y) = -b'y + rho * max(lambda_max(A'y - C), 0) by solving small
regularized QPs over the polyhedral lower model, with bundle aggregation,
adaptive step sizes, optional rank prediction, and relative KKT termination.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bundle as bundle_mod
from . import qp as qp_mod
from .bundle import (BundleState, model_eval, pvec_generate, select_aggregation,
                     support_values)
from .linalg import EigenConvergenceError, extreme_eigs
from .problems import SdpProblem, _count

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
        if self.rank is not None and self.prior_rank is not None:
            raise ValueError("set rank or prior_rank, not both")
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
    lower_bound: float | None  # certified bound at the center; None: no known trace
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
    # the last test's primal weights: on the final bundle, then on the past
    # columns (the last l_max folded into W) where the run keeps them
    u: np.ndarray
    objective_dual: float
    objective_primal: float   # <C, X> of the primal the last test read
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
    lower_bound: float | None  # at the final center, as in the trace
    lower_bound_gap: float | None  # (b'y - lower_bound) / (1 + |b'y|)
    # the last iteration whose record has the measure above eps; 0: none
    delta1_last_above_eps: int
    delta4_last_above_eps: int
    delta5_last_above_eps: int
    delta6_last_above_eps: int

    @property
    def max_delta(self) -> float:
        return max(self.delta1, self.delta4, self.delta5, self.delta6)


def last_above_eps(trace: list[IterationRecord], eps: float) -> dict:
    """For delta1, delta4, delta5 and delta6, the last iteration whose record
    has the measure above eps (a NaN counts), or 0 when none has: the
    latest of the four is the measure that held the run longest."""
    names = ("delta1", "delta4", "delta5", "delta6")
    return {f"{name}_last_above_eps":
            max((rec.k for rec in trace if not getattr(rec, name) <= eps),
                default=0)
            for name in names}


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


def dual_infeasibility(lam_max: float) -> float:
    """delta4 = max(lambda_max(A'y - C), 0), never -0.0; NaN stays NaN."""
    return max(lam_max, 0.0) + 0.0


def lower_bound(b: np.ndarray, y: np.ndarray, lam_max: float,
                trace: float | None):
    """b'y - T max(lambda_max(A'y - C), 0) for a trace T >= tr X*
    (``problem_settings``' trace), at most the optimum; None when T is None.

    For any optimal X*, <C, X*> = b'y + <C - A'y, X*>, and the last term is
    at least lambda_min(C - A'y) tr X*.
    """
    if trace is None:
        return None
    return float(b @ y) - trace * max(lam_max, 0.0)


def duality_gap(primal: float, dual: float) -> float:
    """delta5 = |<C, X> - b'y| / (1 + |<C, X>| + |b'y|)."""
    return abs(primal - dual) / (1.0 + abs(primal) + abs(dual))


def model_gap(f_y: float, model_z: float) -> float:
    """delta6 = |F(y) - model(z)| / (1 + |F(y)|)."""
    return abs(f_y - model_z) / (1.0 + abs(f_y))


def termination_check(b: np.ndarray, a_x: np.ndarray, primal: float,
                      y: np.ndarray, lambda_min_s: float,
                      f_y: float, model_z: float, eps: float):
    """Relative KKT quantities (delta1, delta4, delta5, delta6, done) of the
    primal given as the pair (A(X), <C, X>) and the center y.

    delta2 and delta3 vanish by construction (X >= 0 on the model side and
    S = C - A'y exactly) and are not computed.
    """
    delta1 = primal_infeasibility(a_x, b)
    delta4 = dual_infeasibility(-lambda_min_s)
    delta5 = duality_gap(primal, float(b @ y))
    delta6 = model_gap(f_y, model_z)
    done = max(delta1, delta4, delta5, delta6) <= eps
    return delta1, delta4, delta5, delta6, done


def diagonal_targets(problem: SdpProblem):
    """(idx, d, y_hat, T) when A(X) = b fixes X's whole diagonal, as on
    Max-Cut: m = n, every A_i has one stored entry a_i, at a diagonal
    position (j, j) of its own with support index idx_i, X_jj = d_i =
    b_i / a_i is positive and finite, and so is 1 / a_i; else None.  O(m),
    once per run, by ``problem_settings``.

    Then y_hat_i = 1 / a_i gives A'y_hat = I, and every feasible X has
    tr X = T = b'y_hat (n on Max-Cut, where y_hat = 1).  For rho >= T,
    F(y + tau*y_hat) = -b'y - tau*T + rho*max(tau - lambda_min(S(y)), 0)
    is least at tau = lambda_min(S(y)), where S has the eigenvectors of
    S(y) and lambda_min 0, so F = -b'y there (Helmberg and Rendl 2000).
    """
    support = problem.support
    a = support.avec
    if problem.m != problem.n or np.any(np.diff(a.indptr) != 1):
        return None
    idx = a.indices
    if np.any(support.rows[idx] != support.cols[idx]) or np.unique(idx).size != idx.size:
        return None
    with np.errstate(all="ignore"):
        d, y_hat = problem.b / a.data, 1.0 / a.data
    if not np.all((d > 0.0) & (d < np.inf) & np.isfinite(y_hat)):
        return None
    return idx, d, y_hat, float(problem.b @ y_hat)


def line_minimum(b: np.ndarray, y: np.ndarray, f: float, lam_max: float, line):
    """(y, F, lambda_max(A'y - C)) at the minimizer of F along y +
    tau*y_hat, for line = y_hat of ``diagonal_targets``: tau = -lam_max,
    with lambda_max 0 and F = -b'y there; the point as given when line is
    None.  It costs no eigensolve."""
    if line is None:
        return y, f, lam_max
    y = y - lam_max * line
    return y, -float(b @ y), 0.0


def diagonal_scale(problem: SdpProblem, targets, x_diag: np.ndarray):
    """s with s_j^2 X_jj = d_i at the position j that constraint i fixes,
    for X's diagonal ``x_diag`` in constraint order; None when some X_jj is
    not positive or s is not finite.

    Diag(s) X Diag(s) is PSD when X is, and meets A(X) = b exactly, up to
    rounding.
    """
    idx, d = targets[:2]
    if not np.all(x_diag > 0.0):
        return None
    with np.errstate(over="ignore"):
        root = np.sqrt(d / x_diag)
    if not np.all(np.isfinite(root)):
        return None
    s = np.empty(problem.n)
    s[problem.support.rows[idx]] = root
    return s


def primal_pair(problem: SdpProblem, targets, state: BundleState,
                u: np.ndarray, past):
    """The primal the termination test reads, for the weights u on the
    bundle ``state`` followed by those on the past columns ``past``
    (``_update_bundle``), as the pair (A(X), <C, X>); X itself is never
    formed.

    Without targets it is the model's X = eta*W + P diag(x) P' plus the
    past columns' rank-one matrices at their weights z, as
    (B u + B_past z, a'u + a_past'z); the past columns enter only where
    some z is nonzero, so the QP's weights give the bundle's own bits.
    With targets (``diagonal_targets``) it is the rescaled
    X_rep = Diag(s) X Diag(s) of ``diagonal_scale``, formed on the support
    in O(support * |x > 0|), which is PSD and feasible: on Max-Cut that is
    D^-1/2 X D^-1/2 for D = Diag(diag X), the Goemans-Williamson
    normalization.  An iteration whose X has a diagonal entry that is not
    positive falls back to the model's X.
    """
    if targets is not None:
        support, idx = problem.support, targets[0]
        x_supp = support_values(state, u)
        s = diagonal_scale(problem, targets, x_supp[idx])
        if s is not None:
            # |X_ij| <= sqrt(X_ii X_jj), so this order never overflows
            x_rep = x_supp * s[support.rows] * s[support.cols]
            # A_i has its one entry a_i at idx_i: A(X_rep)_i = a_i X_rep[idx_i]
            a_x = support.avec.data * x_rep[idx]
            return a_x, float(support.cvec @ x_rep)
    u, z = u[:state.a.size], u[state.a.size:]
    a_x, primal = state.B @ u, float(state.a @ u)
    if z.any():
        a_x += past[1] @ z
        primal += float(past[0] @ z)
    return a_x, primal


def polish_weights(bundle: BundleState, past, b: np.ndarray, y: np.ndarray,
                   xi: float, rho: float):
    """The polished primal's weights: u >= 0, 1'u <= rho on the bundle
    followed by the past columns ``past`` (``_update_bundle``) that
    minimize ||B u - b||^2 + w^2 (a'u - b'y)^2 for w = (1 + ||b||) /
    (1 + 2|b'y|), that is (1 + ||b||)^2 (delta1^2 + delta5^2) of
    ``primal_pair``'s X for u, with delta5's denominator read as
    1 + 2|b'y|.  A nonnegative least-squares pick over the columns (Lawson
    and Hanson 1974), so X stays a nonnegative sum of W and rank-one PSD
    matrices.  None when the QP fails.

    It is ``qp.solve_least_squares`` on [B; w a'] and [b; w b'y], with the
    solver's xi, started at u = 0: pricing frees every column whose weight
    would lower the residual, which is most of the polished support.
    """
    a, b_mat = np.append(bundle.a, past[0]), np.hstack([bundle.B, past[1]])
    dual = float(b @ y)
    w = (1.0 + float(np.linalg.norm(b))) / (1.0 + 2.0 * abs(dual))
    try:
        return qp_mod.solve_least_squares(
            np.vstack([b_mat, w * a]), np.append(b, w * dual), xi, rho,
            (np.zeros(a.size), False))
    except (qp_mod.NonConvergence, np.linalg.LinAlgError):
        return None


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


def solve(problem: SdpProblem, params: SolverParams | None = None,
          callback=None) -> SolveResult:
    """Run the full bundle method on a standard-form SDP.

    The run starts at the least-squares dual y_LS = argmin ||C - A'y||_F
    (``SvecSupport.least_squares_dual``), whose slack is the part of C that
    A' cannot cancel, and at y = 0 when y_LS is not finite.  The start takes
    one eigensolve, at the start point; y_LS costs one LSQR solve on avec,
    O(nnz), cached on the instance's support.  On Max-Cut y_LS is diag(C)
    to rounding.

    When A(X) = b fixes X's whole diagonal, as on Max-Cut (the targets
    of ``problem_settings``, which also fixes rho, the rank, the cap and
    the records' primal trace), two things change.  The start, each
    candidate a descent step accepts and the rank-prediction restart move
    along y_hat (on Max-Cut y_hat = 1) to the minimizer of F there
    (``line_minimum``), where lambda_min(S) = 0: every center is dual
    feasible, and the descent test reads F at that point.  The move costs
    no eigensolve and no bundle column, since S keeps its eigenvectors.
    The records keep the QP's candidate: F_z, eig_min_S and the model value
    are read at z itself.  And the termination test reads X rescaled to
    that diagonal (X_rep = D^-1/2 X D^-1/2 on Max-Cut), which is PSD and
    feasible, so delta1 is rounding and the run ends once y is certified.

    Each QP starts, priced (``QpStart.priced``), at the weights u of the
    model's X = eta*W + P diag(x) P' on its bundle: zeros on a fresh one,
    else the last QP's mapped onto the update (``_update_bundle``).  The
    run stops once delta1, delta4, delta5 and delta6 are all at most eps.
    delta1 and delta5 read ``primal_pair`` for u on the updated bundle
    (X_rep on such an instance).  Elsewhere the run also keeps the images
    (a, B) of the last l_max columns that aggregation folded into W, the
    past columns, which the stop reads with weight 0 beside the bundle;
    where delta4 and delta6 are within eps, so that the primal decides the
    stop, u is replaced by the polished weights on the bundle and the past
    columns (``polish_weights``) unless the polish QP fails.  That primal
    is a nonnegative sum of W and rank-one PSD matrices whose A(X) and
    <C, X> are read from stored images, so delta1 and delta5 stay exact
    measures.  Neither the past columns nor the polish move an iterate.
    The result's ``u`` and ``objective_primal`` are the weights (on the
    final bundle, then on the past columns) and the <C, X> of the primal
    the last test read; no primal matrix is returned.

    ``callback``, if given, receives an ``IterationInfo`` after every
    iteration.
    """
    params = params or SolverParams()
    rho, r_iter, l_max, targets, trace_x = problem_settings(problem, params)
    pred = RankPrediction(r_iter) if params.prior_rank is not None else None

    b = problem.b
    start = time.perf_counter()
    support, line = (None, None) if targets is None else (problem.support, targets[2])
    y = problem.support.least_squares_dual
    y = np.zeros(problem.m) if y is None else y.copy()
    u = np.zeros(1)
    t, nullcount = params.t0, 0
    trace: list[IterationRecord] = []
    deltas = [np.inf] * 4
    status, failure, lam_max_y = STATUS_ITER_LIMIT, None, None
    primal = math.nan
    # rank prediction reads the gap after eigenvalue r, so it asks for r + 1
    n_eigs = r_iter + 1 if pred is not None else r_iter
    try:
        f_y, lam_max_y, v, _ = penalty_eval(problem, y, r_iter, rho, n_eigs)
        y, f_y, lam_max_y = line_minimum(b, y, f_y, lam_max_y, line)
        a_new, b_new = pvec_generate(v, problem.op, problem.support)
        bundle = BundleState.fresh(v, a_new, b_new, support)
        warm = (np.zeros(1 + bundle.l), False)  # weights, simplex flag
        u = warm[0]
        # the images (a, B) of the last l_max columns folded into W, which
        # the stop reads beside the bundle; none where the targets rescale X
        past = None if targets is not None else (np.zeros(0), np.zeros((problem.m, 0)))
        for k in range(1, params.maxiter + 1):
            a, b_mat = bundle.a, bundle.B
            data = qp_mod.SubproblemData(B=b_mat, a=a, y=y, b=b, t=t,
                                         xi=params.xi, rho=rho)
            try:
                sol = qp_mod.solve_subproblem(
                    data, warm_start=qp_mod.QpStart.priced(data, *warm))
            except (qp_mod.NonConvergence, np.linalg.LinAlgError) as exc:
                status, failure = STATUS_SUBPROBLEM_FAILURE, str(exc)
                break
            z = sol.z
            model_z = model_eval(z, a, b_mat, rho, b)
            f_z, lam_max_z, v_new, eigs_z, a_new, b_new = _oracle(
                problem, z, r_iter, rho, n_eigs)
            bundle, warm, past = _update_bundle(bundle, sol, v_new, a_new, b_new,
                                                r_iter, l_max, past)
            u = warm[0] if past is None else np.append(warm[0], np.zeros(past[0].size))
            # the point a step moves the center to; z itself without a line
            z_c, f_c, lam_max_c = line_minimum(b, z, f_z, lam_max_z, line)

            # the descent test moves the center; F_y stays the pre-step value
            # for the termination test and the trace
            accept, t, nullcount = descent_decision(f_y, f_c, model_z, t,
                                                    nullcount)
            if accept:
                y, lam_max_y = z_c, lam_max_c
            # where delta4 and delta6 let the run stop, the stop reads the
            # polished primal instead
            if targets is None and max(dual_infeasibility(lam_max_y),
                                       model_gap(f_y, model_z)) <= params.eps:
                polished = polish_weights(bundle, past, b, y, params.xi, rho)
                if polished is not None:
                    u = polished
            a_x, primal = primal_pair(problem, targets, bundle, u, past)
            *deltas, done = termination_check(b, a_x, primal, y, -lam_max_y,
                                              f_y, model_z, params.eps)
            elapsed = time.perf_counter() - start
            trace.append(IterationRecord(
                k=k, step_type="descent" if accept else "null", F_y=f_y, F_z=f_z,
                model_value=model_z, t=t, l=bundle.l, delta1=deltas[0],
                delta4=deltas[1], delta5=deltas[2], delta6=deltas[3],
                eig_min_S=-lam_max_z,
                lower_bound=lower_bound(b, y, lam_max_y, trace_x),
                elapsed_secs=elapsed))
            if callback is not None:
                callback(IterationInfo(
                    record=trace[-1], y=data.y, z=z, t=data.t, a_post=bundle.a,
                    B_post=bundle.B, v_min=v_new[:, 0]))
            if accept:
                f_y = f_c
            if done:
                status = STATUS_CONVERGED
                break
            if params.time_limit_secs is not None and elapsed > params.time_limit_secs:
                status = STATUS_TIME_LIMIT
                break
            # a restart only where another iteration follows, so the result
            # reports the bundle its last record and u were taken on
            if pred is not None and k < params.maxiter:
                finalize, r_pred = rank_predict_step(bundle.P, eigs_z, pred)
                if finalize:  # restart at the candidate with the predicted rank
                    pred = None
                    y, f_y, lam_max_y = z_c, f_c, lam_max_c
                    t = max(0.5 * t, T_MIN)
                    r_iter, l_max = r_pred, lmax_from_policy(params.l_max, r_pred)
                    n_eigs = r_pred
                    bundle = BundleState.fresh(v_new[:, :r_pred], a_new[:r_pred],
                                               b_new[:, :r_pred], support)
                    warm = (np.zeros(1 + r_pred), False)
                    past = _last_columns(past, l_max)
    except EigenConvergenceError as exc:
        # the eigensolve at the start or at a candidate failed; y is the
        # last center and the trace ends with the last full iteration
        status, failure = STATUS_EIGEN_FAILURE, str(exc)

    wall = time.perf_counter() - start
    failed = failure is not None
    dual = float(b @ y)
    bound = None if lam_max_y is None else lower_bound(b, y, lam_max_y, trace_x)
    return SolveResult(
        status=status, y=y, u=u,
        objective_dual=dual,
        objective_primal=math.nan if failed else primal,
        delta1=deltas[0], delta4=deltas[1], delta5=deltas[2],
        delta6=deltas[3], iterations=len(trace), wall_secs=wall, trace=trace,
        rank_used=r_iter, rho=rho, failure=failure, lower_bound=bound,
        lower_bound_gap=None if bound is None else (dual - bound) / (1.0 + abs(dual)),
        **last_above_eps(trace, params.eps),
    )


def problem_settings(problem: SdpProblem, params: SolverParams):
    """Everything a run fixes before it iterates, as (rho, rank, l_max,
    targets, trace); ValueError when validate() or the instance rejects
    the settings.  ``solve`` reads all five from here.

    targets is ``diagonal_targets``, once per run.  trace is the primal
    trace T >= tr X* that ``lower_bound`` reads: the instance's known one,
    else the one A(X) = b fixes with X's whole diagonal (targets[3]), else
    None.  If any, it must be finite and at least 0: a negative one would
    certify lower bounds above the optimum.  rho defaults to 2*trace+1 for
    it; below the trace that A(X) = b fixes, F falls along y_hat without
    bound, so such a rho is rejected.  The rank is the prior when one is
    set (rank prediction), else params.rank, else the instance's known
    rank, else min(n, ceil(sqrt(2m))): by the Barvinok-Pataki bound some
    optimal X has a rank r with r(r+1)/2 <= m.  It must be an integer in
    [1, n]; the cap must be at least the rank.
    """
    params.validate()
    targets = diagonal_targets(problem)
    known = problem.known_trace
    trace = known if known is not None or targets is None else targets[3]
    if trace is not None and not 0 <= trace < math.inf:
        raise ValueError(f"known primal trace must be finite and >= 0, got {trace}")
    rho = params.rho
    if rho is None:
        if trace is None:
            raise ValueError(
                "rho not set and the instance carries no known primal trace "
                "and does not fix the whole diagonal of X"
            )
        rho = 2.0 * trace + 1.0
    if targets is not None and rho < targets[3]:
        raise ValueError(f"rho must be at least the trace {targets[3]:g} that "
                         f"A(X) = b fixes, got {rho:g}")
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
    return rho, r, lmax_from_policy(params.l_max, r), targets, trace


def _oracle(problem: SdpProblem, z: np.ndarray, r: int, rho: float, n_eigs: int):
    """Penalty value at the candidate plus the bundle columns of its bottom
    r eigenvectors, rescaled to unit norm.

    Returns (F, lam_max, V, eigvals, a, B) as ``penalty_eval`` and
    ``pvec_generate`` give them, with the n_eigs smallest eigenvalues.
    """
    f, lam_max, v, eigs = penalty_eval(problem, z, r, rho, n_eigs)
    norms = np.linalg.norm(v, axis=0)
    v = v / np.where(norms == 0.0, 1.0, norms)
    return (f, lam_max, v, eigs, *pvec_generate(v, problem.op, problem.support))


def _update_bundle(bundle: BundleState, sol, v_new: np.ndarray,
                   a_new: np.ndarray, b_new: np.ndarray, r: int, l_max: int,
                   past):
    """Aggregate the low-weight columns and append the new block.

    Returns the new bundle, the next QP's starting point with its simplex
    flag, and the past columns: the previous solution mapped onto the new
    layout, with the aggregated mass on column 0 and the appended columns
    at 0, and ``past``, the (a, B) images of the columns folded into W
    before, with this update's folded columns appended and only the last
    l_max kept (None stays None).  Aggregation keeps the mass, so the point
    is feasible.  ``QpStart.priced`` picks its bound set once the next QP's
    data exist.
    """
    eta, x = float(sol.u[0]), sol.u[1:]
    p_bar, p_hat = select_aggregation(x, r, l_max)
    if past is not None:
        past = _last_columns((np.append(past[0], bundle.a[1 + p_bar]),
                              np.hstack([past[1], bundle.B[:, 1 + p_bar]])), l_max)
    bundle = bundle_mod.aggregate_and_append(
        bundle, eta, x, v_new, a_new, b_new, p_bar, p_hat
    )
    # a free coordinate may end a hair below 0; the start only needs to be
    # feasible, and the QP's result is the minimizer of its final working set
    u0 = np.maximum(np.concatenate([[eta + x[p_bar].sum()], x[p_hat], np.zeros(r)]),
                    0.0)
    return bundle, (u0, sol.simplex_active), past


def _last_columns(past, count: int):
    """The last ``count`` columns of the images ``past`` = (a, B), or None."""
    if past is None:
        return None
    return past[0][-count:], past[1][:, -count:]
