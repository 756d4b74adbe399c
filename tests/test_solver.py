import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ipm_reference import maxcut_hrvw
from linalg_reference import fold_dense, model_primal
from polybundle import bundle, qp, solver
from polybundle.linalg import (
    DENSE_EIG_CUTOFF,
    EIG_TOL,
    ConstraintOperator,
    EigenConvergenceError,
    SvecSupport,
    SymMatrix,
    apply_A,
    extreme_eigs,
    smat,
    svec,
    svec_position,
)
from polybundle.problems import (
    GraphInstance,
    SdpProblem,
    build_maxcut_sdp,
    generate_random_sdp,
    load_sdpa,
    write_sdpa,
)
from polybundle.solver import (
    PREDCOUNT_MAX,
    STATUS_CONVERGED,
    STATUS_EIGEN_FAILURE,
    STATUS_ITER_LIMIT,
    STATUS_SUBPROBLEM_FAILURE,
    STATUS_TIME_LIMIT,
    RankPrediction,
    SolverParams,
    descent_decision,
    dual_slack,
    lmax_from_policy,
    penalty_eval,
    rank_predict_step,
    solve,
    termination_check,
)


@pytest.fixture(scope="module")
def small_problem():
    return generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)


class TestParams:
    def test_defaults_valid(self):
        SolverParams().validate()

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            SolverParams(t0=10.0).validate()

    @pytest.mark.parametrize("field,value", [
        ("t0", np.nan), ("t0", np.inf),
        ("eps", np.nan), ("eps", np.inf), ("eps", 0.0),
        ("xi", np.nan), ("xi", np.inf), ("xi", -1e-8), ("xi", 0.0),
        ("rho", np.nan), ("rho", np.inf), ("rho", 0.0),
        ("time_limit_secs", np.nan), ("time_limit_secs", np.inf),
        ("time_limit_secs", 0.0), ("time_limit_secs", -1.0),
        ("maxiter", 0), ("maxiter", -1),
    ])
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverParams(**{field: value}).validate()

    def test_rank_with_prior_rank_rejected(self):
        # prediction starts from prior_rank, so a rank beside it is not read
        with pytest.raises(ValueError, match="set rank or prior_rank, not both"):
            SolverParams(rank=2, prior_rank=6).validate()

    def test_lmax_presets(self):
        assert lmax_from_policy("half", 5) == 20
        assert lmax_from_policy("sq", 5) == 25
        assert lmax_from_policy("2sq", 5) == 50
        assert lmax_from_policy("5sq", 5) == 125
        assert lmax_from_policy(7, 5) == 7
        with pytest.raises(ValueError):
            lmax_from_policy("cube", 5)
        with pytest.raises(ValueError):
            lmax_from_policy(3, 5)

    @pytest.mark.parametrize("value", [None, 7.9, 7.0, True, "7"],
                             ids=["none", "float", "integral-float", "bool",
                                  "digits"])
    def test_lmax_neither_preset_nor_int_rejected(self, value):
        with pytest.raises(ValueError, match="one of half, sq, 2sq, 5sq"):
            SolverParams(l_max=value).validate()

    @pytest.mark.parametrize("field,value", [
        ("rank", 2.5), ("rank", 2.0), ("rank", True),
        ("prior_rank", 3.0), ("prior_rank", False),
        ("maxiter", 2.5), ("maxiter", True), ("maxiter", None),
    ])
    def test_count_not_an_integer_rejected(self, monkeypatch, field, value):
        # one integer rule for every count, from validate() and from solve
        # before any eigensolve
        params = SolverParams(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            params.validate()

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the settings were checked")

        monkeypatch.setattr(solver, "extreme_eigs", no_eigensolve)
        problem, _ = generate_random_sdp(30, 30, 2, 0.1, 1.0, 0)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            solve(problem, params)

    def test_instance_rank_not_an_integer_rejected(self):
        problem, _ = generate_random_sdp(30, 30, 2, 0.1, 1.0, 0)
        problem.known_rank = 2.5
        with pytest.raises(ValueError, match="rank must be an integer"):
            solve(problem, SolverParams())

    @pytest.mark.parametrize("field,value", [
        ("l_max", np.int64(30)), ("rank", np.int64(2)),
        ("maxiter", np.int32(300)), ("prior_rank", np.int64(4)),
    ], ids=["l_max", "rank", "maxiter", "prior_rank"])
    def test_numpy_integer_counts_run(self, field, value):
        problem, _ = generate_random_sdp(30, 30, 2, 0.1, 1.0, 0)
        res = solve(problem, SolverParams(**{field: value}))
        assert res.status == STATUS_CONVERGED


class TestPenaltyEval:
    def test_matches_direct_eigendecomposition(self, small_problem):
        problem, _ = small_problem
        rng = np.random.default_rng(1)
        rho = 2 * problem.known_trace + 1
        for _ in range(10):
            y = rng.standard_normal(problem.m)
            f, lam_max, v, eigs = penalty_eval(problem, y, 3, rho)
            s = dual_slack(problem, y)
            evals = np.linalg.eigvalsh(s)
            assert lam_max == pytest.approx(-evals[0], abs=1e-10)
            want = -problem.b @ y + rho * max(-evals[0], 0.0)
            assert f == pytest.approx(want, abs=1e-9)
            assert v.shape == (problem.n, 3)
            assert np.allclose(eigs, evals[:3], atol=1e-10)

    def test_rank_below_one_rejected(self, small_problem):
        with pytest.raises(ValueError, match="r must be at least 1"):
            penalty_eval(small_problem[0], np.zeros(small_problem[0].m), 0, 1.0)

    def test_zero_at_planted_dual(self, small_problem):
        problem, planted = small_problem
        rho = 2 * problem.known_trace + 1
        f, lam_max, _, _ = penalty_eval(problem, planted.y_star, 1, rho)
        # S* is PSD so the penalty term vanishes exactly at y*
        assert lam_max <= 1e-9
        assert f == pytest.approx(-problem.b @ planted.y_star, abs=1e-8)


class TestDualSlack:
    """dual_slack against smat of C - A'y over every svec position: dense up
    to DENSE_EIG_CUTOFF, its CSR above, bit for bit."""

    INSTANCES = {
        "planted": lambda n: generate_random_sdp(n, 20, 3, 1e-2, 1.0, 5)[0],
        # a partial support: at n = 450, C and the A_i use 2,493 of the
        # 101,475 positions
        "maxcut": lambda n: c10_maxcut(n, prob=0.02)[0],
    }

    @staticmethod
    def slack_and_smat(problem):
        y = np.random.default_rng(0).standard_normal(problem.m)
        return (dual_slack(problem, y),
                smat(problem.cvec - problem.op.avec @ y).to_dense())

    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    def test_dense_path_equals_smat(self, instance):
        n = 60
        assert n <= DENSE_EIG_CUTOFF
        s, want = self.slack_and_smat(self.INSTANCES[instance](n))
        assert isinstance(s, np.ndarray) and s.flags.f_contiguous
        assert np.array_equal(s.view(np.uint64), want.view(np.uint64))

    def test_sparse_path_equals_csr_of_dense_slack(self):
        n = 450
        assert n > DENSE_EIG_CUTOFF
        for make in self.INSTANCES.values():
            s, want = self.slack_and_smat(make(n))
            want = sp.csr_matrix(want)
            assert sp.issparse(s) and s.format == "csr" and s.shape == (n, n)
            assert np.array_equal(s.data.view(np.uint64), want.data.view(np.uint64))
            assert np.array_equal(s.indices, want.indices)
            assert np.array_equal(s.indptr, want.indptr)


class TestDescentDecision:
    def test_accept_on_good_decrease(self):
        accept, t, nc = descent_decision(10.0, 9.0, 9.0, 0.1, 0)
        assert accept and nc == 0
        # full decrease doubles the step
        assert t == pytest.approx(0.2)

    def test_accept_without_doubling(self):
        # true decrease 0.1 of predicted 1.0: above BETA1, below BETA2
        accept, t, _ = descent_decision(10.0, 9.9, 9.0, 0.1, 0)
        assert accept
        assert t == pytest.approx(0.1)

    def test_step_capped_at_tmax(self):
        accept, t, _ = descent_decision(10.0, 9.0, 9.0, 0.8, 0)
        assert accept
        assert t == pytest.approx(1.0)

    def test_null_step_counts(self):
        accept, t, nc = descent_decision(10.0, 10.0, 9.0, 0.1, 0)
        assert not accept and nc == 1 and t == pytest.approx(0.1)

    def test_halving_after_nullmax_bad_steps(self):
        accept, t, nc = descent_decision(10.0, 10.0, 9.0, 0.1, 4)
        assert not accept
        assert nc == 0
        assert t == pytest.approx(0.05)

    def test_halving_floored_at_tmin(self):
        _, t, _ = descent_decision(10.0, 10.0, 9.0, 1e-3, 4)
        assert t == pytest.approx(solver.T_MIN)


class TestTermination:
    """The measures of a primal given as (A(X), <C, X>) and a center y."""

    def test_zero_residuals_converge(self):
        b = np.array([1.0, 2.0])
        a_x = np.array([1.0, 2.0])
        y = np.array([1.0, 1.0])
        d1, d4, d5, d6, done = termination_check(
            b, a_x, 3.0, y, 0.0, -3.0, -3.0, 1e-4
        )
        assert done
        assert d1 == pytest.approx(0.0)
        assert d4 == 0.0 and d5 == 0.0 and d6 == 0.0

    def test_dual_infeasibility_blocks(self):
        b = np.zeros(1)
        _, d4, _, _, done = termination_check(
            b, np.zeros(1), 0.0, np.zeros(1), -0.5, 0.0, 0.0, 1e-4
        )
        assert d4 == 0.5 and not done

    def test_delta4_is_never_negative_zero(self):
        # lambda_min(S) = +0.0 makes lambda_max(A'y - C) = -0.0
        _, d4, _, _, done = termination_check(
            np.zeros(1), np.zeros(1), 0.0, np.zeros(1), 0.0, 0.0, 0.0, 1e-4
        )
        assert done and math.copysign(1.0, d4) == 1.0
        assert math.copysign(1.0, solver.dual_infeasibility(-0.0)) == 1.0
        assert solver.dual_infeasibility(-2.0) == 0.0
        assert solver.dual_infeasibility(0.5) == 0.5
        assert math.isnan(solver.dual_infeasibility(math.nan))

    def test_relative_scaling(self):
        b = np.array([100.0])
        d1, _, _, _, _ = termination_check(
            b, np.array([99.0]), 0.0, np.zeros(1), 0.0, 0.0, 0.0, 1e-4
        )
        assert d1 == pytest.approx(1.0 / 101.0)


class TestRankPrediction:
    def test_detects_gap_position(self):
        state = RankPrediction(prior_rank=6)
        p = np.column_stack([np.eye(8)[:, :3] * 5.0, np.eye(8)[:, 3:5] * 0.1])
        eigs = np.array([0.0, 0.0, 0.0, 4.0, 4.1, 4.2, 4.3])
        finalize, r = rank_predict_step(p, eigs, state)
        assert r == 3
        assert not finalize

    def test_finalizes_after_stable_streak(self):
        state = RankPrediction(prior_rank=6)
        p = np.diag([3.0, 3.0, 1e-3, 1e-3, 1e-3, 1e-3])
        eigs = np.array([0.0, 0.0, 5.0, 5.5, 6.0, 6.5, 7.0])
        # first call seeds r_prev; finalize once the count exceeds the cap
        results = []
        while True:
            results.append(rank_predict_step(p, eigs, state))
            if results[-1][0]:
                break
        assert all(r == 2 for _, r in results)
        assert [f for f, _ in results] == [False] * (PREDCOUNT_MAX + 1) + [True]

    def test_count_resets_on_change(self):
        state = RankPrediction(prior_rank=4)
        p1 = np.diag([3.0, 1e-3, 1e-3, 1e-3])
        p2 = np.diag([3.0, 3.0, 1e-3, 1e-3])
        eigs = np.array([0.0, 5.0, 6.0, 7.0, 8.0])
        rank_predict_step(p1, eigs, state)
        rank_predict_step(p1, eigs, state)
        assert state.predcount >= 1
        rank_predict_step(p2, np.array([0.0, 0.0, 5.0, 6.0, 7.0]), state)
        assert state.predcount == 0


class TestSolveEndToEnd:
    def test_converges_on_planted_instance(self, small_problem):
        problem, planted = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=300))
        assert res.status == STATUS_CONVERGED
        assert res.max_delta <= 1e-4
        by_star = problem.b @ planted.y_star
        assert abs(res.objective_dual - by_star) / (1 + abs(by_star)) <= 1e-3

    def test_deltas_consistent_with_trace(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=300))
        last = res.trace[-1]
        assert last.delta1 == res.delta1
        assert last.delta4 == res.delta4
        assert [rec.k for rec in res.trace] == list(range(1, len(res.trace) + 1))
        elapsed = [rec.elapsed_secs for rec in res.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_predicted_decrease_nonnegative(self, small_problem):
        # at the operating accuracy the model decrease stays positive; past
        # it the xi regularization can push the prediction slightly negative
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=300))
        for rec in res.trace:
            assert rec.F_y - rec.model_value >= -1e-12

    def test_iteration_limit_status(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-14, maxiter=3))
        assert res.status == STATUS_ITER_LIMIT
        assert res.iterations == 3

    def test_time_limit_status(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(time_limit_secs=1e-9))
        assert res.status == STATUS_TIME_LIMIT
        assert res.iterations == 1 and len(res.trace) == 1
        assert res.trace[0].k == 1
        assert res.y.shape == (problem.m,) and np.all(np.isfinite(res.y))

    @pytest.mark.parametrize("exc", [
        qp.NonConvergence("active-set iteration cap exceeded"),
        np.linalg.LinAlgError("matrix not positive definite"),
    ], ids=["non-convergence", "lin-alg-error"])
    def test_qp_failure_ends_run_with_status(self, small_problem, monkeypatch, exc):
        problem, _ = small_problem
        k, centers, real = 4, [], qp.solve_subproblem

        def failing(data, warm_start=None):
            centers.append(data.y.copy())
            if len(centers) == k:
                raise exc
            return real(data, warm_start=warm_start)

        monkeypatch.setattr(qp, "solve_subproblem", failing)
        res = solve(problem, SolverParams(eps=1e-14, maxiter=50))
        assert res.status == STATUS_SUBPROBLEM_FAILURE
        assert res.failure == str(exc)
        assert res.iterations == len(res.trace) == k - 1
        assert np.array_equal(res.y, centers[-1])
        assert np.isnan(res.objective_primal)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_eigen_failure_ends_run_with_status(self, small_problem, monkeypatch, k):
        # call 1 is the eigensolve at the start point; call j + 1 is that of
        # iteration j
        problem, _ = small_problem
        params = SolverParams(eps=1e-14, maxiter=50)
        done = solve(problem, SolverParams(eps=1e-14, maxiter=max(k - 2, 1)))
        calls, real = [], solver.extreme_eigs

        def failing(s, r):
            calls.append(1)
            if len(calls) == k:
                raise EigenConvergenceError("injected", best_residual=1.0)
            return real(s, r)

        monkeypatch.setattr(solver, "extreme_eigs", failing)
        res = solve(problem, params)
        assert res.status == STATUS_EIGEN_FAILURE
        assert res.failure == "injected"
        assert res.iterations == len(res.trace) == max(k - 2, 0)
        assert len(calls) == k
        # the center is the one the failed iteration started from: the
        # start point, or where an undisturbed run stopped after the
        # completed iterations
        want_y = problem.support.least_squares_dual if k <= 2 else done.y
        assert np.array_equal(res.y, want_y)
        assert [r.F_y for r in res.trace] == [r.F_y for r in done.trace[:k - 2]]
        assert np.isnan(res.objective_primal)

    def test_arpack_failure_ends_run_as_eigen_failure(self, monkeypatch):
        # above DENSE_EIG_CUTOFF the slack is stored CSR and ARPACK solves it
        problem, _ = generate_random_sdp(DENSE_EIG_CUTOFF + 1, 5, 2, 0.01, 1.0, 0)

        def failing(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", None, None)
        monkeypatch.setattr(spla, "eigsh", failing)
        res = solve(problem, SolverParams(maxiter=5))
        assert res.status == STATUS_EIGEN_FAILURE
        assert res.failure == "Lanczos failed to converge for 2 smallest eigenpairs"
        assert res.iterations == 0 and res.trace == []

    def test_non_finite_slack_ends_run_as_eigen_failure(self):
        problem, _ = generate_random_sdp(20, 20, 2, 0.1, 1.0, 3)
        # C itself must be finite, so the NaN goes into the support's cvec
        problem.support.cvec[0] = np.nan
        res = solve(problem, SolverParams(eps=1e-4, maxiter=50))
        assert res.status == STATUS_EIGEN_FAILURE
        assert res.failure == "LAPACK returned 0 of 2 smallest eigenpairs"
        assert res.iterations == 0 and res.trace == []
        assert np.array_equal(res.y, np.zeros(problem.m))

    def test_rho_required_without_known_trace(self, small_problem):
        problem, _ = small_problem
        trace = problem.known_trace
        problem.known_trace = None
        try:
            with pytest.raises(ValueError, match="rho"):
                solve(problem, SolverParams())
        finally:
            problem.known_trace = trace

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_known_trace_must_be_finite_and_nonnegative(self, small_problem,
                                                        factor):
        # lower_bound reads the known trace even when rho is given: a
        # negative one would certify bounds above the optimum
        problem, _ = small_problem
        known = problem.known_trace
        try:
            problem.known_trace = factor * known
            with pytest.raises(ValueError, match="known primal trace"):
                solve(problem, SolverParams(rho=20.0, maxiter=5))
            problem.known_trace = 0.0
            assert solver.problem_settings(problem, SolverParams())[0] == 1.0
        finally:
            problem.known_trace = known

    @pytest.mark.parametrize("n,m,sparsity,rank", [(30, 60, 0.1, 11),
                                                  (5, 40, 0.5, 5)])
    def test_rank_defaults_to_the_barvinok_pataki_bound(self, n, m, sparsity,
                                                         rank):
        # with no rank given, m sets it: min(n, ceil(sqrt(2m))), capped at n
        problem, _ = generate_random_sdp(n, m, 2, sparsity, 1.0, 0)
        problem.known_rank = None
        res = solve(problem, SolverParams())
        assert res.status == STATUS_CONVERGED
        assert res.rank_used == rank

    def test_prior_rank_alone_predicts_the_rank(self, small_problem):
        # the prior replaces a rank the run would otherwise need, and the
        # prediction restarts the run below it
        problem, _ = small_problem
        rank = problem.known_rank
        problem.known_rank = None
        try:
            res = solve(problem, SolverParams(prior_rank=6))
        finally:
            problem.known_rank = rank
        assert res.status == STATUS_CONVERGED
        assert res.rank_used < 6

    @pytest.mark.parametrize("field", ["rank", "prior_rank"])
    def test_rank_above_n_rejected(self, small_problem, field):
        # the eigensolve gives at most n pairs, so a larger rank is never used
        problem, _ = small_problem
        with pytest.raises(ValueError, match="rank"):
            solve(problem, SolverParams(**{field: problem.n + 1}))


class TestLastAboveEps:
    """Which measure holds the run: for each of delta1, delta4, delta5 and
    delta6, the last iteration whose record has it above eps, or 0."""

    NAMES = ("delta1", "delta4", "delta5", "delta6")

    @pytest.mark.parametrize("params", [
        SolverParams(), SolverParams(eps=1e-14, maxiter=5),
    ], ids=["converged", "iteration-limit"])
    def test_read_from_the_trace(self, small_problem, params):
        problem, _ = small_problem
        res = solve(problem, params)
        last = [getattr(res, f"{name}_last_above_eps") for name in self.NAMES]
        for name, k in zip(self.NAMES, last):
            above = [rec.k for rec in res.trace if getattr(rec, name) > params.eps]
            assert k == (above[-1] if above else 0), name
        # a converged run ends at the first record with all four at most eps
        assert max(last) == res.iterations - (res.status == STATUS_CONVERGED)

    def test_nan_counts_as_above(self):
        rec = {"delta1": math.nan, "delta4": 0.0, "delta5": 2.0, "delta6": 1.0}
        trace = [SimpleNamespace(k=k, **rec) for k in (1, 2)]
        assert solver.last_above_eps(trace, 1.0) == {
            "delta1_last_above_eps": 2, "delta4_last_above_eps": 0,
            "delta5_last_above_eps": 2, "delta6_last_above_eps": 0}
        assert set(solver.last_above_eps([], 1.0).values()) == {0}


class DenseAggregate:
    """The dense aggregate W carried beside a run, as the oracle of the
    images the bundle holds: every state that ``BundleState.fresh`` makes
    starts at W = 0, and ``aggregate_and_append`` folds W by ``fold_dense``.
    Each ``primal_pair`` call is recorded as ``seen``'s (state, u, past):
    the primal an iteration's stop reads on the updated bundle and the past
    columns, which is the polished weights where the polish ran, else the
    last QP's weights mapped onto that bundle.  Every column the run
    generates is kept by its images (a, B) from ``pvec_generate``, so each
    past column's images name the column they were formed from."""

    def __init__(self, monkeypatch):
        # id(state) -> (state, W); holding the state keeps its id from reuse
        self.held, self.seen, self.generated = {}, [], {}
        fresh = bundle.BundleState.fresh.__func__
        aggregate, pair = bundle.aggregate_and_append, solver.primal_pair
        generate = solver.pvec_generate

        def carried_fresh(cls, p, *args, **kwargs):
            state = fresh(cls, p, *args, **kwargs)
            self.held[id(state)] = (state, np.zeros((p.shape[0], p.shape[0])))
            return state

        def carried_aggregate(state, eta, x, v_new, a_new, b_new, p_bar, p_hat):
            out = aggregate(state, eta, x, v_new, a_new, b_new, p_bar, p_hat)
            self.held[id(out)] = (out, fold_dense(self.w(state), state, eta, x,
                                                  p_bar))
            return out

        def recorded_pair(problem, targets, state, u, past):
            self.seen.append((state, u.copy(), past))
            return pair(problem, targets, state, u, past)

        def recorded_generate(p, *args):
            a, b_mat = generate(p, *args)
            for i in range(a.size):
                self.generated[self.key(a[i], b_mat[:, i])] = p[:, i].copy()
            return a, b_mat

        monkeypatch.setattr(bundle.BundleState, "fresh", classmethod(carried_fresh))
        monkeypatch.setattr(bundle, "aggregate_and_append", carried_aggregate)
        monkeypatch.setattr(solver, "primal_pair", recorded_pair)
        monkeypatch.setattr(solver, "pvec_generate", recorded_generate)

    @staticmethod
    def key(a, b_col) -> bytes:
        return np.float64(a).tobytes() + np.ascontiguousarray(b_col).tobytes()

    def w(self, state) -> np.ndarray:
        return self.held[id(state)][1]

    def past_columns(self, state, past) -> np.ndarray | None:
        """The n x k generated columns whose images are ``past``'s, in
        order; None when the run keeps no past columns."""
        if past is None:
            return None
        cols = [self.generated[self.key(past[0][j], past[1][:, j])]
                for j in range(past[0].size)]
        return np.array(cols).T.reshape(state.P.shape[0], len(cols))

    def primal(self, problem, state, u, past) -> SymMatrix:
        """The X whose (A(X), <C, X>) ``primal_pair`` gives for (state, u,
        past): the model's X with the past columns at their weights,
        rescaled by ``diagonal_scale`` where the termination test rescales
        it, as on Max-Cut."""
        x = model_primal(self.w(state), state, u, self.past_columns(state, past))
        targets = solver.diagonal_targets(problem)
        if targets is None:
            return x
        diag = bundle.support_values(state, u)[targets[0]]
        s = solver.diagonal_scale(problem, targets, diag)
        if s is None:
            return x
        return SymMatrix(x.n, x.rows, x.cols, x.vals * (s[x.rows] * s[x.cols]))

    def last_primal(self, problem) -> SymMatrix:
        """The primal the run's last termination test read."""
        return self.primal(problem, *self.seen[-1])


def without_the_past(monkeypatch):
    """Keep no past columns: the stop and the polish read the updated
    bundle alone, as before the past columns were kept."""
    monkeypatch.setattr(solver, "_last_columns", lambda past, count: (
        None if past is None else (past[0][:0], past[1][:, :0])))


class TestRecoverPrimal:
    """The model's primal X = eta*W + P diag(x) P' that the stop read,
    formed by the tests' oracle from the dense W carried beside a run."""

    def test_zero_weights_give_zero(self, small_problem):
        problem, _ = small_problem
        n, m = problem.n, problem.m
        p = np.eye(n)[:, :2]
        state = bundle.BundleState.fresh(p, np.zeros(2), np.zeros((m, 2)))
        x = model_primal(np.zeros((n, n)), state, np.zeros(3))
        assert np.all(x.to_dense() == 0.0)

    def test_single_column(self):
        n = 4
        p = np.zeros((n, 1))
        p[1, 0] = 1.0
        state = bundle.BundleState.fresh(p, np.zeros(1), np.zeros((2, 1)))
        x = model_primal(np.zeros((n, n)), state, np.array([0.0, 0.7]))
        want = 0.7 * np.outer(p[:, 0], p[:, 0])
        assert np.allclose(x.to_dense(), want, atol=1e-15)

    def test_converged_primal_matches_delta1(self, small_problem, monkeypatch):
        problem, _ = small_problem
        dense = DenseAggregate(monkeypatch)
        infos = []
        res = solve(problem, SolverParams(eps=1e-4, maxiter=300), infos.append)
        assert res.status == STATUS_CONVERGED
        # the stop read the polished weights on the updated bundle
        assert dense.seen[-1][0].B is infos[-1].B_post
        x = dense.last_primal(problem)
        resid = apply_A(problem.op, x) - problem.b
        d1 = np.linalg.norm(resid) / (1 + np.linalg.norm(problem.b))
        assert d1 <= 1e-4
        assert d1 == pytest.approx(res.delta1, rel=1e-9)
        evals = np.linalg.eigvalsh(x.to_dense())
        assert evals.min() >= -1e-9

    def test_past_columns_decide_the_stop(self, small_problem, monkeypatch):
        # this run ends before one that keeps no past columns, on weights
        # some of which sit on past columns: X rebuilt densely from the
        # columns the run generated is PSD, and its delta1 and delta5 are
        # the last record's
        problem, _ = small_problem
        dense = DenseAggregate(monkeypatch)
        res = solve(problem, SolverParams())
        state, u, past = dense.seen[-1]
        x = dense.last_primal(problem)
        without_the_past(monkeypatch)
        plain = solve(problem, SolverParams())
        assert res.status == plain.status == STATUS_CONVERGED
        assert res.iterations < plain.iterations
        assert past[0].size == solver.lmax_from_policy("half", res.rank_used)
        assert np.any(u[1 + state.l:] > 0.0) and np.array_equal(res.u, u)
        evals = np.linalg.eigvalsh(x.to_dense())
        assert evals[0] >= -1e-12 * evals[-1]
        rec = res.trace[-1]
        delta1 = solver.primal_infeasibility(apply_A(problem.op, x), problem.b)
        assert delta1 == pytest.approx(rec.delta1, rel=1e-12, abs=0)
        # <C, X> to 1e-12 relative; delta5 is a gap about 1e5 times smaller
        # than <C, X>, so its own digits past 1e-10 are rounding
        cx, dual = float(problem.cvec @ svec(x).values), res.objective_dual
        assert cx == pytest.approx(res.objective_primal, rel=1e-12, abs=0)
        assert rec.delta5 == solver.duality_gap(res.objective_primal, dual)
        assert abs(solver.duality_gap(cx, dual) - rec.delta5) <= (
            1e-12 * abs(cx) / (1.0 + abs(cx) + abs(dual)))

    @pytest.mark.parametrize("instance", [
        lambda: (generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)[0], SolverParams()),
        # rank prediction restarts the bundle at rank 5 after 12 iterations
        lambda: (generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)[0],
                 SolverParams(prior_rank=10)),
    ], ids=["planted", "rank-restart"])
    def test_carrying_w_changes_no_iterate(self, monkeypatch, instance):
        problem, params = instance()
        plain = solve(problem, params)
        dense = DenseAggregate(monkeypatch)
        carried = solve(problem, params)
        assert plain.status == STATUS_CONVERGED
        assert len(dense.seen) == carried.iterations
        assert all(id(state) in dense.held for state, *_ in dense.seen)
        assert_same_run(carried, plain)

    @pytest.mark.parametrize("maxiter", [11, 12, 13, 14, 15, 16])
    def test_primal_after_rank_restart_matches_objective(self, monkeypatch,
                                                         maxiter):
        # the rank prediction finalizes in iteration 12, and the bundle
        # restarts only when iteration 13 follows: the result reports the
        # rank and the weights of the bundle its last record was taken on,
        # and X must come from the bundle whose weights the stop read
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        dense = DenseAggregate(monkeypatch)
        res = solve(problem, SolverParams(prior_rank=10, maxiter=maxiter))
        assert res.rank_used == (10 if maxiter <= 12 else 5)
        # the weights on the bundle, then on the past columns: as many as
        # the cap of the rank the last record was taken at, 65 at rank 10
        # and, trimmed by the restart, 20 at rank 5
        past = dense.seen[-1][2]
        assert past[0].size == solver.lmax_from_policy("half", res.rank_used)
        assert res.u.size == res.trace[-1].l + 1 + past[0].size
        cx = float(problem.cvec @ svec(dense.last_primal(problem)).values)
        obj = res.objective_primal
        assert abs(cx - obj) <= 1e-10 * (1 + abs(obj))

    def test_time_limit_stops_before_a_restart(self, monkeypatch):
        # a prediction that would restart at rank 3 after iteration 1, where
        # the time limit already ends the run
        monkeypatch.setattr(solver, "rank_predict_step",
                            lambda p, eigs, state: (True, 3))
        problem, _ = generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)
        seen, pair = [], solver.primal_pair

        def recorded(problem, targets, state, u, past):
            seen.append(past)
            return pair(problem, targets, state, u, past)

        monkeypatch.setattr(solver, "primal_pair", recorded)
        res = solve(problem, SolverParams(prior_rank=6, time_limit_secs=1e-9))
        assert res.status == STATUS_TIME_LIMIT and res.iterations == 1
        assert res.rank_used == 6
        assert res.u.size == res.trace[-1].l + 1 + seen[-1][0].size


def c10_maxcut(n=100, prob=0.06, seed=1):
    """The c10 Max-Cut smoke instance and its settings; the rank is the
    solver's default.  Each pair i < j is an edge with probability ``prob``,
    drawn in one call in np.triu_indices order."""
    rows, cols = np.triu_indices(n, 1)
    hit = np.random.default_rng(seed).random(rows.size) < prob
    edges = [(i + 1, j + 1, 1.0) for i, j in zip(rows[hit].tolist(), cols[hit].tolist())]
    problem = build_maxcut_sdp(GraphInstance(n, edges), sense="maximize")
    return problem, SolverParams(eps=1e-3, maxiter=500, t0=1e-2, l_max="sq")


def test_c10_edges_are_the_double_loop_draw():
    # one rng.random() per pair in a loop over i < j draws the same edges
    n, prob, seed = 300, 0.02, 1
    rng = np.random.default_rng(seed)
    edges = [(i + 1, j + 1, 1.0) for i in range(n) for j in range(i + 1, n)
             if rng.random() < prob]
    loop = build_maxcut_sdp(GraphInstance(n, edges), sense="maximize")
    drawn, _ = c10_maxcut(n, prob, seed)
    for field in ("rows", "cols", "vals"):
        assert getattr(drawn.C, field).tobytes() == getattr(loop.C, field).tobytes()


@pytest.fixture(scope="module")
def arpack_runs():
    """c10 n=800 graphs 1-3 (edge probability 0.0125, the default rank 40):
    (problem, params, result) of runs whose every slack goes to ARPACK."""
    runs = []
    for k in (1, 2, 3):
        problem, params = c10_maxcut(n=800, prob=0.0125, seed=k)
        runs.append((problem, params, solve(problem, params)))
    return runs


def assert_same_run(a, b):
    """Status, every trace field but the clock, y and u, bit for bit."""
    assert a.status == b.status
    fields = [f for f in vars(a.trace[0]) if f != "elapsed_secs"]
    for ra, rb in zip(a.trace, b.trace, strict=True):
        assert [repr(getattr(ra, f)) for f in fields] == \
            [repr(getattr(rb, f)) for f in fields]
    assert a.y.tobytes() == b.y.tobytes()
    assert a.u.tobytes() == b.u.tobytes()


def run_digest(res):
    """sha256 over the status, every trace field but the clock, and the
    result's y, u, objective_primal and lower_bound: a run's bits as one
    value to pin."""
    h = hashlib.sha256(res.status.encode())
    fields = [f for f in vars(res.trace[0]) if f != "elapsed_secs"]
    for rec in res.trace:
        for f in fields:
            v = getattr(rec, f)
            h.update(repr(v).encode() if v is None or isinstance(v, str)
                     else np.asarray(v).tobytes())
    for v in (res.y, res.u, res.objective_primal, res.lower_bound):
        h.update(b"None" if v is None else np.asarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


def dense_slack(problem, y):
    """C - A'y as a dense array, by smat over every svec position."""
    return smat(problem.cvec - problem.op.avec @ y).to_dense()


class TestQpWarmStart:
    """Each QP starts from the previous solution; its result is the
    minimizer of its final working set, so the start saves active-set
    steps without changing the run."""

    @pytest.mark.parametrize("instance", [
        lambda: (generate_random_sdp(60, 60, 3, 0.05, 1.0, 0)[0], SolverParams()),
        c10_maxcut,
    ], ids=["generated", "maxcut"])
    def test_start_cannot_change_a_run(self, monkeypatch, instance):
        problem, params = instance()
        steps, inner = [0], qp._eqp_solve

        def counted(*args):
            steps[0] += 1
            return inner(*args)

        monkeypatch.setattr(qp, "_eqp_solve", counted)
        warm = solve(problem, params)
        warm_steps, steps[0] = steps[0], 0
        real = qp.solve_subproblem
        monkeypatch.setattr(qp, "solve_subproblem",
                            lambda data, warm_start=None: real(data))
        cold = solve(problem, params)

        assert warm.status == STATUS_CONVERGED
        assert_same_run(warm, cold)
        # the start saves working-set solves: 107 against 213 on the
        # generated instance and 84 against 171 on the Max-Cut one
        assert warm_steps < 0.55 * steps[0]

    def test_start_is_priced(self, monkeypatch):
        # a coordinate at 0 starts bound only where the gradient keeps it
        # there, so a new column whose cut the candidate violates starts
        # free; the first QP and the first after a rank restart start from
        # zeros, on a fresh bundle
        calls, real = [], qp.solve_subproblem

        def recorded(data, warm_start=None):
            calls.append((data, warm_start))
            return real(data, warm_start)

        monkeypatch.setattr(qp, "solve_subproblem", recorded)
        problem, params = c10_maxcut()
        restart, restart_params = c10_maxcut(n=60, prob=0.1, seed=2)
        restart_params.prior_rank = 8
        planted = generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)[0]
        for run, fresh in ((lambda: solve(problem, params), 1),
                           (lambda: solve(restart, restart_params), 2),
                           (lambda: solve(planted), 1)):
            calls.clear()
            assert run().status == STATUS_CONVERGED
            assert sum(not start.u.any() for _, start in calls) == fresh
            assert not calls[0][1].u.any()
            for data, start in calls:
                g = data.h @ start.u + data.q
                assert np.array_equal(start.bound_active,
                                      (start.u == 0.0) & (g >= 0.0))


class TestTrajectories:
    """Pinned runs of the whole loop: status, iterations, steps and F_y,
    and on the benchmark's families and rank prediction every bit
    (``run_digest``)."""

    @staticmethod
    def steps(res):
        return "".join(rec.step_type[0] for rec in res.trace)

    def test_default_params(self):
        problem, _ = generate_random_sdp(50, 50, 3, 0.1, 1.0, 3)
        res = solve(problem, SolverParams())
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 29
        assert self.steps(res) == "ddddddnddndnnndddndnnndnndndd"
        assert res.trace[-1].F_y == pytest.approx(11.153703322814273, rel=1e-9)
        # the bundle cap of "half" at r = 3 holds on every iteration and binds
        assert max(rec.l for rec in res.trace) == 9

    def test_rank_prediction(self):
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        res = solve(problem, SolverParams(prior_rank=10,
                                          maxiter=500))
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 44
        assert res.rank_used == 5
        assert self.steps(res).count("d") == 22
        assert res.trace[-1].F_y == pytest.approx(14.056967154433172, rel=1e-9)
        assert run_digest(res) == (
            "842cfd2e0e79cdcdac40276c5225f24950c624539dcb227b4f911496bd5fee99")

    def test_maxcut(self, monkeypatch):
        # the run from y = 0, which an instance takes without a finite
        # least-squares dual, moved along y_hat = 1 to lambda_min(S) = 0
        monkeypatch.setattr(SvecSupport, "least_squares_dual",
                            property(lambda self: None))
        problem, params = c10_maxcut()
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 31
        assert self.steps(res).count("d") == 26
        assert res.trace[-1].F_y == pytest.approx(250.70254920293712, rel=1e-9)
        # the default rank min(n, ceil(sqrt(2m))) is 15 here, m = n = 100;
        # passing it changes no bit of the run
        assert res.rank_used == 15
        params.rank = 15
        assert_same_run(solve(problem, params), res)

    def test_maxcut_from_the_least_squares_dual(self):
        problem, params = c10_maxcut()
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 17
        assert self.steps(res).count("d") == 13
        assert res.trace[-1].F_y == pytest.approx(250.72146721097732, rel=1e-9)
        params.rank = 15
        assert_same_run(solve(problem, params), res)

    def test_benchmark_families(self):
        """The iteration counts of the benchmark's solve families, rebuilt
        here: Max-Cut graphs 1-10 (n = 200, edge probability 0.03, the
        default rank 20, l_max "sq", eps 1e-3) and planted seeds 42 and 1042
        at n = m = 400 (eps 1e-4), with the held-out planted pair 7 and
        1007: status, iterations, the step of each iteration, the last F_y
        and each run's digest.  A refactor keeps them; a change that moves
        the iterates re-pins them and says so in CHANGES.md."""
        maxcut = [solve(*c10_maxcut(n=200, prob=0.03, seed=k)) for k in range(1, 11)]
        planted = [solve(generate_random_sdp(400, 400, 5, 1e-2, 1.0, seed)[0],
                         SolverParams(eps=1e-4, maxiter=300))
                   for seed in (42, 1042, 7, 1007)]
        assert {res.status for res in maxcut + planted} == {STATUS_CONVERGED}
        counts = [res.iterations for res in maxcut]
        assert counts == [24, 25, 18, 26, 28, 22, 21, 30, 22, 21]
        assert sum(counts) == 237
        assert [res.iterations for res in planted] == [16, 19, 16, 15]
        assert [self.steps(res) for res in maxcut + planted] == [
            "dddddddddndndndndndnddnd",
            "ddddddddddddnddndddndnddn",
            "ddddddddddndndnddn",
            "ddddddddddndnddnddndddnndn",
            "dddddddndndndnndndndnndnndnd",
            "ddddddddddnddnddnddndn",
            "dddddddddnddnddnddnnd",
            "dddddddddndndndnndndndndnndndn",
            "dddddddddddddndndnddnd",
            "dddddddddddndddnddndd",
            "ndndndndndnndndn",
            "ndnndddndndnnndnndd",
            "ndndndddnddndndn",
            "ndnddndnndddddd",
        ]
        assert [res.trace[-1].F_y for res in maxcut + planted] == pytest.approx([
            484.79693180721665, 487.31673290381156, 520.9987439799386,
            499.72710272754375, 509.37668530989737, 485.0210594209438,
            485.85277518567517, 481.04482588512985, 498.857452490598,
            500.78532978053715, 40.59475012436755, -24.731037863718583,
            -102.57043844541359, 13.308657317920776,
        ], rel=1e-9)
        # and every record bit for bit, with y, u and the primal and bound
        assert [run_digest(res) for res in maxcut + planted] == [
            "6cbfcf47a7a4dc6c65876bb2253675bebae48ca45aded199749864d34fe3cad0",
            "95346cb75a59cc8003cf20effa5310fea7625296ccd38b2dfc79c10a440858f3",
            "c92983110a2067ac98ddcce4202057b96c70545225f690d5e5484031ea22ed9c",
            "6764a4997b9f64b30c87c8394242f0d9df375c30f7dad6728648f266fe1df68d",
            "3d7ebf3d4754b5d62f380c1bdd528525565c88f4a284e668563869fef9af94ac",
            "aab1bc1af2307d98d31cc80e72970137aca9f5a777707695f6e0c242dbaaaa31",
            "95f90feba7bd3294adca592d0a61004719934124b7951acc2ae55352bb54b8e2",
            "6de38bf4693ae650555894f04ac67ab847eb424f201e984a2244d9315b8ceb52",
            "11f6f779e185eef4d1e2f4221e803e24910cb06508c8ec250f2cdf6c53537a95",
            "583ed66e9d60d4e2c7ec2b978136371a422cf4b6a25ed23cf59fb2b6333237d5",
            "9e8a9673ef2e6a57e2e89c82e1db471dff37ad3eb476870690d40c7b3f286aa7",
            "26f3c5010c1ce8a1a0f14100035e2db5f4cd31a79715682f06eab967356bc71e",
            "f40e1c16f2af474abd6a77f196fdd23fabae81c9e6b15c3d6f74c6a86c58a24b",
            "5f391b7c9700204bd88b40d038dab76efc100b86dc4a95288123875db8ca8168",
        ]

    def test_arpack_family(self, arpack_runs):
        """The only trajectory pin above DENSE_EIG_CUTOFF, where every
        eigensolve is ARPACK's: c10 n=800 graphs 1-3.  A change that moves
        it re-pins it and says so in CHANGES.md."""
        counts = [res.iterations for _, _, res in arpack_runs]
        assert counts == [18, 19, 20]
        assert sum(counts) == 57
        for problem, params, res in arpack_runs:
            assert problem.n > DENSE_EIG_CUTOFF
            assert res.status == STATUS_CONVERGED and res.rank_used == 40
            assert res.max_delta <= params.eps
        assert [run_digest(res) for _, _, res in arpack_runs] == [
            "1ae154e5bb55d17de61883eb0009350aa8297ef4517844fede1c108c9fd75218",
            "0f5f2b90a298d1d0ad4d70405418affcbe9617928a62d50df0bf3e2c40cc8c2b",
            "9cc313184badaf273126db4ae95c919b1ac4c1ec3000ab1fd705ed922d506421",
        ]


class TestArpackAgainstDense:
    """On the slacks of c10 n=800 graph 1, at y_LS and at the run's final
    y, ARPACK finds the 40 smallest eigenvalues that dense eigh does: its
    basis misses no pair of the cluster at 0."""

    def test_smallest_eigenvalues_match_eigh(self, arpack_runs):
        problem, _, res = arpack_runs[0]
        refs = []
        for y in (problem.support.least_squares_dual, res.y):
            s = dual_slack(problem, y)
            assert sp.issparse(s)
            eig = extreme_eigs(s, 40)
            ref = sla.eigh(s.toarray(), subset_by_index=[0, 39], eigvals_only=True)
            # each residual certificate puts an eigenvalue within
            # EIG_TOL (1 + |lambda|) of its value
            assert np.all(np.abs(eig.values - ref) <= 2 * EIG_TOL * (1.0 + np.abs(ref)))
            again = extreme_eigs(s, 40)
            assert again.values.tobytes() == eig.values.tobytes()
            assert again.vectors.tobytes() == eig.vectors.tobytes()
            refs.append(ref)
        # the final slack has a cluster of eigenvalues near 0
        assert 1 <= np.count_nonzero(refs[1] < 1e-3) <= 4


class TestInteriorPointReference:
    """The optimum p* of the HRVW interior-point method
    (``ipm_reference.maxcut_hrvw``, relative gap 1e-8), which reads no
    eigensolve, against a bundle run's certificates: p* lies in
    [lower_bound, objective_primal], b'y is within eps of it, and no
    record's lower_bound exceeds it."""

    @pytest.mark.parametrize("instance", ["c10", "benchmark-graph-1",
                                          "c10-n800-graph-1"])
    def test_optimum_inside_the_bracket(self, request, instance):
        if instance == "c10-n800-graph-1":
            problem, params, res = request.getfixturevalue("arpack_runs")[0]
        else:
            problem, params = (c10_maxcut() if instance == "c10"
                               else c10_maxcut(n=200, prob=0.03, seed=1))
            res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        c = problem.C.to_dense()
        x_ipm, y_ipm = maxcut_hrvw(c, problem.b)
        # b'y_ipm <= p* <= <C, X_ipm>: Z is positive definite, X feasible
        np.linalg.cholesky(c - np.diag(y_ipm))
        assert np.abs(np.diag(x_ipm) - problem.b).max() <= 1e-10
        p_star = float(problem.b @ y_ipm)
        assert float(np.vdot(c, x_ipm)) - p_star <= 1e-8 * (1.0 + abs(p_star))
        tol = 1e-8 * abs(p_star)
        assert res.lower_bound - tol <= p_star <= res.objective_primal + tol
        assert abs(res.objective_dual - p_star) / (1.0 + abs(p_star)) <= params.eps
        assert all(rec.lower_bound <= p_star + tol for rec in res.trace)


class TestLeastSquaresStart:
    """The run starts at y_LS = argmin ||C - A'y||_F, and at y = 0 when
    y_LS is None, for one eigensolve either way."""

    @staticmethod
    def instances(small_problem):
        """A planted instance and the c10 Max-Cut one, with settings."""
        return [(small_problem[0], SolverParams()), c10_maxcut()]

    @staticmethod
    def first_center(problem):
        infos = []
        solve(problem, SolverParams(maxiter=1), infos.append)
        return infos[0].y

    def test_planted_run_starts_at_the_least_squares_dual(self, small_problem):
        problem, _ = small_problem
        y_ls = problem.support.least_squares_dual
        y0 = self.first_center(problem)
        assert y0.tobytes() == y_ls.tobytes()
        assert y0 is not y_ls

    def test_maxcut_run_starts_on_the_line_through_it(self):
        # y_LS + lambda_min(S(y_LS)) y_hat with y_hat = 1, from the start's
        # one eigensolve: the slack's eigenvectors, with lambda_min 0
        problem, params = c10_maxcut()
        y_ls = problem.support.least_squares_dual
        rho, rank, *_ = solver.problem_settings(problem, params)
        lam_max = penalty_eval(problem, y_ls, rank, rho)[1]
        y0 = self.first_center(problem)
        assert y0.tobytes() == (y_ls - lam_max * np.ones(problem.m)).tobytes()
        s = dense_slack(problem, y0)
        assert abs(np.linalg.eigvalsh(s)[0]) <= 1e-12 * (1.0 + np.linalg.norm(s, 2))

    def test_without_it_the_run_starts_at_zero(self, small_problem,
                                               monkeypatch):
        problem, _ = small_problem
        monkeypatch.setattr(SvecSupport, "least_squares_dual",
                            property(lambda self: None))
        assert not self.first_center(problem).any()

    def test_one_eigensolve_at_the_start(self, small_problem, monkeypatch):
        slacks, real = [], solver.extreme_eigs

        def recorded(s, r):
            slacks.append(np.array(s))
            return real(s, r)

        monkeypatch.setattr(solver, "extreme_eigs", recorded)
        for problem, params in self.instances(small_problem):
            slacks.clear()
            res = solve(problem, params)
            assert len(slacks) == res.iterations + 1
            y_ls = problem.support.least_squares_dual
            assert np.array_equal(slacks[0], dual_slack(problem, y_ls))

    def test_failed_first_eigensolve_ends_at_the_start(self, monkeypatch):
        problem, params = c10_maxcut()

        def failing(s, r):
            raise EigenConvergenceError("injected")

        monkeypatch.setattr(solver, "extreme_eigs", failing)
        res = solve(problem, params)
        assert res.status == STATUS_EIGEN_FAILURE
        assert res.iterations == 0
        assert res.y.tobytes() == problem.support.least_squares_dual.tobytes()
        assert res.lower_bound is None and res.lower_bound_gap is None

    def test_ten_seeds_take_no_more_iterations(self, monkeypatch):
        # 347 iterations from y_LS against 450 from y = 0 on seeds 0-9
        runs = {}
        for start in ("least-squares", "zero"):
            if start == "zero":
                monkeypatch.setattr(SvecSupport, "least_squares_dual",
                                    property(lambda self: None))
            runs[start] = []
            for seed in range(10):
                problem, planted = generate_random_sdp(50, 50, 3, 0.1, 1.0, seed)
                res = solve(problem, SolverParams())
                by_star = float(problem.b @ planted.y_star)
                err = abs(res.objective_dual - by_star) / (1.0 + abs(by_star))
                # the dual bound of acceptance criterion c02
                assert res.status == STATUS_CONVERGED and err <= 1e-3, (start, seed)
                runs[start].append(res.iterations)
        assert sum(runs["least-squares"]) <= sum(runs["zero"])


class TestLowerBound:
    """lower_bound = b'y - T max(lambda_max(A'y - C), 0) at the center."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_below_the_planted_optimum(self, seed):
        problem, planted = generate_random_sdp(50, 50, 3, 0.1, 1.0, seed)
        by_star = float(problem.b @ planted.y_star)
        res = solve(problem, SolverParams())
        assert res.status == STATUS_CONVERGED
        assert all(rec.lower_bound <= by_star for rec in res.trace)
        assert res.lower_bound == res.trace[-1].lower_bound
        dual = res.objective_dual
        assert res.lower_bound == dual - problem.known_trace * res.delta4
        assert res.lower_bound_gap == (dual - res.lower_bound) / (1.0 + abs(dual))
        assert 0.0 <= res.lower_bound_gap <= 1e-4

    def test_none_without_a_known_trace(self, small_problem):
        problem, _ = small_problem
        trace = problem.known_trace
        problem.known_trace = None
        try:
            res = solve(problem, SolverParams(rho=20.0, maxiter=5))
        finally:
            problem.known_trace = trace
        assert {rec.lower_bound for rec in res.trace} == {None}
        assert res.lower_bound is None and res.lower_bound_gap is None


def held_bytes(state):
    """Bytes of the arrays a bundle state holds, directly or in a list."""
    items = [x for v in vars(state).values()
             for x in (v if isinstance(v, (list, tuple)) else [v])]
    return sum(x.nbytes for x in items if isinstance(x, np.ndarray))


def without_diagonal_targets(monkeypatch):
    """Hide the Max-Cut structure: the termination test then reads the
    model's X, and the centers stay off the line along y_hat, as on every
    instance without it."""
    monkeypatch.setattr(solver, "diagonal_targets", lambda problem: None)


def without_the_polish(monkeypatch):
    """Run no polish QP: the termination test then reads the model's X for
    the last QP's weights at every iteration, the model rule."""
    monkeypatch.setattr(solver, "polish_weights", lambda *args: None)


def without_the_line(monkeypatch):
    """Keep each center at the QP's candidate: no move along A'y_hat = I,
    as on every instance without that direction."""
    monkeypatch.setattr(solver, "line_minimum",
                        lambda b, y, f, lam_max, line: (y, f, lam_max))


MAXCUT_INSTANCES = pytest.mark.parametrize("instance", [
    c10_maxcut,
    # the benchmark's Max-Cut graph: seed 1, n = 200, rank 20
    lambda: c10_maxcut(n=200, prob=0.03, seed=1),
], ids=["c10", "benchmark-graph-1"])


class TestMaxCutCertificate:
    """On Max-Cut the termination test reads X_rep = D^-1/2 X D^-1/2 for
    D = Diag(diag X), which is PSD and meets A(X_rep) = b exactly; with the
    centers off the line along y_hat, the iterates are the model rule's,
    and only the stop moves."""

    @MAXCUT_INSTANCES
    def test_stops_on_a_prefix_of_the_model_rule(self, monkeypatch, instance):
        problem, params = instance()
        # the default 2n + 1, which the hidden structure no longer gives
        params.rho = 2.0 * problem.n + 1.0
        without_the_line(monkeypatch)
        new = solve(problem, params)
        without_diagonal_targets(monkeypatch)
        old = solve(problem, params)
        assert new.status == old.status == STATUS_CONVERGED
        k = new.iterations
        assert k < old.iterations
        assert TestTrajectories.steps(old)[:k] == TestTrajectories.steps(new)
        f_y = lambda res, k: np.array([rec.F_y for rec in res.trace[:k]]).tobytes()
        assert f_y(old, k) == f_y(new, k)
        dual = old.objective_dual
        assert abs(new.objective_dual - dual) <= params.eps * (1.0 + abs(dual))
        # delta1 of X_rep is rounding; the model's held the old run longest
        assert new.delta1 <= 1e-15
        assert old.delta1_last_above_eps == old.iterations - 1

    def test_materialized_primal_is_the_certificate(self, monkeypatch):
        problem, params = c10_maxcut()
        plain = solve(problem, params)
        dense = DenseAggregate(monkeypatch)
        res = solve(problem, params)
        assert_same_run(res, plain)
        x_rep = dense.last_primal(problem)
        x = x_rep.to_dense()
        assert np.abs(np.diag(x) - 1.0).max() <= 1e-15
        assert np.linalg.eigvalsh(x)[0] >= -1e-12
        cx = float(problem.cvec @ svec(x_rep).values)
        assert abs(cx - res.objective_primal) <= 1e-12 * abs(res.objective_primal)
        # with the center's bound, the optimum lies in [lower_bound, <C, X>]
        assert res.lower_bound <= res.objective_primal

    @pytest.mark.parametrize("prior_rank,l_max,rank_used", [
        (None, "sq", 15),
        # a cap at the rank folds every old column into W, with weight
        (None, 15, 15),
        (8, "sq", 6),
    ], ids=["c10", "cap-at-rank", "rank-restart"])
    def test_support_values_match_the_dense_primal(self, monkeypatch, prior_rank,
                                                   l_max, rank_used):
        problem, params = (c10_maxcut() if prior_rank is None
                           else c10_maxcut(n=60, prob=0.1, seed=2))
        params.prior_rank, params.l_max = prior_rank, l_max
        dense = DenseAggregate(monkeypatch)
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED and res.rank_used == rank_used
        assert res.delta1 <= 1e-15
        support = problem.support
        for state, u, past in dense.seen:
            assert past is None
            x = model_primal(dense.w(state), state, u).to_dense()
            want = x[support.rows, support.cols] * support.scale
            got = bundle.support_values(state, u)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_planted_runs_carry_no_support_values(self, small_problem,
                                                  monkeypatch):
        problem, _ = small_problem
        assert solver.diagonal_targets(problem) is None
        states, real = [], bundle.aggregate_and_append

        def recorded(state, *args):
            states.append(state)
            return real(state, *args)

        monkeypatch.setattr(bundle, "aggregate_and_append", recorded)
        solve(problem, SolverParams(maxiter=10))
        assert len(states) == 10
        for state in states:
            assert state.w_supp is None and state.support is None

    @pytest.mark.parametrize("prior_rank", [None, 8], ids=["c10", "rank-restart"])
    def test_state_holds_no_per_column_support_arrays(self, monkeypatch,
                                                      prior_rank):
        # the support values of the columns are formed from P when needed,
        # so a state holds P, a, B and w_supp, and no copy per column
        problem, params = (c10_maxcut() if prior_rank is None
                           else c10_maxcut(n=60, prob=0.1, seed=2))
        params.prior_rank = prior_rank
        states, real = [], bundle.aggregate_and_append

        def recorded(state, *args):
            out = real(state, *args)
            states.extend([state, out])
            return out

        monkeypatch.setattr(bundle, "aggregate_and_append", recorded)
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        assert len(states) == 2 * res.iterations
        for state in states:
            assert state.w_supp is not None
            allowed = sum(x.nbytes for x in (state.P, state.a, state.B, state.w_supp))
            assert held_bytes(state) <= allowed

    def test_isolated_vertices(self, monkeypatch):
        # X_ii = 0 at an isolated vertex that no bundle column reaches yet;
        # those iterations fall back to the model's X
        n, isolated = 100, 10
        rng = np.random.default_rng(1)
        edges = [(i + 1, j + 1, 1.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.06 and i >= isolated]
        problem = build_maxcut_sdp(GraphInstance(n, edges), sense="maximize")
        params = SolverParams(eps=1e-3, maxiter=500, t0=1e-2, l_max="sq")
        dense = DenseAggregate(monkeypatch)
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        assert res.max_delta <= params.eps
        assert res.delta1_last_above_eps > 0
        for rec in res.trace:
            values = [v for v in vars(rec).values() if isinstance(v, float)]
            assert np.all(np.isfinite(values)), rec.k
        assert np.isfinite(res.objective_primal)
        assert np.all(np.isfinite(dense.last_primal(problem).vals))

    def test_scale_of_a_diagonal_that_is_not_positive(self):
        problem, _ = c10_maxcut(n=4, prob=1.0)
        targets = solver.diagonal_targets(problem)
        diag = np.array([4.0, 1.0, 0.25, 1.0])
        assert solver.diagonal_scale(problem, targets, diag).tolist() == \
            [0.5, 1.0, 2.0, 1.0]
        # zero, negative, NaN, and a positive entry whose s overflows
        for bad in (0.0, -1e-300, math.nan, 1e-320):
            diag[2] = bad
            assert solver.diagonal_scale(problem, targets, diag) is None


class TestDualLineSearch:
    """Where A'y_hat = I (Max-Cut: y_hat = 1), each center moves to the
    minimizer of F along y_hat, where lambda_min(S) = 0: the center is dual
    feasible and b'y is a certified bound below the optimum."""

    @MAXCUT_INSTANCES
    def test_final_center_is_dual_feasible(self, instance):
        problem, params = instance()
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED and res.max_delta <= params.eps
        assert {rec.delta4 for rec in res.trace} == {0.0}
        s = dense_slack(problem, res.y)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12 * (1.0 + np.linalg.norm(s, 2))
        assert res.lower_bound == res.objective_dual
        assert res.lower_bound_gap == 0.0

    @MAXCUT_INSTANCES
    def test_brackets_hold_the_optimum(self, monkeypatch, instance):
        # each run brackets the optimum by [lower_bound, objective_primal],
        # so any two brackets meet; the line's b'y lies below the optimum
        # and the candidate's above it, so their distance is not bounded by
        # eps
        problem, params = instance()
        new = solve(problem, params)
        params.eps = 1e-6
        tight = solve(problem, params)
        without_the_line(monkeypatch)
        params.eps = 1e-3
        old = solve(problem, params)
        for res in (new, tight, old):
            assert res.status == STATUS_CONVERGED and res.max_delta <= 1e-3
        for other in (old, tight):
            assert new.lower_bound <= other.objective_primal
            assert other.lower_bound <= new.objective_primal

    def test_records_keep_the_candidate(self):
        # F_z and eig_min_S are the QP candidate's; a descent step moves the
        # center to z + eig_min_S y_hat, whose F = -b'y the next F_y reads
        problem, params = c10_maxcut(n=60, prob=0.1, seed=2)
        params.prior_rank = 8
        infos = []
        res = solve(problem, params, infos.append)
        assert res.status == STATUS_CONVERGED and res.rank_used == 6
        for info, nxt in zip(infos, infos[1:]):
            rec, z = info.record, info.z
            lam_min = np.linalg.eigvalsh(dense_slack(problem, z))[0]
            assert abs(rec.eig_min_S - lam_min) <= 1e-10 * (1.0 + abs(lam_min))
            assert rec.F_z == -float(problem.b @ z) + res.rho * max(-rec.eig_min_S, 0.0)
            if rec.step_type == "descent":
                y = z + rec.eig_min_S * np.ones(problem.m)
                assert nxt.y.tobytes() == y.tobytes()
                assert nxt.record.F_y == -float(problem.b @ y)

    @pytest.mark.parametrize("prior_rank", [None, 6])
    def test_planted_runs_keep_every_bit(self, small_problem, monkeypatch,
                                         prior_rank):
        problem, _ = small_problem
        assert solver.diagonal_targets(problem) is None
        params = SolverParams(prior_rank=prior_rank)
        on = solve(problem, params)
        without_the_line(monkeypatch)
        assert_same_run(solve(problem, params), on)

    @staticmethod
    def assert_default_iterates(problem, params, rho):
        """The run at rho has the default's status, steps, F_y, y and
        primal bit for bit; F_z, the model value and delta6 read rho."""
        default = solve(problem, params)
        params.rho = rho
        res = solve(problem, params)
        assert res.status == default.status == STATUS_CONVERGED
        assert TestTrajectories.steps(res) == TestTrajectories.steps(default)
        assert [rec.F_y for rec in res.trace] == [rec.F_y for rec in default.trace]
        assert res.y.tobytes() == default.y.tobytes()
        assert res.objective_primal == default.objective_primal

    @pytest.mark.parametrize("rho", [50.0, 100.0])
    def test_rho_at_most_the_trace_keeps_the_candidate(self, rho):
        # F along y_hat falls without bound below T = n, so such a rho is
        # rejected; at rho = T it is flat from its minimizer on, and every
        # candidate still moves to that minimizer, as at the default 2T + 1
        problem, params = c10_maxcut()
        assert solver.diagonal_targets(problem)[3] == 100.0
        if rho < 100.0:
            params.rho = rho
            with pytest.raises(ValueError, match="at least the trace 100"):
                solve(problem, params)
        else:
            self.assert_default_iterates(problem, params, rho)

    def test_rho_at_the_trace_on_the_benchmark_graph(self):
        # at rho = T = 200 a run that keeps its candidates ends at IterLimit
        # after 500 iterations; one that takes the line is the default's
        problem, params = c10_maxcut(n=200, prob=0.03, seed=1)
        self.assert_default_iterates(problem, params, 200.0)

    def test_rho_just_above_the_trace_moves_the_center(self, monkeypatch):
        # any rho >= T = n takes the line; the run without it starts off it
        problem, params = c10_maxcut()
        params.rho, params.maxiter = 100.5, 5
        assert {rec.delta4 for rec in solve(problem, params).trace} == {0.0}
        without_the_line(monkeypatch)
        assert solve(problem, params).trace[0].delta4 > 0.0

    def test_sdpa_file_needs_no_rho(self, tmp_path):
        # every feasible X has tr X = T = n: rho defaults to 2n + 1 and the
        # bound reads T, with the instance's known trace left unset
        problem, params = c10_maxcut()
        path = str(tmp_path / "maxcut.dat-s")
        write_sdpa(problem, path)
        loaded = load_sdpa(path)
        assert loaded.known_trace is None
        assert solver.problem_settings(loaded, params)[0] == 2.0 * problem.n + 1.0
        res = solve(loaded, params)
        assert loaded.known_trace is None
        assert res.status == STATUS_CONVERGED and res.rho == 201.0
        assert res.lower_bound == res.objective_dual


class TestPrimalPolish:
    """Without diagonal targets, an iteration whose delta4 and delta6 are
    within eps reads the polished primal: the weights u >= 0, 1'u <= rho on
    the updated bundle that minimize ||B u - b||^2 + w^2 (a'u - b'y)^2.
    The iterates are the model rule's, and only the stop moves."""

    @pytest.mark.parametrize("seed,old_iterations", [(42, 28), (1042, 27)])
    def test_stops_on_a_prefix_of_the_model_rule(self, monkeypatch, seed,
                                                 old_iterations):
        problem, _ = generate_random_sdp(400, 400, 5, 1e-2, 1.0, seed)
        params = SolverParams(eps=1e-4, maxiter=300)
        new = solve(problem, params)
        without_the_polish(monkeypatch)
        old = solve(problem, params)
        assert new.status == old.status == STATUS_CONVERGED
        assert old.iterations == old_iterations
        k = new.iterations
        assert k < old.iterations
        assert TestTrajectories.steps(old)[:k] == TestTrajectories.steps(new)
        f_y = lambda res, k: np.array([rec.F_y for rec in res.trace[:k]]).tobytes()
        assert f_y(old, k) == f_y(new, k)
        dual = old.objective_dual
        assert abs(new.objective_dual - dual) <= params.eps * (1.0 + abs(dual))
        # the model's delta1 held the old run to its last iteration
        assert old.delta1_last_above_eps == old.iterations - 1

    def test_polished_weights_solve_their_least_squares_problem(
            self, small_problem, monkeypatch):
        # each polished u is a KKT point of min ||B u - b||^2 + w^2 (a'u -
        # b'y)^2 + xi ||u||^2 over u >= 0, 1'u <= rho at the center after the
        # step, built here from that definition on the updated bundle
        # followed by the past columns, and is at least as good there as
        # the last QP's weights mapped onto the updated bundle, with 0 on
        # the past columns
        problem, _ = small_problem
        params, b = SolverParams(), problem.b
        polished, updates, seen, infos = {}, [], [], []
        polish, update, pair = (solver.polish_weights, solver._update_bundle,
                                solver.primal_pair)

        def recorded_polish(*args):
            polished[len(infos) + 1] = polish(*args)
            return polished[len(infos) + 1]

        def recorded_update(*args):
            updates.append(update(*args))
            return updates[-1]

        def recorded_pair(problem, targets, state, u, past):
            seen.append((state, u, past))
            return pair(problem, targets, state, u, past)

        monkeypatch.setattr(solver, "polish_weights", recorded_polish)
        monkeypatch.setattr(solver, "_update_bundle", recorded_update)
        monkeypatch.setattr(solver, "primal_pair", recorded_pair)
        res = solve(problem, params, infos.append)
        assert res.status == STATUS_CONVERGED
        ks = sorted(polished)
        assert ks[-1] == res.iterations and len(ks) >= 2
        for k in ks:
            state, u, past = seen[k - 1]
            assert state.B is infos[k - 1].B_post and u is polished[k]
            assert past is updates[k - 1][2]
            rec = res.trace[k - 1]
            assert max(rec.delta4, rec.delta6) <= params.eps
            dual = float(b @ (infos[k].y if k < res.iterations else res.y))
            w2 = ((1.0 + np.linalg.norm(b)) / (1.0 + 2.0 * abs(dual))) ** 2
            a, b_mat = np.append(state.a, past[0]), np.hstack([state.B, past[1]])
            h = (b_mat.T @ b_mat + w2 * np.outer(a, a)
                 + params.xi * np.eye(u.size))
            q = -(b_mat.T @ b + w2 * dual * a)
            d = SimpleNamespace(h=h, q=q, rho=res.rho,
                                tol=qp.QP_TOL_BASE * (1.0 + np.abs(q).max()))
            assert qp.kkt_residual(d, u) <= d.tol
            lsq = lambda v: (np.sum((b_mat @ v - b) ** 2)
                             + w2 * (a @ v - dual) ** 2)
            start = np.append(updates[k - 1][1][0], np.zeros(past[0].size))
            assert lsq(u) <= lsq(start) + params.xi * start.sum() ** 2

    @pytest.mark.parametrize("instance", [
        lambda: (generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)[0], SolverParams()),
        c10_maxcut,
        lambda: (c10_maxcut(n=60, prob=0.1, seed=2)[0],
                 SolverParams(eps=1e-3, prior_rank=8)),
    ], ids=["planted", "maxcut", "rank-restart"])
    def test_every_stop_reads_the_updated_bundle(self, monkeypatch, instance):
        # the bundle the callback gets as (a_post, B_post), with the last
        # QP's weights mapped onto it unless a polish replaced them
        problem, params = instance()
        updates, seen, infos = [], [], []
        update, pair = solver._update_bundle, solver.primal_pair

        def recorded_update(*args):
            updates.append(update(*args))
            return updates[-1]

        def recorded(problem, targets, state, u, past):
            seen.append((state, u, past))
            return pair(problem, targets, state, u, past)

        monkeypatch.setattr(solver, "_update_bundle", recorded_update)
        monkeypatch.setattr(solver, "primal_pair", recorded)
        res = solve(problem, params, infos.append)
        assert res.status == STATUS_CONVERGED
        assert len(seen) == len(updates) == len(infos) == res.iterations
        polished = solver.diagonal_targets(problem) is None
        for (state, u, past), (bundle_k, warm, past_k), info in zip(
                seen, updates, infos):
            assert state is bundle_k and past is past_k
            assert state.B is info.B_post and state.a is info.a_post
            # past columns, and with them the polish, only without targets
            assert (past is not None) == polished
            if past is None:
                assert u is warm[0]
            else:  # on the bundle, then on the past columns
                assert u.size == warm[0].size + past[0].size
        assert res.u is seen[-1][1]

    @pytest.mark.parametrize("exc", [
        qp.NonConvergence("KKT residual not within its certificate"),
        np.linalg.LinAlgError("matrix not positive definite"),
    ], ids=["non-convergence", "lin-alg-error"])
    def test_a_failed_polish_reads_the_model_pair(self, small_problem,
                                                  monkeypatch, exc):
        problem, _ = small_problem
        plain = solve(problem, SolverParams())
        # (bundle, (u, simplex), past) of each bundle update; the iteration
        # and the weights of each polish QP
        updates, polishes, outputs, seen = [], [], [], []
        update, polish, pair = (solver._update_bundle, qp.solve_least_squares,
                                solver.primal_pair)

        def recorded_update(*args):
            updates.append(update(*args))
            return updates[-1]

        def failing(*args):
            polishes.append(len(updates))
            if len(polishes) == 1:
                raise exc
            outputs.append(polish(*args))
            return outputs[-1]

        def recorded(problem, targets, state, u, past):
            seen.append((state, u, past))
            return pair(problem, targets, state, u, past)

        monkeypatch.setattr(solver, "_update_bundle", recorded_update)
        monkeypatch.setattr(qp, "solve_least_squares", failing)
        monkeypatch.setattr(solver, "primal_pair", recorded)
        infos = []
        res = solve(problem, SolverParams(), infos.append)
        assert res.status == STATUS_CONVERGED
        k = polishes[0]
        assert 0 < k < res.iterations == len(seen)
        # iteration k read (B u, a'u) of the QP's weights mapped onto the
        # updated bundle, with 0 on the past columns
        state, u, past = seen[k - 1]
        assert state is updates[k - 1][0] and past is updates[k - 1][2]
        qp_u = updates[k - 1][1][0]
        assert np.array_equal(u, np.append(qp_u, np.zeros(past[0].size)))
        rec = res.trace[k - 1]
        assert rec.delta1 == solver.primal_infeasibility(state.B @ qp_u, problem.b)
        # at the center after the step, where iteration k + 1 starts
        dual = float(problem.b @ infos[k].y)
        assert rec.delta5 == solver.duality_gap(float(state.a @ qp_u), dual)
        # the polishes after it read their own weights on the same bundle
        assert all(seen[j - 1][0] is updates[j - 1][0] and seen[j - 1][1] is w
                   for j, w in zip(polishes[1:], outputs, strict=True))
        # the failure moves no iterate
        n = min(res.iterations, plain.iterations)
        assert [r.F_y for r in res.trace[:n]] == [r.F_y for r in plain.trace[:n]]
        assert res.iterations >= plain.iterations


def diagonal_instance(k, rows, cols, vals, b, n=3):
    """An instance whose A_{k+1} holds vals at (rows, cols)."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    op = ConstraintOperator.from_entries(n, len(b), np.asarray(k),
                                         svec_position(n, rows, cols), vals)
    return SdpProblem(n=n, m=len(b), C=SymMatrix.from_dense(np.ones((n, n))),
                      op=op, b=np.asarray(b, dtype=float))


class TestDiagonalTargets:
    """The structure A_i = a_i e_j e_j' at distinct j covering the whole
    diagonal, with b_i / a_i > 0, detected once per solve."""

    def test_maxcut_and_its_sdpa_round_trip(self, tmp_path):
        problem, _ = c10_maxcut()
        path = str(tmp_path / "maxcut.dat-s")
        write_sdpa(problem, path)
        for p in (problem, load_sdpa(path)):
            idx, d, _, _ = solver.diagonal_targets(p)
            support = p.support
            assert np.array_equal(support.rows[idx], np.arange(p.n))
            assert np.array_equal(support.cols[idx], np.arange(p.n))
            assert np.all(d == 1.0)

    def test_scaled_entries_and_free_diagonal_positions(self):
        # constraints out of position order, a_i = 2, -1, 4 and b_i = 4, -3, 8
        problem = diagonal_instance([0, 1, 2], [2, 0, 1], [2, 0, 1],
                                    [2.0, -1.0, 4.0], [4.0, -3.0, 8.0])
        idx, d, _, _ = solver.diagonal_targets(problem)
        assert problem.support.rows[idx].tolist() == [2, 0, 1]
        assert d.tolist() == [2.0, 3.0, 2.0]
        # the same entries with X_11 free: the diagonal is not fixed
        problem = diagonal_instance([0, 1], [2, 0], [2, 0], [2.0, -1.0],
                                    [4.0, -3.0])
        assert solver.diagonal_targets(problem) is None

    @pytest.mark.parametrize("k,rows,cols,vals,b", [
        ([0, 0, 1, 2], [0, 1, 1, 2], [0, 1, 1, 2], [1.0] * 4, [1.0] * 3),
        ([0, 1, 2], [1, 1, 2], [0, 1, 2], [1.0] * 3, [1.0] * 3),
        ([0, 1, 2], [0, 0, 2], [0, 0, 2], [1.0] * 3, [1.0] * 3),
        ([0, 1, 2], [0, 1, 2], [0, 1, 2], [1.0] * 3, [1.0, 0.0, 1.0]),
        ([0, 1, 2], [0, 1, 2], [0, 1, 2], [1.0] * 3, [1.0, -1.0, 1.0]),
        # d is finite, but y_hat_0 = 1 / a_0 overflows
        ([0, 1, 2], [0, 1, 2], [0, 1, 2], [1e-310, 1.0, 1.0], [1e-310, 1.0, 1.0]),
    ], ids=["two-entries", "off-diagonal", "repeated-position", "b-zero",
            "b-negative", "subnormal-entry"])
    def test_rejected(self, k, rows, cols, vals, b):
        problem = diagonal_instance(k, rows, cols, vals, b)
        assert solver.diagonal_targets(problem) is None
        settings = solver.problem_settings(problem, SolverParams(rho=1.0))
        assert settings[3:] == (None, None)

    def test_planted_rejected(self, small_problem):
        assert solver.diagonal_targets(small_problem[0]) is None

    def test_partial_diagonal_takes_the_plain_path(self, monkeypatch):
        # Max-Cut with the constraints of the last five vertices dropped and
        # their rows of C made diagonally dominant, so the free block is
        # bounded: the model's X is read, and no center moves
        problem, params = c10_maxcut(n=30, prob=0.2, seed=3)
        n, m = problem.n, problem.n - 5
        c = problem.C.to_dense()
        for j in range(m, n):
            c[j, j] = np.abs(c[j]).sum() + 1.0
        diag = np.arange(m)
        op = ConstraintOperator.from_entries(n, m, diag, svec_position(n, diag, diag),
                                             np.ones(m))
        partial = SdpProblem(n=n, m=m, C=SymMatrix.from_dense(c), op=op, b=np.ones(m))
        assert solver.diagonal_targets(partial) is None
        params.rho = 2.0 * n + 1.0
        plain = solve(partial, params)
        assert plain.status == STATUS_CONVERGED
        without_diagonal_targets(monkeypatch)
        assert_same_run(solve(partial, params), plain)


class TestIdentityDual:
    """The last two entries of ``diagonal_targets``: y_hat = 1 / a with
    A'y_hat = I, and T = b'y_hat, tr X of every feasible X."""

    def test_maxcut_and_its_sdpa_round_trip(self, tmp_path):
        problem, _ = c10_maxcut()
        path = str(tmp_path / "maxcut.dat-s")
        write_sdpa(problem, path)
        for p in (problem, load_sdpa(path)):
            targets = solver.diagonal_targets(p)
            _, _, y_hat, trace = targets
            assert np.all(y_hat == 1.0) and trace == 100.0
            assert p.known_trace is None
            assert solver.problem_settings(p, SolverParams())[4] == 100.0

    def test_scaled_entries(self):
        problem = diagonal_instance([0, 1, 2], [2, 0, 1], [2, 0, 1],
                                    [2.0, -1.0, 4.0], [4.0, -3.0, 8.0])
        targets = solver.diagonal_targets(problem)
        _, _, y_hat, trace = targets
        assert y_hat.tolist() == [0.5, -1.0, 0.25] and trace == 7.0
        assert np.array_equal(smat(problem.op.avec @ y_hat).to_dense(), np.eye(3))
        assert solver.problem_settings(problem, SolverParams())[4] == 7.0

    def test_free_diagonal_positions(self):
        # X_11 is free, so tr X is not fixed
        problem = diagonal_instance([0, 1], [2, 0], [2, 0], [2.0, -1.0],
                                    [4.0, -3.0])
        assert solver.diagonal_targets(problem) is None
        settings = solver.problem_settings(problem, SolverParams(rho=1.0))
        assert settings[3:] == (None, None)

    def test_known_trace_comes_first(self, small_problem):
        # the instance's known trace wins over the T that A(X) = b fixes,
        # and a planted instance without one has no trace
        problem, _ = c10_maxcut()
        problem.known_trace = 150.0
        _, _, _, targets, trace = solver.problem_settings(problem, SolverParams())
        assert targets[3] == 100.0 and trace == 150.0
        planted, known = small_problem[0], small_problem[0].known_trace
        planted.known_trace = None
        try:
            settings = solver.problem_settings(planted, SolverParams(rho=1.0))
        finally:
            planted.known_trace = known
        assert settings[3:] == (None, None)

    def test_solve_finds_the_targets_once(self, monkeypatch):
        calls, real = [], solver.diagonal_targets

        def counted(problem):
            calls.append(problem)
            return real(problem)

        monkeypatch.setattr(solver, "diagonal_targets", counted)
        problem, params = c10_maxcut()
        params.maxiter = 2
        solve(problem, params)
        assert len(calls) == 1
