import numpy as np
import pytest
import scipy.sparse as sp

from polybundle import qp, solver
from polybundle.linalg import (
    DENSE_EIG_CUTOFF,
    EigenConvergenceError,
    apply_A,
    smat,
    svec,
)
from polybundle.problems import GraphInstance, build_maxcut_sdp, generate_random_sdp
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
    recover_primal,
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
    ])
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverParams(**{field: value}).validate()

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
        assert isinstance(s, np.ndarray) and s.flags.c_contiguous
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
        accept, t, nc = descent_decision(10.0, 9.9, 9.0, 0.1, 0)
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
    def test_zero_residuals_converge(self):
        b = np.array([1.0, 2.0])
        u = np.array([1.0])
        a = np.array([3.0])
        b_mat = np.array([[1.0], [2.0]])
        y = np.array([1.0, 1.0])
        d1, d4, d5, d6, done = termination_check(
            b, u, a, b_mat, y, 0.0, -3.0, -3.0, 1e-4
        )
        assert done
        assert d1 == pytest.approx(0.0)
        assert d4 == 0.0 and d5 == 0.0 and d6 == 0.0

    def test_dual_infeasibility_blocks(self):
        b = np.zeros(1)
        d1, d4, _, _, done = termination_check(
            b, np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
            -0.5, 0.0, 0.0, 1e-4
        )
        assert d4 == 0.5 and not done

    def test_relative_scaling(self):
        b = np.array([100.0])
        b_mat = np.array([[99.0]])
        d1, _, _, _, _ = termination_check(
            b, np.ones(1), np.zeros(1), b_mat, np.zeros(1), 0.0, 0.0, 0.0,
            1e-4
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
        # call 1 is the eigensolve at y = 0; call j + 1 is that of iteration j
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
        # the center is the one the failed iteration started from: 0, or
        # where an undisturbed run stopped after the completed iterations
        want_y = np.zeros(problem.m) if k <= 2 else done.y
        assert np.array_equal(res.y, want_y)
        assert [r.F_y for r in res.trace] == [r.F_y for r in done.trace[:k - 2]]
        assert np.isnan(res.objective_primal)
        assert res.X is None

    def test_non_finite_slack_ends_run_as_eigen_failure(self):
        problem, _ = generate_random_sdp(20, 20, 2, 0.1, 1.0, 3)
        problem.cvec[0] = np.nan
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


class TestRecoverPrimal:
    def test_zero_weights_give_zero(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=50,
                                          materialize_w=True))
        from polybundle.bundle import BundleState
        n, m = problem.n, problem.m
        p = np.eye(n)[:, :2]
        state = BundleState.fresh(p, np.zeros(2), np.zeros((m, 2)),
                                  materialize_w=True)
        x = recover_primal(state, np.zeros(3))
        assert np.all(x.to_dense() == 0.0)

    def test_single_column(self):
        from polybundle.bundle import BundleState
        n = 4
        p = np.zeros((n, 1))
        p[1, 0] = 1.0
        state = BundleState.fresh(p, np.zeros(1), np.zeros((2, 1)),
                                  materialize_w=True)
        x = recover_primal(state, np.array([0.0, 0.7]))
        want = 0.7 * np.outer(p[:, 0], p[:, 0])
        assert np.allclose(x.to_dense(), want, atol=1e-15)

    def test_requires_materialized_w(self):
        from polybundle.bundle import BundleState
        state = BundleState.fresh(np.ones((2, 1)) / np.sqrt(2), np.zeros(1),
                                  np.zeros((2, 1)), materialize_w=False)
        with pytest.raises(ValueError, match="materialize"):
            recover_primal(state, np.zeros(2))

    def test_converged_primal_matches_delta1(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=300,
                                          materialize_w=True))
        assert res.status == STATUS_CONVERGED
        assert res.X is not None
        resid = apply_A(problem.op, res.X) - problem.b
        d1 = np.linalg.norm(resid) / (1 + np.linalg.norm(problem.b))
        assert d1 <= 1e-4
        evals = np.linalg.eigvalsh(res.X.to_dense())
        assert evals.min() >= -1e-9

    @pytest.mark.parametrize("instance", [
        lambda: (generate_random_sdp(30, 30, 3, 0.1, 1.0, 0)[0], SolverParams()),
        # rank prediction restarts the bundle at rank 5 after 15 iterations
        lambda: (generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)[0],
                 SolverParams(prior_rank=10)),
    ], ids=["planted", "rank-restart"])
    def test_materialized_aggregate_changes_no_iterate(self, instance):
        problem, params = instance()
        implicit = solve(problem, params)
        params.materialize_w = True
        materialized = solve(problem, params)
        assert implicit.status == STATUS_CONVERGED
        assert implicit.X is None and materialized.X is not None
        assert_same_run(materialized, implicit)

    @pytest.mark.parametrize("maxiter", [14, 15, 16])
    def test_primal_after_rank_restart_matches_objective(self, maxiter):
        # at maxiter=15 the rank prediction restarts the bundle in the last
        # iteration; X must still come from the bundle u was solved on
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        res = solve(problem, SolverParams(prior_rank=10,
                                          materialize_w=True, maxiter=maxiter))
        assert res.X is not None
        cx = float(problem.cvec @ svec(res.X).values)
        obj = res.objective_primal
        assert abs(cx - obj) <= 1e-10 * (1 + abs(obj))


def c10_maxcut(n=100, prob=0.06, seed=1):
    """The c10 Max-Cut smoke instance and its settings; the rank is the
    solver's default."""
    rng = np.random.default_rng(seed)
    edges = [(i + 1, j + 1, 1.0) for i in range(n) for j in range(i + 1, n)
             if rng.random() < prob]
    problem = build_maxcut_sdp(GraphInstance(n, edges), sense="maximize")
    return problem, SolverParams(eps=1e-3, maxiter=500, t0=1e-2, l_max="sq")


def assert_same_run(a, b):
    """Status, every trace field but the clock, y and u, bit for bit."""
    assert a.status == b.status
    fields = [f for f in vars(a.trace[0]) if f != "elapsed_secs"]
    for ra, rb in zip(a.trace, b.trace, strict=True):
        assert [repr(getattr(ra, f)) for f in fields] == \
            [repr(getattr(rb, f)) for f in fields]
    assert a.y.tobytes() == b.y.tobytes()
    assert a.u.tobytes() == b.u.tobytes()


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
        # the start saves working-set solves: 157 against 701 on the
        # generated instance and 800 against 2,448 on the Max-Cut one
        assert warm_steps < 0.55 * steps[0]

    def test_start_is_priced(self, monkeypatch):
        # a coordinate at 0 starts bound only where the gradient keeps it
        # there, so a new column whose cut the candidate violates starts free
        problem, params = c10_maxcut()
        calls, real = [], qp.solve_subproblem

        def recorded(data, warm_start=None):
            calls.append((data, warm_start))
            return real(data, warm_start)

        monkeypatch.setattr(qp, "solve_subproblem", recorded)
        assert solve(problem, params).status == STATUS_CONVERGED
        assert calls[0][1] is None
        for data, start in calls[1:]:
            g = data.h @ start.u + data.q
            assert np.array_equal(start.bound_active,
                                  (start.u == 0.0) & (g >= 0.0))


class TestTrajectories:
    """Pinned runs of the whole loop: status, iterations, steps and F_y."""

    @staticmethod
    def steps(res):
        return "".join(rec.step_type[0] for rec in res.trace)

    def test_default_params(self):
        problem, _ = generate_random_sdp(50, 50, 3, 0.1, 1.0, 3)
        res = solve(problem, SolverParams())
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 45
        assert self.steps(res) == \
            "ddddddnddddddddndndnnddndndnnndndnndndnndndnd"
        assert res.trace[-1].F_y == pytest.approx(11.153339589292603, rel=1e-9)
        # the bundle cap of "half" at r = 3 holds on every iteration and binds
        assert max(rec.l for rec in res.trace) == 9

    def test_rank_prediction(self):
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        res = solve(problem, SolverParams(prior_rank=10,
                                          maxiter=500))
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 38
        assert res.rank_used == 5
        assert self.steps(res).count("d") == 31
        assert res.trace[-1].F_y == pytest.approx(14.056958630315805, rel=1e-9)

    def test_maxcut(self):
        problem, params = c10_maxcut()
        res = solve(problem, params)
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 86
        assert self.steps(res).count("d") == 44
        assert res.trace[-1].F_y == pytest.approx(250.55393432425674, rel=1e-9)
        # the default rank min(n, ceil(sqrt(2m))) is 15 here, m = n = 100;
        # passing it changes no bit of the run
        assert res.rank_used == 15
        params.rank = 15
        assert_same_run(solve(problem, params), res)
