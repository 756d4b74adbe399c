import numpy as np
import pytest

from polybundle.linalg import apply_A, svec
from polybundle.problems import generate_random_sdp
from polybundle.solver import (
    STATUS_CONVERGED,
    STATUS_ITER_LIMIT,
    STATUS_SUBPROBLEM_FAILURE,
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

    def test_beta_ordering_enforced(self):
        with pytest.raises(ValueError):
            SolverParams(beta1=0.7, beta2=0.65).validate()
        with pytest.raises(ValueError):
            SolverParams(beta3=0.06, beta1=0.05).validate()

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            SolverParams(t_min=0.5, t_max=0.1).validate()
        with pytest.raises(ValueError):
            SolverParams(t0=10.0, t_max=1.0).validate()

    def test_prior_rank_required_for_prediction(self):
        with pytest.raises(ValueError):
            SolverParams(predict_rank=True).validate()

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


class TestDescentDecision:
    params = SolverParams()

    def test_accept_on_good_decrease(self):
        accept, t, nc = descent_decision(10.0, 9.0, 9.0, 0.1, 0, self.params)
        assert accept and nc == 0
        # full decrease doubles the step
        assert t == pytest.approx(0.2)

    def test_accept_without_doubling(self):
        # true decrease 0.1 of predicted 1.0: above beta1, below beta2
        accept, t, nc = descent_decision(10.0, 9.9, 9.0, 0.1, 0, self.params)
        assert accept
        assert t == pytest.approx(0.1)

    def test_step_capped_at_tmax(self):
        accept, t, _ = descent_decision(10.0, 9.0, 9.0, 0.8, 0, self.params)
        assert accept
        assert t == pytest.approx(1.0)

    def test_null_step_counts(self):
        accept, t, nc = descent_decision(10.0, 10.0, 9.0, 0.1, 0, self.params)
        assert not accept and nc == 1 and t == pytest.approx(0.1)

    def test_halving_after_nullmax_bad_steps(self):
        accept, t, nc = descent_decision(10.0, 10.0, 9.0, 0.1, 4, self.params)
        assert not accept
        assert nc == 0
        assert t == pytest.approx(0.05)

    def test_halving_floored_at_tmin(self):
        p = SolverParams(t0=1e-3)
        _, t, _ = descent_decision(10.0, 10.0, 9.0, 1e-3, 4, p)
        assert t == pytest.approx(p.t_min)


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
        state = RankPrediction(prior_rank=6, predcountmax=10)
        p = np.column_stack([np.eye(8)[:, :3] * 5.0, np.eye(8)[:, 3:5] * 0.1])
        eigs = np.array([0.0, 0.0, 0.0, 4.0, 4.1, 4.2, 4.3])
        finalize, r = rank_predict_step(p, eigs, state)
        assert r == 3
        assert not finalize

    def test_finalizes_after_stable_streak(self):
        state = RankPrediction(prior_rank=6, predcountmax=3)
        p = np.diag([3.0, 3.0, 1e-3, 1e-3, 1e-3, 1e-3])
        eigs = np.array([0.0, 0.0, 5.0, 5.5, 6.0, 6.5, 7.0])
        # first call seeds r_prev; finalize once the count exceeds the cap
        results = []
        while True:
            results.append(rank_predict_step(p, eigs, state))
            if results[-1][0]:
                break
        assert all(r == 2 for _, r in results)
        assert [f for f, _ in results] == [False] * 4 + [True]
        assert not state.active

    def test_count_resets_on_change(self):
        state = RankPrediction(prior_rank=4, predcountmax=10)
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
            assert rec.delta_pred >= -1e-12

    def test_warm_start_at_planted_dual(self, small_problem):
        problem, planted = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=100),
                    y0=planted.y_star)
        assert res.status == STATUS_CONVERGED
        assert res.iterations <= 5

    def test_iteration_limit_status(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-14, maxiter=3))
        assert res.status == STATUS_ITER_LIMIT
        assert res.iterations == 3

    def test_subproblem_failure_with_zero_xi(self):
        problem, _ = generate_random_sdp(3, 3, 2, 0.5, 1.0, 0)
        res = solve(problem, SolverParams(xi=0.0, eps=1e-4, maxiter=500))
        assert res.status == STATUS_SUBPROBLEM_FAILURE

    def test_rho_required_without_known_trace(self, small_problem):
        problem, _ = small_problem
        trace = problem.known_trace
        problem.known_trace = None
        try:
            with pytest.raises(ValueError, match="rho"):
                solve(problem, SolverParams())
        finally:
            problem.known_trace = trace

    def test_rank_required(self, small_problem):
        problem, _ = small_problem
        rank = problem.known_rank
        problem.known_rank = None
        try:
            with pytest.raises(ValueError, match="rank"):
                solve(problem, SolverParams())
        finally:
            problem.known_rank = rank

    def test_bad_y0_rejected(self, small_problem):
        problem, _ = small_problem
        with pytest.raises(ValueError, match="y0"):
            solve(problem, SolverParams(), y0=np.zeros(5))
        for bad in (np.nan, np.inf, -np.inf):
            y0 = np.zeros(problem.m)
            y0[3] = bad
            with pytest.raises(ValueError, match="y0"):
                solve(problem, SolverParams(), y0=y0)


class TestRecoverPrimal:
    def test_zero_weights_give_zero(self, small_problem):
        problem, _ = small_problem
        res = solve(problem, SolverParams(eps=1e-4, maxiter=50,
                                          materialize_w=True))
        from polybundle.bundle import BundleState
        n, m = problem.n, problem.m
        p = np.eye(n)[:, :2]
        state = BundleState(P=p, a_hat=np.zeros(2), B_hat=np.zeros((m, 2)),
                            a_bar=0.0, B_bar=np.zeros(m), W=np.zeros((n, n)))
        x = recover_primal(state, np.zeros(3))
        assert np.all(x.to_dense() == 0.0)

    def test_single_column(self):
        from polybundle.bundle import BundleState
        n = 4
        p = np.zeros((n, 1))
        p[1, 0] = 1.0
        state = BundleState(P=p, a_hat=np.zeros(1), B_hat=np.zeros((2, 1)),
                            a_bar=0.0, B_bar=np.zeros(2), W=np.zeros((n, n)))
        x = recover_primal(state, np.array([0.0, 0.7]))
        want = 0.7 * np.outer(p[:, 0], p[:, 0])
        assert np.allclose(x.to_dense(), want, atol=1e-15)

    def test_requires_materialized_w(self):
        from polybundle.bundle import BundleState
        state = BundleState(P=np.ones((2, 1)) / np.sqrt(2),
                            a_hat=np.zeros(1), B_hat=np.zeros((2, 1)),
                            a_bar=0.0, B_bar=np.zeros(2), W=None)
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

    @pytest.mark.parametrize("maxiter", [14, 15, 16])
    def test_primal_after_rank_restart_matches_objective(self, maxiter):
        # at maxiter=15 the rank prediction restarts the bundle in the last
        # iteration; X must still come from the bundle u was solved on
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        res = solve(problem, SolverParams(predict_rank=True, prior_rank=10,
                                          materialize_w=True, maxiter=maxiter))
        assert res.X is not None
        cx = float(problem.cvec @ svec(res.X).values)
        obj = res.objective_primal
        assert abs(cx - obj) <= 1e-10 * (1 + abs(obj))


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

    def test_rank_prediction(self):
        problem, _ = generate_random_sdp(100, 100, 5, 1e-2, 1.0, 0)
        res = solve(problem, SolverParams(predict_rank=True, prior_rank=10,
                                          maxiter=500))
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 38
        assert res.rank_used == 5
        assert self.steps(res).count("d") == 31
        assert res.trace[-1].F_y == pytest.approx(14.056958954948422, rel=1e-9)

    def test_subproblem_failure(self):
        problem, _ = generate_random_sdp(3, 3, 2, 0.5, 1.0, 0)
        res = solve(problem, SolverParams(xi=0.0))
        assert res.status == STATUS_SUBPROBLEM_FAILURE
        assert res.iterations == 3
        assert np.isnan(res.objective_primal)
