import itertools

import numpy as np
import pytest

from polybundle.qp import (
    SingularSubproblem,
    SubproblemData,
    kkt_residual,
    qp_tolerance,
    solve_subproblem,
)


def enumerate_qp(h, q, rho, feas_tol=1e-9):
    """Exhaustive working-set enumeration oracle for
    min 1/2 u'Hu + q'u over {u >= 0, 1'u <= rho}."""
    p = q.size
    best = (0.0, np.zeros(p))
    for zero_set in itertools.chain.from_iterable(
        itertools.combinations(range(p), k) for k in range(p + 1)
    ):
        free = np.ones(p, dtype=bool)
        free[list(zero_set)] = False
        nf = int(free.sum())
        for simplex in (False, True):
            u = np.zeros(p)
            if nf > 0:
                if simplex:
                    kkt = np.zeros((nf + 1, nf + 1))
                    kkt[:nf, :nf] = h[np.ix_(free, free)]
                    kkt[:nf, nf] = 1.0
                    kkt[nf, :nf] = 1.0
                    rhs = np.concatenate([-q[free], [rho]])
                    try:
                        sol = np.linalg.solve(kkt, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    u[free] = sol[:nf]
                else:
                    try:
                        u[free] = np.linalg.solve(h[np.ix_(free, free)],
                                                  -q[free])
                    except np.linalg.LinAlgError:
                        continue
            elif simplex:
                continue
            if u.min() < -feas_tol or u.sum() > rho + feas_tol:
                continue
            obj = 0.5 * u @ (h @ u) + q @ u
            if obj < best[0] - 0.0:
                best = (obj, u)
    return best


def random_subproblem(rng, m=5, cols=4, xi=1e-8):
    b_mat = rng.standard_normal((m, cols))
    a = rng.standard_normal(cols)
    y = rng.standard_normal(m)
    b = rng.standard_normal(m)
    t = rng.uniform(0.05, 2.0)
    rho = rng.uniform(0.5, 10.0)
    return SubproblemData(B=b_mat, a=a, y=y, b=b, t=t, xi=xi, rho=rho)


class TestHandExample:
    # t=1, y=(0.1, 1), b=(0.1, 0.1), B=[[0,1],[1,1]], a=0 gives
    # q = -(1.1, 1.3) and B'B = [[1,1],[1,2]]
    def make(self, xi):
        return SubproblemData(
            B=np.array([[0.0, 1.0], [1.0, 1.0]]),
            a=np.zeros(2),
            y=np.array([0.1, 1.0]),
            b=np.array([0.1, 0.1]),
            t=1.0, xi=xi, rho=10.0,
        )

    def test_linear_term(self):
        d = self.make(0.0)
        assert np.allclose(d.linear(), [-1.1, -1.3], atol=1e-15)

    def test_unregularized_solution(self):
        sol = solve_subproblem(self.make(0.0))
        assert np.allclose(sol.u, [0.9, 0.2], atol=1e-12)
        assert sol.kkt_residual <= qp_tolerance(self.make(0.0))

    def test_regularized_solution(self):
        # (B'B + 0.1 I) u = (1.1, 1.3) solves to (1.01, 0.33)/1.31
        sol = solve_subproblem(self.make(0.1))
        assert np.allclose(sol.u, [1.01 / 1.31, 0.33 / 1.31], atol=1e-12)

    def test_candidate_point(self):
        d = self.make(0.0)
        sol = solve_subproblem(d)
        assert np.allclose(sol.z, d.y + d.t * (d.b - d.B @ sol.u), atol=0)


class TestAgainstEnumeration:
    def test_small_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = random_subproblem(rng, m=rng.integers(2, 6),
                                  cols=rng.integers(1, 6))
            sol = solve_subproblem(d)
            want_obj, _ = enumerate_qp(d.hessian(), d.linear(), d.rho)
            denom = 1.0 + abs(want_obj)
            assert sol.objective <= want_obj + 1e-9 * denom
            assert abs(sol.objective - want_obj) <= 1e-9 * denom
            assert sol.kkt_residual <= qp_tolerance(d)

    def test_simplex_binding(self):
        # strongly negative q drives the mass to the simplex boundary
        d = SubproblemData(
            B=np.eye(3), a=np.full(3, -50.0), y=np.zeros(3),
            b=np.zeros(3), t=1.0, xi=1e-8, rho=2.0,
        )
        sol = solve_subproblem(d)
        assert sol.u.sum() == pytest.approx(2.0, abs=1e-10)
        assert sol.simplex_active
        assert sol.kkt_residual <= qp_tolerance(d)

    def test_zero_is_optimal_for_positive_q(self):
        d = SubproblemData(
            B=np.eye(2), a=np.full(2, 10.0), y=np.zeros(2),
            b=np.zeros(2), t=1.0, xi=1e-8, rho=1.0,
        )
        sol = solve_subproblem(d)
        assert np.allclose(sol.u, 0.0)


class TestWarmStart:
    def test_same_solution_from_warm_start(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_subproblem(rng)
            cold = solve_subproblem(d)
            mask = np.zeros(d.a.size, dtype=bool)
            mask[cold.active_set] = True
            warm = solve_subproblem(d, warm_start=mask)
            assert np.allclose(warm.u, cold.u, atol=1e-10)


class TestValidationAndFailure:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            SubproblemData(B=np.eye(2), a=np.zeros(2), y=np.zeros(2),
                           b=np.zeros(2), t=0.0)
        with pytest.raises(ValueError):
            SubproblemData(B=np.eye(2), a=np.zeros(2), y=np.zeros(2),
                           b=np.zeros(2), t=1.0, xi=-1e-8)
        with pytest.raises(ValueError):
            SubproblemData(B=np.eye(2), a=np.zeros(2), y=np.zeros(2),
                           b=np.zeros(2), t=1.0, rho=0.0)

    def test_singular_without_regularization(self):
        # B = 0 makes the quadratic term zero; with xi = 0 the working-set
        # system is singular as soon as a coordinate is released
        d = SubproblemData(
            B=np.zeros((2, 2)), a=np.array([-1.0, -1.0]), y=np.zeros(2),
            b=np.zeros(2), t=1.0, xi=0.0, rho=5.0,
        )
        with pytest.raises(SingularSubproblem):
            solve_subproblem(d)

    def test_regularization_rescues_singular(self):
        d = SubproblemData(
            B=np.zeros((2, 2)), a=np.array([-1.0, -1.0]), y=np.zeros(2),
            b=np.zeros(2), t=1.0, xi=1e-8, rho=5.0,
        )
        sol = solve_subproblem(d)
        # linear objective over the simplex: all mass on the boundary
        assert sol.u.sum() == pytest.approx(5.0, abs=1e-9)


class TestKktResidual:
    def test_nonoptimal_point_flagged(self):
        rng = np.random.default_rng(2)
        d = random_subproblem(rng)
        sol = solve_subproblem(d)
        off = sol.u + 0.05
        assert kkt_residual(d, off) > 100 * qp_tolerance(d)

    def test_infeasible_point_flagged(self):
        rng = np.random.default_rng(3)
        d = random_subproblem(rng)
        bad = np.full(d.a.size, -1.0)
        assert kkt_residual(d, bad) >= 1.0
