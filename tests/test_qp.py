import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qp_reference
from polybundle import qp
from polybundle.problems import generate_random_sdp
from polybundle.qp import (
    NonConvergence,
    QpSolution,
    QpStart,
    SubproblemData,
    kkt_residual,
    solve_subproblem,
)
from polybundle.solver import STATUS_SUBPROBLEM_FAILURE, SolverParams, solve


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
        assert np.allclose(d.q, [-1.1, -1.3], atol=1e-15)

    def test_unregularized_solution(self):
        sol = solve_subproblem(self.make(0.0))
        assert np.allclose(sol.u, [0.9, 0.2], atol=1e-12)
        assert sol.kkt_residual <= self.make(0.0).tol

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
            want_obj, _ = enumerate_qp(d.h, d.q, d.rho)
            denom = 1.0 + abs(want_obj)
            assert sol.objective <= want_obj + 1e-9 * denom
            assert abs(sol.objective - want_obj) <= 1e-9 * denom
            assert sol.kkt_residual <= d.tol

    def test_simplex_binding(self):
        # strongly negative q drives the mass to the simplex boundary
        d = SubproblemData(
            B=np.eye(3), a=np.full(3, -50.0), y=np.zeros(3),
            b=np.zeros(3), t=1.0, xi=1e-8, rho=2.0,
        )
        sol = solve_subproblem(d)
        assert sol.u.sum() == pytest.approx(2.0, abs=1e-10)
        assert sol.simplex_active
        assert sol.kkt_residual <= d.tol

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
            warm = solve_subproblem(d, warm_start=QpStart(
                cold.u, cold.bound_active, cold.simplex_active))
            assert np.array_equal(warm.u, cold.u)
            assert np.array_equal(warm.bound_active, cold.bound_active)
            assert warm.simplex_active == cold.simplex_active

    def test_free_coordinate_at_zero_is_bound(self):
        # an empty aggregate (a = 0, B[:, 0] = 0) started free sits at
        # exactly 0 in every working-set solve; the result is the minimizer
        # of the working set without it, as from the cold start
        b_mat = np.array([[0.0, 1.0, 0.5], [0.0, -0.5, 1.0]])
        d = SubproblemData(B=b_mat, a=np.array([0.0, -1.0, -1.0]),
                           y=np.zeros(2), b=np.zeros(2), t=1.0, xi=1e-8,
                           rho=10.0)
        cold = solve_subproblem(d)
        warm = solve_subproblem(d, warm_start=QpStart(
            np.array([0.0, 0.5, 0.5]), np.zeros(3, dtype=bool), False))
        for sol in (cold, warm):
            assert sol.bound_active.tolist() == [True, False, False]
            assert not sol.simplex_active
        assert np.array_equal(warm.u, cold.u)


class TestWarmStartMask:
    def test_wrong_length_rejected(self):
        d = random_subproblem(np.random.default_rng(5), cols=4)
        for u_size, mask_size in ((3, 3), (5, 5), (4, 3), (3, 4)):
            start = QpStart(np.zeros(u_size), np.ones(mask_size, dtype=bool),
                            False)
            with pytest.raises(ValueError, match="expected 4"):
                solve_subproblem(d, warm_start=start)

    @pytest.mark.parametrize("value", [-1e-300, -1.0, np.nan, np.inf])
    def test_negative_or_non_finite_point_rejected(self, value):
        d = random_subproblem(np.random.default_rng(5), cols=4)
        u = np.array([0.1, value, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            solve_subproblem(d, warm_start=QpStart(
                u, np.zeros(4, dtype=bool), False))

    def test_nonzero_bound_coordinate_rejected(self):
        d = random_subproblem(np.random.default_rng(5), cols=4)
        start = QpStart(np.array([0.1, 0.0, 0.0, 0.0]),
                        np.ones(4, dtype=bool), False)
        with pytest.raises(ValueError, match="bound coordinate"):
            solve_subproblem(d, warm_start=start)

    @staticmethod
    def unit_simplex_qp():
        return SubproblemData(B=np.eye(3), a=np.array([-1.0, -2.0, -3.0]),
                              y=np.zeros(3), b=np.zeros(3), t=1.0, xi=1e-8,
                              rho=1.0)

    @pytest.mark.parametrize("u,simplex_active", [
        ([2.0, 2.0, 2.0], False), ([2.0, 2.0, 2.0], True),
        ([0.5, 0.6, 0.0], False), ([0.1, 0.1, 0.1], True),
    ], ids=["above-free", "above-active", "just-above", "below-active"])
    def test_point_off_the_simplex_rejected(self, u, simplex_active):
        # 1'u <= rho, with equality when the simplex starts active
        start = QpStart(np.array(u), np.zeros(3, dtype=bool), simplex_active)
        with pytest.raises(ValueError, match="off the simplex"):
            solve_subproblem(self.unit_simplex_qp(), warm_start=start)

    @pytest.mark.parametrize("simplex_active", [False, True])
    def test_point_on_the_simplex_within_tol_accepted(self, simplex_active):
        d = self.unit_simplex_qp()
        u = np.array([0.2, 0.3, 0.5 + 0.5 * d.tol])
        cold = solve_subproblem(d)
        warm = solve_subproblem(d, warm_start=QpStart(
            u, np.zeros(3, dtype=bool), simplex_active))
        assert np.array_equal(warm.u, cold.u)

    def test_mask_not_modified(self):
        d = random_subproblem(np.random.default_rng(6), cols=4)
        u, mask = np.array([0.1, 0.0, 0.2, 0.0]), np.array([False, True] * 2)
        solve_subproblem(d, warm_start=QpStart(u, mask, False))
        assert u.tolist() == [0.1, 0.0, 0.2, 0.0]
        assert mask.tolist() == [False, True] * 2


class TestValidationAndFailure:
    def test_rejects_bad_scalars(self):
        # a NaN passes t <= 0, xi < 0 and rho <= 0; each must be finite
        for name, bad in [("t", 0.0), ("xi", -1e-8), ("rho", 0.0)]:
            for value in (bad, np.nan, np.inf):
                scalars = {"t": 1.0, "xi": 1e-8, "rho": 1.0, name: value}
                with pytest.raises(ValueError):
                    SubproblemData(B=np.eye(2), a=np.array([-1.0, -2.0]),
                                   y=np.zeros(2), b=np.zeros(2), **scalars)

    def test_singular_without_regularization(self):
        # B = 0 makes the quadratic term zero; with xi = 0 the working-set
        # system is singular as soon as a coordinate is released
        d = SubproblemData(
            B=np.zeros((2, 2)), a=np.array([-1.0, -1.0]), y=np.zeros(2),
            b=np.zeros(2), t=1.0, xi=0.0, rho=5.0,
        )
        with pytest.raises(np.linalg.LinAlgError):
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
        assert kkt_residual(d, off) > 100 * d.tol

    def test_infeasible_point_flagged(self):
        rng = np.random.default_rng(3)
        d = random_subproblem(rng)
        bad = np.full(d.a.size, -1.0)
        assert kkt_residual(d, bad) >= 1.0


class TestCertificate:
    def test_residual_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(qp, "kkt_residual", lambda d, u: 1.0)
        rng = np.random.default_rng(4)
        d = random_subproblem(rng)
        with pytest.raises(NonConvergence, match="KKT residual 1 not within"):
            solve_subproblem(d)
        problem, _ = generate_random_sdp(10, 10, 2, 0.5, 1.0, 0)
        res = solve(problem, SolverParams())
        assert res.status == STATUS_SUBPROBLEM_FAILURE

    @pytest.mark.parametrize("name", ["B", "a", "y"])
    def test_nan_residual_raises(self, name):
        # a NaN input makes the residual NaN, which no certificate passes
        inputs = {"B": np.eye(2), "a": np.array([-1.0, -2.0]), "y": np.zeros(2)}
        inputs[name] = inputs[name].copy()
        inputs[name].flat[0] = np.nan
        d = SubproblemData(**inputs, b=np.zeros(2), t=1.0, xi=1e-8, rho=1.0)
        with pytest.raises(NonConvergence, match="KKT residual nan not within"):
            solve_subproblem(d)


class TestFactor:
    INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])

    def test_indefinite_is_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            qp._factor(self.INDEFINITE.copy())

    def test_lower_factor(self):
        h = np.array([[4.0, 2.0], [2.0, 3.0]])
        low = np.tril(qp._factor(h))
        assert np.allclose(low @ low.T, h, atol=1e-15)


def test_lapack_reached_only_through_dpotrf_and_dpotrs():
    """The working-set solves call LAPACK directly: no scipy.linalg
    wrappers, no np.ix_ gather, no other LAPACK route."""
    tree = ast.parse(Path(qp.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert not {"cho_factor", "cho_solve", "ix_", "scipy"} & (names | attrs)
    imports = [(n.module, sorted(a.name for a in n.names)) for n in nodes
               if isinstance(n, ast.ImportFrom) and n.module != "__future__"]
    imports += [(a.name, None) for n in nodes if isinstance(n, ast.Import)
                for a in n.names]
    assert sorted(imports, key=str) == [
        ("dataclasses", ["dataclass", "field"]), ("numpy", None),
        ("scipy.linalg.lapack", ["dpotrf", "dpotrs"])]
    linalg_uses = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Attribute)
                   and n.value.attr == "linalg"}
    assert linalg_uses == {"LinAlgError"}


# -- starts and the reference oracle --------------------------------------

QP_FAILURES = (NonConvergence, np.linalg.LinAlgError)


def run(solve, d, start):
    """``solve(d, warm_start=start)``: the solution, or the QP failure."""
    try:
        return solve(d, warm_start=start)
    except QP_FAILURES as exc:
        return exc


def certified(sol, d) -> bool:
    return isinstance(sol, QpSolution) and sol.kkt_residual <= d.tol


@st.composite
def oracle_instances(draw):
    """Small QPs with tied columns, binding simplex and warm-start masks."""
    p = draw(st.integers(1, 7))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_mat = rng.standard_normal((m, p))
    a = rng.standard_normal(p)
    # a duplicated column with the same a_i ties the ratio test and the
    # multiplier scan between the two indices
    for i, j in draw(st.lists(st.tuples(st.integers(0, p - 1),
                                        st.integers(0, p - 1)), max_size=3)):
        b_mat[:, j], a[j] = b_mat[:, i], a[i]
    rho = draw(st.sampled_from([1e-3, 0.05, 0.5, 5.0]))
    xi = draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-4, 0.1]))
    d = SubproblemData(B=b_mat, a=a, y=rng.standard_normal(m),
                       b=rng.standard_normal(m), t=float(rng.uniform(0.05, 2.0)),
                       xi=xi, rho=rho)
    mask = draw(st.none() | st.lists(st.booleans(), min_size=p, max_size=p)
                .map(lambda bits: np.array(bits, dtype=bool)))
    return d, mask


def feasible_starts(p, rho):
    """Strategy for feasible starts of a p-column QP: a nonnegative point
    with 1'u <= rho (on the simplex when it starts active), whose bound
    set is any subset of its zeros."""
    def build(draw_args):
        values, zeros, bound_bits, on_simplex, fill = draw_args
        u = np.where(zeros, 0.0, values)
        total = u.sum()
        if total > 0.0:
            u = u * ((rho if on_simplex else fill * rho) / total)
        simplex = bool(on_simplex and total > 0.0)
        bound = np.array(bound_bits) & (u == 0.0)
        return QpStart(u, bound, simplex)

    return st.tuples(
        st.lists(st.floats(1e-3, 1.0), min_size=p, max_size=p)
        .map(np.array),
        st.lists(st.booleans(), min_size=p, max_size=p).map(np.array),
        st.lists(st.booleans(), min_size=p, max_size=p),
        st.booleans(), st.floats(0.0, 1.0)).map(build)


class TestStartIndependence:
    """The result is the minimizer of the final working set, so a start
    can change the path but not the answer."""

    @settings(max_examples=400, deadline=None)
    @given(oracle_instances().filter(lambda inst: inst[0].xi > 0.0), st.data())
    def test_warm_matches_cold(self, instance, data):
        # with xi = 0 a start that frees dependent columns meets a singular
        # working set the cold path never visits
        d, _ = instance
        start = data.draw(feasible_starts(d.a.size, d.rho))
        cold = run(solve_subproblem, d, None)
        warm = run(solve_subproblem, d, start)
        if isinstance(warm, Exception):
            assert type(warm) is type(cold)
            return
        assert certified(warm, d)
        if (isinstance(cold, QpSolution)
                and np.array_equal(warm.bound_active, cold.bound_active)
                and warm.simplex_active == cold.simplex_active):
            for name in ("u", "z"):
                assert np.array_equal(getattr(warm, name), getattr(cold, name))
            assert warm.objective == cold.objective
            assert warm.kkt_residual == cold.kkt_residual


class TestNoRepeatedSolve:
    """A full step leaves the working set as it was, so its minimizer is
    kept, not solved for again."""

    @staticmethod
    def working_sets(d, start):
        """The working set of each ``_eqp_solve`` call of one QP."""
        sets, inner = [], qp._eqp_solve

        def recorded(h, q, free, simplex_active, rho):
            sets.append((free.tolist(), simplex_active))
            return inner(h, q, free, simplex_active, rho)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qp, "_eqp_solve", recorded)
            sol = run(solve_subproblem, d, start)
        return sets, sol

    def test_full_steps(self):
        # h = I and q = (-1, -2): index 1 is released, then index 0, and
        # each time the full step reaches the new set's minimizer
        d = SubproblemData(B=np.eye(2), a=np.array([-1.0, -2.0]),
                           y=np.zeros(2), b=np.zeros(2), t=1.0, xi=0.0,
                           rho=10.0)
        sets, sol = self.working_sets(d, None)
        assert sol.u.tolist() == [1.0, 2.0]
        assert sets == [([False, False], False), ([False, True], False),
                        ([True, True], False)]

    @settings(max_examples=400, deadline=None)
    @given(oracle_instances())
    def test_no_working_set_solved_twice_in_a_row(self, instance):
        d, mask = instance
        sets, _ = self.working_sets(d, None if mask is None else
                                    QpStart(np.zeros(mask.size), mask, False))
        assert sets
        assert all(a != b for a, b in zip(sets, sets[1:]))


class TestReferenceOracle:
    """The package solves the QPs of the cho_factor/np.ix_/loop version it
    replaced: from the same start it fails where the reference fails, and
    otherwise ends at the reference's final working set with a solution
    equal within the certificate.  Only the result is compared, since the
    package binds every free coordinate at exactly 0 before it returns."""

    @settings(max_examples=400, deadline=None)
    @given(oracle_instances())
    def test_matches_reference(self, instance):
        d, mask = instance
        want = run(qp_reference.solve_subproblem, d,
                   None if mask is None else mask.copy())
        got = run(solve_subproblem, d, None if mask is None else
                  QpStart(np.zeros(mask.size), mask, False))
        if isinstance(want, Exception):
            assert type(got) is type(want)
            return
        if not certified(want, d):
            # the reference returned an uncertified point; the package
            # refuses it
            assert isinstance(got, NonConvergence)
            return
        assert not isinstance(got, NonConvergence)
        assert certified(got, d)
        # the reference's final working set, with the free coordinates it
        # left at exactly 0 bound, as the package binds them
        assert np.array_equal(got.bound_active,
                              want.bound_active | (want.u == 0.0))
        assert got.simplex_active == want.simplex_active
        # both are that working set's minimizer, to within the 1e-14 step
        # test of the reference's summed steps: far inside the certificate
        du = float(np.abs(got.u - want.u).max())
        assert du <= d.tol
        assert np.abs(got.z - want.z).max() <= d.t * (
            np.abs(d.B).sum(axis=1).max() * du) + 1e-14 * (
            1.0 + np.abs(want.z).max())
        # a KKT residual r <= tol leaves a point within
        # r (3 rho + (2p + 1) |g|) of the optimum
        p = d.a.size
        gmax = max(np.abs(d.h @ sol.u + d.q).max() for sol in (got, want))
        assert abs(got.objective - want.objective) <= 2 * d.tol * (
            3 * d.rho + (2 * p + 1) * gmax) + 1e-14 * (1.0 + abs(want.objective))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_singular_without_regularization(self, p, m, seed):
        # B = 0 and xi = 0: the first released coordinate leaves a zero
        # working-set block, which both versions must refuse
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, p)
        a[rng.integers(p)] = -1.0
        d = SubproblemData(B=np.zeros((m, p)), a=a, y=rng.standard_normal(m),
                           b=rng.standard_normal(m), t=1.0, xi=0.0, rho=1.0)
        for module in (qp_reference, qp):
            with pytest.raises(np.linalg.LinAlgError):
                module.solve_subproblem(d)

    def test_ties_go_to_the_lowest_index(self):
        # two identical columns and xi = 0: the multiplier scan releases
        # index 0 first, and index 1 then has a zero multiplier at its bound
        d = SubproblemData(B=np.array([[1.0, 1.0], [1.0, 1.0]]),
                           a=np.array([-1.0, -1.0]), y=np.zeros(2),
                           b=np.zeros(2), t=1.0, xi=0.0, rho=10.0)
        for module in (qp_reference, qp):
            sol = module.solve_subproblem(d)
            assert sol.u[0] > 0.0 and sol.u[1] == 0.0
            assert sol.bound_active.tolist() == [False, True]
