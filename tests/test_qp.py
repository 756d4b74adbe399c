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
    SingularSubproblem,
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
            mask = np.zeros(d.a.size, dtype=bool)
            mask[cold.bound_active] = True
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
        with pytest.raises(NonConvergence) as info:
            solve_subproblem(d)
        assert info.value.residual == 1.0
        assert info.value.u.shape == (d.a.size,)
        problem, _ = generate_random_sdp(10, 10, 2, 0.5, 1.0, 0)
        res = solve(problem, SolverParams())
        assert res.status == STATUS_SUBPROBLEM_FAILURE


class TestWarmStartMask:
    def test_wrong_length_rejected(self):
        d = random_subproblem(np.random.default_rng(5), cols=4)
        for size in (3, 5):
            with pytest.raises(ValueError, match="warm-start mask"):
                solve_subproblem(d, warm_start=np.zeros(size, dtype=bool))

    def test_mask_not_modified(self):
        d = random_subproblem(np.random.default_rng(6), cols=4)
        mask = np.zeros(4, dtype=bool)
        solve_subproblem(d, warm_start=mask)
        assert not mask.any()


class TestFactor:
    INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])

    def test_indefinite_without_regularization_is_singular(self):
        with pytest.raises(SingularSubproblem):
            qp._factor(self.INDEFINITE.copy(), 0.0)

    def test_indefinite_with_regularization_is_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            qp._factor(self.INDEFINITE.copy(), 1e-8)

    def test_lower_factor(self):
        h = np.array([[4.0, 2.0], [2.0, 3.0]])
        low = np.tril(qp._factor(h, 0.0))
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


# -- the reference oracle ---------------------------------------------------

QP_FAILURES = (SingularSubproblem, NonConvergence, np.linalg.LinAlgError)


def run_recording(module, d, mask):
    """``module.solve_subproblem`` on ``d``, with the working sets its
    ``_eqp_solve`` saw; returns (solution or exception, working sets)."""
    seen = []
    inner = module._eqp_solve

    def record(h, q, free, simplex_active, rho, xi):
        seen.append((np.flatnonzero(free).tolist(), simplex_active))
        return inner(h, q, free, simplex_active, rho, xi)

    module._eqp_solve = record
    try:
        out = module.solve_subproblem(
            d, warm_start=None if mask is None else mask.copy())
    except QP_FAILURES as exc:
        out = exc
    finally:
        module._eqp_solve = inner
    return out, seen


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


class TestReferenceOracle:
    """The LAPACK-direct QP reproduces the cho_factor/np.ix_/loop version
    it replaced bit for bit, working set by working set."""

    @settings(max_examples=400, deadline=None)
    @given(oracle_instances())
    def test_matches_reference(self, instance):
        d, mask = instance
        want, want_sets = run_recording(qp_reference, d, mask)
        got, got_sets = run_recording(qp, d, mask)
        assert got_sets == want_sets
        if isinstance(want, QpSolution) and want.kkt_residual > d.tol:
            # the reference returned an uncertified point; the package
            # refuses it and carries the same iterate
            assert isinstance(got, NonConvergence)
            assert np.array_equal(got.u, want.u)
            assert got.residual == want.kkt_residual
        elif isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert np.array_equal(got.u, want.u)
            assert np.array_equal(got.z, want.z)
            assert np.array_equal(got.bound_active, want.bound_active)
            assert got.simplex_active == want.simplex_active
            assert got.objective == want.objective
            assert got.kkt_residual == want.kkt_residual

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
            with pytest.raises(SingularSubproblem):
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
