"""Acceptance gate: one test per release criterion.

Each test prints a pass/fail line in the terminal summary (see conftest.py).
"""

import numpy as np
import pytest

import polybundle as pb
from linalg_reference import norm_estimate
from polybundle.bundle import model_eval
from polybundle.linalg import SvecSupport, apply_A, smat, svec
from polybundle.qp import solve_subproblem
from polybundle.solver import SolverParams, penalty_eval, solve


@pytest.fixture(scope="module")
def desk_scale_runs():
    """Criterion 1/2 shared runs: (n, m, r*, s) at three sizes."""
    runs = []
    for n in (100, 200, 300):
        problem, planted = pb.generate_random_sdp(n, n, 5, 1e-2, 1.0, 42)
        result = solve(problem, SolverParams(eps=1e-4, maxiter=300))
        runs.append((problem, planted, result))
    return runs


def test_c01_end_to_end_convergence(desk_scale_runs):
    for problem, _, result in desk_scale_runs:
        assert result.status == "Converged", (problem.name, result.status)
        assert result.iterations <= 300
        assert result.max_delta <= 1e-4


def test_c02_planted_optimum_agreement(desk_scale_runs):
    for problem, planted, result in desk_scale_runs:
        by_star = float(problem.b @ planted.y_star)
        cx_star = float(problem.cvec @ svec(planted.X_star).values)
        dual_err = abs(result.objective_dual - by_star) / (1 + abs(by_star))
        primal_err = abs(result.objective_primal - cx_star) / (1 + abs(cx_star))
        assert dual_err <= 1e-3, problem.name
        assert primal_err <= 1e-3, problem.name


def test_c03_model_invariant_suite():
    # the updated model stays a lower bound on the penalty function, above
    # the linearization at the candidate, and above the proximal-step
    # linearization, at 200 sampled points after each of 50 updates
    problem, _ = pb.generate_random_sdp(50, 50, 3, 0.1, 1.0, 3)
    rho = 2 * problem.known_trace + 1
    rng = np.random.default_rng(0)
    seen = [0]
    worst = [0.0, 0.0, 0.0]
    support = SvecSupport.of(problem.op, problem.C)

    def audit(info):
        if seen[0] >= 50:
            return
        seen[0] += 1
        for _ in range(200):
            y = info.z + rng.standard_normal(problem.m) * rng.uniform(0.1, 3)
            f_y, _, _, _ = penalty_eval(problem, support, y, 1, rho)
            m_post = model_eval(y, info.a_post, info.B_post, rho, problem.b)
            worst[0] = max(worst[0], m_post - f_y)
            if info.record.eig_min_S < 0:
                vv = np.outer(info.v_min, info.v_min)
                g = -problem.b + rho * apply_A(problem.op, vv)
            else:
                g = -problem.b
            worst[1] = max(worst[1], info.record.F_z + g @ (y - info.z) - m_post)
            lin = info.record.model_value + ((info.y - info.z) / info.t) @ (y - info.z)
            worst[2] = max(worst[2], lin - m_post)

    result = solve(problem, SolverParams(eps=1e-6, maxiter=120),
                   callback=audit)
    assert seen[0] == 50, result.status
    assert worst[0] <= 1e-8, f"lower-bound violation {worst[0]:.3e}"
    assert worst[1] <= 1e-8, f"candidate linearization violation {worst[1]:.3e}"
    assert worst[2] <= 1e-8, f"proximal linearization violation {worst[2]:.3e}"


def test_c04_qp_oracle_equivalence():
    from test_qp import enumerate_qp, random_subproblem

    rng = np.random.default_rng(42)
    for _ in range(500):
        d = random_subproblem(rng, m=int(rng.integers(2, 8)),
                              cols=int(rng.integers(1, 8)))
        sol = solve_subproblem(d)
        want_obj, _ = enumerate_qp(d.h, d.q, d.rho)
        assert abs(sol.objective - want_obj) <= 1e-9 * (1 + abs(want_obj))
        assert sol.kkt_residual <= d.tol


def test_c05_xi_sensitivity_ordering():
    problem, _ = pb.generate_random_sdp(3, 3, 2, 0.5, 1.0, 0)
    iters = {}
    for xi in (1e-10, 1e-8, 1e-4):
        res = solve(problem, SolverParams(xi=xi, eps=1e-4, maxiter=500))
        iters[xi] = (res.status, res.iterations)
    assert iters[1e-10][0] == "Converged" and iters[1e-10][1] <= 100
    assert iters[1e-8][0] == "Converged" and iters[1e-8][1] <= 100
    status_coarse, iters_coarse = iters[1e-4]
    assert status_coarse != "Converged" or iters_coarse > iters[1e-8][1]


def test_c06_rank_prediction():
    for prior in (10, 15):
        correct = 0
        for seed in range(10):
            problem, _ = pb.generate_random_sdp(100, 100, 5, 1e-2, 1.0, seed)
            known = solve(problem, SolverParams(eps=1e-4, maxiter=500))
            pred = solve(problem, SolverParams(eps=1e-4, maxiter=500,
                                               prior_rank=prior))
            if pred.status == "Converged" and pred.rank_used == 5:
                correct += 1
            assert pred.iterations <= 3 * known.iterations, (prior, seed)
        assert correct >= 9, (prior, correct)


def test_c07_bundle_cap_starvation():
    problem, _ = pb.generate_random_sdp(100, 100, 5, 1e-2, 1.0, 42)
    r = 5
    starved = solve(problem, SolverParams(
        eps=1e-4, maxiter=500, l_max=r * (r + 1) // 2 - r))
    roomy = solve(problem, SolverParams(
        eps=1e-4, maxiter=500, l_max=r * (r + 1) // 2 + r))
    assert starved.status != "Converged"
    assert roomy.status == "Converged"


def test_c08_generator_contract():
    kappa_ratio_ok = True
    for seed in range(50):
        problem, pl = pb.generate_random_sdp(50, 40, 4, 0.1, 1.0, seed)
        assert np.abs(apply_A(problem.op, pl.X_star) - problem.b).max() <= 1e-10
        c_want = pl.S_star.to_dense() + \
            smat(problem.op.avec @ pl.y_star).to_dense()
        assert np.abs(problem.C.to_dense() - c_want).max() <= 1e-10
        xs, ss = pl.X_star.to_dense(), pl.S_star.to_dense()
        assert abs((xs * ss).sum()) <= 1e-9
        for i in range(problem.m):
            assert abs(problem.op.constraint_matrix(i).trace()) <= 1e-12
        ex = np.linalg.eigvalsh(xs)
        es = np.linalg.eigvalsh(ss)
        rank_x = int(np.count_nonzero(ex > 1e-8 * ex.max()))
        rank_s = int(np.count_nonzero(es > 1e-8 * es.max()))
        assert rank_x + rank_s == problem.n, seed
        _, pl50 = pb.generate_random_sdp(50, 40, 4, 0.1, 50.0, seed)
        kappa_ratio_ok &= pl50.kappa_S / pl.kappa_S >= 10.0
    assert kappa_ratio_ok


def test_c09_sampled_lipschitz():
    problem, _ = pb.generate_random_sdp(50, 50, 3, 0.1, 1.0, 0)
    rho = 2 * problem.known_trace + 1
    lip = np.linalg.norm(problem.b) + rho * norm_estimate(problem.op)
    rng = np.random.default_rng(1)
    support = SvecSupport.of(problem.op, problem.C)
    for _ in range(100):
        x = rng.standard_normal(problem.m) * rng.uniform(0.1, 5)
        y = rng.standard_normal(problem.m) * rng.uniform(0.1, 5)
        f_x, _, _, _ = penalty_eval(problem, support, x, 1, rho)
        f_y, _, _, _ = penalty_eval(problem, support, y, 1, rho)
        assert abs(f_x - f_y) <= lip * np.linalg.norm(x - y) + 1e-8


def test_c10_maxcut_smoke(tmp_path):
    rng = np.random.default_rng(1)
    n = 100
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.06]
    lines = [f"{n} {len(edges)}"] + [f"{i} {j} 1" for i, j in edges]
    path = tmp_path / "rand100.txt"
    path.write_text("\n".join(lines) + "\n")
    graph = pb.load_gset(str(path))
    problem = pb.build_maxcut_sdp(graph, sense="maximize")
    # the solver's default rank, min(n, ceil(sqrt(2m))) = 15 with m = n
    result = solve(problem, SolverParams(eps=1e-3, maxiter=500, t0=1e-2,
                                         l_max="sq"))
    assert result.rank_used == 15
    assert result.status == "Converged"
    assert result.iterations <= 500
    assert result.max_delta <= 1e-3


def test_c11_unit_invariants(tmp_path):
    rng = np.random.default_rng(7)
    # svec/smat roundtrip, exact both ways
    for _ in range(20):
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2
        assert np.array_equal(smat(svec(a)).to_dense(), a)
        v = rng.standard_normal(78)
        assert np.array_equal(svec(smat(v)).values, v)
    # adjoint identity <A(X), y> = <X, A'(y)>
    problem, _ = pb.generate_random_sdp(20, 12, 2, 0.3, 1.0, 0)
    for _ in range(20):
        x = rng.standard_normal((20, 20))
        x = (x + x.T) / 2
        y = rng.standard_normal(12)
        lhs = apply_A(problem.op, x) @ y
        rhs = (smat(problem.op.avec @ y).to_dense() * x).sum()
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
    # eigensolver residual certificate
    s = rng.standard_normal((60, 60))
    s = (s + s.T) / 2
    eig = pb.extreme_eigs(s, 4)
    for i in range(4):
        v = eig.vectors[:, i]
        resid = np.linalg.norm(s @ v - eig.values[i] * v)
        assert resid <= 1e-9 * (1 + abs(eig.values[i]))
    # SDPA write/load roundtrip, bit for bit
    path = str(tmp_path / "rt.dat-s")
    pb.write_sdpa(problem, path)
    back = pb.load_sdpa(path)
    assert np.array_equal(back.b, problem.b)
    assert np.array_equal(back.cvec, problem.cvec)
    assert (back.op.avec != problem.op.avec).nnz == 0
