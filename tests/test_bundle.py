import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from linalg_reference import fold_dense, svec_rank_one
from polybundle import linalg, solver
from polybundle.bundle import (
    BundleState,
    aggregate_and_append,
    model_eval,
    pvec_generate,
    select_aggregation,
    support_values,
)
from polybundle.linalg import (
    ConstraintOperator,
    SvecSupport,
    SymMatrix,
    apply_A,
    svec,
    svec_indices,
    svec_position,
    tri_dim,
)
from polybundle.problems import (
    GraphInstance,
    build_maxcut_sdp,
    generate_random_sdp,
    load_sdpa,
    write_sdpa,
)


def random_setup(rng, n=5, m=4, l=3):
    mats = []
    for _ in range(m):
        a = rng.standard_normal((n, n))
        mats.append(SymMatrix.from_dense((a + a.T) / 2))
    op = ConstraintOperator.from_matrices(n, mats)
    c = rng.standard_normal((n, n))
    c = (c + c.T) / 2
    p = rng.standard_normal((n, l))
    p /= np.linalg.norm(p, axis=0)
    return op, c, SymMatrix.from_dense(c), p, mats


class TestPvecGenerate:
    def test_basis_vector(self):
        # P = e1 in n=2: Pvec = svec(e1 e1') = [1,0,0], a = C_11, B_i = (A_i)_11
        a1 = SymMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 0.0]]))
        op = ConstraintOperator.from_matrices(2, [a1])
        c = np.array([[3.0, -1.0], [-1.0, 5.0]])
        p = np.array([[1.0], [0.0]])
        a, b = pvec_generate(p, op, SvecSupport.of(op, SymMatrix.from_dense(c)))
        assert a[0] == pytest.approx(3.0)
        assert b[0, 0] == pytest.approx(2.0)

    def test_two_basis_vectors(self):
        c = np.diag([4.0, 7.0])
        op = ConstraintOperator.from_matrices(
            2, [SymMatrix.from_dense(np.eye(2))]
        )
        p = np.eye(2)
        a, _ = pvec_generate(p, op, SvecSupport.of(op, SymMatrix.from_dense(c)))
        assert np.allclose(a, [4.0, 7.0])

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(0)
        op, c, c_sym, p, mats = random_setup(rng)
        a, b = pvec_generate(p, op, SvecSupport.of(op, c_sym))
        pvec = svec_rank_one(p)
        for i in range(p.shape[1]):
            outer = np.outer(p[:, i], p[:, i])
            assert np.allclose(pvec[:, i], svec(outer).values, atol=1e-12)
            assert a[i] == pytest.approx(np.trace(c @ outer), abs=1e-12)
            want_b = [np.trace(m.to_dense() @ outer) for m in mats]
            assert np.allclose(b[:, i], want_b, atol=1e-12)

    @pytest.mark.parametrize("p", [[1.0, 0.0], [1.0, -1.0]])
    def test_rejects_a_vector(self, p):
        # a 1-D p is not read as columns of length 1
        op = ConstraintOperator.from_matrices(2, [SymMatrix.from_dense(np.eye(2))])
        support = SvecSupport.of(op, SymMatrix.from_dense(np.eye(2)))
        with pytest.raises(ValueError, match="p must be an n x l matrix"):
            pvec_generate(np.array(p), op, support)

    def test_rejects_non_unit_columns(self):
        rng = np.random.default_rng(1)
        op, _, c_sym, p, _ = random_setup(rng)
        with pytest.raises(ValueError, match="unit"):
            pvec_generate(2.0 * p, op, SvecSupport.of(op, c_sym))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def hand_built():
    """C has entries outside every A_i, the A_i have entries outside C, and
    A_2 stores an explicit zero at a position nothing else uses."""
    n = 6
    c = SymMatrix(n, [0, 3, 5], [0, 1, 4], [1.5, -2.0, 0.25])
    op = ConstraintOperator.from_entries(
        n, 2, np.array([0, 0, 1, 1, 1]),
        svec_position(n, np.array([0, 2, 4, 1, 5]), np.array([0, 2, 3, 0, 5])),
        np.array([1.0, -3.0, 0.5, 2.0, 1.0]))
    # from_entries stores no zeros, so A_2's entry at (5, 5) is zeroed here
    op.avec.data[op.avec.indices == svec_position(n, 5, 5)] = 0.0
    return op, c


@pytest.fixture(params=["generated", "generated-full", "maxcut",
                        "sdpa-loaded", "hand-built"])
def support_problem(request, tmp_path):
    """(op, C, whether the support is every position)."""
    if request.param == "hand-built":
        return (*hand_built(), False)
    if request.param == "maxcut":
        rng = np.random.default_rng(4)
        edges = [(i + 1, j + 1, float(rng.integers(1, 4))) for i in range(30)
                 for j in range(i + 1, 30) if rng.random() < 0.2]
        problem = build_maxcut_sdp(GraphInstance(30, edges))
    elif request.param == "generated-full":
        problem, _ = generate_random_sdp(30, 25, 3, 0.1, 1.5, 12)
    else:
        problem, _ = generate_random_sdp(40, 40, 3, 0.02, 1.0, 1)
        if request.param == "sdpa-loaded":
            write_sdpa(problem, str(tmp_path / "p.dat-s"))
            problem = load_sdpa(str(tmp_path / "p.dat-s"))
    return problem.op, problem.C, request.param == "generated-full"


class TestSupportColumns:
    """Column generation on the support against svec_rank_one, the svec of
    each p_i p_i' by its definition."""

    @staticmethod
    def columns(rng, n, l=4):
        q, _ = np.linalg.qr(rng.standard_normal((n, l)))
        return q

    def test_support_is_every_position_c_or_some_a_i_uses(self, support_problem):
        op, c, full = support_problem
        support = SvecSupport.of(op, c)
        cvec = svec(c).values
        assert support.n == op.n
        # a stored zero counts as used
        stored = np.isin(np.arange(tri_dim(op.n)), op.avec.tocoo().row)
        want = np.flatnonzero((cvec != 0.0) | stored)
        assert (want.size == tri_dim(op.n)) == full
        rows, cols, scale = svec_indices(op.n)
        assert np.array_equal(support.rows, rows[want])
        assert np.array_equal(support.cols, cols[want])
        assert np.array_equal(support.scale, scale[want])
        assert np.array_equal(support.cvec, cvec[want])
        assert np.array_equal(support.avec.toarray(), op.avec.toarray()[want])

    def test_matches_dense_pvec_path(self, support_problem):
        op, c, _ = support_problem
        support = SvecSupport.of(op, c)
        cvec = svec(c).values
        pos = svec_position(op.n, support.rows, support.cols)
        rng = np.random.default_rng(7)
        for _ in range(3):
            p = self.columns(rng, op.n)
            want_pvec = svec_rank_one(p)
            want_a = want_pvec.T @ cvec
            want_b = np.asarray(op.avec.T @ want_pvec)
            block = support.rank_one(p)
            assert block.flags.c_contiguous
            assert np.array_equal(bits(block), bits(want_pvec[pos]))
            a, b = pvec_generate(p, op, support)
            assert np.array_equal(bits(b), bits(want_b))
            assert np.max(np.abs(a - want_a)) <= 1e-13 * np.max(np.abs(want_a))

    def test_block_of_any_layout_has_the_bits_of_its_copy(self, support_problem):
        # the bundle's support values read slices of P, and the eigensolver
        # returns F-ordered vectors
        op, c, _ = support_problem
        support = SvecSupport.of(op, c)
        p = np.ascontiguousarray(self.columns(np.random.default_rng(9), op.n, l=6))
        cases = (p[:, 1:4], np.asfortranarray(p), p[:, [4, 0, 3]])
        assert not (cases[0].flags.c_contiguous or cases[1].flags.c_contiguous)
        for q in cases:
            want = support.rank_one(np.ascontiguousarray(q))
            assert np.array_equal(bits(support.rank_one(q)), bits(want))

    def test_full_support_uses_the_arrays_as_they_are(self):
        problem, _ = generate_random_sdp(30, 25, 3, 0.1, 1.5, 12)
        op, c, cvec = problem.op, problem.C, problem.cvec
        support = SvecSupport.of(op, c)
        assert support.avec is op.avec
        assert support.rows is c.rows and support.cols is c.cols
        assert np.array_equal(support.scale, svec_indices(op.n)[2])
        assert np.array_equal(bits(support.cvec), bits(cvec))
        p = self.columns(np.random.default_rng(8), op.n)
        pvec = svec_rank_one(p)
        a, b = pvec_generate(p, op, support)
        assert np.array_equal(bits(a), bits(pvec.T @ cvec))
        assert np.array_equal(bits(b), bits(op.avec.T @ pvec))

    # sha256 of each support array, as little-endian int64 or float64, taken
    # while the support was still cut from the full svec(C) and index tables.
    # The generated values pass through eigh, so they hold at one OpenBLAS
    # thread, as the generator's checksums do
    DIGESTS = {
        "generated": {
            "rows": "03e3b77b79d3a2d1fb60a4d4ff8db2787c8135cc782bd405e14d4603a1f1c9c9",
            "cols": "424aea2b163efc4cd10c96ef745d011e4713a1ccb968d51909a2b14a31b3b92a",
            "scale": "37db946e8a8dbf72d990501dfe293d51614d3c557a00de466d5a6ed1e55a7d7e",
            "cvec": "d1ee6794e977dd97a105f8c9158d51f0029eb3e303cf40b63c7182408d64317c",
            "avec": "2a7ac86f11dd85ed1bbbba2fcd8a0aae51eeecfcadf1b56fa048d3de36193339"},
        "generated-full": {
            "rows": "5301d30596da944cec0ef4212eb95b19f52c7ae19af0be4a2305f7728cde7bd0",
            "cols": "04a88ff37bf9abaa98a4b5a1dc9cb4f750119c8da8c25d3cecec8fae0d9ef7ac",
            "scale": "7e4fa752a867805cc7e3f80f0d8e3abac15b4e6d348975e54b4bb0ea5184993e",
            "cvec": "a7ac01a84397e2cca6a2f34a12979fe90561574598ceb1dc85461e1d09d4750a",
            "avec": "44645e8c83e461a266316a2b29b8be784fa52ae699167f61a96b17dba6c08f4c"},
        "maxcut": {
            "rows": "010c913de82cf81567e54b2a3e83bb9c571fe63e42ec3f6529e33e535b9f6cdd",
            "cols": "b45be7ba7e51e1874e3f9907ba54f6a05d9c9023e7a2e5fa2887aa553881d331",
            "scale": "e1a642b2bcd8bab41391501e4522f8908669c5d6a9b8b4c4c5248a14c6cbd012",
            "cvec": "df864b0f7debc4e4c48622144e64c7d8cb2660ecc0b6ba6871f36b2c82a77f65",
            "avec": "af1f201d7b037587f20304107564b7e39f6cf83d23e26cce1c851edffcc4ee67"},
        "hand-built": {
            "rows": "c68e57b2676be5afff1996d7fe939d22ce3829d36133633b9ad3a5f83ab96ecf",
            "cols": "302e02e1f81b3794d8c77cde8673f6f91d9840c4b0ef2175d152544238cc6bce",
            "scale": "5bf6cd70fba504a69783f3cfd6abc13c01d88cab308b3604eff0d46f21ee3355",
            "cvec": "5b16ebf79e97c161cf6a6531922e00589d628c17cf363629573e94ac2c962021",
            "avec": "aba4aa1e4568f76180e891a4a21d02ef1a6657bed1cb0e723e1ff2f0670ca367"}}
    DIGESTS["sdpa-loaded"] = DIGESTS["generated"]  # the round trip keeps every bit

    def test_support_arrays_keep_their_bits(self, support_problem, request):
        op, c, _ = support_problem
        s = SvecSupport.of(op, c)
        arrays = {"rows": [s.rows.astype("<i8")], "cols": [s.cols.astype("<i8")],
                  "scale": [s.scale.astype("<f8")], "cvec": [s.cvec.astype("<f8")],
                  "avec": [s.avec.data.astype("<f8"), s.avec.indices.astype("<i8"),
                           s.avec.indptr.astype("<i8")]}
        got = {}
        for name, parts in arrays.items():
            digest = hashlib.sha256()
            for a in parts:
                digest.update(a)
            got[name] = digest.hexdigest()
        assert got == self.DIGESTS[request.node.callspec.params["support_problem"]]

    def test_hand_built_support(self):
        op, c = hand_built()
        support = SvecSupport.of(op, c)
        want = svec_position(6, np.array([0, 1, 2, 3, 4, 5, 5]),
                             np.array([0, 0, 2, 1, 3, 4, 5]))
        got = svec_position(6, support.rows, support.cols)
        assert np.array_equal(got, np.sort(want))

    def test_rejects_support_of_another_operator(self):
        op, c = hand_built()
        k = np.arange(3)
        other = ConstraintOperator.from_entries(6, 3, k, svec_position(6, k, k), np.ones(3))
        p = np.eye(6)[:, :2]
        with pytest.raises(ValueError, match="another operator"):
            pvec_generate(p, other, SvecSupport.of(op, c))


class TestSupportSlack:
    """S = C - A'y on the support: the dense fill against a scatter through
    two 2-D fancy indexes, and the sparse storage against the CSR of the
    dense slack, bit for bit."""

    def test_dense_fill_matches_two_index_scatter(self, support_problem):
        op, c, _ = support_problem
        # exact zeros of both signs stored in C at positions the A_i use; at
        # y = 0 the -0.0 ones stay in S
        cvec = svec(c).values
        cvec[op.avec.indices[::3]] = 0.0
        cvec[op.avec.indices[1::3]] = -0.0
        pos = np.union1d(svec_position(op.n, c.rows, c.cols), op.avec.indices)
        rows, cols, scale = svec_indices(op.n, pos)
        c = SymMatrix(op.n, rows, cols, cvec[pos] / scale)
        support = SvecSupport.of(op, c)
        for y in (np.zeros(op.m), np.random.default_rng(5).standard_normal(op.m)):
            vals = (support.cvec - support.avec @ y) / support.scale
            want = np.zeros((op.n, op.n))
            want[support.rows, support.cols] = vals
            want[support.cols, support.rows] = vals
            got = support.slack(y)
            # column-major, and the same bits as the row-major fill: the
            # fill is exactly symmetric
            assert got.shape == (op.n, op.n) and got.flags.f_contiguous
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(got), bits(got.T))
            if not y.any():
                assert np.any(np.signbit(got[got == 0.0]))

    def test_sparse_storage_is_the_csr_of_the_dense_slack(self, support_problem,
                                                          monkeypatch):
        op, c, _ = support_problem
        support = SvecSupport.of(op, c)
        y = np.random.default_rng(6).standard_normal(op.m)
        want = sp.csr_matrix(support.slack(y))
        monkeypatch.setattr(linalg, "DENSE_EIG_CUTOFF", op.n - 1)
        got = support.slack(y)
        assert sp.issparse(got) and got.format == "csr" and got.shape == want.shape
        assert np.array_equal(bits(got.data), bits(want.data))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)

    def test_problem_takes_its_support_on_first_use(self, tmp_path):
        problem, _ = generate_random_sdp(20, 10, 2, 0.1, 1.0, 3)
        write_sdpa(problem, str(tmp_path / "p.dat-s"))
        loaded = load_sdpa(str(tmp_path / "p.dat-s"))
        for p in (problem, loaded):
            assert "support" not in vars(p)
            support = p.support
            assert p.support is support
            assert np.array_equal(support.rows, SvecSupport.of(p.op, p.C).rows)


class TestLeastSquaresDual:
    """y_LS = argmin ||C - A'y||_F from LSQR on the support, against the
    dense least-squares solve over every svec position."""

    @staticmethod
    def assert_is_lstsq(support, op, cvec):
        y = support.least_squares_dual
        want = np.linalg.lstsq(op.avec.toarray(), cvec, rcond=None)[0]
        assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)

    def test_matches_dense_lstsq(self, support_problem):
        op, c, _ = support_problem
        support = SvecSupport.of(op, c)
        self.assert_is_lstsq(support, op, svec(c).values)
        y = support.least_squares_dual
        assert support.least_squares_dual is y and not y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            y[0] = 1.0

    def test_dependent_constraints_get_the_least_norm_solution(self):
        # A_3 = A_1 + A_2: lstsq and LSQR from 0 both give the least-norm y
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((5, 5)) for _ in range(2)]
        mats = [a + a.T for a in mats]
        op = ConstraintOperator.from_matrices(5, [*mats, mats[0] + mats[1]])
        c = rng.standard_normal((5, 5))
        c = SymMatrix.from_dense(c + c.T)
        self.assert_is_lstsq(SvecSupport.of(op, c), op, svec(c).values)

    def test_none_when_not_finite(self, support_problem):
        op, c, _ = support_problem
        # C itself must be finite, so the NaN goes into the support's cvec
        support = SvecSupport.of(op, c)
        support.cvec[support.avec.indices[0]] = np.nan
        assert support.least_squares_dual is None


class TestModelEval:
    def test_linear_part_only(self):
        y = np.array([1.0, -2.0])
        b = np.array([3.0, 1.0])
        val = model_eval(y, np.zeros(2), np.zeros((2, 2)), 5.0, b)
        assert val == pytest.approx(-b @ y)

    def test_single_coefficient(self):
        # (B'y - a) = 2 with rho = 3 and b = 0 gives 6
        y = np.array([1.0])
        b_mat = np.array([[2.0]])
        a = np.array([0.0])
        assert model_eval(y, a, b_mat, 3.0, np.zeros(1)) == pytest.approx(6.0)

    def test_negative_coefficients_clamp_to_zero(self):
        y = np.array([1.0])
        b_mat = np.array([[-1.0, -2.0]])
        a = np.array([0.5, 0.0])
        assert model_eval(y, a, b_mat, 4.0, np.zeros(1)) == pytest.approx(0.0)

    def test_matches_lp_vertex_enumeration(self):
        # the max over {u >= 0, 1'u <= rho} of a linear functional sits at
        # u = 0 or u = rho * e_j
        rng = np.random.default_rng(2)
        for _ in range(50):
            m, l, rho = 4, 6, rng.uniform(0.5, 5.0)
            y = rng.standard_normal(m)
            b = rng.standard_normal(m)
            b_mat = rng.standard_normal((m, l))
            a = rng.standard_normal(l)
            coeffs = b_mat.T @ y - a
            best = max(0.0, rho * coeffs.max())
            want = -b @ y + best
            assert model_eval(y, a, b_mat, rho, b) == pytest.approx(
                want, abs=1e-10
            )


class TestSelectAggregation:
    def test_roomy_case_thresholds_gamma1(self):
        x = np.array([0.5, 1e-7, 0.3, 1e-9])
        p_bar, p_hat = select_aggregation(x, r=2, l_max=10)
        assert sorted(p_bar) == [1, 3]
        assert sorted(p_hat) == [0, 2]

    def test_tight_case_forces_smallest(self):
        # l = 6, l_max = 7, r = 3: at least 6 - (7 - 3) = 2 must go
        x = np.array([0.5, 0.4, 0.01, 0.02, 0.3, 0.6])
        p_bar, p_hat = select_aggregation(x, r=3, l_max=7)
        assert sorted(p_bar) == [2, 3]
        assert len(p_hat) + 3 <= 7

    def test_tight_case_includes_gamma2(self):
        x = np.array([0.5, 1e-8, 0.4, 0.3, 0.2, 0.1])
        p_bar, _ = select_aggregation(x, r=3, l_max=7)
        assert 1 in p_bar
        assert len(p_bar) >= 2

    def test_tie_break_by_lower_index(self):
        x = np.array([0.2, 0.2, 0.2, 0.2])
        p_bar, _ = select_aggregation(x, r=2, l_max=5)
        assert sorted(p_bar) == [0]

    def test_keep_all_when_roomy_and_heavy(self):
        x = np.array([0.5, 0.4])
        p_bar, p_hat = select_aggregation(x, r=2, l_max=10)
        assert p_bar.size == 0
        assert sorted(p_hat) == [0, 1]

    def test_cap_below_the_rank_rejected(self):
        with pytest.raises(ValueError, match="l_max must be at least the appended rank"):
            select_aggregation(np.array([0.5, 0.4]), r=3, l_max=2)


class TestAggregateAndAppend:
    def make_state(self, rng, n=5, m=4, l=3):
        op, c, c_sym, p, _ = random_setup(rng, n=n, m=m, l=l)
        a, b_mat = pvec_generate(p, op, SvecSupport.of(op, c_sym))
        state = BundleState.fresh(p, a, b_mat)
        return state, op, c, c_sym

    def new_block(self, rng, op, c_sym, n, r):
        v = rng.standard_normal((n, r))
        v /= np.linalg.norm(v, axis=0)
        a_new, b_new = pvec_generate(v, op, SvecSupport.of(op, c_sym))
        return v, a_new, b_new

    def test_zero_mass_zeroes_aggregate(self):
        rng = np.random.default_rng(3)
        state, op, _, c_sym = self.make_state(rng)
        v, a_new, b_new = self.new_block(rng, op, c_sym, 5, 2)
        p_bar = np.array([], dtype=np.int64)
        p_hat = np.arange(3)
        out = aggregate_and_append(state, 0.0, np.array([0.2, 0.3, 0.1]),
                                   v, a_new, b_new, p_bar, p_hat)
        assert out.a[0] == 0.0
        assert np.all(out.B[:, 0] == 0.0)
        assert out.l == 5

    def test_aggregate_consistency_with_w(self):
        # after aggregation the model column 0 is (<C, W>, A(W)) for the
        # dense W that the oracle folds
        rng = np.random.default_rng(4)
        state, op, c, c_sym = self.make_state(rng)
        v, a_new, b_new = self.new_block(rng, op, c_sym, 5, 2)
        x = np.array([0.4, 0.05, 0.3])
        p_bar = np.array([1], dtype=np.int64)
        p_hat = np.array([0, 2], dtype=np.int64)
        out = aggregate_and_append(state, 0.5, x, v, a_new, b_new,
                                   p_bar, p_hat)
        w = fold_dense(np.zeros((5, 5)), state, 0.5, x, p_bar)
        assert out.a[0] == pytest.approx(np.trace(c @ w), abs=1e-10)
        assert np.allclose(out.B[:, 0], apply_A(op, w), atol=1e-10)
        evals = np.linalg.eigvalsh(w)
        assert evals.min() >= -1e-9
        assert np.trace(w) <= 1.0 + 1e-9

    def test_kept_columns_preserved(self):
        rng = np.random.default_rng(5)
        state, op, _, c_sym = self.make_state(rng)
        v, a_new, b_new = self.new_block(rng, op, c_sym, 5, 2)
        p_bar = np.array([0], dtype=np.int64)
        p_hat = np.array([1, 2], dtype=np.int64)
        out = aggregate_and_append(state, 0.0, np.array([0.1, 0.2, 0.3]),
                                   v, a_new, b_new, p_bar, p_hat)
        assert np.array_equal(out.P[:, :2], state.P[:, [1, 2]])
        assert np.array_equal(out.P[:, 2:], v)
        assert np.array_equal(out.a[1:3], state.a[[2, 3]])
        assert np.array_equal(out.B[:, 1:3], state.B[:, [2, 3]])
        assert np.array_equal(out.a[3:], a_new)
        assert np.array_equal(out.B[:, 3:], b_new)

    def test_support_values_follow_w(self):
        # w_supp is svec(W) at the support's positions through two
        # aggregations
        rng = np.random.default_rng(8)
        op, _, c_sym, p, _ = random_setup(rng, n=5, m=4, l=3)
        support = SvecSupport.of(op, c_sym)
        a, b_mat = pvec_generate(p, op, support)
        state = BundleState.fresh(p, a, b_mat, support)
        w = np.zeros((5, 5))
        assert not state.w_supp.any() and state.support is support
        for eta, x, p_bar, p_hat in [(0.0, [0.4, 0.05, 0.3], [1], [0, 2]),
                                     (0.5, [0.1, 0.2, 0.3, 0.4], [0, 3], [1, 2])]:
            v = rng.standard_normal((5, 2))
            v /= np.linalg.norm(v, axis=0)
            a_new, b_new = pvec_generate(v, op, support)
            w = fold_dense(w, state, eta, np.array(x), np.array(p_bar))
            state = aggregate_and_append(state, eta, np.array(x), v, a_new, b_new,
                                         np.array(p_bar), np.array(p_hat))
            want = w[support.rows, support.cols] * support.scale
            assert np.allclose(state.w_supp, want, rtol=0, atol=1e-15)
            assert state.support is support

    def test_support_values_skip_weights_below_zero(self):
        # a weight a hair below 0 counts as 0, so X stays a sum of PSD terms
        rng = np.random.default_rng(9)
        op, _, c_sym, p, _ = random_setup(rng, n=5, m=4, l=3)
        support = SvecSupport.of(op, c_sym)
        a, b_mat = pvec_generate(p, op, support)
        state = BundleState.fresh(p, a, b_mat, support)
        state.w_supp[:] = 1.0
        x = support_values(state, np.array([-1e-3, 0.5, -1e-3, 0.25]))
        block = support.rank_one(p)
        np.testing.assert_allclose(x, 0.5 * block[:, 0] + 0.25 * block[:, 2],
                                   rtol=1e-14, atol=1e-16)

    def test_model_arrays_layout(self):
        # a fresh bundle's model arrays: the empty aggregate, then the columns
        rng = np.random.default_rng(7)
        op, _, c_sym, p, _ = random_setup(rng, n=5, m=4, l=3)
        a, b_mat = pvec_generate(p, op, SvecSupport.of(op, c_sym))
        state = BundleState.fresh(p, a, b_mat)
        assert state.a.shape == (4,)
        assert state.B.shape == (4, 4)
        assert state.a[0] == 0.0 and np.all(state.B[:, 0] == 0.0)
        assert np.array_equal(state.a[1:], a)
        assert np.array_equal(state.B[:, 1:], b_mat)
        assert state.w_supp is None and state.support is None
        # the aggregate is held only through its images, never as a matrix
        assert [f.name for f in dataclasses.fields(BundleState)] == \
            ["P", "a", "B", "w_supp", "support"]


def stored_pvec_sum(state, idx, weights):
    """The sum over stored Pvec columns, as bundles once kept them: one
    contiguous svec(p_i p_i') at the support's positions per column."""
    support = state.support
    pos = svec_position(state.P.shape[0], support.rows, support.cols)
    return weights @ np.array([svec_rank_one(state.P)[pos, i] for i in idx])


class TestSupportValuesFromP:
    """The support values formed from the bundle's P have the bits of the
    same sums over stored Pvec columns."""

    def check(self, state, u):
        eta, x = max(float(u[0]), 0.0), u[1:]
        act = np.flatnonzero(x > 0.0)
        want = eta * state.w_supp + stored_pvec_sum(state, act, x[act])
        assert np.array_equal(bits(support_values(state, u)), bits(want))
        for idx in (i for i in (act, act[:1], np.arange(state.l)) if i.size):
            weights = np.linspace(0.1, 1.0, idx.size)
            only = np.zeros(1 + state.l)
            only[1 + idx] = weights
            assert np.array_equal(
                bits(support_values(state, only)),
                bits(0.0 * state.w_supp + stored_pvec_sum(state, idx, weights)))
        # no column of positive weight: eta * w_supp alone
        zero_x = np.concatenate([u[:1], -np.abs(x)])
        assert np.array_equal(bits(support_values(state, zero_x)),
                              bits(eta * state.w_supp + 0.0))

    def test_maxcut_run_with_a_rank_restart(self, monkeypatch):
        rng = np.random.default_rng(2)
        n = 60
        edges = [(i + 1, j + 1, 1.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.1]
        problem = build_maxcut_sdp(GraphInstance(n, edges), sense="maximize")
        # each QP's (state, weights), and each stop's on the updated state
        solved, seen = [], []
        update, real = solver._update_bundle, solver.primal_pair

        def recorded_update(state, sol, *args):
            solved.append((state, sol.u.copy()))
            return update(state, sol, *args)

        def recorded(problem, targets, state, u, past):
            seen.append((state, u.copy()))
            return real(problem, targets, state, u, past)

        monkeypatch.setattr(solver, "_update_bundle", recorded_update)
        monkeypatch.setattr(solver, "primal_pair", recorded)
        # a cap of 15 folds columns into W after the restart too
        params = solver.SolverParams(eps=1e-3, t0=1e-2, l_max=15, prior_rank=8)
        res = solver.solve(problem, params)
        assert res.status == solver.STATUS_CONVERGED and res.rank_used == 6
        # the state the restart starts: its P is a slice of the new block
        restart = next(k for k, (state, _) in enumerate(solved) if state.l == 6)
        assert 0 < restart < len(solved) - 1
        assert not solved[restart][0].P.flags.c_contiguous
        assert any(state.w_supp.any() for state, _ in seen[restart:])
        for state, u in solved + seen:
            assert state.support is problem.support
            self.check(state, u)

    def test_full_planted_support(self):
        problem, _ = generate_random_sdp(30, 25, 3, 0.1, 1.5, 12)
        support = problem.support
        assert support.rows.size == tri_dim(30)
        rng = np.random.default_rng(3)
        p = rng.standard_normal((30, 4))
        p /= np.linalg.norm(p, axis=0)
        a, b_mat = pvec_generate(p, problem.op, support)
        state = BundleState.fresh(p, a, b_mat, support)
        self.check(state, np.array([0.0, 0.3, -1e-12, 0.2, 0.0]))
        v = rng.standard_normal((30, 3))
        v /= np.linalg.norm(v, axis=0)
        a_new, b_new = pvec_generate(v, problem.op, support)
        state = aggregate_and_append(state, 0.5, np.array([0.1, 0.2, 0.3, 0.4]),
                                     v, a_new, b_new, np.array([0, 2]),
                                     np.array([1, 3]))
        assert state.w_supp.any()
        self.check(state, np.array([0.7, 0.25, 0.0, 0.1, 0.05, -1e-9]))
