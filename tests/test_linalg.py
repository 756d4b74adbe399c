import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from linalg_reference import compressed_by_masks, norm_estimate, svec_indices_by_search
from polybundle import linalg
from polybundle.linalg import (
    DENSE_EIG_CUTOFF,
    ConstraintOperator,
    EigenConvergenceError,
    SvecSupport,
    SymMatrix,
    apply_A,
    extreme_eigs,
    smat,
    svec,
    svec_indices,
    svec_position,
    tri_dim,
    tri_order,
)


def smat_dense(values):
    """smat(values) as the dense fill of SvecSupport.slack gives it: a
    support of every position whose cvec is ``values``, and y = 0, so S = C
    exactly, signed zeros included."""
    n = tri_order(values.size)
    support = SvecSupport(n, *svec_indices(n), values, sp.csc_matrix((values.size, 1)))
    return support.slack(np.zeros(1))


def random_sym(rng, n, density=1.0):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    if density < 1.0:
        mask = rng.random((n, n)) < density
        mask = mask | mask.T
        a = a * mask
    return a


@pytest.mark.parametrize("call,message", [
    (lambda: SymMatrix.from_dense(np.zeros((2, 3))), "matrix must be square"),
    (lambda: ConstraintOperator(3, 2, sp.csc_matrix((5, 2))),
     "avec shape does not match (n, m)"),
    (lambda: ConstraintOperator.from_matrices(3, [np.eye(3), np.eye(2)]),
     "constraint matrix dimension mismatch"),
    (lambda: extreme_eigs(np.eye(3), 0), "need 1 <= r <= n"),
    (lambda: extreme_eigs(np.eye(3), 4), "need 1 <= r <= n"),
], ids=["from-dense-not-square", "avec-shape", "from-matrices-order",
        "eigs-r-zero", "eigs-r-above-n"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestSvecBasics:
    def test_tri_dim_and_order(self):
        assert tri_dim(1) == 1
        assert tri_dim(4) == 10
        assert tri_order(10) == 4
        with pytest.raises(ValueError):
            tri_order(11)

    def test_svec_position_matches_indices(self):
        rows, cols, _ = svec_indices(6)
        pos = svec_position(6, rows, cols)
        assert np.array_equal(pos, np.arange(tri_dim(6)))

    @pytest.mark.parametrize("n", [1, 6, 10_000])
    def test_indices_at_positions_invert_svec_position(self, n):
        # any positions, in any order, each diagonal one and its neighbours
        rng = np.random.default_rng(n)
        j = np.arange(n)
        diag = svec_position(n, j, j)
        pos = np.concatenate([rng.integers(0, tri_dim(n), 50), diag, diag[1:] - 1])
        rows, cols, scale = svec_indices(n, pos)
        assert np.all(rows >= cols) and np.all(rows < n)
        assert np.array_equal(svec_position(n, rows, cols), pos)
        assert np.array_equal(scale, np.where(rows == cols, 1.0, np.sqrt(2.0)))

    def test_indices_match_the_search_oracle(self):
        # every position of every order up to 120, and of order 4,000 in
        # blocks of 8,192 positions
        def same(n, pos):
            got, want = svec_indices(n, pos), svec_indices_by_search(n, pos)
            return all(a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(got, want))

        assert all(same(n, np.arange(tri_dim(n))) for n in range(121))
        n = 4000
        assert all(same(n, np.arange(s, min(s + 8192, tri_dim(n))))
                   for s in range(0, tri_dim(n), 8192))

    def test_indices_exact_at_the_largest_order(self):
        # n(n+1) just fits in int64 here, the largest block the SDPA reader
        # takes; the float root is one off near each column's ends
        n = 3_037_000_499
        dim = tri_dim(n)
        rng = np.random.default_rng(0)
        j = np.concatenate([np.arange(3), n - 1 - np.arange(3),
                            rng.integers(0, n, 2000)])
        diag = svec_position(n, j, j)
        pos = np.concatenate([diag, diag[diag > 0] - 1, diag[diag < dim - 1] + 1,
                              [dim - 1], rng.integers(0, dim, 10_000)])
        rows, cols, scale = svec_indices(n, pos)
        assert np.all((0 <= cols) & (cols <= rows) & (rows < n))
        assert np.array_equal(svec_position(n, rows, cols), pos)
        assert np.array_equal(scale, np.where(rows == cols, 1.0, np.sqrt(2.0)))

    def test_identity_svec(self):
        # svec(I_2) = [1, 0, 1]: diagonal kept as-is, off-diagonal scaled
        v = svec(np.eye(2))
        assert np.allclose(v.values, [1.0, 0.0, 1.0])

    def test_offdiagonal_scaling(self):
        a = np.array([[0.0, 3.0], [3.0, 0.0]])
        v = svec(a)
        assert v.values[1] == pytest.approx(3.0 * np.sqrt(2.0))

    def test_inner_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_sym(rng, 7)
            b = random_sym(rng, 7)
            assert svec(a).values @ svec(b).values == pytest.approx(
                np.trace(a @ b), abs=1e-12
            )


class TestRoundtrip:
    def test_svec_smat_exact_on_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_sym(rng, 9, density=0.4)
            back = smat(svec(a)).to_dense()
            assert np.array_equal(back, a)

    def test_smat_svec_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.standard_normal(tri_dim(8))
            m = smat(v)
            assert np.array_equal(svec(m).values, v)

    def test_roundtrip_from_symmatrix(self):
        m = SymMatrix(3, rows=[1, 2, 2], cols=[0, 1, 2], vals=[0.3, -1.1, 2.0])
        back = smat(svec(m))
        assert np.array_equal(back.to_dense(), m.to_dense())

    def test_smat_plain_array(self):
        v = np.array([1.0, np.sqrt(2.0), 4.0])
        m = smat(v).to_dense()
        assert m[0, 0] == 1.0 and m[1, 1] == 4.0
        assert m[1, 0] == pytest.approx(1.0, abs=1e-15)


class TestSymMatrix:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SymMatrix(3, rows=[1, 1], cols=[0, 0], vals=[1.0, 2.0])

    def test_rejects_upper_triangle(self):
        with pytest.raises(ValueError, match="row >= col"):
            SymMatrix(3, rows=[0], cols=[1], vals=[1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(2, rows=[0], cols=[0], vals=[np.nan])

    @pytest.mark.parametrize("rows,cols,field", [
        ([2.5], [0.9], "rows"),
        ([1], [0.0], "cols"),
        ([True], [0], "rows"),
        ([np.nan], [0], "rows"),
    ], ids=["float-rows", "float-cols", "bool-rows", "nan-rows"])
    def test_takes_integer_indices_only(self, rows, cols, field):
        # a float index was truncated: rows = 2.5, cols = 0.9 stored (2, 0)
        with pytest.raises(ValueError, match=f"{field} must hold integers"):
            SymMatrix(3, rows, cols, [1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SymMatrix(2, rows=[2], cols=[0], vals=[1.0])

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_dense_roundtrip_and_trace(self):
        rng = np.random.default_rng(3)
        a = random_sym(rng, 6, density=0.5)
        m = SymMatrix.from_dense(a)
        assert np.array_equal(m.to_dense(), a)
        assert m.trace() == pytest.approx(np.trace(a), abs=1e-14)

    def test_smat_dense_matches_smat(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(tri_dim(7))
        assert np.allclose(smat_dense(v), smat(v).to_dense(), atol=1e-15)


class TestConstraintOperator:
    def make_op(self, rng, n=6, m=4, density=0.5):
        mats = [SymMatrix.from_dense(random_sym(rng, n, density))
                for _ in range(m)]
        return ConstraintOperator.from_matrices(n, mats), mats

    def test_apply_matches_brute_force(self):
        rng = np.random.default_rng(5)
        op, mats = self.make_op(rng)
        x = random_sym(rng, 6)
        want = [np.trace(a.to_dense() @ x) for a in mats]
        assert np.allclose(apply_A(op, x), want, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        op, _ = self.make_op(rng)
        for _ in range(20):
            x = random_sym(rng, 6)
            y = rng.standard_normal(4)
            lhs = apply_A(op, x) @ y
            rhs = np.trace(smat(op.avec @ y).to_dense() @ x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constraint_matrix_roundtrip(self):
        rng = np.random.default_rng(7)
        op, mats = self.make_op(rng)
        for i, a in enumerate(mats):
            assert np.allclose(op.constraint_matrix(i).to_dense(),
                               a.to_dense(), atol=1e-14)

    def test_norm_estimate(self):
        rng = np.random.default_rng(9)
        op, _ = self.make_op(rng)
        exact = np.linalg.svd(op.avec.toarray(), compute_uv=False)[0]
        assert norm_estimate(op) == pytest.approx(exact, rel=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        op, _ = self.make_op(rng)
        with pytest.raises(ValueError):
            apply_A(op, np.zeros(tri_dim(5)))

    @pytest.mark.parametrize("k,rows,cols,pos,vals,message", [
        ([0], [0], [1], [7], [1.0], "entries must satisfy row >= col"),
        ([0], [3], [0], [6], [1.0], "index out of range"),
        ([0], [0], [-1], [-1], [1.0], "index out of range"),
        ([0], [0], [0], [0], [np.nan], "non-finite entry"),
        ([0], [1], [0], [1], [-np.inf], "non-finite entry"),
        ([0, 0], [0, 1], [0], [0], [1.0, 1.0], "must have equal length"),
        ([0, 0], [0], [0], [0], [1.0], "k must hold one constraint index in"),
        ([1], [0], [0], [0], [1.0], "k must hold one constraint index in"),
        ([-1], [0], [0], [0], [1.0], "k must hold one constraint index in"),
    ], ids=["upper-triangle", "row-n", "negative-col", "nan", "inf",
            "ragged-entries", "ragged-k", "k-m", "negative-k"])
    def test_from_entries_rejects_what_symmatrix_rejects(self, k, rows, cols, pos,
                                                         vals, message):
        # n = 3, m = 1: from_entries takes the svec positions of SymMatrix's
        # (rows, cols), 0 to 5; an entry above the diagonal has no position,
        # so one past the triangle stands in for it.  Without these checks
        # the entry (0, 1) would be stored at (2, 0), and a row of 3 at (1, 1)
        positional = "index out of range" if message.startswith("entries") else message
        with pytest.raises(ValueError, match=re.escape(positional)):
            ConstraintOperator.from_entries(3, 1, k, pos, vals)
        if not message.startswith("k "):
            with pytest.raises(ValueError, match=re.escape(message)):
                SymMatrix(3, rows, cols, vals)

    @pytest.mark.parametrize("k,pos,field", [
        ([0], [1.9], "pos"),
        ([0.7], [0], "k"),
        ([True], [0], "k"),
        ([0], [np.nan], "pos"),
    ], ids=["float-pos", "float-k", "bool-k", "nan-pos"])
    def test_from_entries_takes_integer_indices_only(self, k, pos, field):
        # a float index was truncated: k = 0.7 landed in A_1, True in A_2
        with pytest.raises(ValueError, match=f"{field} must hold integers"):
            ConstraintOperator.from_entries(3, 2, k, pos, [1.0])

    def test_empty_entries_of_any_dtype(self):
        op = ConstraintOperator.from_entries(3, 2, [], np.array([], dtype=float), [])
        assert op.avec.nnz == 0 and op.avec.shape == (6, 2)
        assert ConstraintOperator.from_entries(0, 1, [], [], []).avec.shape == (0, 1)

    @pytest.mark.parametrize("convert,kind", [
        (sp.csr_matrix, "csr"), (sp.coo_matrix, "coo"), (lambda a: a.toarray(), "ndarray"),
    ], ids=["csr", "coo", "dense"])
    def test_avec_must_be_csc(self, convert, kind):
        # entries() and SvecSupport read indptr as columns
        avec = ConstraintOperator.from_entries(3, 2, [0, 1], [0, 2], [1.0, 2.0]).avec
        with pytest.raises(ValueError, match=f"avec must be a scipy.sparse CSC matrix, not {kind}"):
            ConstraintOperator(3, 2, convert(avec))


    @pytest.mark.parametrize("key,vals,message", [
        ([12], [1.0], "index out of range"),
        ([-1], [1.0], "index out of range"),
        ([0], [np.inf], "non-finite entry"),
        ([0, 1], [1.0], "key, vals must have equal length"),
        ([0.5], [1.0], "key must hold integers"),
    ], ids=["key-m-dim", "negative-key", "inf", "ragged", "float-key"])
    def test_from_keys_rejects(self, key, vals, message):
        # n = 3, m = 2: the keys k * 6 + pos run from 0 to 11
        with pytest.raises(ValueError, match=re.escape(message)):
            ConstraintOperator.from_keys(3, 2, key, vals)

    def test_from_keys_builds_what_from_entries_builds(self):
        # out of order, with repeats and zeros: the keys are the entries'
        rng = np.random.default_rng(11)
        k, pos = rng.integers(0, 3, 200), rng.integers(0, tri_dim(5), 200)
        vals = rng.integers(-2, 3, 200) / 4.0
        a = ConstraintOperator.from_entries(5, 3, k, pos, vals).avec
        b = ConstraintOperator.from_keys(5, 3, k * tri_dim(5) + pos, vals).avec
        assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)
        assert 0.0 not in a.data and a.has_canonical_format


    @pytest.mark.parametrize("n,m", [(130, 3), (20, 122)],
                             ids=["block-of-dim", "block-of-8192"])
    def test_repeats_and_zeros_across_blocks(self, n, m):
        # runs of one key about 9 long (pairwise-summed above 8) straddle
        # block ends, and the values cancel to exact zeros in some runs.
        # n = 130 takes blocks of dim = 8,515 entries, one column each;
        # n = 20 (dim = 210) takes the floor of 8,192 entries, so one block
        # spans about 35 columns, with every 7th column left empty
        dim = tri_dim(n)
        step = max(dim, 8192)
        rng = np.random.default_rng(5)
        key = np.sort(rng.integers(0, m * dim // 8, 30_000)) * 8
        key = key[(key // dim) % 7 != 3] if step > dim else key
        vals = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 0.1], key.size)
        assert key.size > 3 * step and key[step] == key[step - 1]
        assert all(key[j] == key[j - 1] for j in range(dim, key.size, dim)
                   if step == dim)
        a = ConstraintOperator.from_keys(n, m, key, vals).avec
        data, indices, indptr = compressed_by_masks(dim, m, key, vals, n)
        assert np.array_equal(a.data.view(np.int64), data.view(np.int64))
        assert np.array_equal(a.indices, indices) and np.array_equal(a.indptr, indptr)
        # out of order, and with the values of the sorted keys only
        shuffled = rng.permutation(key.size)
        b = ConstraintOperator.from_keys(n, m, key[shuffled], vals[shuffled]).avec
        data, *_ = compressed_by_masks(dim, m, key[shuffled], vals[shuffled], n)
        assert np.array_equal(b.data.view(np.int64), data.view(np.int64))


class TestConstructorsOwnTheirArrays:
    """Writing to the arrays a constructor was given changes nothing it
    built: entries already in svec order skip the sort, not the copy."""

    ENTRIES = ([0, 1, 2, 2], [0, 0, 1, 2], [1.0, 2.0, 3.0, 4.0])  # svec order

    @staticmethod
    def unshared(built, given):
        return not any(np.shares_memory(a, b) for a in built for b in given)

    def given(self, order, index):
        """The entries as views of longer arrays, as the SDPA reader's C
        is, in svec order or reversed."""
        step = 1 if order == "svec" else -1
        return [np.array(a + a, dtype=d)[:4][::step]
                for a, d in zip(self.ENTRIES, (index, index, np.float64))]

    @pytest.mark.parametrize("order", ["svec", "reversed"])
    @pytest.mark.parametrize("index", [np.int64, np.int32])
    def test_sym_matrix(self, order, index):
        given = self.given(order, index)
        m = SymMatrix(3, *given)
        want = [a.copy() for a in (m.rows, m.cols, m.vals)]
        for a in given:
            a[:] = 1
        for a, b in zip((m.rows, m.cols, m.vals), want):
            assert np.array_equal(a, b)
        assert np.array_equal(m.rows, self.ENTRIES[0])  # canonical order
        assert self.unshared((m.rows, m.cols, m.vals), given)

    @pytest.mark.parametrize("order", ["svec", "reversed"])
    @pytest.mark.parametrize("by", ["entries", "keys"])
    def test_constraint_operator(self, order, by):
        rows, cols, vals = self.given(order, np.int64)
        k = np.array([0, 1, 1, 1, 0, 0, 0, 0])[:4][::1 if order == "svec" else -1]
        pos = svec_position(3, rows, cols)
        given = [k, pos, vals] if by == "entries" else [k * tri_dim(3) + pos, vals]
        op = (ConstraintOperator.from_entries(3, 2, *given) if by == "entries"
              else ConstraintOperator.from_keys(3, 2, *given))
        a = op.avec
        want = [x.copy() for x in (a.data, a.indices, a.indptr)]
        for x in given:
            x[:] = 1
        for x, y in zip((a.data, a.indices, a.indptr), want):
            assert np.array_equal(x, y)
        assert self.unshared((a.data, a.indices, a.indptr), given)


class TestExtremeEigs:
    def test_dense_path_smallest(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 40)
        res = extreme_eigs(a, 3)
        want = np.sort(np.linalg.eigvalsh(a))[:3]
        assert np.allclose(res.values, want, atol=1e-10)
        for i in range(3):
            v = res.vectors[:, i]
            resid = np.linalg.norm(a @ v - res.values[i] * v)
            assert resid <= 1e-9 * (1 + abs(res.values[i]))

    def test_sparse_path_residuals(self):
        rng = np.random.default_rng(13)
        n = 500
        d = sp.random(n, n, density=0.01, random_state=14,
                      data_rvs=rng.standard_normal)
        a = ((d + d.T) / 2).tocsr()
        res = extreme_eigs(a, 4)
        dense_vals = np.sort(np.linalg.eigvalsh(a.toarray()))[:4]
        assert np.allclose(res.values, dense_vals, atol=1e-7)
        for i in range(4):
            v = res.vectors[:, i]
            resid = np.linalg.norm(a @ v - res.values[i] * v)
            assert resid <= 1e-9 * (1 + abs(res.values[i]))

    def test_sparse_path_repeats(self):
        # ARPACK starts from a fixed vector, so repeated calls agree bit for bit
        rng = np.random.default_rng(16)
        d = sp.random(500, 500, density=0.01, random_state=17,
                      data_rvs=rng.standard_normal)
        a = ((d + d.T) / 2).tocsr()
        first = extreme_eigs(a, 4)
        again = extreme_eigs(a, 4)
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.vectors, again.vectors)

    def test_values_sorted_ascending(self):
        rng = np.random.default_rng(15)
        a = random_sym(rng, 25)
        res = extreme_eigs(a, 5)
        assert np.all(np.diff(res.values) >= 0)


def separated(rng, n):
    """Symmetric matrix whose eigenvalues lie at least 0.1 apart in [-3, 3]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(-3.0, 3.0, n) + rng.uniform(-0.02, 0.02, n)
    a = (q * vals) @ q.T
    return (a + a.T) / 2


class TestSubsetEigensolve:
    """The dense branch's subset solve against a full np.linalg.eigh."""

    @pytest.mark.parametrize("n, r", [
        (40, "1"), (40, "n-1"), (40, "n"),
        # a dense array takes the dense branch at any order, also above the
        # order up to which dual slacks are stored dense
        (DENSE_EIG_CUTOFF + 1, "1"), (DENSE_EIG_CUTOFF + 1, "n-1"),
        (DENSE_EIG_CUTOFF + 1, "n"),
    ])
    def test_matches_full_eigh(self, n, r):
        r = {"1": 1, "n-1": n - 1, "n": n}[r]
        a = separated(np.random.default_rng(n + r), n)
        vals, vecs = np.linalg.eigh(a)
        res = extreme_eigs(a, r)
        assert res.values.shape == (r,) and res.vectors.shape == (n, r)
        assert np.max(np.abs(res.values - vals[:r])) <= 1e-12
        for i in range(r):
            v, w = res.vectors[:, i], vecs[:, i]
            assert np.max(np.abs(np.outer(v, v) - np.outer(w, w))) <= 1e-10

    @staticmethod
    def spy_on_arpack(monkeypatch):
        calls, real = [], spla.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["k"])
            return real(*args, **kwargs)
        monkeypatch.setattr(spla, "eigsh", counted)
        return calls

    def test_csr_input_takes_arpack(self, monkeypatch):
        # the storage picks the solver, whatever the order
        calls = self.spy_on_arpack(monkeypatch)
        a = random_sym(np.random.default_rng(21), 60, density=0.1)
        res = extreme_eigs(sp.csr_matrix(a), 4)
        again = extreme_eigs(sp.csr_matrix(a), 4)
        assert calls == [4, 4]
        assert np.max(np.abs(res.values - np.linalg.eigvalsh(a)[:4])) <= 1e-10
        assert np.array_equal(res.values, again.values)
        assert np.array_equal(res.vectors, again.vectors)

    def test_csr_input_densified_for_nearly_full_spectrum(self, monkeypatch):
        calls = self.spy_on_arpack(monkeypatch)
        s = sp.csr_matrix(random_sym(np.random.default_rng(25), 60, density=0.1))
        dense = extreme_eigs(s.toarray(), 59)
        res = extreme_eigs(s, 59)
        assert calls == []
        assert np.array_equal(res.values, dense.values)
        assert np.array_equal(res.vectors, dense.vectors)

    def test_residual_check_rejects_wrong_pairs(self, monkeypatch):
        a = separated(np.random.default_rng(22), 30)
        real = sla.eigh

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals, vecs + 1e-6
        monkeypatch.setattr(sla, "eigh", perturbed)
        with pytest.raises(EigenConvergenceError) as err:
            extreme_eigs(a, 3)
        assert 1e-7 < err.value.best_residual < 1e-4
        # the message names the worst pair's residual and its bound
        named = re.fullmatch(r"eigenpair residual (\S+) above its bound (\S+)",
                             str(err.value))
        assert named and float(named[1]) > float(named[2]) >= linalg.EIG_TOL

    def test_residual_bound_applies_to_dense_branch(self, monkeypatch):
        a = separated(np.random.default_rng(23), 30)
        monkeypatch.setattr(linalg, "EIG_TOL", 1e-30)
        with pytest.raises(EigenConvergenceError) as err:
            extreme_eigs(a, 3)
        assert 0.0 < err.value.best_residual < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_eigen_error(self, bad):
        # LAPACK returns no pairs for it rather than failing
        a = separated(np.random.default_rng(24), 30)
        a[3, 7] = a[7, 3] = bad
        with pytest.raises(EigenConvergenceError, match="returned 0 of 3"):
            extreme_eigs(a, 3)

    def test_lapack_failure_raises_eigen_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(sla, "eigh", failing)
        with pytest.raises(EigenConvergenceError, match="LAPACK"):
            extreme_eigs(np.eye(5), 2)

    @pytest.mark.parametrize("pairs", ["partial", "empty", "none"])
    def test_arpack_failure_raises_eigen_error(self, monkeypatch, pairs):
        # ARPACK hands back the pairs it has; the error reports the worst
        # residual among them
        a = random_sym(np.random.default_rng(26), 60, density=0.1)
        vals, vecs = np.linalg.eigh(a)
        vecs = vecs[:, :2].copy()
        vecs[0, 1] += 1e-3  # the second pair is off
        given = {"partial": (vals[:2], vecs), "empty": (vals[:0], vecs[:, :0]),
                 "none": (None, None)}[pairs]

        def failing(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", *given)
        monkeypatch.setattr(spla, "eigsh", failing)
        with pytest.raises(EigenConvergenceError) as err:
            extreme_eigs(sp.csr_matrix(a), 3)
        message = "Lanczos failed to converge for 3 smallest eigenpairs"
        if pairs == "partial":
            want = np.linalg.norm(a @ vecs - vecs * vals[:2], axis=0)
            assert want[0] < 1e-12 < 1e-4 < want[1]
            assert err.value.best_residual == pytest.approx(want[1], rel=1e-12)
            # the message names the residual too
            assert str(err.value) == f"{message} (largest residual {want[1]:.1e})"
        else:
            assert str(err.value) == message
            assert err.value.best_residual is None


class TestSmatDense:
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_matches_two_index_scatter(self, n):
        # the flat-index fill against a scatter through two 2-D fancy indexes
        values = np.random.default_rng(n).standard_normal(tri_dim(n))
        values[::5] = 0.0
        values[1::7] = -0.0
        rows, cols, scale = svec_indices(n)
        want = np.zeros((n, n))
        want[rows, cols] = values / scale
        want[cols, rows] = values / scale
        got = smat_dense(values)
        assert got.shape == (n, n) and got.flags.f_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
