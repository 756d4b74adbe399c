import numpy as np
import pytest
import scipy.sparse as sp

from polybundle.linalg import (
    ConstraintOperator,
    SymMatrix,
    apply_A,
    apply_At,
    apply_At_dense,
    extreme_eigs,
    smat,
    smat_dense,
    svec,
    svec_indices,
    svec_position,
    tri_dim,
    tri_order,
)


def random_sym(rng, n, density=1.0):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    if density < 1.0:
        mask = rng.random((n, n)) < density
        mask = mask | mask.T
        a = a * mask
    return a


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
        assert np.array_equal(m.to_csr().toarray(), a)

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
            rhs = np.trace(apply_At(op, y).to_dense() @ x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constraint_matrix_roundtrip(self):
        rng = np.random.default_rng(7)
        op, mats = self.make_op(rng)
        for i, a in enumerate(mats):
            assert np.allclose(op.constraint_matrix(i).to_dense(),
                               a.to_dense(), atol=1e-14)

    def test_apply_At_dense(self):
        rng = np.random.default_rng(8)
        op, mats = self.make_op(rng)
        y = rng.standard_normal(4)
        want = sum(y[i] * a.to_dense() for i, a in enumerate(mats))
        assert np.allclose(apply_At_dense(op, y), want, atol=1e-12)

    def test_norm_estimate(self):
        rng = np.random.default_rng(9)
        op, _ = self.make_op(rng)
        exact = np.linalg.svd(op.avec.toarray(), compute_uv=False)[0]
        assert op.norm_estimate() == pytest.approx(exact, rel=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        op, _ = self.make_op(rng)
        with pytest.raises(ValueError):
            apply_A(op, np.zeros(tri_dim(5)))
        with pytest.raises(ValueError):
            apply_At(op, np.zeros(3))


class TestExtremeEigs:
    def test_dense_path_smallest(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 40)
        res = extreme_eigs(a, 3, which="smallest")
        want = np.sort(np.linalg.eigvalsh(a))[:3]
        assert np.allclose(res.values, want, atol=1e-10)
        for i in range(3):
            v = res.vectors[:, i]
            resid = np.linalg.norm(a @ v - res.values[i] * v)
            assert resid <= 1e-9 * (1 + abs(res.values[i]))

    def test_dense_path_largest(self):
        rng = np.random.default_rng(12)
        a = random_sym(rng, 30)
        res = extreme_eigs(a, 2, which="largest")
        want = np.sort(np.linalg.eigvalsh(a))[::-1][:2]
        assert np.allclose(res.values, want, atol=1e-10)

    def test_sparse_path_residuals(self):
        rng = np.random.default_rng(13)
        n = 500
        d = sp.random(n, n, density=0.01, random_state=14,
                      data_rvs=rng.standard_normal)
        a = ((d + d.T) / 2).tocsr()
        res = extreme_eigs(a, 4, which="smallest")
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
        first = extreme_eigs(a, 4, which="smallest")
        again = extreme_eigs(a, 4, which="smallest")
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.vectors, again.vectors)

    def test_values_sorted_ascending(self):
        rng = np.random.default_rng(15)
        a = random_sym(rng, 25)
        res = extreme_eigs(a, 5, which="smallest")
        assert np.all(np.diff(res.values) >= 0)
