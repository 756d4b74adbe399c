"""Symmetric-matrix vectorization and the linear constraint operator.

Conventions: a symmetric matrix A is stored through its lower triangle
(row >= col).  svec stacks the lower triangle column-wise, keeping diagonal
entries and scaling off-diagonal entries by sqrt(2), so that
svec(A) . svec(B) equals the trace inner product <A, B>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SQRT2 = np.sqrt(2.0)

DENSE_EIG_CUTOFF = 400  # dense eigendecomposition below this dimension
EIG_TOL = 1e-9
LANCZOS_MAX_RESTARTS = 300


class EigenConvergenceError(RuntimeError):
    """Raised when the iterative eigensolver fails its residual bound."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


def tri_dim(n: int) -> int:
    """Length of the svec of an n x n symmetric matrix."""
    return n * (n + 1) // 2


def tri_order(dim: int) -> int:
    """Matrix order n with n(n+1)/2 == dim, or ValueError."""
    n = int(round((np.sqrt(8.0 * dim + 1.0) - 1.0) / 2.0))
    if n * (n + 1) // 2 != dim:
        raise ValueError(f"{dim} is not a triangular number")
    return n


@lru_cache(maxsize=64)
def svec_indices(n: int):
    """(rows, cols, scale) arrays for the svec ordering of order n.

    Entry k of an svec corresponds to matrix position (rows[k], cols[k]) with
    rows[k] >= cols[k]; scale[k] is sqrt(2) off the diagonal and 1 on it.
    """
    rows = np.concatenate([np.arange(j, n) for j in range(n)])
    cols = np.repeat(np.arange(n), np.arange(n, 0, -1))
    scale = np.where(rows == cols, 1.0, SQRT2)
    for a in (rows, cols, scale):
        a.setflags(write=False)
    return rows, cols, scale


def svec_position(n: int, row: int | np.ndarray, col: int | np.ndarray):
    """Index within svec(n) of lower-triangle position (row, col), row >= col."""
    return col * n - (col * (col - 1)) // 2 + (row - col)


@dataclass(frozen=True)
class SymMatrix:
    """Sparse symmetric matrix stored as a lower-triangular coordinate list."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    # Exact svec companion: set when this matrix was produced by smat() so
    # the svec/smat pair stays a bit-exact bijection (see smat()).
    svec_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n or cols.min() < 0:
                raise ValueError("index out of range")
            if np.any(rows < cols):
                raise ValueError("entries must satisfy row >= col")
            if not np.all(np.isfinite(vals)):
                raise ValueError("non-finite entry")
        # canonical column-major lower-triangle order; detects duplicates
        key = svec_position(self.n, rows, cols)
        order = np.argsort(key, kind="stable")
        key = key[order]
        if key.size and np.any(np.diff(key) == 0):
            raise ValueError("duplicate (row, col) entry")
        object.__setattr__(self, "rows", rows[order])
        object.__setattr__(self, "cols", cols[order])
        object.__setattr__(self, "vals", vals[order])

    @classmethod
    def from_dense(cls, a: np.ndarray, keep_zeros: bool = False) -> "SymMatrix":
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if not np.array_equal(a, a.T):
            if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
                raise ValueError("matrix is not symmetric")
        rows, cols, _ = svec_indices(n)
        vals = a[rows, cols]
        if not keep_zeros:
            nz = vals != 0.0
            rows, cols, vals = rows[nz], cols[nz], vals[nz]
        return cls(n, rows.copy(), cols.copy(), vals)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    def to_csr(self) -> sp.csr_matrix:
        off = self.rows != self.cols
        r = np.concatenate([self.rows, self.cols[off]])
        c = np.concatenate([self.cols, self.rows[off]])
        v = np.concatenate([self.vals, self.vals[off]])
        return sp.csr_matrix((v, (r, c)), shape=(self.n, self.n))

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def trace(self) -> float:
        d = self.rows == self.cols
        return float(self.vals[d].sum())


@dataclass(frozen=True)
class SvecVector:
    """Dense vector in svec ordering.

    ``raw`` holds the unscaled lower-triangle entries when the vector was
    produced by svec(); smat() uses it to undo the sqrt(2) scaling without a
    rounding step, keeping svec and smat exact mutual inverses.
    """

    values: np.ndarray
    raw: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", tri_order(values.size))

    @property
    def dim(self) -> int:
        return self.values.size


def svec(m: SymMatrix | np.ndarray) -> SvecVector:
    """Column-wise lower-triangle stacking with sqrt(2) on off-diagonals."""
    if isinstance(m, SymMatrix):
        if m.svec_cache is not None:
            return SvecVector(m.svec_cache.copy())
        _, _, scale = svec_indices(m.n)
        out = np.zeros(tri_dim(m.n))
        raw = np.zeros(tri_dim(m.n))
        pos = svec_position(m.n, m.rows, m.cols)
        raw[pos] = m.vals
        out[pos] = m.vals * scale[pos]
        return SvecVector(out, raw=raw)
    a = np.asarray(m, dtype=np.float64)
    rows, cols, scale = svec_indices(a.shape[0])
    raw = a[rows, cols]
    return SvecVector(raw * scale, raw=raw)


def smat(v: SvecVector | np.ndarray) -> SymMatrix:
    """Inverse of svec.  Exact on svec outputs via the stored raw entries."""
    if isinstance(v, SvecVector):
        values, raw = v.values, v.raw
    else:
        values, raw = np.atleast_1d(np.asarray(v, dtype=np.float64)), None
    n = tri_order(values.size)
    rows, cols, scale = svec_indices(n)
    entries = raw if raw is not None else values / scale
    nz = entries != 0.0
    return SymMatrix(n, rows[nz].copy(), cols[nz].copy(), entries[nz],
                     svec_cache=values.copy())


def smat_dense(values: np.ndarray) -> np.ndarray:
    """Dense n x n matrix from a scaled svec array (fast internal path)."""
    values = np.asarray(values, dtype=np.float64)
    n = tri_order(values.size)
    rows, cols, scale = svec_indices(n)
    entries = values / scale
    a = np.zeros((n, n))
    a[rows, cols] = entries
    a[cols, rows] = entries
    return a


@dataclass(frozen=True)
class ConstraintOperator:
    """The map A(X) = [<A_1,X>, ..., <A_m,X>] in stacked-svec form.

    ``avec`` has shape (n(n+1)/2, m); column i is svec(A_i).  Linear
    independence of the A_i is assumed, not checked.
    """

    n: int
    m: int
    avec: sp.csc_matrix

    def __post_init__(self):
        if self.avec.shape != (tri_dim(self.n), self.m):
            raise ValueError("avec shape does not match (n, m)")

    @classmethod
    def from_matrices(cls, n: int, mats) -> "ConstraintOperator":
        cols = []
        for a in mats:
            if isinstance(a, SymMatrix):
                if a.n != n:
                    raise ValueError("constraint matrix dimension mismatch")
                _, _, scale = svec_indices(n)
                pos = svec_position(n, a.rows, a.cols)
                col = sp.csc_matrix(
                    (a.vals * scale[pos], (pos, np.zeros(pos.size, dtype=np.int64))),
                    shape=(tri_dim(n), 1),
                )
            else:
                col = sp.csc_matrix(svec(a).values.reshape(-1, 1))
            cols.append(col)
        return cls(n, len(cols), sp.hstack(cols, format="csc"))

    def constraint_matrix(self, i: int) -> SymMatrix:
        return smat(np.asarray(self.avec[:, i].todense()).ravel())

    def norm_estimate(self, iters: int = 100, seed: int = 0) -> float:
        """Operator norm of A (= largest singular value of avec) by power iteration."""
        rng = np.random.default_rng(seed)
        g = self.avec.T @ self.avec  # m x m
        y = rng.standard_normal(self.m)
        y /= np.linalg.norm(y)
        lam = 0.0
        for _ in range(iters):
            y2 = g @ y
            lam = float(np.linalg.norm(y2))
            if lam == 0.0:
                return 0.0
            y = y2 / lam
        return float(np.sqrt(lam))


def apply_A(op: ConstraintOperator, x) -> np.ndarray:
    """A(X) for X given as a SymMatrix, dense matrix, or svec array."""
    if isinstance(x, SymMatrix):
        vec = svec(x).values
    elif isinstance(x, SvecVector):
        vec = x.values
    else:
        x = np.asarray(x, dtype=np.float64)
        vec = svec(x).values if x.ndim == 2 else x
    if vec.size != tri_dim(op.n):
        raise ValueError("dimension mismatch in apply_A")
    return op.avec.T @ vec


def apply_At(op: ConstraintOperator, y: np.ndarray) -> SymMatrix:
    """Adjoint A^T y = sum_i y_i A_i as a SymMatrix."""
    return smat(apply_At_svec(op, y))


def apply_At_svec(op: ConstraintOperator, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.size != op.m:
        raise ValueError("dimension mismatch in apply_At")
    return op.avec @ y


def apply_At_dense(op: ConstraintOperator, y: np.ndarray) -> np.ndarray:
    return smat_dense(apply_At_svec(op, y))


@dataclass(frozen=True)
class EigenResult:
    """r extreme eigenpairs; values ascending for smallest, descending for largest."""

    values: np.ndarray
    vectors: np.ndarray


def _as_operator(s):
    if isinstance(s, SymMatrix):
        return s.to_csr(), s.n
    if sp.issparse(s):
        return s.tocsr(), s.shape[0]
    a = np.asarray(s, dtype=np.float64)
    return a, a.shape[0]


def extreme_eigs(s, r: int, which: str = "smallest",
                 eig_tol: float = EIG_TOL) -> EigenResult:
    """r extreme eigenpairs of a symmetric matrix.

    Dense eigendecomposition for n <= 400 (or nearly full spectra); thick
    restarted Lanczos (ARPACK) otherwise.  Every returned pair satisfies
    ||S v - lambda v|| <= eig_tol * (1 + |lambda|).
    """
    if which not in ("smallest", "largest"):
        raise ValueError("which must be 'smallest' or 'largest'")
    mat, n = _as_operator(s)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")

    if n <= DENSE_EIG_CUTOFF or r > n - 2:
        dense = mat.toarray() if sp.issparse(mat) else mat
        vals, vecs = np.linalg.eigh(dense)
        if which == "smallest":
            vals, vecs = vals[:r], vecs[:, :r]
        else:
            vals, vecs = vals[::-1][:r], vecs[:, ::-1][:, :r]
        return EigenResult(vals.copy(), vecs.copy())

    ncv = min(max(4 * r, 20), n)
    # a fixed start vector makes repeated calls, and so whole solves, repeat
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(
            mat, k=r, which="SA" if which == "smallest" else "LA",
            ncv=ncv, v0=v0, maxiter=LANCZOS_MAX_RESTARTS * n, tol=0,
        )
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and exc.eigenvalues.size:
            res = mat @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues
            best = float(np.linalg.norm(res, axis=0).max())
        raise EigenConvergenceError(
            f"Lanczos failed to converge for {r} {which} eigenpairs",
            best_residual=best,
        ) from exc
    order = np.argsort(vals)
    if which == "largest":
        order = order[::-1]
    vals, vecs = vals[order], vecs[:, order]
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    bound = eig_tol * (1.0 + np.abs(vals))
    if np.any(res > bound):
        raise EigenConvergenceError(
            "eigenpair residual above tolerance", best_residual=float(res.max())
        )
    return EigenResult(vals, vecs)
