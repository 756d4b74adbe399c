"""Symmetric-matrix vectorization and the linear constraint operator.

Conventions: a symmetric matrix A is stored through its lower triangle
(row >= col).  svec stacks the lower triangle column-wise, keeping diagonal
entries and scaling off-diagonal entries by sqrt(2), so that
svec(A) . svec(B) equals the trace inner product <A, B>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SQRT2 = np.sqrt(2.0)

DENSE_EIG_CUTOFF = 400  # dual slacks up to this order are stored dense
EIG_TOL = 1e-9
LANCZOS_MAX_RESTARTS = 300


class EigenConvergenceError(RuntimeError):
    """Raised when an eigensolver fails or a pair fails its residual bound."""

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
    def from_dense(cls, a: np.ndarray) -> "SymMatrix":
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if not np.array_equal(a, a.T):
            if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
                raise ValueError("matrix is not symmetric")
        rows, cols, _ = svec_indices(n)
        vals = a[rows, cols]
        nz = vals != 0.0
        return cls(n, rows[nz], cols[nz], vals[nz])

    @classmethod
    def from_svec(cls, values: np.ndarray) -> "SymMatrix":
        """The nonzero entries of a scaled svec array, with no svec companion."""
        return cls(*_svec_entries(np.asarray(values, dtype=np.float64)))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

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


def svec(m: SymMatrix | np.ndarray) -> SvecVector:
    """Column-wise lower-triangle stacking with sqrt(2) on off-diagonals."""
    if isinstance(m, SymMatrix):
        if m.svec_cache is not None:
            return SvecVector(m.svec_cache.copy())
        _, _, scale = svec_indices(m.n)
        raw = np.zeros(tri_dim(m.n))
        raw[svec_position(m.n, m.rows, m.cols)] = m.vals
        return SvecVector(raw * scale, raw=raw)
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
    return SymMatrix(*_svec_entries(values, raw), svec_cache=values.copy())


def _svec_entries(values: np.ndarray, raw: np.ndarray | None = None):
    """(n, rows, cols, vals): the nonzero lower-triangle entries of a scaled
    svec array, unscaled exactly through ``raw`` when it is given."""
    n = tri_order(values.size)
    rows, cols, scale = svec_indices(n)
    entries = raw if raw is not None else values / scale
    nz = entries != 0.0
    return n, rows[nz], cols[nz], entries[nz]


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
    def from_entries(cls, n: int, m: int, k, rows, cols, vals) -> "ConstraintOperator":
        """Operator whose A_{k+1} has the entry vals at (rows, cols), row >= col.

        Repeated (k, row, col) entries are summed, and entries that are
        then zero are not stored.
        """
        _, _, scale = svec_indices(n)
        pos = svec_position(n, rows, cols)
        avec = sp.csc_matrix((vals * scale[pos], (pos, k)), shape=(tri_dim(n), m))
        avec.eliminate_zeros()
        return cls(n, m, avec)

    @classmethod
    def from_matrices(cls, n: int, mats) -> "ConstraintOperator":
        mats = [a if isinstance(a, SymMatrix) else SymMatrix.from_dense(a) for a in mats]
        if any(a.n != n for a in mats):
            raise ValueError("constraint matrix dimension mismatch")
        k = np.repeat(np.arange(len(mats)), [a.nnz for a in mats])
        rows, cols, vals = (np.concatenate([getattr(a, f) for a in mats])
                            for f in ("rows", "cols", "vals"))
        return cls.from_entries(n, len(mats), k, rows, cols, vals)

    def entries(self):
        """(k, rows, cols, vals) with A_{k+1}[rows, cols] = vals, row >= col.

        Sorted by constraint and svec position, repeats summed, values
        unscaled; entries that are zero after unscaling are left out.
        """
        a = self.avec.T.tocoo()
        a.sum_duplicates()
        rows, cols, scale = svec_indices(self.n)
        vals = a.data / scale[a.col]
        keep = vals != 0.0
        pos = a.col[keep]
        return a.row[keep], rows[pos], cols[pos], vals[keep]

    def constraint_matrix(self, i: int) -> SymMatrix:
        """A_{i+1}; for c08 and ``tests/sdpa_reference.py``, not the solver."""
        return smat(np.asarray(self.avec[:, i].todense()).ravel())


@dataclass(frozen=True)
class SvecSupport:
    """The svec positions where C or some A_i has a stored entry, as their
    ``rows``, ``cols`` and ``scale`` from ``svec_indices``, with the data
    there: the entries of ``cvec`` and the rows of ``avec``.

    No other position enters <C, X>, A(X) or S = C - A'y.  When the support
    is every position, the fields are ``svec_indices(n)`` and the problem's
    own arrays, not copies.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    scale: np.ndarray
    cvec: np.ndarray
    avec: sp.csc_matrix

    @classmethod
    def of(cls, op: ConstraintOperator, cvec: np.ndarray) -> "SvecSupport":
        cvec = np.asarray(cvec, dtype=np.float64)
        used = cvec != 0.0
        used[op.avec.indices] = True
        rows, cols, scale = svec_indices(op.n)
        if used.all():
            return cls(op.n, rows, cols, scale, cvec, op.avec)
        pos = np.flatnonzero(used)
        # renumber the stored rows of avec in order, so each column keeps
        # its entry order and A(X) its summation order
        renumber = np.cumsum(used) - 1
        avec = sp.csc_matrix(
            (op.avec.data, renumber[op.avec.indices], op.avec.indptr),
            shape=(pos.size, op.m))
        return cls(op.n, rows[pos], cols[pos], scale[pos], cvec[pos], avec)

    @cached_property
    def _flat(self):
        """Flat positions of the entries in an n x n array, and of their mirrors."""
        return self.rows * self.n + self.cols, self.cols * self.n + self.rows

    def slack(self, y: np.ndarray):
        """S = C - A'y: a dense array up to order DENSE_EIG_CUTOFF, CSR above
        it, without the exact zeros; ``extreme_eigs`` picks its eigensolver
        from this storage."""
        n = self.n
        vals = (self.cvec - self.avec @ y) / self.scale
        if n <= DENSE_EIG_CUTOFF:
            lower, upper = self._flat
            s = np.zeros(n * n)
            s[lower] = vals
            s[upper] = vals
            return s.reshape(n, n)
        nz = vals != 0.0
        rows, cols, vals = self.rows[nz], self.cols[nz], vals[nz]
        off = rows != cols
        return sp.csr_matrix(
            (np.concatenate([vals, vals[off]]),
             (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
            shape=(n, n))

    def rank_one(self, p: np.ndarray) -> np.ndarray:
        """Column i is svec(p_i p_i') at the support's positions.

        One column at a time: gathering from a contiguous vector and
        multiplying in place is two to three times faster than gathering
        whole rows of p, with the same bits.
        """
        out = np.empty((self.rows.size, p.shape[1]))
        for i, col in enumerate(p.T):
            col = np.ascontiguousarray(col)
            entries = col[self.rows]
            entries *= col[self.cols]
            entries *= self.scale
            out[:, i] = entries
        return out


def apply_A(op: ConstraintOperator, x) -> np.ndarray:
    """A(X) for X given as a SymMatrix, dense matrix, or svec array."""
    if isinstance(x, SymMatrix):
        vec = svec(x).values
    else:
        x = np.asarray(x, dtype=np.float64)
        vec = svec(x).values if x.ndim == 2 else x
    if vec.size != tri_dim(op.n):
        raise ValueError("dimension mismatch in apply_A")
    return op.avec.T @ vec


@dataclass(frozen=True)
class EigenResult:
    """The r smallest eigenpairs, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


def extreme_eigs(s, r: int) -> EigenResult:
    """The r smallest eigenpairs of a symmetric matrix, values ascending.

    The storage picks the solver: LAPACK computes just the r wanted pairs of
    a dense array, and thick restarted Lanczos (ARPACK) those of a sparse
    matrix, which is densified for nearly full spectra (r > n - 2).
    Every returned pair satisfies ||S v - lambda v|| <= EIG_TOL * (1 + |lambda|),
    or EigenConvergenceError is raised.
    """
    sparse = sp.issparse(s)
    mat = s.tocsr() if sparse else np.asarray(s, dtype=np.float64)
    n = mat.shape[0]
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")

    if not sparse or r > n - 2:
        dense = mat.toarray() if sparse else mat
        try:
            vals, vecs = sla.eigh(dense, subset_by_index=[0, r - 1],
                                  driver="evr", check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(
                f"LAPACK failed to compute {r} smallest eigenpairs") from exc
        if vals.size != r:
            # dsyevr returns no pairs for a matrix with a NaN or an inf
            raise EigenConvergenceError(
                f"LAPACK returned {vals.size} of {r} smallest eigenpairs")
        return _certified(dense, vals, vecs)

    ncv = min(max(4 * r, 20), n)
    # a fixed start vector makes repeated calls, and so whole solves, repeat
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(
            mat, k=r, which="SA", ncv=ncv, v0=v0,
            maxiter=LANCZOS_MAX_RESTARTS * n, tol=0,
        )
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and exc.eigenvalues.size:
            res = mat @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues
            best = float(np.linalg.norm(res, axis=0).max())
        raise EigenConvergenceError(
            f"Lanczos failed to converge for {r} smallest eigenpairs",
            best_residual=best,
        ) from exc
    order = np.argsort(vals)
    return _certified(mat, vals[order], vecs[:, order])


def _certified(mat, vals: np.ndarray, vecs: np.ndarray) -> EigenResult:
    """The pairs, once each meets the residual bound of ``extreme_eigs``."""
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    bound = EIG_TOL * (1.0 + np.abs(vals))
    if not np.all(res <= bound):
        worst = np.argmax(res / bound)  # a NaN ratio is the first maximum
        raise EigenConvergenceError(
            f"eigenpair residual {res[worst]:.3g} above its bound "
            f"{bound[worst]:.3g}", best_residual=float(res.max()))
    return EigenResult(vals, vecs)
