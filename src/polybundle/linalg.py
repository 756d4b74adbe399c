"""Symmetric-matrix vectorization and the linear constraint operator.

Conventions: a symmetric matrix A is stored through its lower triangle
(row >= col).  svec stacks the lower triangle column-wise, keeping diagonal
entries and scaling off-diagonal entries by sqrt(2), so that
svec(A) . svec(B) equals the trace inner product <A, B>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # the kernels of scipy's sparse products

SQRT2 = np.sqrt(2.0)

DENSE_EIG_CUTOFF = 400  # dual slacks up to this order are stored dense
EIG_TOL = 1e-9
LANCZOS_MAX_RESTARTS = 300
LSQR_TOL = 1e-14  # atol and btol of the least-squares dual's LSQR
SUPPORT_BLOCK = 8192  # support positions per block of the column images


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


def svec_indices(n: int, pos: np.ndarray | None = None):
    """(rows, cols, scale) at the svec positions ``pos`` of order n (default:
    all): pos[k] is matrix position (rows[k], cols[k]), rows[k] >= cols[k],
    and scale[k] is sqrt(2) off the diagonal and 1 on it.

    The inverse of svec_position in closed form, with no table of order n:
    counted from the last position, q = n(n+1)/2 - 1 - pos lies in column
    n - 1 - k for the triangular root k of q, the largest k with
    k(k+1)/2 <= q, and q - k(k+1)/2 rows above the last row.  The float
    root (sqrt(8q + 1) - 1) / 2 is never below k, since a correctly rounded
    sqrt gives back an odd m < 2^33 from the rounded m^2, and it is at most
    k + 1, so one step down in int64 arithmetic makes it exact while n(n+1)
    fits in int64 (n <= 3,037,000,499).  The steps work in place, so a
    call holds about one int64 array beside its results."""
    pos = np.arange(tri_dim(n)) if pos is None else np.asarray(pos, dtype=np.int64)
    q = (tri_dim(n) - 1) - pos
    root = 8.0 * q
    root += 1.0
    np.sqrt(root, out=root)
    root -= 1.0
    root /= 2.0
    k = root.astype(np.int64)
    del root
    k -= _triangle(k) > q  # k <= n here, so no product overflows
    q -= _triangle(k)
    rows = np.subtract(n - 1, q, out=q)
    cols = np.subtract(n - 1, k, out=k)
    return rows, cols, np.where(rows == cols, 1.0, SQRT2)


def _triangle(k: np.ndarray) -> np.ndarray:
    """k(k+1)/2 for an int64 array k, in one new array."""
    t = k + 1
    t *= k
    t //= 2
    return t


def svec_position(n: int, row: int | np.ndarray, col: int | np.ndarray):
    """Index within svec(n) of lower-triangle position (row, col), row >= col."""
    return col * n - (col * (col - 1)) // 2 + (row - col)


def _index_array(name: str, a) -> np.ndarray:
    """``a`` as an int64 array: one of an integer dtype (bool is not), or an
    empty one of any dtype; else a ValueError naming it."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def _checked_entries(n: int, rows, cols, vals):
    """(rows, cols, vals) as int64, int64 and float64 arrays of equal length,
    with 0 <= col <= row < n and finite values; else a ValueError."""
    rows, cols = _index_array("rows", rows), _index_array("cols", cols)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols, vals must have equal length")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0:
            raise ValueError("index out of range")
        if np.any(rows < cols):
            raise ValueError("entries must satisfy row >= col")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entry")
    return rows, cols, vals


def _compressed(n: int, m: int, key: np.ndarray, vals: np.ndarray) -> sp.csc_matrix:
    """The n(n+1)/2 x m CSC matrix with vals[e] times the svec scale of
    order n at row pos and column k, where key[e] = k * n(n+1)/2 + pos
    (int64), built in column order.

    The entries are sorted stably by key only when they come out of order
    and scaled; repeats are then summed in their given order, as a COO
    matrix's ``sum_duplicates`` does, and entries that are then zero are
    not stored (``_squeezed``).  ``indptr`` is read from the sorted keys,
    and the positions and their scale are formed in blocks of
    max(dim, 8192) entries, so no full-length table of them is held.
    Neither key nor vals is written.
    """
    dim = tri_dim(n)
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        del order
    # scipy's own choice of index type, so that no index array is copied
    idx = np.int32 if max(dim, m, key.size) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(key.size, dtype=idx)
    data = np.empty(key.size)
    # a block costs O(its entries) memory at any n; the floor keeps small
    # blocks from a Python iteration per entry
    step = max(dim, 8192)
    for s in range(0, key.size, step):
        e = slice(s, s + step)
        pos = key[e] % dim
        indices[e] = pos
        _svec_scaled(vals[e], svec_indices(n, pos)[2], out=data[e])
        del pos
    if np.any(key[1:] == key[:-1]) or not data.all():
        indices, data, indptr = _squeezed(m, dim, key, indices, data, step)
    else:
        indptr = np.searchsorted(key, np.arange(m + 1) * dim)
    a = sp.csc_matrix((data, indices, indptr.astype(idx)), shape=(dim, m))
    a.has_canonical_format = True
    return a


def _svec_scaled(vals: np.ndarray, scale: np.ndarray, out=None) -> np.ndarray:
    """The finite values ``vals`` times their svec scale, or a ValueError
    when a product overflows: an off-diagonal entry above DBL_MAX/sqrt(2),
    about 1.27e308, has no finite svec value."""
    with np.errstate(over="ignore"):
        out = np.multiply(scale, vals, out=out)
    if not np.isfinite(out).all():
        raise ValueError("off-diagonal entry above DBL_MAX/sqrt(2) (about "
                         "1.27e308): its svec value overflows")
    return out


def _squeezed(m: int, dim: int, key: np.ndarray, indices: np.ndarray,
              data: np.ndarray, step: int):
    """(indices, data, indptr) of the entries at the sorted keys ``key``,
    each run of one key summed in its given order by ``np.add.reduceat``
    and the sums that are zero dropped.  ``indices`` and ``data`` are
    compacted in place, in blocks of about ``step`` entries that end with a
    whole run, so each sum reads the entries a whole-array reduceat would;
    the results are views of them.  ``key`` is not written, and no
    full-length copy or mask is held: ``indptr`` is the running count of
    the kept entries in each column."""
    count = np.zeros(m + 1, dtype=np.int64)
    w = s = 0
    while s < key.size:
        e = int(np.searchsorted(key, key[min(s + step, key.size) - 1], side="right"))
        run = key[s:e]
        first = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1])))
        sums = np.add.reduceat(data[s:e], first)
        kept = sums != 0.0
        first = first[kept]
        c = first.size
        data[w:w + c] = sums[kept]
        indices[w:w + c] = indices[s + first]
        if c:
            cols = run[first] // dim
            count[1 + cols[0]:2 + cols[-1]] += np.bincount(cols - cols[0])
        w, s = w + c, e
    return indices[:w], data[:w], np.cumsum(count)


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
        entries = _checked_entries(self.n, self.rows, self.cols, self.vals)
        # canonical column-major lower-triangle order; detects duplicates
        key = svec_position(self.n, *entries[:2])
        if np.any(key[1:] <= key[:-1]):
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate (row, col) entry")
            entries = [a[order] for a in entries]
        else:  # already in order: no sort, but no array the caller holds either
            entries = [a.copy() for a in entries]
        for name, a in zip(("rows", "cols", "vals"), entries):
            object.__setattr__(self, name, a)

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
        """The n x n array; for c08, c11 and the oracles of
        ``tests/test_problems.py``, ``tests/test_linalg.py`` and
        ``tests/test_solver.py``, not the solver."""
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def svec_values(self) -> np.ndarray:
        """The stored entries times their svec scale; ValueError when one
        overflows (``_svec_scaled``)."""
        return _svec_scaled(self.vals, np.where(self.rows == self.cols, 1.0, SQRT2))

    def trace(self) -> float:
        """The sum of the diagonal entries; for c08 and
        ``tests/test_problems.py``, not the solver."""
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

    ``avec`` is a scipy.sparse CSC matrix of shape (n(n+1)/2, m); column i
    is svec(A_i).  Linear independence of the A_i is assumed, not checked.
    An ``avec`` with unsorted indices or repeats is replaced by a canonical
    copy, by COO's ``sum_duplicates`` (repeats summed in stored order) and
    ``eliminate_zeros``; the caller's matrix is untouched.
    """

    n: int
    m: int
    avec: sp.csc_matrix

    def __post_init__(self):
        if not (sp.issparse(self.avec) and self.avec.format == "csc"):
            kind = self.avec.format if sp.issparse(self.avec) else type(self.avec).__name__
            raise ValueError(f"avec must be a scipy.sparse CSC matrix, not {kind}")
        if self.avec.shape != (tri_dim(self.n), self.m):
            raise ValueError("avec shape does not match (n, m)")
        if not self.avec.has_canonical_format:
            a = self.avec.tocoo()  # a copy
            a.sum_duplicates()
            a.eliminate_zeros()
            object.__setattr__(self, "avec", a.tocsc())

    @classmethod
    def from_entries(cls, n: int, m: int, k, pos, vals) -> "ConstraintOperator":
        """Operator whose A_{k+1} has the entry vals at svec position pos:
        ``from_keys`` of the keys ``k * n(n+1)/2 + pos``.  k and pos must be
        integer arrays with each k in [0, m) and each pos in
        [0, n(n+1)/2), and each value finite; else a ValueError.
        """
        k, pos = _index_array("k", k), _index_array("pos", pos)
        vals = np.asarray(vals, dtype=np.float64)
        dim = tri_dim(n)
        if pos.shape != vals.shape:
            raise ValueError("pos, vals must have equal length")
        if k.shape != pos.shape or k.size and not 0 <= k.min() <= k.max() < m:
            raise ValueError("k must hold one constraint index in [0, m) per entry")
        if pos.size and not 0 <= pos.min() <= pos.max() < dim:
            raise ValueError("index out of range")
        return cls.from_keys(n, m, k * dim + pos, vals)

    @classmethod
    def from_keys(cls, n: int, m: int, key, vals) -> "ConstraintOperator":
        """Operator whose A_{k+1} has the entry vals[e] at svec position pos,
        where key[e] = k * n(n+1)/2 + pos: one int64 key per entry.

        Built straight into CSC arrays in column order, with no COO matrix:
        keys that already rise, as the generator and the SDPA reader give
        them, cost no sort.  Repeated keys are summed, and entries that are
        then zero are not stored.  key must be an integer array with each
        key in [0, m n(n+1)/2), and each value finite; else a ValueError.
        """
        key = _index_array("key", key)
        vals = np.asarray(vals, dtype=np.float64)
        dim = tri_dim(n)
        if key.shape != vals.shape:
            raise ValueError("key, vals must have equal length")
        if key.size:
            if not 0 <= key.min() <= key.max() < m * dim:
                raise ValueError("index out of range")
            if not np.all(np.isfinite(vals)):
                raise ValueError("non-finite entry")
        return cls(n, m, _compressed(n, m, key, vals))

    @classmethod
    def from_matrices(cls, n: int, mats) -> "ConstraintOperator":
        """Operator whose A_{i+1} is ``mats[i]`` (a SymMatrix or dense); for
        ``tests/sdpa_reference.py`` and fixtures in test_bundle and test_linalg."""
        mats = [a if isinstance(a, SymMatrix) else SymMatrix.from_dense(a) for a in mats]
        if any(a.n != n for a in mats):
            raise ValueError("constraint matrix dimension mismatch")
        key = np.concatenate([k * tri_dim(n) + svec_position(n, a.rows, a.cols)
                              for k, a in enumerate(mats)])
        vals = np.concatenate([a.vals for a in mats])
        return cls.from_keys(n, len(mats), key, vals)

    def entries(self, start: int = 0, stop: int | None = None):
        """(k, pos, vals) with A_{k+1} holding vals at svec position pos.

        The stored entries start:stop of avec, read from its CSC arrays in
        constraint and svec position order; there are at most ``avec.nnz``
        of them.  The values are unscaled, and those that are then zero are
        left out.
        """
        a = self.avec
        lo, hi, _ = slice(start, stop).indices(a.nnz)
        pos = a.indices[lo:hi]
        k = np.searchsorted(a.indptr, np.arange(lo, hi), side="right") - 1
        vals = a.data[lo:hi] / svec_indices(self.n, pos)[2]
        keep = vals != 0.0
        return k[keep], pos[keep], vals[keep]

    def constraint_matrix(self, i: int) -> SymMatrix:
        """A_{i+1}; for c08 and ``tests/sdpa_reference.py``, not the solver."""
        return smat(np.asarray(self.avec[:, i].todense()).ravel())


@dataclass(frozen=True)
class SvecSupport:
    """The svec positions where C has a nonzero entry or some A_i a stored
    one, as their ``rows`` and ``cols``, with the data there: svec(C) as
    ``cvec`` and the rows of ``avec``.

    No other position enters <C, X>, A(X) or S = C - A'y.  When C's nonzero
    entries fill every position, the support holds C's ``rows`` and
    ``cols`` and the operator's own ``avec``, not copies.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    cvec: np.ndarray
    avec: sp.csc_matrix

    @classmethod
    def of(cls, op: ConstraintOperator, c: SymMatrix) -> "SvecSupport":
        n, a = op.n, op.avec
        used = c.vals != 0.0
        if np.count_nonzero(used) == tri_dim(n):
            return cls(n, c.rows, c.cols, c.svec_values(), a)
        cpos = svec_position(n, c.rows, c.cols)
        used |= np.isin(cpos, a.indices)  # a zero of C there keeps its sign
        cpos = cpos[used]
        pos = np.union1d(cpos, a.indices)
        rows, cols, _ = svec_indices(n, pos)
        cvec = np.zeros(pos.size)
        cvec[np.searchsorted(pos, cpos)] = c.svec_values()[used]
        # renumber the stored rows of avec in order, so each column keeps
        # its entry order and A(X) its summation order
        avec = sp.csc_matrix((a.data, np.searchsorted(pos, a.indices), a.indptr),
                             shape=(pos.size, op.m))
        return cls(n, rows, cols, cvec, avec)

    @cached_property
    def least_squares_dual(self) -> np.ndarray | None:
        """A read-only y_LS = argmin ||C - A'y||_F, or None when it is not
        finite; kept on this support, so for the one solve that takes it.

        On the support this is argmin ||cvec - avec y||_2, which LSQR finds
        from products with avec and its transpose alone: O(nnz) memory and
        no m x m Gram matrix.  The iteration stops at relative tolerances
        LSQR_TOL, or after scipy's default of 2m steps.
        """
        import scipy.sparse.linalg as spla  # loads with the first solve

        y = spla.lsqr(self.avec, self.cvec, atol=LSQR_TOL, btol=LSQR_TOL)[0]
        if not np.all(np.isfinite(y)):
            return None
        y.setflags(write=False)
        return y

    @cached_property
    def _flat(self):
        """Flat positions of the entries in an n x n array, and of their mirrors."""
        return self.rows * self.n + self.cols, self.cols * self.n + self.rows

    def slack(self, y: np.ndarray):
        """S = C - A'y: a dense array up to order DENSE_EIG_CUTOFF, CSR above
        it, without the exact zeros; ``extreme_eigs`` picks its eigensolver
        from this storage.

        It unscales as ``rank_one`` scales: by sqrt(2), with the diagonal
        rows copied back.  The dense array is column-major, the transposed
        view of an exactly symmetric fill, so it holds the same values and
        LAPACK's copy of it needs no transpose.
        """
        n = self.n
        raw = self.cvec - self.avec @ y
        vals = raw / SQRT2
        vals[self._diagonal] = raw[self._diagonal]
        if n <= DENSE_EIG_CUTOFF:
            lower, upper = self._flat
            s = np.zeros(n * n)
            s[lower] = vals
            s[upper] = vals
            return s.reshape(n, n).T
        nz = vals != 0.0
        rows, cols, vals = self.rows[nz], self.cols[nz], vals[nz]
        off = rows != cols
        return sp.csr_matrix(
            (np.concatenate([vals, vals[off]]),
             (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
            shape=(n, n))

    def rank_one(self, p: np.ndarray, lo: int = 0, hi: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Column i is svec(p_i p_i') at the support's positions lo:hi
        (default: all), for the columns p_i of p: a (positions, columns)
        block in C order, ``out`` when given, gathered by rows from a
        C-ordered copy of p, whatever p's layout."""
        pc = np.ascontiguousarray(p)
        if pc.ndim != 2 or pc.shape[0] != self.n:
            raise ValueError("p must be an n x l matrix")
        # every row index is below n, so "clip" never acts; it spares the
        # buffered copy that the default mode makes of ``out``
        block = np.take(pc, self.rows[lo:hi], axis=0, out=out, mode="clip")
        block *= np.take(pc, self.cols[lo:hi], axis=0, mode="clip")
        # times the scale: sqrt(2) over the whole contiguous block, then the
        # diagonal rows, whose scale is 1, formed again; the bits of a
        # product with scale[:, None], at a third of its cost
        block *= SQRT2
        diag = self._diagonal
        diag = diag[np.searchsorted(diag, lo):np.searchsorted(diag, block.shape[0] + lo)]
        on_diag = np.take(pc, self.rows[diag], axis=0)
        block[diag - lo] = on_diag * on_diag
        return block

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """The support's diagonal positions, the ones whose scale is 1."""
        return np.flatnonzero(self.rows == self.cols)

    def column_images(self, p: np.ndarray):
        """(a, B) = (Pvec' cvec, avec' Pvec) for Pvec = ``rank_one(p)``.

        B is summed one block of positions at a time (``_blocks``): each
        block's rows of Pvec are formed and, while they are in cache,
        sparsetools' ``csr_matvecs``, the kernel of ``avec.T @ Pvec``, adds
        their share into B.  The kernel adds into its output, so each
        B[i, j] is summed over the positions of A_i in ascending order, as
        one product over the whole support sums it, bit for bit; at one
        column it adds in the order of ``csr_matvec``, the kernel scipy
        runs for a vector.  a is one gemv over the whole of Pvec.
        """
        pc = np.ascontiguousarray(p)
        m, l = self.avec.shape[1], pc.shape[1]
        pvec = np.empty((self.rows.size, l))
        b = np.zeros((m, l))
        for lo, hi, indptr, indices, data in self._blocks:
            part = self.rank_one(pc, lo, hi, out=pvec[lo:hi])
            _sparsetools.csr_matvecs(m, hi - lo, l, indptr, indices, data,
                                     part.ravel(), b.ravel())
        return pvec.T @ self.cvec, b

    @cached_property
    def _blocks(self) -> list[tuple]:
        """avec' as CSR blocks over runs of SUPPORT_BLOCK consecutive
        positions, each (lo, hi, indptr, indices, data) with the indices
        counted from lo.

        The blocks are the row bands of one CSR matrix of the blocks
        stacked as rows, so their ``indptr`` are views that point into
        shared ``indices`` and ``data``: each stored entry held once, 12
        bytes with int32 indices, and m offsets a block.  sparsetools' COO
        to CSR conversion, a counting sort that keeps the order of each
        row's entries, builds it in O(nnz + m blocks); a support of one
        block gets a copy of avec's arrays.
        """
        a = self.avec
        dim, m = a.shape
        nb = -(-dim // SUPPORT_BLOCK)
        idx = np.int32 if max(nb * m, a.nnz) < np.iinfo(np.int32).max else np.int64
        # entry e of A_k in block b goes to row b*m + k, at column pos - lo
        col = (a.indices // SUPPORT_BLOCK).astype(idx, copy=False)
        row = np.repeat(np.arange(m, dtype=idx), np.diff(a.indptr))
        row += col * m
        col *= -SUPPORT_BLOCK
        col += a.indices
        indptr = np.empty(nb * m + 1, dtype=idx)
        indices, data = np.empty(a.nnz, dtype=idx), np.empty_like(a.data)
        _sparsetools.coo_tocsr(nb * m, SUPPORT_BLOCK, a.nnz, row, col, a.data,
                               indptr, indices, data)
        return [(lo, min(lo + SUPPORT_BLOCK, dim), indptr[b * m:(b + 1) * m + 1],
                 indices, data)
                for b, lo in enumerate(range(0, dim, SUPPORT_BLOCK))]


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
    matrix, which is densified for nearly full spectra (r > n - 2); one
    with no stored entry has the pairs (0, e_1), ..., (0, e_r).  Every
    returned pair satisfies ||S v - lambda v|| <= EIG_TOL * (1 + |lambda|),
    or EigenConvergenceError is raised, as on any LAPACK or ARPACK failure.
    """
    import scipy.linalg as sla  # LAPACK and ARPACK load with the first solve
    import scipy.sparse.linalg as spla

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

    if mat.nnz == 0:  # ARPACK stops on it with its error -9
        return _certified(mat, np.zeros(r), np.eye(n, r))
    # a fixed start vector makes repeated calls, and so whole solves, repeat
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(
            mat, k=r, which="SA", v0=v0, maxiter=LANCZOS_MAX_RESTARTS * n,
        )
    except spla.ArpackNoConvergence as exc:
        msg, best = f"Lanczos failed to converge for {r} smallest eigenpairs", None
        if exc.eigenvalues is not None and exc.eigenvalues.size:
            res = mat @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues
            best = float(np.linalg.norm(res, axis=0).max())
            msg += f" (largest residual {best:.1e})"
        raise EigenConvergenceError(msg, best_residual=best) from exc
    except spla.ArpackError as exc:  # a NaN or an inf in S, among others
        raise EigenConvergenceError(
            f"Lanczos failed for {r} smallest eigenpairs: {exc}") from exc
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
