"""Instance generation and I/O for standard-form SDPs.

Provides a planted-solution random sparse generator, a Max-Cut relaxation
builder, the Gset plain-text graph format, single-block SDPA sparse files
(.dat-s), and a JSON manifest sidecar for generated instances.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ConstraintOperator,
    SymMatrix,
    apply_A,
    svec,
    svec_indices,
    svec_position,
    tri_dim,
)


class ParseError(ValueError):
    """Malformed instance or graph file."""


class UnsupportedFormat(ParseError):
    """Recognized but out-of-scope file variant (e.g. multi-block SDPA)."""


@dataclass
class SdpProblem:
    """Standard-form SDP data: min <C,X> s.t. A(X) = b, X PSD."""

    n: int
    m: int
    C: SymMatrix
    op: ConstraintOperator
    b: np.ndarray
    name: str = ""
    known_trace: float | None = None
    known_rank: int | None = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.C.n != self.n or self.op.n != self.n:
            raise ValueError("dimension mismatch between C and the operator")
        if self.op.m != self.m or self.b.shape != (self.m,):
            raise ValueError("m does not match the operator or b (a vector of m)")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        self.C.svec_values()  # a ValueError when one overflows

    @property
    def cvec(self) -> np.ndarray:
        """svec(C), formed on each read: the solver reads the support's."""
        return svec(self.C).values


@dataclass
class PlantedSolution:
    """Generator ground truth: X* of rank r, S* of rank n - r, dual y*."""

    X_star: SymMatrix
    y_star: np.ndarray
    S_star: SymMatrix
    kappa_X: float
    kappa_S: float


def _is_count(value) -> bool:
    """The integer rule of every count, size and vertex label: an int or a
    numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value, alternatives: str = ""):
    """``value`` if ``_is_count`` holds for it; else a ValueError naming it."""
    if _is_count(value):
        return value
    raise ValueError(f"{name} must be an integer{alternatives}, not {value!r}")


def _real(name: str, value):
    """``value`` if it is an int or a float, numpy ones included, not a bool:
    the rule of every real setting; else a ValueError naming it."""
    if _is_count(value) or isinstance(value, (float, np.floating)):
        return value
    raise ValueError(f"{name} must be a real number, not {value!r}")


def _floats(value) -> np.ndarray:
    """A JSON number, or a vector or matrix of them, as a float array; numpy
    alone would also read a string or a bool as a number."""
    leaves = np.asarray(value, dtype=object)
    if leaves.ndim > 2 or not {type(v) for v in leaves.flat} <= {int, float}:
        raise ValueError("not a JSON number, or a vector or matrix of them")
    return leaves.astype(np.float64)


class EdgeError(ValueError):
    """A graph edge that fails a check; ``index`` is its position in the
    edge list, which ``load_gset`` maps back to the line it was read from."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


_EDGES = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])  # i j w


def _edge_array(edges) -> tuple[np.ndarray, EdgeError | None]:
    """A list of (i, j, w) as an _EDGES array, up to its first edge with a
    label that is not an integer (``_is_count``) or not an int64, and that
    edge's EdgeError; the whole list and None if there is no such edge."""
    error = None
    for k, (i, j, w) in enumerate(edges):
        math.isfinite(w)  # a TypeError on a weight that is not a real number
        if not (_is_count(i) and _is_count(j)):
            error = EdgeError(k, f"edge ({i},{j}) has a non-integer vertex label")
        elif not -2**63 <= min(i, j) <= max(i, j) < 2**63:
            error = EdgeError(k, f"edge ({i},{j}) out of range")
        if error:
            edges = edges[:k]
            break
    return np.array([tuple(e) for e in edges], dtype=_EDGES), error


@dataclass
class GraphInstance:
    """Undirected weighted graph with 1-based vertex labels.

    ``edges`` is an _EDGES array, the (i, j, w) of each edge (int64 labels,
    float64 weights); a list of (i, j, w) is converted once.  The checks
    run over the arrays and raise at the first edge that fails one, with
    the message of its first failed check."""

    n_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        if _count("n_vertices", self.n_vertices) < 1:
            raise ValueError(f"{self.n_vertices} vertices; need at least 1")
        edges, error = self.edges, None
        if not (isinstance(edges, np.ndarray) and edges.dtype == _EDGES):
            edges, error = _edge_array(edges)
        i, j, w = edges["i"], edges["j"], edges["w"]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # an edge repeats one when an earlier edge has its key, the svec
        # position of its lower-triangle entry; a stable sort puts it later
        key = svec_position(self.n_vertices, hi - 1, lo - 1)
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(key.size, dtype=bool)
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
        checks = [((lo < 1) | (hi > self.n_vertices), "edge ({},{}) out of range"),
                  (i == j, "self-loop at vertex {}"),
                  (~np.isfinite(w), "non-finite weight on edge ({},{})"),
                  (repeat, "duplicate edge ({},{})")]
        if (bad := np.any([c[0] for c in checks], axis=0)).any():
            k = int(np.argmax(bad))  # the first bad edge, and its first failed check
            raise EdgeError(k, next(msg for c, msg in checks if c[k]).format(i[k], j[k]))
        if error:
            raise error
        self.edges = edges

    def __eq__(self, other):
        return (isinstance(other, GraphInstance) and self.n_vertices == other.n_vertices
                and np.array_equal(self.edges, other.edges))


def _sparse_symmetric_lower(rng: np.random.Generator, n: int,
                            density: float, ensure_nonzero: bool = False):
    """svec positions of the lower triangle and N(0,1) values there, at the
    given density.

    Draw order: one Bernoulli mask over the column-major lower triangle,
    then the normal values for the selected entries.
    """
    nt = tri_dim(n)
    mask = rng.random(nt) < density
    if ensure_nonzero and not mask.any():
        mask[rng.integers(nt)] = True
    pos = np.flatnonzero(mask)
    return pos, rng.standard_normal(pos.size)


def generate_random_sdp(n: int, m: int, r: int, sparsity: float, s: float,
                        seed: int) -> tuple[SdpProblem, PlantedSolution]:
    """Random sparse SDP with a planted strictly complementary optimum.

    Construction: a sparse symmetric G with standard-normal nonzeros is
    shifted to X = s*(G + |lambda_min(G)| I) + I, which is positive definite
    with eigenvalues s*(lambda_i + |lambda_min|) + 1 >= 1.  The r largest
    eigenpairs form X*, the remaining n - r form S*, so <X*, S*> = 0 and
    rank(X*) + rank(S*) = n.  Trace-zero sparse constraint matrices
    A_i = s * A_bar_i and a normal y* complete the data via C = S* + A'y*
    and b = A(X*).  Deterministic in the seed at a fixed OpenBLAS thread
    count, since X* and S* come from eigh and gemm; draw order: G, then each
    A_bar_i in turn, drawn again while its trace-free values are all zero,
    then y*.  Each A_bar_i is kept as its keys (i - 1) n(n+1)/2 + svec
    position and its values alone, and ``ConstraintOperator.from_keys``
    builds the CSC operator from them in column order, with no sort.
    """
    if not 1 <= _count("r", r) < _count("n", n):
        raise ValueError("need 1 <= r < n")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must lie in (0, 1]")
    if not 0 < s < math.inf:
        raise ValueError("s must be finite and positive")
    if _count("m", m) < 1:
        raise ValueError("m must be at least 1")
    if _count("seed", seed) < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)

    g_pos, g_vals = _sparse_symmetric_lower(rng, n, sparsity)

    # each A_bar_{k+1} as its keys and values only, which rise with k and
    # the position, the order from_keys stores them in
    dim = tri_dim(n)
    on_diag = np.zeros(dim, dtype=bool)
    on_diag[svec_position(n, np.arange(n), np.arange(n))] = True
    keys, values = [], []
    while len(keys) < m:
        pos, av = _sparse_symmetric_lower(rng, n, sparsity, ensure_nonzero=True)
        diag = on_diag[pos]
        if diag.any():
            av[diag] -= av[diag].mean()
        if av.any():  # a draw the trace-free shift zeroes is drawn again
            av *= s
            nz = av != 0.0  # the shift zeroes a lone diagonal entry
            keys.append(pos[nz] + len(keys) * dim)
            values.append(av[nz])
    del on_diag
    key = np.concatenate(keys)
    del keys
    vals = np.concatenate(values)
    del values
    op = ConstraintOperator.from_keys(n, m, key, vals)
    del key, vals

    # G's eigenpairs take no draw, so the dense matrices wait until the
    # operator's entries are gone; g, evecs and each planted matrix go as
    # soon as they are used, before SymMatrix.from_dense's n x n temporaries
    g = np.zeros((n, n))
    rows, cols, _ = svec_indices(n, g_pos)
    g[rows, cols] = g_vals
    g[cols, rows] = g_vals
    del rows, cols
    evals, evecs = np.linalg.eigh(g)
    del g
    shifted = s * (evals + abs(evals[0])) + 1.0  # ascending, all >= 1
    kappa_x = float(shifted[-1] / shifted[n - r])
    kappa_s = float(shifted[n - r - 1] / shifted[0])

    top = slice(n - r, n)
    rest = slice(0, n - r)
    dense = (evecs[:, top] * shifted[top]) @ evecs[:, top].T
    x_star, known_trace = SymMatrix.from_dense(dense), float(np.trace(dense))
    del dense
    dense = (evecs[:, rest] * shifted[rest]) @ evecs[:, rest].T
    del evecs
    s_star = SymMatrix.from_dense(dense)
    del dense

    y_star = rng.standard_normal(m)
    c = SymMatrix.from_svec(svec(s_star).values + op.avec @ y_star)
    b = apply_A(op, x_star)

    problem = SdpProblem(
        n=n, m=m, C=c, op=op, b=b,
        name=f"rand-n{n}-m{m}-r{r}-s{s:g}-seed{seed}",
        known_trace=known_trace, known_rank=r,
    )
    planted = PlantedSolution(X_star=x_star, y_star=y_star, S_star=s_star,
                              kappa_X=kappa_x, kappa_S=kappa_s)
    return problem, planted


def build_maxcut_sdp(g: GraphInstance, sense: str = "maximize") -> SdpProblem:
    """Max-Cut SDP relaxation with X_ii = 1 (m = n): C = -L/4, so that
    min <C, X> maximizes the cut; ``sense`` takes "maximize" alone.  It
    carries no known trace: the solver reads tr X = n from the constraints."""
    if sense != "maximize":
        raise ValueError("sense must be 'maximize'")
    n = g.n_vertices
    i, j, w = g.edges["i"], g.edges["j"], g.edges["w"]
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    # each vertex adds its weights in edge order, as a loop over the edges would
    deg = np.bincount(np.stack([hi, lo], axis=1).ravel(), np.repeat(w, 2), minlength=n)
    diag = np.arange(n)
    vals = -0.25 * np.concatenate([-w, deg])
    keep = vals != 0.0
    c = SymMatrix(n=n, rows=np.concatenate([hi, diag])[keep],
                  cols=np.concatenate([lo, diag])[keep], vals=vals[keep])
    op = ConstraintOperator.from_entries(n, n, diag, svec_position(n, diag, diag), np.ones(n))
    return SdpProblem(n=n, m=n, C=c, op=op, b=np.ones(n), name=f"maxcut-n{n}-{sense}")


def _numbers(lines: list[str], dtype, usecols=None) -> np.ndarray:
    """The rows of ``lines`` by ``np.loadtxt``, blank lines skipped: the one
    number grammar of ``load_sdpa`` and ``load_gset``, which raises a
    ValueError on a line that breaks it.

    A line that is not blank must be plain ASCII: ``int()`` and ``float()``
    would take non-ASCII digits, and loadtxt splits at non-ASCII spaces.  An
    integer written as a float fails under any warning filter."""
    text = "".join(lines)
    if not text or text.isspace():  # loadtxt warns on input of no data
        return np.zeros(0, dtype=dtype)
    if not text.isascii():
        raise ValueError("a character that is not plain ASCII")
    with warnings.catch_warnings():
        # an older numpy reads "1.5" as the integer 1, with only this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, comments=None, usecols=usecols, ndmin=1)


def _rows(lines: list[str], dtype) -> tuple[np.ndarray, int | None]:
    """``_numbers(lines, dtype)`` and None, or, when some line breaks the
    grammar, the rows of the lines before the first that does and its index
    in ``lines``: a block that fails as a whole is parsed again line by line."""
    try:
        return _numbers(lines, dtype), None
    except ValueError:
        rows = [np.zeros(0, dtype=dtype)]
        for k, line in enumerate(lines):
            try:
                rows.append(_numbers([line], dtype))
            except ValueError:
                return np.concatenate(rows), k
        return np.concatenate(rows), None


def load_gset(path: str) -> GraphInstance:
    """Parse a Gset-style graph file: 'n_vertices n_edges' then 'i j w' edge
    lines, all by the grammar of ``_numbers``.  The edge lines go to
    loadtxt whole, and only a failure looks for the line at fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc

    def fail(k, msg):  # k is the index of the line in lines
        return ParseError(f"{path}:{k + 1}: {msg}")

    head = next((k for k, line in enumerate(lines) if not line.isspace()), None)
    if head is None:
        raise ParseError(f"{path}: empty file")
    if len(lines[head].split()) != 2:
        raise fail(head, "expected 'n_vertices n_edges'")
    try:
        n, m = _numbers(lines[head:head + 1], np.int64)
    except ValueError as exc:
        raise fail(head, "non-integer header") from exc
    if n < 1 or m < 0:
        raise fail(head, "need at least one vertex and a nonnegative edge count")
    edges, bad = _rows(lines[head + 1:], _EDGES)
    if bad is not None:
        k = head + 1 + bad
        raise fail(k, "malformed edge line" if len(lines[k].split()) == 3
                   else "expected 'i j w'")
    if edges.size != m:
        raise ParseError(f"{path}: header declares {m} edges, found {edges.size}")
    try:
        return GraphInstance(n_vertices=int(n), edges=edges)
    except EdgeError as exc:  # the header check above covers the vertex count
        # the first nonblank line is the header and each later one an edge
        nonblank = [k for k, line in enumerate(lines) if not line.isspace()]
        raise fail(nonblank[exc.index + 1], exc) from exc


# SDPA sparse format (.dat-s), single semidefinite block.  Entries are
# "matno blkno i j value" with 1-based upper-triangle indices; matno 0 is
# the cost matrix C of the primal minimization min <C,X> s.t. A(X)=b, X PSD
# (the classical SDPA convention phrases the same data as a dual
# maximization; the matrices and vector are stored verbatim either way).

_ENTRY = np.dtype("i8,i8,i8,i8,f8")  # matno blkno i j value
_CHUNK = 8192  # entry lines formatted or parsed at a time
_SKIP = re.compile(r'\s*(["*]|$)').match  # blank and comment lines
_BLANKS = str.maketrans(",(){}", "     ")  # separators a header line may hold


def write_sdpa(problem: SdpProblem, path: str):
    """Write a single-block SDPA sparse file; roundtrips bit-for-bit.

    C's entries go first, then each A_i's, _CHUNK entry lines at a time:
    a chunk is formatted from a slice of C's arrays or of avec's, so no
    more than one chunk of lines is held at once.  A call that does not
    finish removes the file it was writing: SDPA has no entry count, so a
    file cut off at a line boundary would load as a smaller problem.
    """
    c, op = problem.C, problem.op
    # an entry line is five list slots: "matno 1 ", "i ", "j ", repr(value), "\n"
    labels = range(max(problem.m, problem.n) + 1)
    mat_label = np.array([f"{v} 1 " for v in labels], dtype=object)
    index_label = np.array([f"{v} " for v in labels], dtype=object)

    def chunk(matno, lower_rows, lower_cols, vals):
        # stored lower triangle (row >= col) -> 1-based upper triangle (i <= j)
        v = vals.tolist()
        out = ["\n"] * (5 * len(v))
        out[0::5] = mat_label[matno].tolist()
        out[1::5] = index_label[lower_cols + 1].tolist()
        out[2::5] = index_label[lower_rows + 1].tolist()
        out[3::5] = map(repr, v)
        return "".join(out)

    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write('"single-block SDPA sparse; matno 0 is C of min <C,X>, A(X)=b, X>=0\n'
                     f"{problem.m}\n1\n{problem.n}\n"
                     + " ".join(map(repr, problem.b.tolist())) + "\n")
            for s in range(0, c.nnz, _CHUNK):
                e = slice(s, s + _CHUNK)
                fh.write(chunk(np.zeros_like(c.rows[e]), c.rows[e], c.cols[e], c.vals[e]))
            for s in range(0, op.avec.nnz, _CHUNK):
                k, pos, vals = op.entries(s, s + _CHUNK)
                fh.write(chunk(k + 1, *svec_indices(problem.n, pos)[:2], vals))
    except BaseException:
        # only a regular file goes, never a device; the interrupt, not a
        # failed removal, is what propagates
        with contextlib.suppress(OSError):
            if os.path.isfile(path):
                os.remove(path)
        raise


def load_sdpa(path: str) -> SdpProblem:
    """Read any conforming single-block SDPA sparse file (.dat-s).

    Each header line reads ",(){}" as blanks, and every line parses by the
    grammar of ``_numbers``, as ``load_gset``'s lines do.  The body is parsed _CHUNK lines at a time, and of each
    entry only its key matno * n(n+1)/2 + svec position (int64) and its
    value are kept.  The read stops after the chunk that holds the first bad
    line; the duplicate check runs on the sorted keys read by then.
    """
    def data_line(k):  # (line number, text) of data line k, from 0, comments skipped
        with open(path, encoding="utf-8") as fh:
            data = ((no, line) for no, line in enumerate(fh, start=1) if not _SKIP(line))
            return next(itertools.islice(data, k, None))

    def fail(k, msg, cls=ParseError):
        return cls(f"{path}:{data_line(k)[0]}: {msg}")

    def header(k, what, usecols=0, dtype=np.int64):
        """The values of header line k, only the first unless usecols is None."""
        if (line := next(lines, None)) is None:
            raise ParseError(f"{path}: unexpected end of file")
        try:
            values = _numbers([line.translate(_BLANKS)], dtype, usecols)
        except ValueError as exc:
            raise fail(k, f"bad {what}") from exc
        if not values.size:  # a line of separators alone
            raise fail(k, f"bad {what}")
        return values

    try:
        with open(path, encoding="utf-8") as fh:
            lines = itertools.filterfalse(_SKIP, fh)
            m = int(header(0, "constraint count")[0])
            if m < 1:
                raise fail(0, "need at least one constraint")
            if header(1, "block count")[0] != 1:
                raise fail(1, "only single-block files supported", UnsupportedFormat)
            n = int(header(2, "block size")[0])
            if n < 1:
                raise (fail(2, "diagonal blocks not supported", UnsupportedFormat) if n < 0
                       else fail(2, "block size must be positive"))
            dim = tri_dim(n)
            if (m + 1) * dim > np.iinfo(np.int64).max:
                raise fail(2, "block size too large: an entry's key overflows int64")
            b = header(3, "right-hand-side vector", usecols=None, dtype=np.float64)
            if b.size != m:
                raise fail(3, f"expected {m} right-hand-side values")
            # the body in blocks of lines; loadtxt takes a block without a comment
            # character whole.  first is (data line, message, class) of the
            # first bad line, for fail.
            keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
            first, nonfinite, count = None, None, 0
            while first is None and (block := list(itertools.islice(fh, _CHUNK))):
                text = "".join(block)
                if '"' in text or '*' in text:
                    block = list(itertools.filterfalse(_SKIP, block))
                parsed, broken = _rows(block, _ENTRY)
                if broken is not None:  # each data line before it gave one row
                    first = (4 + count + parsed.size,
                             "malformed entry" if len(block[broken].split()) == 5
                             else "expected 'matno blkno i j value'", ParseError)
                matno, blkno, i, j, val = (parsed[f] for f in _ENTRY.names)
                row, col = np.maximum(i, j) - 1, np.minimum(i, j) - 1
                checks = [((matno < 0) | (matno > m), "matrix index {} out of range", ParseError),
                          (blkno != 1, "only block 1 supported", UnsupportedFormat),
                          ((col < 0) | (row >= n), "entry index out of range", ParseError)]
                if (bad := np.any([c[0] for c in checks], axis=0)).any():
                    e = int(np.argmax(bad))  # the first bad entry, and its first failed check
                    _, msg, cls = next(c for c in checks if c[0][e])
                    first = (4 + count + e, msg.format(matno[e]), cls)
                if nonfinite is None and not np.all(np.isfinite(val)):
                    nonfinite = count + int(np.argmin(np.isfinite(val)))
                keys.append(matno * dim + svec_position(n, row, col))
                values.append(val.copy())  # not a view that holds the whole record
                count += parsed.size
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc

    key = np.concatenate(keys)
    del keys
    val = np.concatenate(values)
    del values
    order = None
    if np.any(key[1:] < key[:-1]):  # entries out of (matno, position) order
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
    # a repeated key is reported at its later line, if that comes first
    if (repeat := np.flatnonzero(key[1:] == key[:-1]) + 1).size:
        k = 4 + int(repeat[0] if order is None else order[repeat].min())
        if first is None or k < first[0]:
            _, _, i, j, _ = _numbers([data_line(k)[1]], _ENTRY)[0]
            first = (k, f"duplicate entry ({i},{j})", ParseError)
    if first:
        raise fail(*first)
    # non-finite values come last, once every line is well formed
    if not np.all(np.isfinite(b)):
        raise fail(3, "non-finite right-hand-side value")
    if nonfinite is not None:
        raise fail(4 + nonfinite, "non-finite entry value")

    in_c = int(np.searchsorted(key, dim))  # matno 0 sorts first
    key[in_c:] -= dim  # A_matno is the operator's constraint matno - 1
    op = ConstraintOperator.from_keys(n, m, key[in_c:], val[in_c:])
    rows, cols, _ = svec_indices(n, key[:in_c])
    del key  # before SymMatrix copies C's entries out of val
    c = SymMatrix(n, rows, cols, val[:in_c])
    return SdpProblem(n=n, m=m, C=c, op=op, b=b,
                      name=os.path.splitext(os.path.basename(path))[0])


def write_manifest(path: str, problem: SdpProblem, planted: PlantedSolution,
                   instance_file: str, sparsity: float, s: float, seed: int):
    """JSON sidecar for a generated instance, including the planted dual;
    its rank ``r`` is the instance's ``known_rank``."""
    x = planted.X_star
    doc = {
        "name": problem.name,
        "instance": os.path.basename(instance_file),
        "n": problem.n,
        "m": problem.m,
        "r": problem.known_rank,
        "sparsity": sparsity,
        "s": s,
        "seed": seed,
        "kappa_X": planted.kappa_X,
        "kappa_S": planted.kappa_S,
        "trace_X": problem.known_trace,
        "planted_objective": float(problem.cvec @ svec(x).values),
        "planted_dual_objective": float(problem.b @ planted.y_star),
        "y_star": planted.y_star.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_manifest(path: str) -> tuple[SdpProblem, dict]:
    """Load a generated instance via its manifest; returns (problem, manifest)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON manifest") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: manifest is not a JSON object")
    for key in ("instance", "n", "m", "r"):
        if key not in doc:
            raise ParseError(f"{path}: manifest missing field {key!r}")
    try:
        inst = os.path.join(os.path.dirname(os.path.abspath(path)), doc["instance"])
        if "\0" in inst:
            raise ValueError("instance file name holds a NUL character")
        n, m, rank = (_count(key, doc[key]) for key in ("n", "m", "r"))
        trace_x = doc.get("trace_X")
        if trace_x is not None and (trace_x := _floats(trace_x)).ndim:
            raise ValueError("trace_X is not a number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad manifest field: {exc}") from exc
    if trace_x is not None and not np.isfinite(trace_x):
        raise ParseError(f"{path}: manifest field 'trace_X' is not finite")
    problem = load_sdpa(inst)
    if problem.n != n or problem.m != m:
        raise ParseError(f"{path}: manifest dimensions do not match instance")
    problem.known_rank = rank
    if trace_x is not None:
        problem.known_trace = float(trace_x)
    if doc.get("name"):
        problem.name = doc["name"]
    return problem, doc
