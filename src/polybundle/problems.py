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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    ConstraintOperator,
    SvecSupport,
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

    @property
    def cvec(self) -> np.ndarray:
        """svec(C), formed on each read: the solver reads the support's."""
        return svec(self.C).values

    @cached_property
    def support(self) -> SvecSupport:
        """``SvecSupport.of(op, C)``, taken on first use."""
        return SvecSupport.of(self.op, self.C)


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


@dataclass
class GraphInstance:
    """Undirected weighted graph with 1-based vertex labels."""

    n_vertices: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        if _count("n_vertices", self.n_vertices) < 1:
            raise ValueError(f"{self.n_vertices} vertices; need at least 1")
        seen = set()
        for k, (i, j, w) in enumerate(self.edges):
            if not (_is_count(i) and _is_count(j)):
                raise EdgeError(k, f"edge ({i},{j}) has a non-integer vertex label")
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise EdgeError(k, f"edge ({i},{j}) out of range")
            if i == j:
                raise EdgeError(k, f"self-loop at vertex {i}")
            if not math.isfinite(w):
                raise EdgeError(k, f"non-finite weight on edge ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise EdgeError(k, f"duplicate edge ({i},{j})")
            seen.add(key)


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
    A_bar_i in turn, then y*.  Each A_bar_i is kept as its svec positions
    and values alone, and ``ConstraintOperator.from_entries`` builds the
    CSC operator from them in column order, with no sort.
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

    rows, cols, _ = svec_indices(n)
    g_pos, g_vals = _sparse_symmetric_lower(rng, n, sparsity)

    # each A_bar_{k+1} as its svec positions and values only, which come in
    # (k, position) order, the order from_entries stores them in
    on_diag = rows == cols
    positions, values = [], []
    for _ in range(m):
        pos, av = _sparse_symmetric_lower(rng, n, sparsity, ensure_nonzero=True)
        diag = on_diag[pos]
        ndiag = int(np.count_nonzero(diag))
        if ndiag > 0:
            av[diag] -= av[diag].sum() / ndiag
        positions.append(pos)
        values.append(s * av)
    k = np.repeat(np.arange(m), [p.size for p in positions])
    pos = np.concatenate(positions)
    del positions
    vals = np.concatenate(values)
    del values
    op = ConstraintOperator.from_entries(n, m, k, pos, vals)
    del k, pos, vals

    # G's eigenpairs take no draw, so the dense matrices wait until the
    # operator's entries are gone, and g and evecs go before
    # SymMatrix.from_dense's n x n temporaries
    g = np.zeros((n, n))
    g[rows[g_pos], cols[g_pos]] = g_vals
    g[cols[g_pos], rows[g_pos]] = g_vals
    evals, evecs = np.linalg.eigh(g)
    del g
    shifted = s * (evals + abs(evals[0])) + 1.0  # ascending, all >= 1

    top = slice(n - r, n)
    rest = slice(0, n - r)
    x_star_dense = (evecs[:, top] * shifted[top]) @ evecs[:, top].T
    s_star_dense = (evecs[:, rest] * shifted[rest]) @ evecs[:, rest].T
    del evecs
    kappa_x = float(shifted[-1] / shifted[n - r])
    kappa_s = float(shifted[n - r - 1] / shifted[0])

    y_star = rng.standard_normal(m)
    s_star = SymMatrix.from_dense(s_star_dense)
    x_star = SymMatrix.from_dense(x_star_dense)
    c = SymMatrix.from_svec(svec(s_star).values + op.avec @ y_star)
    b = apply_A(op, x_star)

    problem = SdpProblem(
        n=n, m=m, C=c, op=op, b=b,
        name=f"rand-n{n}-m{m}-r{r}-s{s:g}-seed{seed}",
        known_trace=float(np.trace(x_star_dense)), known_rank=r,
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
    i, j, w = np.array(g.edges, dtype=np.float64).reshape(-1, 3).T
    lo, hi = (np.minimum(i, j) - 1).astype(np.int64), (np.maximum(i, j) - 1).astype(np.int64)
    # each vertex adds its weights in edge order, as a loop over the edges would
    deg = np.bincount(np.stack([hi, lo], axis=1).ravel(), np.repeat(w, 2), minlength=n)
    diag = np.arange(n)
    vals = -0.25 * np.concatenate([-w, deg])
    keep = vals != 0.0
    c = SymMatrix(n=n, rows=np.concatenate([hi, diag])[keep],
                  cols=np.concatenate([lo, diag])[keep], vals=vals[keep])
    op = ConstraintOperator.from_entries(n, n, diag, svec_position(n, diag, diag), np.ones(n))
    return SdpProblem(n=n, m=n, C=c, op=op, b=np.ones(n), name=f"maxcut-n{n}-{sense}")


def load_gset(path: str) -> GraphInstance:
    """Parse a Gset-style graph file: 'n_vertices n_edges' then edge lines."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        if not raw.isascii() or "_" in raw:
            # int() and float() also take underscores and non-ASCII digits,
            # which the SDPA reader rejects: the line keeps its token count,
            # so the count check reads it, but no value check passes
            toks = ["_"] * len(toks)
        if header is None:
            if len(toks) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'n_vertices n_edges'")
            try:
                header = (int(toks[0]), int(toks[1]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer header") from exc
            if header[0] < 1 or header[1] < 0:
                raise ParseError(f"{path}:{lineno}: need at least one vertex "
                                 f"and a nonnegative edge count")
            continue
        if len(toks) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j w'")
        try:
            edges.append((int(toks[0]), int(toks[1]), float(toks[2])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed edge line") from exc
    if header is None:
        raise ParseError(f"{path}: empty file")
    if len(edges) != header[1]:
        raise ParseError(
            f"{path}: header declares {header[1]} edges, found {len(edges)}"
        )
    try:
        return GraphInstance(n_vertices=header[0], edges=edges)
    except EdgeError as exc:  # the header check above covers the vertex count
        # the first nonblank line is the header and each later one an edge
        nonblank = [k for k, raw in enumerate(lines, start=1) if raw.split()]
        raise ParseError(f"{path}:{nonblank[exc.index + 1]}: {exc}") from exc


# SDPA sparse format (.dat-s), single semidefinite block.  Entries are
# "matno blkno i j value" with 1-based upper-triangle indices; matno 0 is
# the cost matrix C of the primal minimization min <C,X> s.t. A(X)=b, X PSD
# (the classical SDPA convention phrases the same data as a dual
# maximization; the matrices and vector are stored verbatim either way).

_ENTRY = np.dtype("i8,i8,i8,i8,f8")  # matno blkno i j value
_CHUNK = 8192  # entry lines formatted or parsed at a time
_SKIP = re.compile(r'\s*(["*]|$)').match  # blank and comment lines


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

    The body is parsed _CHUNK lines at a time.  Each chunk's entries are
    checked as they come, and of each entry only its key
    matno * n(n+1)/2 + svec position (int64) and its value are kept; the
    duplicate check runs on the sorted keys once the body is read.
    """
    def data_line(k):  # (line number, text) of data line k, from 0, comments skipped
        with open(path, encoding="utf-8") as fh:
            data = ((no, line) for no, line in enumerate(fh, start=1) if not _SKIP(line))
            return next(itertools.islice(data, k, None))

    def fail(k, msg, cls=ParseError):
        return cls(f"{path}:{data_line(k)[0]}: {msg}")

    def header(k, what, parse):
        for line in lines:
            try:
                return parse(line)
            except (ValueError, IndexError) as exc:
                raise fail(k, f"bad {what}") from exc
        raise ParseError(f"{path}: unexpected end of file")

    def entries(body_lines):
        return np.loadtxt(body_lines, dtype=_ENTRY, comments=None, ndmin=1)

    def take(parsed):
        """Check a chunk of entries, note the first failure of each check
        and of finiteness, and keep the entries' keys and values."""
        nonlocal count
        matno, blkno, i, j, val = (parsed[f] for f in _ENTRY.names)
        row, col = np.maximum(i, j) - 1, np.minimum(i, j) - 1
        checks = [((matno < 0) | (matno > m), ParseError, "matrix index {} out of range"),
                  (blkno != 1, UnsupportedFormat, "only block 1 supported"),
                  ((col < 0) | (row >= n), ParseError, "entry index out of range")]
        for c, (bad, cls, msg) in enumerate(checks):
            if c not in failed and bad.any():
                e = int(np.argmax(bad))
                failed[c] = (count + e, c, cls, msg.format(matno[e]))
        if not nonfinite and not np.all(np.isfinite(val)):
            nonfinite.append(count + int(np.argmin(np.isfinite(val))))
        keys.append(matno * tri_dim(n) + svec_position(n, row, col))
        values.append(val.copy())  # not a view that holds the whole record
        count += parsed.size

    try:
        with open(path, encoding="utf-8") as fh:
            lines = itertools.filterfalse(_SKIP, fh)
            m = header(0, "constraint count", lambda t: int(t.split()[0]))
            if m < 1:
                raise fail(0, "need at least one constraint")
            if header(1, "block count", lambda t: int(t.split()[0])) != 1:
                raise fail(1, "only single-block files supported", UnsupportedFormat)
            n = header(2, "block size",
                       lambda t: int(t.translate(str.maketrans(",(){}", "     ")).split()[0]))
            if n < 1:
                raise (fail(2, "diagonal blocks not supported", UnsupportedFormat) if n < 0
                       else fail(2, "block size must be positive"))
            b = header(3, "right-hand-side vector",
                       lambda t: np.array([float(v) for v in t.replace(",", " ").split()]))
            if b.size != m:
                raise fail(3, f"expected {m} right-hand-side values")
            # the body in blocks of lines: a block without a comment character
            # goes to loadtxt whole, which skips blank lines but warns on a
            # block of nothing else
            keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
            failed, nonfinite, count, malformed = {}, [], 0, None
            while malformed is None and (block := list(itertools.islice(fh, _CHUNK))):
                text = "".join(block)
                if '"' in text or '*' in text:
                    block = list(itertools.filterfalse(_SKIP, block))
                if not block or text.isspace():
                    continue
                try:
                    parsed = entries(block)
                except ValueError:  # again line by line, up to the first bad line
                    parsed = [np.zeros(0, dtype=_ENTRY)]
                    for line in itertools.filterfalse(_SKIP, block):
                        try:
                            parsed.append(entries([line]))
                        except ValueError:
                            malformed = ("malformed entry" if len(line.split()) == 5
                                         else "expected 'matno blkno i j value'")
                            break
                    parsed = np.concatenate(parsed)
                take(parsed)
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
    # a repeated key is reported at its later line
    if (repeat := np.flatnonzero(key[1:] == key[:-1]) + 1).size:
        k = int(repeat[0] if order is None else order[repeat].min())
        _, _, i, j, _ = entries([data_line(4 + k)[1]])[0]
        failed[3] = (k, 3, ParseError, f"duplicate entry ({i},{j})")
    # the earliest bad line reports its first failed check; values come last
    if failed:
        k, _, cls, msg = min(failed.values())
        raise fail(4 + k, msg, cls)
    if malformed:  # on the line after the last entry parsed
        raise fail(4 + count, malformed)
    if not np.all(np.isfinite(b)):
        raise fail(3, "non-finite right-hand-side value")
    if nonfinite:
        raise fail(4 + nonfinite[0], "non-finite entry value")

    in_c = int(np.searchsorted(key, tri_dim(n)))  # matno 0 sorts first
    c = SymMatrix(n, *svec_indices(n, key[:in_c])[:2], val[:in_c])
    matno, pos = np.divmod(key[in_c:], tri_dim(n))
    del key
    matno -= 1
    op = ConstraintOperator.from_entries(n, m, matno, pos, val[in_c:])
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
