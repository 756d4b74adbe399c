"""Instance generation and I/O for standard-form SDPs.

Provides a planted-solution random sparse generator, a Max-Cut relaxation
builder, the Gset plain-text graph format, single-block SDPA sparse files
(.dat-s), and a JSON manifest sidecar for generated instances.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    cvec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.C.n != self.n or self.op.n != self.n:
            raise ValueError("dimension mismatch between C and the operator")
        if self.op.m != self.m or self.b.size != self.m:
            raise ValueError("m does not match the operator or b")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        self.cvec = svec(self.C).values


@dataclass
class PlantedSolution:
    """Generator ground truth: X* of rank r, S* of rank n - r, dual y*."""

    X_star: SymMatrix
    y_star: np.ndarray
    S_star: SymMatrix
    kappa_X: float
    kappa_S: float


@dataclass
class GraphInstance:
    """Undirected weighted graph with 1-based vertex labels."""

    n_vertices: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        seen = set()
        for i, j, w in self.edges:
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(key)


def _sparse_symmetric_lower(rng: np.random.Generator, n: int,
                            density: float, ensure_nonzero: bool = False):
    """Lower-triangle positions and N(0,1) values at the given density.

    Draw order: one Bernoulli mask over the column-major lower triangle,
    then the normal values for the selected entries.
    """
    nt = tri_dim(n)
    mask = rng.random(nt) < density
    if ensure_nonzero and not mask.any():
        mask[rng.integers(nt)] = True
    idx = np.flatnonzero(mask)
    vals = rng.standard_normal(idx.size)
    rows, cols, _ = svec_indices(n)
    return rows[idx], cols[idx], vals


def generate_random_sdp(n: int, m: int, r: int, sparsity: float, s: float,
                        seed: int) -> tuple[SdpProblem, PlantedSolution]:
    """Random sparse SDP with a planted strictly complementary optimum.

    Construction: a sparse symmetric G with standard-normal nonzeros is
    shifted to X = s*(G + |lambda_min(G)| I) + I, which is positive definite
    with eigenvalues s*(lambda_i + |lambda_min|) + 1 >= 1.  The r largest
    eigenpairs form X*, the remaining n - r form S*, so <X*, S*> = 0 and
    rank(X*) + rank(S*) = n.  Trace-zero sparse constraint matrices
    A_i = s * A_bar_i and a normal y* complete the data via C = S* + A'y*
    and b = A(X*).  Deterministic in the seed; draw order: G, then each
    A_bar_i in turn, then y*.
    """
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must lie in (0, 1]")
    if s <= 0:
        raise ValueError("s must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)

    rows, cols, vals = _sparse_symmetric_lower(rng, n, sparsity)
    g = np.zeros((n, n))
    g[rows, cols] = vals
    g[cols, rows] = vals
    evals, evecs = np.linalg.eigh(g)
    shifted = s * (evals + abs(evals[0])) + 1.0  # ascending, all >= 1

    top = slice(n - r, n)
    rest = slice(0, n - r)
    x_star_dense = (evecs[:, top] * shifted[top]) @ evecs[:, top].T
    s_star_dense = (evecs[:, rest] * shifted[rest]) @ evecs[:, rest].T
    kappa_x = float(shifted[-1] / shifted[n - r])
    kappa_s = float(shifted[n - r - 1] / shifted[0])

    nt = tri_dim(n)
    all_rows, all_cols, scale = svec_indices(n)
    a_cols_idx = []
    a_cols_val = []
    for _ in range(m):
        ar, ac, av = _sparse_symmetric_lower(rng, n, sparsity,
                                             ensure_nonzero=True)
        diag = ar == ac
        ndiag = int(np.count_nonzero(diag))
        if ndiag > 0:
            av = av.copy()
            av[diag] -= av[diag].sum() / ndiag
        pos = svec_position(n, ar, ac)
        a_cols_idx.append(pos)
        a_cols_val.append(s * av * scale[pos])
    indptr = np.concatenate([[0], np.cumsum([p.size for p in a_cols_idx])])
    avec = sp.csc_matrix(
        (np.concatenate(a_cols_val), np.concatenate(a_cols_idx), indptr),
        shape=(nt, m),
    )
    op = ConstraintOperator(n=n, m=m, avec=avec)

    y_star = rng.standard_normal(m)
    s_star = SymMatrix.from_dense(s_star_dense)
    x_star = SymMatrix.from_dense(x_star_dense)
    cvec = svec(s_star).values + avec @ y_star
    c = _symmatrix_from_svec_values(n, cvec)
    b = apply_A(op, x_star)

    problem = SdpProblem(
        n=n, m=m, C=c, op=op, b=b,
        name=f"rand-n{n}-m{m}-r{r}-s{s:g}-seed{seed}",
        known_trace=float(np.trace(x_star_dense)), known_rank=r,
    )
    planted = PlantedSolution(X_star=x_star, y_star=y_star, S_star=s_star,
                              kappa_X=kappa_x, kappa_S=kappa_s)
    return problem, planted


def _symmatrix_from_svec_values(n: int, values: np.ndarray) -> SymMatrix:
    rows, cols, scale = svec_indices(n)
    entries = values / scale
    nz = entries != 0.0
    return SymMatrix(n=n, rows=rows[nz], cols=cols[nz], vals=entries[nz])


def build_maxcut_sdp(g: GraphInstance, sense: str = "paper") -> SdpProblem:
    """Max-Cut SDP relaxation: C = L/4 (sense="paper", a minimization of
    the quarter-Laplacian form) or C = -L/4 (sense="maximize"), with
    constraints X_ii = 1 so m = n and Tr(X*) = n."""
    if sense not in ("paper", "maximize"):
        raise ValueError("sense must be 'paper' or 'maximize'")
    n = g.n_vertices
    deg = np.zeros(n)
    lrows, lcols, lvals = [], [], []
    for i, j, w in g.edges:
        a, b = max(i, j) - 1, min(i, j) - 1
        lrows.append(a)
        lcols.append(b)
        lvals.append(-w)
        deg[a] += w
        deg[b] += w
    lrows.extend(range(n))
    lcols.extend(range(n))
    lvals.extend(deg)
    factor = 0.25 if sense == "paper" else -0.25
    vals = factor * np.asarray(lvals, dtype=np.float64)
    keep = vals != 0.0
    c = SymMatrix(
        n=n,
        rows=np.asarray(lrows, dtype=np.int64)[keep],
        cols=np.asarray(lcols, dtype=np.int64)[keep],
        vals=vals[keep],
    )
    diag_pos = svec_position(n, np.arange(n), np.arange(n))
    avec = sp.csc_matrix(
        (np.ones(n), diag_pos, np.arange(n + 1)), shape=(tri_dim(n), n)
    )
    op = ConstraintOperator(n=n, m=n, avec=avec)
    return SdpProblem(n=n, m=n, C=c, op=op, b=np.ones(n),
                      name=f"maxcut-n{n}-{sense}", known_trace=float(n))


def load_gset(path: str) -> GraphInstance:
    """Parse a Gset-style graph file: 'n_vertices n_edges' then edge lines."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        if header is None:
            if len(toks) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'n_vertices n_edges'")
            try:
                header = (int(toks[0]), int(toks[1]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer header") from exc
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
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# SDPA sparse format (.dat-s), single semidefinite block.  Entries are
# "matno blkno i j value" with 1-based upper-triangle indices; matno 0 is
# the cost matrix C of the primal minimization min <C,X> s.t. A(X)=b, X PSD
# (the classical SDPA convention phrases the same data as a dual
# maximization; the matrices and vector are stored verbatim either way).

_ENTRY = np.dtype("i8,i8,i8,i8,f8")  # matno blkno i j value
_CHUNK = 8192  # entry lines formatted or parsed at a time
_SKIP = re.compile(r'\s*(["*]|$)').match  # blank and comment lines


def write_sdpa(problem: SdpProblem, path: str):
    """Write a single-block SDPA sparse file; roundtrips bit-for-bit."""
    c, a = problem.C, problem.op.avec.T.tocoo()
    a.sum_duplicates()  # sorted, repeats summed: the columns constraint_matrix gives
    rows, cols, scale = svec_indices(problem.n)
    vals = a.data / scale[a.col]
    keep = vals != 0.0  # the entries smat keeps
    matno = np.concatenate([np.zeros(c.nnz, dtype=np.int64), a.row[keep] + 1])
    pos = np.concatenate([svec_position(problem.n, c.rows, c.cols), a.col[keep]])
    vals = np.concatenate([c.vals, vals[keep]])
    # stored lower triangle (row >= col) -> 1-based upper triangle (i <= j)
    i, j = cols[pos] + 1, rows[pos] + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"single-block SDPA sparse; matno 0 is C of min <C,X>, A(X)=b, X>=0\n'
                 f"{problem.m}\n1\n{problem.n}\n" + " ".join(map(repr, problem.b.tolist())) + "\n")
        for s in range(0, vals.size, _CHUNK):
            chunk = (x[s:s + _CHUNK].tolist() for x in (matno, i, j, vals))
            fh.write("".join(map("{} 1 {} {} {!r}\n".format, *chunk)))


def load_sdpa(path: str) -> SdpProblem:
    """Read any conforming single-block SDPA sparse file (.dat-s)."""
    def fail(data_line, msg, cls=ParseError):  # data_line counts from 0, comments skipped
        with open(path, encoding="utf-8") as fh:
            numbered = (no for no, line in enumerate(fh, start=1) if not _SKIP(line))
            return cls(f"{path}:{next(itertools.islice(numbered, data_line, None))}: {msg}")

    def header(k, what, parse):
        for line in lines:
            try:
                return parse(line)
            except (ValueError, IndexError) as exc:
                raise fail(k, f"bad {what}") from exc
        raise ParseError(f"{path}: unexpected end of file")

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
            parts, step, malformed = [np.zeros(0, dtype=_ENTRY)], _CHUNK, None
            while chunk := list(itertools.islice(lines, step)):
                try:
                    parts.append(np.loadtxt(chunk, dtype=_ENTRY, comments=None, ndmin=1))
                except ValueError:
                    if step == 1:
                        malformed = ("malformed entry" if len(chunk[0].split()) == 5
                                     else "expected 'matno blkno i j value'")
                        break
                    lines, step = itertools.chain(chunk, lines), 1  # again line by line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc

    matno, blkno, i, j, val = (np.concatenate([p[f] for p in parts]) for f in _ENTRY.names)
    row, col = np.maximum(i, j) - 1, np.minimum(i, j) - 1
    pos = svec_position(n, row, col)
    key = matno * tri_dim(n) + pos
    order = np.argsort(key, kind="stable")
    bad = np.flatnonzero
    checks = [(bad((matno < 0) | (matno > m)), ParseError, "matrix index {} out of range"),
              (bad(blkno != 1), UnsupportedFormat, "only block 1 supported"),
              (bad((col < 0) | (row >= n)), ParseError, "entry index out of range"),
              (order[1:][np.diff(key[order]) == 0], ParseError, "duplicate entry ({1},{2})")]
    # the earliest bad line reports its first failed check; values come last
    if failed := [(rows.min(), c) for c, (rows, _, _) in enumerate(checks) if rows.size]:
        k, c = min(failed)
        raise fail(4 + k, checks[c][2].format(matno[k], i[k], j[k]), checks[c][1])
    if malformed:  # on the line after the last entry parsed
        raise fail(4 + matno.size, malformed)
    if not np.all(np.isfinite(b)):
        raise fail(3, "non-finite right-hand-side value")
    if not np.all(np.isfinite(val)):
        raise fail(4 + int(np.argmin(np.isfinite(val))), "non-finite entry value")

    a = matno > 0
    _, _, scale = svec_indices(n)
    avec = sp.csc_matrix((val[a] * scale[pos[a]], (pos[a], matno[a] - 1)), shape=(tri_dim(n), m))
    return SdpProblem(n=n, m=m, C=SymMatrix(n=n, rows=row[~a], cols=col[~a], vals=val[~a]),
                      op=ConstraintOperator(n=n, m=m, avec=avec), b=b,
                      name=os.path.splitext(os.path.basename(path))[0])


def write_manifest(path: str, problem: SdpProblem, planted: PlantedSolution,
                   instance_file: str, r: int, sparsity: float, s: float,
                   seed: int):
    """JSON sidecar for a generated instance, including the planted dual."""
    x = planted.X_star
    doc = {
        "name": problem.name,
        "instance": os.path.basename(instance_file),
        "n": problem.n,
        "m": problem.m,
        "r": r,
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
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON manifest") from exc
    for key in ("instance", "n", "m", "r"):
        if key not in doc:
            raise ParseError(f"{path}: manifest missing field {key!r}")
    inst = os.path.join(os.path.dirname(os.path.abspath(path)), doc["instance"])
    problem = load_sdpa(inst)
    if problem.n != doc["n"] or problem.m != doc["m"]:
        raise ParseError(f"{path}: manifest dimensions do not match instance")
    problem.known_rank = int(doc["r"])
    if doc.get("trace_X") is not None:
        problem.known_trace = float(doc["trace_X"])
    if doc.get("name"):
        problem.name = doc["name"]
    return problem, doc
