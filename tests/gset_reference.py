"""Reference Gset reader and Max-Cut builder: the line-at-a-time ``load_gset``,
the edge-at-a-time graph checks and the edge-list ``build_maxcut_sdp`` that
polybundle's array-based versions replaced.

Kept only as a test oracle.  The tests check that the package loads the same
graph, builds the same SDP bit for bit, and rejects malformed files with the
same message at the same line.
"""

import math
from dataclasses import dataclass

import numpy as np

from polybundle.linalg import ConstraintOperator, SymMatrix, svec_position
from polybundle.problems import EdgeError, ParseError, SdpProblem, _is_count


@dataclass
class Graph:
    """``n_vertices`` and the list of (i, j, w) edges, checked as
    ``GraphInstance`` checked them."""

    n_vertices: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
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


def build_maxcut_sdp(g: Graph) -> SdpProblem:
    n = g.n_vertices
    i, j, w = np.array(g.edges, dtype=np.float64).reshape(-1, 3).T
    lo, hi = (np.minimum(i, j) - 1).astype(np.int64), (np.maximum(i, j) - 1).astype(np.int64)
    deg = np.bincount(np.stack([hi, lo], axis=1).ravel(), np.repeat(w, 2), minlength=n)
    diag = np.arange(n)
    vals = -0.25 * np.concatenate([-w, deg])
    keep = vals != 0.0
    c = SymMatrix(n=n, rows=np.concatenate([hi, diag])[keep],
                  cols=np.concatenate([lo, diag])[keep], vals=vals[keep])
    op = ConstraintOperator.from_entries(n, n, diag, svec_position(n, diag, diag), np.ones(n))
    return SdpProblem(n=n, m=n, C=c, op=op, b=np.ones(n), name=f"maxcut-n{n}-maximize")


def load_gset(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        if not raw.isascii() or "_" in raw:
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
        return Graph(n_vertices=header[0], edges=edges)
    except EdgeError as exc:
        nonblank = [k for k, raw in enumerate(lines, start=1) if raw.split()]
        raise ParseError(f"{path}:{nonblank[exc.index + 1]}: {exc}") from exc
