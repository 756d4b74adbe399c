"""Reference SDPA reader and writer: the entry-at-a-time implementations that
polybundle's array-based ``load_sdpa``/``write_sdpa`` replaced.

Kept only as a test oracle.  The tests check that the package writes the same
bytes, loads the same problem, and rejects malformed files with the same
exception class at the same line.
"""

import os

import numpy as np

from polybundle.linalg import ConstraintOperator, SymMatrix
from polybundle.problems import ParseError, SdpProblem, UnsupportedFormat


def write_sdpa(problem: SdpProblem, path: str):
    def entry_lines(matno: int, mat: SymMatrix):
        # stored lower triangle (row >= col) -> 1-based upper triangle (i <= j)
        for rr, cc, vv in zip(mat.rows, mat.cols, mat.vals):
            yield f"{matno} 1 {cc + 1} {rr + 1} {float(vv)!r}\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"single-block SDPA sparse; matno 0 is C of min <C,X>, A(X)=b, X>=0\n')
        fh.write(f"{problem.m}\n1\n{problem.n}\n")
        fh.write(" ".join(repr(float(v)) for v in problem.b) + "\n")
        fh.writelines(entry_lines(0, problem.C))
        for i in range(problem.m):
            fh.writelines(entry_lines(i + 1, problem.op.constraint_matrix(i)))


def load_sdpa(path: str) -> SdpProblem:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    it = iter(enumerate(lines, start=1))

    def next_data():
        for lineno, raw in it:
            stripped = raw.strip()
            if stripped and not stripped.startswith(('"', '*')):
                return lineno, stripped
        raise ParseError(f"{path}: unexpected end of file")

    lineno, tok = next_data()
    try:
        m = int(tok.split()[0])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad constraint count") from exc
    if m < 1:
        raise ParseError(f"{path}:{lineno}: need at least one constraint")
    lineno, tok = next_data()
    try:
        nblocks = int(tok.split()[0])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad block count") from exc
    if nblocks != 1:
        raise UnsupportedFormat(f"{path}:{lineno}: only single-block files supported")
    lineno, tok = next_data()
    sizes = tok.replace(",", " ").replace("(", " ").replace(")", " ").replace("{", " ").replace("}", " ").split()
    try:
        n = int(sizes[0])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}:{lineno}: bad block size") from exc
    if n < 0:
        raise UnsupportedFormat(f"{path}:{lineno}: diagonal blocks not supported")
    lineno, tok = next_data()
    try:
        b = np.array([float(v) for v in tok.replace(",", " ").split()])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad right-hand-side vector") from exc
    if b.size != m:
        raise ParseError(f"{path}:{lineno}: expected {m} right-hand-side values")

    entries: list[dict] = [dict() for _ in range(m + 1)]
    for lineno, raw in it:
        stripped = raw.strip()
        if not stripped or stripped.startswith(('"', '*')):
            continue
        toks = stripped.split()
        if len(toks) != 5:
            raise ParseError(f"{path}:{lineno}: expected 'matno blkno i j value'")
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            val = float(toks[4])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed entry") from exc
        if not 0 <= matno <= m:
            raise ParseError(f"{path}:{lineno}: matrix index {matno} out of range")
        if blkno != 1:
            raise UnsupportedFormat(f"{path}:{lineno}: only block 1 supported")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{path}:{lineno}: entry index out of range")
        row, col = max(i, j) - 1, min(i, j) - 1
        if (row, col) in entries[matno]:
            raise ParseError(f"{path}:{lineno}: duplicate entry ({i},{j})")
        entries[matno][(row, col)] = val

    def to_symmatrix(d: dict) -> SymMatrix:
        if not d:
            return SymMatrix(n=n, rows=np.zeros(0, dtype=np.int64),
                             cols=np.zeros(0, dtype=np.int64), vals=np.zeros(0))
        rows = np.array([k[0] for k in d], dtype=np.int64)
        cols = np.array([k[1] for k in d], dtype=np.int64)
        vals = np.array(list(d.values()))
        return SymMatrix(n=n, rows=rows, cols=cols, vals=vals)

    c = to_symmatrix(entries[0])
    op = ConstraintOperator.from_matrices(
        n, [to_symmatrix(entries[i + 1]) for i in range(m)]
    )
    return SdpProblem(n=n, m=m, C=c, op=op, b=b,
                      name=os.path.splitext(os.path.basename(path))[0])
