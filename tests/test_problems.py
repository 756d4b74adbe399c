import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdpa_reference as ref
from polybundle.linalg import (
    ConstraintOperator,
    SymMatrix,
    apply_A,
    apply_At,
    svec,
    svec_indices,
    tri_dim,
)
from polybundle.problems import (
    _CHUNK,
    GraphInstance,
    ParseError,
    SdpProblem,
    UnsupportedFormat,
    build_maxcut_sdp,
    generate_random_sdp,
    load_gset,
    load_manifest,
    load_sdpa,
    write_manifest,
    write_sdpa,
)


def eigen_rank(dense, rel=1e-8):
    evals = np.linalg.eigvalsh(dense)
    top = max(evals.max(), 0.0)
    return int(np.count_nonzero(evals > rel * top)) if top > 0 else 0


class TestGenerator:
    def test_planted_identities(self):
        problem, pl = generate_random_sdp(40, 30, 4, 0.1, 1.0, 11)
        assert np.abs(apply_A(problem.op, pl.X_star) - problem.b).max() <= 1e-10
        c_want = pl.S_star.to_dense() + apply_At(problem.op, pl.y_star).to_dense()
        assert np.abs(problem.C.to_dense() - c_want).max() <= 1e-10
        xs = pl.X_star.to_dense()
        ss = pl.S_star.to_dense()
        assert abs((xs * ss).sum()) <= 1e-9
        assert np.linalg.eigvalsh(xs).min() >= -1e-9
        assert np.linalg.eigvalsh(ss).min() >= -1e-9

    def test_strict_complementarity(self):
        problem, pl = generate_random_sdp(30, 20, 3, 0.15, 1.0, 5)
        assert eigen_rank(pl.X_star.to_dense()) == 3
        assert eigen_rank(pl.S_star.to_dense()) == 27

    def test_trace_free_constraints(self):
        problem, _ = generate_random_sdp(25, 15, 2, 0.2, 2.0, 8)
        for i in range(problem.m):
            assert abs(problem.op.constraint_matrix(i).trace()) <= 1e-12

    def test_determinism(self):
        p1, pl1 = generate_random_sdp(20, 10, 2, 0.3, 1.0, 9)
        p2, pl2 = generate_random_sdp(20, 10, 2, 0.3, 1.0, 9)
        assert np.array_equal(p1.cvec, p2.cvec)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(pl1.y_star, pl2.y_star)
        assert (p1.op.avec != p2.op.avec).nnz == 0

    def test_condition_number_scales_with_s(self):
        _, pl1 = generate_random_sdp(50, 30, 3, 0.1, 1.0, 13)
        _, pl50 = generate_random_sdp(50, 30, 3, 0.1, 50.0, 13)
        assert pl50.kappa_S / pl1.kappa_S >= 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_random_sdp(5, 5, 5, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            generate_random_sdp(5, 5, 0, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            generate_random_sdp(5, 5, 2, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            generate_random_sdp(5, 5, 2, 0.5, -1.0, 0)


class TestMaxcut:
    def test_single_edge_laplacian(self):
        g = GraphInstance(2, [(1, 2, 1.0)])
        p = build_maxcut_sdp(g, sense="paper")
        assert np.allclose(4.0 * p.C.to_dense(),
                           [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        g = GraphInstance(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        p = build_maxcut_sdp(g)
        lap = 4.0 * p.C.to_dense()
        assert np.allclose(np.diag(lap), [2.0, 2.0, 2.0])
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0)

    def test_identity_feasible_and_laplacian_nullspace(self):
        rng = np.random.default_rng(3)
        n = 12
        edges = [(i + 1, j + 1, float(rng.integers(1, 4)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = GraphInstance(n, edges)
        p = build_maxcut_sdp(g)
        assert np.allclose(apply_A(p.op, np.eye(n)), 1.0)
        lap = 4.0 * p.C.to_dense()
        assert np.abs(lap @ np.ones(n)).max() <= 1e-12
        total_degree = 2.0 * sum(w for _, _, w in edges)
        assert np.trace(lap) == pytest.approx(total_degree)
        assert p.known_trace == n

    def test_maximize_sense_flips_sign(self):
        g = GraphInstance(2, [(1, 2, 1.0)])
        pmin = build_maxcut_sdp(g, sense="paper")
        pmax = build_maxcut_sdp(g, sense="maximize")
        assert np.allclose(pmin.C.to_dense(), -pmax.C.to_dense())

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="range"):
            GraphInstance(2, [(1, 3, 1.0)])
        with pytest.raises(ValueError, match="self-loop"):
            GraphInstance(2, [(1, 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            GraphInstance(3, [(1, 2, 1.0), (2, 1, 2.0)])


class TestGset:
    def test_single_edge_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n1 2 1\n")
        g = load_gset(str(f))
        assert g.n_vertices == 2
        assert g.edges == [(1, 2, 1.0)]

    def test_triangle_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 3\n1 2 1\n2 3 1\n1 3 1\n")
        g = load_gset(str(f))
        assert len(g.edges) == 3

    def test_edge_count_mismatch(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 5\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
        with pytest.raises(ParseError, match="declares 5"):
            load_gset(str(f))

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n1 2\n")
        with pytest.raises(ParseError, match=":2"):
            load_gset(str(f))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_gset(str(f))


class TestSdpaIo:
    def test_roundtrip_bit_for_bit(self, tmp_path):
        problem, _ = generate_random_sdp(20, 10, 2, 0.2, 1.0, 21)
        path = str(tmp_path / "p.dat-s")
        write_sdpa(problem, path)
        back = load_sdpa(path)
        assert back.n == problem.n and back.m == problem.m
        assert np.array_equal(back.b, problem.b)
        assert np.array_equal(back.cvec, problem.cvec)
        assert (back.op.avec != problem.op.avec).nnz == 0

    def test_handwritten_small_file(self, tmp_path):
        # 2x2 block, one constraint: C with C11=1, C12=2; A1 = I; b = (3,)
        f = tmp_path / "tiny.dat-s"
        f.write_text(
            "1\n1\n2\n3.0\n"
            "0 1 1 1 1.0\n"
            "0 1 1 2 2.0\n"
            "1 1 1 1 1.0\n"
            "1 1 2 2 1.0\n"
        )
        p = load_sdpa(str(f))
        assert p.n == 2 and p.m == 1
        assert np.allclose(p.C.to_dense(), [[1.0, 2.0], [2.0, 0.0]])
        assert np.allclose(p.op.constraint_matrix(0).to_dense(), np.eye(2))
        assert p.b[0] == 3.0

    def test_lower_triangle_entry_normalized(self, tmp_path):
        f = tmp_path / "t.dat-s"
        f.write_text("1\n1\n2\n1.0\n0 1 2 1 5.0\n1 1 1 1 1.0\n")
        p = load_sdpa(str(f))
        assert p.C.to_dense()[0, 1] == 5.0

    def test_multiblock_rejected(self, tmp_path):
        f = tmp_path / "mb.dat-s"
        f.write_text("1\n2\n2 2\n1.0\n")
        with pytest.raises(UnsupportedFormat):
            load_sdpa(str(f))

    def test_zero_constraints_rejected(self, tmp_path):
        f = tmp_path / "m0.dat-s"
        f.write_text("0\n1\n2\n\n")
        with pytest.raises(ParseError):
            load_sdpa(str(f))

    def test_duplicate_entry_rejected(self, tmp_path):
        f = tmp_path / "dup.dat-s"
        f.write_text("1\n1\n2\n1.0\n0 1 1 1 1.0\n0 1 1 1 2.0\n1 1 1 1 1.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_sdpa(str(f))

    def test_comments_skipped(self, tmp_path):
        f = tmp_path / "c.dat-s"
        f.write_text('"header comment\n* another\n1\n1\n2\n1.0\n1 1 1 1 1.0\n')
        p = load_sdpa(str(f))
        assert p.m == 1


class TestManifest:
    def test_roundtrip_with_instance(self, tmp_path):
        problem, planted = generate_random_sdp(15, 8, 2, 0.3, 1.0, 33)
        inst = str(tmp_path / "inst.dat-s")
        man = str(tmp_path / "inst.json")
        write_sdpa(problem, inst)
        write_manifest(man, problem, planted, inst, 2, 0.3, 1.0, 33)
        back, doc = load_manifest(man)
        assert back.n == problem.n and back.m == problem.m
        assert back.known_rank == 2
        assert back.known_trace == pytest.approx(problem.known_trace)
        assert doc["kappa_S"] == pytest.approx(planted.kappa_S)
        cx = problem.cvec @ svec(planted.X_star).values
        assert doc["planted_objective"] == pytest.approx(cx)
        assert np.allclose(doc["y_star"], planted.y_star)

    def test_missing_field_rejected(self, tmp_path):
        man = tmp_path / "bad.json"
        man.write_text('{"n": 3}')
        with pytest.raises(ParseError, match="missing"):
            load_manifest(str(man))

    def test_invalid_json_rejected(self, tmp_path):
        man = tmp_path / "bad.json"
        man.write_text("{nope")
        with pytest.raises(ParseError, match="JSON"):
            load_manifest(str(man))


class TestSdpaMalformed:
    """Malformed SDPA input is a ParseError naming the file and line."""

    HEAD = "1\n1\n2\n1.0\n"

    def load(self, tmp_path, content):
        f = tmp_path / "bad.dat-s"
        f.write_bytes(content if isinstance(content, bytes) else content.encode())
        return load_sdpa(str(f))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_entry(self, tmp_path, value):
        text = self.HEAD + f"0 1 1 1 1.0\n1 1 1 2 {value}\n"
        with pytest.raises(ParseError, match=r"bad\.dat-s:6: non-finite entry value"):
            self.load(tmp_path, text)

    def test_non_finite_rhs(self, tmp_path):
        text = '"comment\n1\n1\n2\nnan\n1 1 1 1 1.0\n'
        with pytest.raises(ParseError, match=r"bad\.dat-s:5: non-finite right-hand-side"):
            self.load(tmp_path, text)

    def test_zero_block_size(self, tmp_path):
        with pytest.raises(ParseError, match=r"bad\.dat-s:3: block size must be positive"):
            self.load(tmp_path, "1\n1\n0\n1.0\n")

    def test_non_utf8_byte(self, tmp_path):
        text = b"1\n1\n2\n1.0\n0 1 1 1 1.0\n* caf\xe9\n"
        with pytest.raises(ParseError, match=r"bad\.dat-s: not UTF-8 text"):
            self.load(tmp_path, text)

    @pytest.mark.parametrize("entry", ["1 1 1 0_2 1.0", "1 1 1 \u0662 1.0",
                                       "1 1 1 2 0_1.5", "1 1 1 2 \u0661.\u0665"])
    def test_stricter_than_python_number_parsing(self, tmp_path, entry):
        # int() and float() take underscores and non-ASCII digits; the
        # entry grammar does not
        f = tmp_path / "bad.dat-s"
        f.write_text(self.HEAD + "0 1 1 1 1.0\n" + entry + "\n")
        assert ref.load_sdpa(str(f)).op.avec.nnz == 1
        with pytest.raises(ParseError, match=r"bad\.dat-s:6: malformed entry"):
            load_sdpa(str(f))

    def test_index_beyond_64_bits(self, tmp_path):
        f = tmp_path / "bad.dat-s"
        f.write_text(self.HEAD + "0 1 1 1 1.0\n1 1 1 99999999999999999999 1.0\n")
        with pytest.raises(ParseError, match=r"bad\.dat-s:6: entry index out of range"):
            ref.load_sdpa(str(f))
        with pytest.raises(ParseError, match=r"bad\.dat-s:6: malformed entry"):
            load_sdpa(str(f))

    def test_line_numbers_past_first_parse_chunk(self, tmp_path):
        problem, _ = generate_random_sdp(150, 150, 3, 0.05, 1.0, 4)
        path = tmp_path / "big.dat-s"
        write_sdpa(problem, str(path))
        lines = path.read_text().splitlines(keepends=True)
        target = 5 + 2 * _CHUNK + 17  # an entry line in the third parse chunk
        assert target > 10_000 and len(lines) > target
        # comment and blank lines ahead of it shift file lines from data lines
        lines[10:10] = ['" comment\n', "\n", "* another\n", "   \n"]
        bad_line = target + 4
        for corrupt, message in [(lambda t: t[:4], "expected 'matno blkno i j value'"),
                                 (lambda t: t[:2] + ["x"] + t[3:], "malformed entry"),
                                 (lambda t: ["999"] + t[1:], "matrix index 999 out of range")]:
            toks = lines[bad_line - 1].split()
            mutated = lines[:bad_line - 1] + [" ".join(corrupt(toks)) + "\n"] + lines[bad_line:]
            path.write_text("".join(mutated))
            with pytest.raises(ParseError) as exc:
                load_sdpa(str(path))
            assert str(exc.value) == f"{path}:{bad_line}: {message}"


# -- differential checks against the entry-at-a-time reference -------------

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def sdp_problems(draw):
    """Small problems, with C = 0 and empty constraint matrices allowed.

    The columns of avec come in any order, with explicit zeros and with
    positions stored twice, which the writer must sum and drop as smat does.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def positions():
        idx = draw(st.lists(st.integers(0, tri_dim(n) - 1), unique=True))
        if idx:
            idx += draw(st.lists(st.sampled_from(idx), unique=True))
        return draw(st.permutations(idx))

    rows, cols, _ = svec_indices(n)
    idx = sorted(set(positions()))
    c = SymMatrix(n, rows[idx], cols[idx], draw(st.lists(finite, min_size=len(idx),
                                                         max_size=len(idx))))
    a_rows = [positions() for _ in range(m)]
    a_rows_all = [k for col in a_rows for k in col]
    a_vals = draw(st.lists(finite, min_size=len(a_rows_all), max_size=len(a_rows_all)))
    indptr = np.cumsum([0] + [len(col) for col in a_rows])
    avec = sp.csc_matrix((np.array(a_vals, dtype=np.float64),
                          np.array(a_rows_all, dtype=np.int64), indptr), shape=(tri_dim(n), m))
    b = draw(st.lists(finite, min_size=m, max_size=m))
    return SdpProblem(n=n, m=m, C=c, op=ConstraintOperator(n=n, m=m, avec=avec), b=b)


def decorate(draw, lines):
    """Swap some entries to the lower triangle and insert comment and
    blank lines anywhere."""
    out = []
    for k, line in enumerate(lines):
        toks = line.split()
        if k >= 5 and len(toks) == 5 and draw(st.booleans()):
            toks[2], toks[3] = toks[3], toks[2]
            line = " ".join(toks) + "\n"
        out.extend(draw(st.lists(st.sampled_from(
            ['"a comment\n', "* another\n", "\n", "  \t\n", '  "indented\n']), max_size=2)))
        out.append(line)
    return out


def outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return exc


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_outcome(path):
    want, got = outcome(ref.load_sdpa, path), outcome(load_sdpa, path)
    if isinstance(want, SdpProblem):
        assert isinstance(got, SdpProblem), got
        assert (got.n, got.m, got.name) == (want.n, want.m, want.name)
        assert np.array_equal(bits(got.b), bits(want.b))
        assert np.array_equal(got.C.rows, want.C.rows)
        assert np.array_equal(got.C.cols, want.C.cols)
        assert np.array_equal(bits(got.C.vals), bits(want.C.vals))
        assert got.op.avec.shape == want.op.avec.shape
        assert np.array_equal(bits(got.op.avec.data), bits(want.op.avec.data))
        assert np.array_equal(got.op.avec.indices, want.op.avec.indices)
        assert np.array_equal(got.op.avec.indptr, want.op.avec.indptr)
    elif isinstance(want, ParseError):
        assert type(got) is type(want) and str(got) == str(want)
    else:  # the reference's bare ValueError for a non-finite value
        assert isinstance(got, ParseError) and "non-finite" in str(got), got
    return want


def _mutate(draw, lines, m, n):
    """One malformed entry line (or a duplicate of one) in a valid file."""
    k = draw(st.integers(5, len(lines) - 1))
    toks = lines[k].split()
    kind = draw(st.sampled_from(["drop", "add", "non-integer", "matno", "index",
                                 "block", "duplicate", "trailing"]))
    if kind == "drop":
        del toks[draw(st.integers(0, 4))]
    elif kind == "add":
        toks.insert(draw(st.integers(0, 5)), "1")
    elif kind == "non-integer":
        toks[draw(st.integers(0, 3))] = draw(st.sampled_from(["1.5", "x", "1e0", "0x1", "--1"]))
    elif kind == "matno":
        toks[0] = str(draw(st.sampled_from([-1, m + 1, m + 7])))
    elif kind == "index":
        toks[draw(st.integers(2, 3))] = str(draw(st.sampled_from([0, -1, n + 1])))
    elif kind == "block":
        toks[1] = draw(st.sampled_from(["0", "2"]))
    elif kind == "duplicate":
        if draw(st.booleans()):
            toks[2], toks[3] = toks[3], toks[2]
        return lines[:k + 1] + [" ".join(toks) + "\n"] + lines[k + 1:]
    else:
        toks.append(draw(st.sampled_from(["* comment", '"comment'])))
    return lines[:k] + [" ".join(toks) + "\n"] + lines[k + 1:]


class TestSdpaAgainstReference:
    def test_first_bad_line_of_several(self, tmp_path):
        # each suffix of these lines has its first bad line at a different kind
        entries = ["0 1 1 1 1.0", "0 1 1 2 1.0", "0 1 2 1 2.0", "1 1 1 1 nan",
                   "7 1 1 1 1.0", "5 1 2 2 1.0", "1 1 1 x 1.0", "1 1 1 1", "1 2 1 1 1.0"]
        path = str(tmp_path / "several.dat-s")
        for k in range(len(entries)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("1\n1\n2\n1.0\n" + "\n".join(entries[k:]) + "\n")
            assert not isinstance(assert_same_outcome(path), SdpProblem)

    @settings(max_examples=100, deadline=None)
    @given(problem=sdp_problems(), data=st.data())
    def test_same_bytes_and_same_problem(self, problem, data):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.dat-s"), os.path.join(tmp, "old.dat-s")
            write_sdpa(problem, new)
            ref.write_sdpa(problem, old)
            with open(new, "rb") as f1, open(old, "rb") as f2:
                assert f1.read() == f2.read()
            assert isinstance(assert_same_outcome(new), SdpProblem)
            with open(new, encoding="utf-8") as fh:
                lines = decorate(data.draw, fh.readlines())
            with open(new, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            assert isinstance(assert_same_outcome(new), SdpProblem)

    @settings(max_examples=200, deadline=None)
    @given(problem=sdp_problems(), data=st.data())
    def test_malformed_entry_rejected_alike(self, problem, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.dat-s")
            write_sdpa(problem, path)
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            assume(len(lines) > 5)
            lines = decorate(data.draw, _mutate(data.draw, lines, problem.m, problem.n))
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            assert isinstance(assert_same_outcome(path), ParseError)

    @settings(max_examples=200, deadline=None)
    @given(problem=sdp_problems(), data=st.data())
    def test_fuzzed_entry_lines_agree(self, problem, data):
        tokens = ["0", "1", "2", "3", "-1", "+1", "1.5", "x", "1e3", "1e999", "-0.0", ".5", "*"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.dat-s")
            write_sdpa(problem, path)
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            for _ in range(data.draw(st.integers(1, 3))):
                k = data.draw(st.integers(5, len(lines)))
                toks = data.draw(st.lists(st.sampled_from(tokens), min_size=3, max_size=7))
                lines.insert(k, " ".join(toks) + "\n")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            assert_same_outcome(path)
