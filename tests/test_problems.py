import builtins
import hashlib
import json
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gset_reference as gset_ref
import sdpa_reference as ref
from polybundle import problems as problems_module
from polybundle import solver
from polybundle.linalg import (
    ConstraintOperator,
    SymMatrix,
    apply_A,
    smat,
    svec,
    svec_indices,
    tri_dim,
)
from polybundle.problems import (
    _CHUNK,
    EdgeError,
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
        c_want = pl.S_star.to_dense() + smat(problem.op.avec @ pl.y_star).to_dense()
        assert np.abs(problem.C.to_dense() - c_want).max() <= 1e-10
        xs = pl.X_star.to_dense()
        ss = pl.S_star.to_dense()
        assert abs((xs * ss).sum()) <= 1e-9
        assert np.linalg.eigvalsh(xs).min() >= -1e-9
        assert np.linalg.eigvalsh(ss).min() >= -1e-9

    def test_strict_complementarity(self):
        _, pl = generate_random_sdp(30, 20, 3, 0.15, 1.0, 5)
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
        for s in (-1.0, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="s must be finite and positive"):
                generate_random_sdp(5, 5, 2, 0.5, s, 0)

    @pytest.mark.parametrize("sizes,name", [
        ((10.0, 10, 2), "n"), ((10, 10.0, 2), "m"), ((10, 10, 2.0), "r"),
        ((10, 10, True), "r"), ((10, True, 2), "m"), ((10, "10", 2), "m"),
    ], ids=["n-float", "m-float", "r-float", "r-bool", "m-bool", "m-string"])
    def test_sizes_not_integers_rejected(self, sizes, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_random_sdp(*sizes, 0.3, 1.0, 0)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer"), (True, "seed must be an integer"),
        (None, "seed must be an integer"), (-1, "seed must be nonnegative"),
    ])
    def test_seed_checked(self, seed, message):
        with pytest.raises(ValueError, match=message):
            generate_random_sdp(10, 10, 2, 0.3, 1.0, seed)

    def test_every_constraint_is_nonzero_and_trace_free(self):
        # a draw whose only entry is diagonal is zeroed by the trace-free
        # shift; at n = 3 and sparsity 0.05 most seeds meet one
        for seed in range(200):
            problem, _ = generate_random_sdp(3, 3, 1, 0.05, 1.0, seed)
            avec = problem.op.avec
            assert np.all(np.diff(avec.indptr) > 0), seed
            for i in range(problem.m):
                assert problem.op.constraint_matrix(i).trace() == pytest.approx(
                    0.0, abs=1e-15), seed

    def test_numpy_integer_sizes_accepted(self):
        p, _ = generate_random_sdp(np.int64(10), np.int32(8), np.int64(2), 0.3, 1.0, 0)
        q, _ = generate_random_sdp(10, 8, 2, 0.3, 1.0, 0)
        assert np.array_equal(p.cvec, q.cvec) and np.array_equal(p.b, q.b)


class TestSdpProblem:
    @pytest.mark.parametrize("change,message", [
        ({"n": 3}, "dimension mismatch"),
        ({"C": SymMatrix(3, [], [], [])}, "dimension mismatch"),
        ({"m": 2}, "m does not match"),
        ({"b": [1.0, 2.0]}, "m does not match"),
        ({"b": [np.nan]}, "b must be finite"),
        ({"b": [-np.inf]}, "b must be finite"),
    ], ids=["n", "C", "m", "b-size", "b-nan", "b-inf"])
    def test_inconsistent_data_rejected(self, change, message):
        op = ConstraintOperator.from_entries(2, 1, *np.zeros((2, 1), dtype=np.int64),
                                             np.ones(1))
        data = dict(n=2, m=1, C=SymMatrix(2, [1], [1], [1.0]), op=op, b=[1.0])
        SdpProblem(**data)
        with pytest.raises(ValueError, match=message):
            SdpProblem(**{**data, **change})

    @pytest.mark.parametrize("shape", [(6, 1), (1, 6), (2, 3)])
    def test_b_not_a_vector_rejected(self, shape):
        # b holds m = 6 entries but not as a vector of them
        op = ConstraintOperator.from_entries(3, 6, np.arange(6), np.arange(6),
                                             np.ones(6))
        data = dict(n=3, m=6, C=SymMatrix(3, [1], [1], [1.0]), op=op)
        SdpProblem(**data, b=np.ones(6))
        with pytest.raises(ValueError, match="m does not match"):
            SdpProblem(**data, b=np.ones(shape))

    def test_cvec_is_formed_from_c_on_each_read(self):
        # svec(C) is derived: a write to one read reaches neither C, nor a
        # later read, nor the support the solver reads
        problem, _ = generate_random_sdp(8, 4, 2, 0.3, 1.0, 0)
        cvec = problem.cvec
        assert np.array_equal(cvec, svec(problem.C).values)
        cvec[:] = np.nan
        assert np.array_equal(problem.cvec, svec(problem.C).values)
        assert np.all(np.isfinite(problem.support.cvec))


class TestOperatorEntries:
    """The entry-based constraint builders against the operators they build."""

    @pytest.fixture(params=["generated", "maxcut", "sdpa-loaded"])
    def op(self, request, tmp_path):
        if request.param == "maxcut":
            rng = np.random.default_rng(4)
            edges = [(i + 1, j + 1, float(rng.integers(1, 4))) for i in range(30)
                     for j in range(i + 1, 30) if rng.random() < 0.2]
            return build_maxcut_sdp(GraphInstance(30, edges)).op
        problem, _ = generate_random_sdp(30, 25, 3, 0.1, 1.5, 12)
        if request.param == "sdpa-loaded":
            write_sdpa(problem, str(tmp_path / "p.dat-s"))
            problem = load_sdpa(str(tmp_path / "p.dat-s"))
        return problem.op

    def test_entries_rebuild_avec_bit_for_bit(self, op):
        # entries() leaves out stored zeros, as the SDPA writer does, so an
        # operator given one by hand would not come back bit for bit
        want = op.avec.copy()
        want.eliminate_zeros()
        back = ConstraintOperator.from_entries(op.n, op.m, *op.entries()).avec
        assert back.shape == want.shape
        assert np.array_equal(bits(back.data), bits(want.data))
        assert np.array_equal(back.indices, want.indices)
        assert np.array_equal(back.indptr, want.indptr)

    def test_entries_are_the_unscaled_lower_triangles(self, op):
        k, pos, vals = op.entries()
        rows, cols, _ = svec_indices(op.n)
        assert np.all(vals != 0.0)
        for i in (0, op.m - 1):
            want = op.constraint_matrix(i)
            mine = pos[k == i]
            assert np.array_equal(rows[mine], want.rows)
            assert np.array_equal(cols[mine], want.cols)
            assert np.array_equal(bits(vals[k == i]), bits(want.vals))

    def test_entries_by_range_are_the_whole(self, op):
        whole = op.entries()
        for step in (1, 7, op.avec.nnz):
            parts = [op.entries(s, s + step) for s in range(0, op.avec.nnz, step)]
            for got, want in zip(zip(*parts), whole):
                assert np.array_equal(np.concatenate(got), want)

    def test_entries_of_a_non_canonical_avec(self):
        # columns out of order, a stored zero and a position stored twice:
        # the operator holds a canonical copy, which entries() reads as
        # COO's sum_duplicates would, summed in stored order
        avec = sp.csc_matrix((np.array([3.0, 1.0, 0.0, 2.0, 0.5, 0.25]),
                              np.array([5, 0, 3, 5, 1, 1]), np.array([0, 4, 6])),
                             shape=(6, 2))
        op = ConstraintOperator(3, 2, avec)
        data = avec.data.copy()
        a = avec.T.tocoo()
        a.sum_duplicates()
        _, _, scale = svec_indices(3)
        keep = a.data / scale[a.col] != 0.0
        k, pos, vals = op.entries()
        assert np.array_equal(k, a.row[keep]) and np.array_equal(pos, a.col[keep])
        assert np.array_equal(bits(vals), bits(a.data[keep] / scale[a.col[keep]]))
        assert np.array_equal(avec.data, data) and not avec.has_canonical_format
        assert op.avec.has_canonical_format

    @pytest.mark.parametrize("args,digests", [
        ((30, 30, 3, 0.1, 1.0, 7), {
            "avec": "1fa0da72cb475d9361499a5a59b53505b10c207cb0ca7236097f730b4e74ecb0"}),
        ((400, 400, 5, 1e-2, 1.0, 42), {
            "b": "fed279010d590c89c85913a4c8d1f6f41302ae9eb1c3c5adece73b90dec97f96",
            "cvec": "8d1582e7917bf59e9cba049ffdbaf2059c4731e0fc1a5003e4dc9df1064d2aff",
            "avec": "0b0e761dd7b0d024359e55657212c19f9f59087972c01819205109797c112b4e",
            "y_star": "796d3ea78d336c38636ad8363680e0de6dc353ea31981bcf20bc9f87ed43efd5"}),
        ((400, 400, 5, 1e-2, 1.0, 1042), {
            "b": "d578d1fe98adc3763ea6f493117e3f71725b3d719e2c4cb6dea2b1435b8cdce8",
            "cvec": "828ddb616fddecee6cd1c4aa4c4d3e2b2994213919c193b1b46b5e1de9005387",
            "avec": "c8a74720c189ae2b69a2fd3aab273fe24246a6c1165a0a70c04d96638605601a",
            "y_star": "790b10c7cb8ef9ed3b49ef5130a7561aff8909df68e746b9274207ad82ba4bbe"}),
        ((500, 500, 5, 1e-2, 1.0, 42), {
            "b": "bdd70c46df41906c9e7105ab9f5446e1f152892bafb298365a9e62f34fa18f33",
            "cvec": "4b09c4ce29c547945381c75d9fbb566dfb714ce70d5706f42bcf48bb70839ef9",
            "avec": "49a3a6539ee2d0ef61f16ec12dee9871a7ea01df262aed66335b202483eea02b",
            "y_star": "30edea8b41c268e5892fe18caea82b8696b94e54acdedfd75f61264787ea30fd"}),
        ((100, 100, 5, 1e-2, 1.0, 42), {
            "file": "f5f3ad9ad103c2b4f7f5cca8d3b5f6f6b340ae701e302da3c67e32cee2ca0684"}),
        ((40, 40, 3, 0.02, 1.0, 1), {
            "file": "6f2c21145d809633a5cad9f0a65c57e02cd2e8f49c064e6652badcc9a38754f3"}),
    ], ids=["n30-seed7", "n400-seed42", "n400-seed1042", "n500-seed42", "n100-seed42-file",
            "n40-seed1-file"])
    def test_generated_avec_checksum(self, args, digests, tmp_path):
        # taken before avec was built straight into CSC arrays (n = 30: before
        # the generator built avec through from_entries, with the 4 stored
        # zeros it then held removed).  The draws, and so avec and y_star,
        # involve no LAPACK call; b, cvec and the file's values pass through
        # eigh and BLAS products, so they hold at one OpenBLAS thread and the
        # numpy and scipy that CI installs, as the trajectory pins do.  The
        # n = 400 and 500 instances are the ones the benchmark times; the
        # n = 40 one has a partial support, whose file was pinned while
        # positions were still read from full index tables
        problem, planted = generate_random_sdp(*args)
        avec = problem.op.avec
        arrays = {"b": [problem.b.astype("<f8")], "cvec": [problem.cvec.astype("<f8")],
                  "avec": [avec.data.astype("<f8"), avec.indices.astype("<i8"),
                           avec.indptr.astype("<i8")],
                  "y_star": [planted.y_star.astype("<f8")]}
        if "file" in digests:
            write_sdpa(problem, str(tmp_path / "p.dat-s"))
            arrays["file"] = [(tmp_path / "p.dat-s").read_bytes()]
        got = {}
        for name in digests:
            digest = hashlib.sha256()
            for a in arrays[name]:
                digest.update(a)
            got[name] = digest.hexdigest()
        assert got == digests
        if args[0] == 30:
            assert avec.nnz == 1376

    def test_generated_operator_stores_no_zeros(self):
        # the trace-free shift can zero the only diagonal entry of a
        # constraint (4 entries on this instance); from_entries stores no
        # such entry, so entries() rebuilds the generated avec as it is
        op = generate_random_sdp(30, 30, 3, 0.1, 1.0, 7)[0].op
        back = ConstraintOperator.from_entries(op.n, op.m, *op.entries()).avec
        assert np.array_equal(back.indptr, op.avec.indptr)
        assert np.array_equal(back.indices, op.avec.indices)
        assert np.array_equal(bits(back.data), bits(op.avec.data))


class TestMaxcut:
    def test_single_edge_laplacian(self):
        g = GraphInstance(2, [(1, 2, 1.0)])
        p = build_maxcut_sdp(g, sense="maximize")
        assert np.allclose(-4.0 * p.C.to_dense(),
                           [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        g = GraphInstance(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        p = build_maxcut_sdp(g, sense="maximize")
        lap = -4.0 * p.C.to_dense()
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
        p = build_maxcut_sdp(g, sense="maximize")
        assert np.allclose(apply_A(p.op, np.eye(n)), 1.0)
        lap = -4.0 * p.C.to_dense()
        assert np.abs(lap @ np.ones(n)).max() <= 1e-12
        total_degree = 2.0 * sum(w for _, _, w in edges)
        assert np.trace(lap) == pytest.approx(total_degree)
        # the instance carries no trace; the solver reads tr X = n from A
        assert p.known_trace is None
        assert solver.problem_settings(p, solver.SolverParams())[4] == n

    def test_maximize_is_the_default(self):
        g = GraphInstance(2, [(1, 2, 1.0)])
        assert np.array_equal(build_maxcut_sdp(g).C.to_dense(),
                              build_maxcut_sdp(g, sense="maximize").C.to_dense())

    def test_maximize_is_the_only_sense(self):
        # C = L/4 would have the trivial minimum 0 at X = 11'
        with pytest.raises(ValueError, match="maximize"):
            build_maxcut_sdp(GraphInstance(2, [(1, 2, 1.0)]), sense="paper")

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="range"):
            GraphInstance(2, [(1, 3, 1.0)])
        with pytest.raises(ValueError, match="self-loop"):
            GraphInstance(2, [(1, 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            GraphInstance(3, [(1, 2, 1.0), (2, 1, 2.0)])
        for n in (0, -2):
            with pytest.raises(ValueError, match="at least 1"):
                GraphInstance(n, [])
        for n in (2.0, True, "2"):
            with pytest.raises(ValueError, match="n_vertices must be an integer"):
                GraphInstance(n, [])
        for edge in ((1.5, 2, 1.0), (1, 2.0, 1.0), ("1", 2, 1.0), (True, 2, 1.0),
                     (1, True, 1.0)):
            with pytest.raises(ValueError, match="non-integer vertex label"):
                GraphInstance(3, [edge])
        for w in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite weight"):
                GraphInstance(2, [(1, 2, w)])
        for w in ("1", None):
            with pytest.raises(TypeError, match="must be real number"):
                GraphInstance(2, [(1, 2, w)])

    def test_numpy_integer_labels_accepted(self):
        g = GraphInstance(np.int64(3), [(np.int64(1), np.int32(3), 1.0)])
        assert build_maxcut_sdp(g).n == 3

    @pytest.mark.parametrize("edges,index,message", [
        ([(1, 2, 1.0), (1, 5, 1.0), (1.5, 2, 1.0)], 1, "edge (1,5) out of range"),
        ([(1, 2, 1.0), (5, 5, 1.0)], 1, "edge (5,5) out of range"),
        ([(1, 2, 1.0), (2, 2, np.nan)], 1, "self-loop at vertex 2"),
        ([(1, 2, 1.0), (2, 1, np.inf)], 1, "non-finite weight on edge (2,1)"),
        ([(1, 2, 1.0), (1, 2**70, 1.0), (3, 3, 1.0)], 1, f"edge (1,{2**70}) out of range"),
        ([(1, 3, 1.0), (3, 3, 1.0), (1, True, 1.0)], 1, "self-loop at vertex 3"),
        ([(2, 3, 1.0), (1, 2, 1.0), (3, 2, 1.0), (2, 1, 1.0)], 2, "duplicate edge (3,2)"),
    ], ids=["range-before-label", "range-before-loop", "loop-before-weight", "weight-before-duplicate",
            "label-beyond-int64", "loop-before-bool-label", "first-repeat"])
    def test_first_failing_edge_and_check(self, edges, index, message):
        # the first edge that fails any check, with its first failed check,
        # as the edge-at-a-time checks found it
        for graph in (GraphInstance, gset_ref.Graph):
            with pytest.raises(EdgeError) as exc:
                graph(3, edges)
            assert (exc.value.index, str(exc.value)) == (index, message)

    def test_duplicate_reported_at_its_later_edge(self):
        # a path and then its edges again, last first: only a stable sort
        # keeps each edge ahead of its repeat
        path = [(k, k + 1, 1.0) for k in range(1, 2000)]
        with pytest.raises(EdgeError) as exc:
            GraphInstance(2000, path + path[::-1])
        assert (exc.value.index, str(exc.value)) == (1999, "duplicate edge (1999,2000)")

    def test_edges_are_arrays_in_the_given_order(self):
        g = GraphInstance(4, [(3, 1, 2.5), (2, 4, -1.0), [1, 2, 0.0]])
        assert g.edges.tolist() == [(3, 1, 2.5), (2, 4, -1.0), (1, 2, 0.0)]
        assert GraphInstance(4, g.edges).edges is g.edges
        assert g == GraphInstance(4, [(3, 1, 2.5), (2, 4, -1.0), (1, 2, 0.0)])
        assert g != GraphInstance(4, [(1, 3, 2.5), (2, 4, -1.0), (1, 2, 0.0)])


class TestGset:
    def test_single_edge_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n1 2 1\n")
        g = load_gset(str(f))
        assert g.n_vertices == 2
        assert g.edges.tolist() == [(1, 2, 1.0)]
        assert [g.edges[f].dtype for f in "ijw"] == [np.int64, np.int64, np.float64]

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

    @pytest.mark.parametrize("text,line,message", [
        ("2\n1 2 1\n", 1, "expected 'n_vertices n_edges'"),
        ("2 x\n1 2 1\n", 1, "non-integer header"),
        ("2 1.0\n1 2 1\n", 1, "non-integer header"),
        ("2 1\n1 2 x\n", 2, "malformed edge line"),
        ("2 1\n1 1.5 1\n", 2, "malformed edge line"),
    ], ids=["header-one-token", "header-not-integer", "header-float",
            "weight-not-numeric", "label-not-integer"])
    def test_malformed_line_names_it(self, tmp_path, text, line, message):
        f = tmp_path / "g.txt"
        f.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_gset(str(f))
        assert str(exc.value) == f"{f}:{line}: {message}"

    @pytest.mark.parametrize("text,line,message", [
        ("2 1\n1 2 1_0\n", 2, "malformed edge line"),
        ("2 1\n1 2 \u0661\n", 2, "malformed edge line"),
        ("2 1\n1\u00a02 1\n", 2, "malformed edge line"),
        ("\u0662 1\n1 2 1\n", 1, "non-integer header"),
        ("1_0 0\n", 1, "non-integer header"),
        ("\n\u00a0\n2 1\n1 2 1e_1\n", 4, "malformed edge line"),
    ], ids=["underscore-weight", "arabic-indic-weight", "no-break-space",
            "arabic-indic-header", "underscore-header", "after-a-blank-line"])
    def test_stricter_than_python_number_parsing(self, tmp_path, text, line,
                                                 message):
        # int() and float() take underscores and non-ASCII digits; the
        # SDPA reader does not, and neither does load_gset
        f = tmp_path / "g.txt"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_gset(str(f))
        assert str(exc.value) == f"{f}:{line}: {message}"

    def test_earlier_error_reported_first(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n1 2\n1 2 1_0\n")
        with pytest.raises(ParseError, match=f"{f}:2: expected 'i j w'"):
            load_gset(str(f))

    def test_non_utf8_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"2 1\n1 2 1\n\xe9\n")
        with pytest.raises(ParseError) as exc:
            load_gset(str(f))
        assert str(exc.value) == f"{f}: not UTF-8 text"

    def test_no_edges_without_a_warning(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("\n3 0\n \u00a0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_gset(str(f))
        assert (g.n_vertices, g.edges.size) == (3, 0)
        assert build_maxcut_sdp(g).C.nnz == 0

    def test_label_beyond_64_bits(self, tmp_path):
        # int() reads the label, which is then out of range; the number
        # grammar has no integer past int64, so the line is malformed
        f = tmp_path / "g.txt"
        f.write_text("3 1\n1 99999999999999999999 1\n")
        with pytest.raises(ParseError, match=f"{f}:2: edge .* out of range"):
            gset_ref.load_gset(str(f))
        with pytest.raises(ParseError) as exc:
            load_gset(str(f))
        assert str(exc.value) == f"{f}:2: malformed edge line"

    @pytest.mark.parametrize("header", ["0 0", "-2 0", "3 -1"])
    def test_degenerate_header_reports_line_1(self, tmp_path, header):
        f = tmp_path / "g.txt"
        f.write_text(header + "\n")
        with pytest.raises(ParseError, match=f"{f}:1: need at least one vertex"):
            load_gset(str(f))

    @pytest.mark.parametrize("text,line,message", [
        ("2 1\n1 5 1\n", 2, "out of range"),
        ("3 2\n1 2 1\n2 2 1\n", 3, "self-loop"),
        ("3 3\n1 2 1\n2 3 1\n\n2 1 1\n", 5, "duplicate edge"),
        ("2 1\n1 2 1e400\n", 2, "non-finite weight"),
    ], ids=["out-of-range", "self-loop", "duplicate", "overflowing-weight"])
    def test_edge_error_reports_its_line(self, tmp_path, text, line, message):
        # a duplicate edge is reported at its second occurrence
        f = tmp_path / "g.txt"
        f.write_text(text)
        with pytest.raises(ParseError, match=f"{f}:{line}: .*{message}"):
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

    @pytest.mark.parametrize("rhs", ["48 -8 20", "48, -8, 20", "{48, -8, 20}", "(48, -8, 20)"])
    def test_rhs_separators(self, tmp_path, rhs):
        # the b line takes the separators the block-size line does
        f = tmp_path / "b.dat-s"
        f.write_text(f"3\n1\n2\n{rhs}\n1 1 1 1 1.0\n2 1 2 2 1.0\n3 1 1 2 1.0\n")
        assert load_sdpa(str(f)).b.tolist() == [48.0, -8.0, 20.0]

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

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, OSError])
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch, exc):
        # SDPA has no entry count: a file cut off at a line boundary would
        # load as a smaller problem, so a write that does not finish removes it
        problem, _ = generate_random_sdp(20, 10, 2, 0.2, 1.0, 21)
        path = tmp_path / "p.dat-s"
        path.write_text("an older file\n")

        class CutOff:
            """The file, with its third write (the second chunk) failing."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *info):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    assert path.stat().st_size > 0  # the header and one chunk
                    raise exc("disk full")
                self.fh.write(text)
                self.fh.flush()

        monkeypatch.setattr(problems_module, "_CHUNK", 16)
        monkeypatch.setattr(problems_module, "open",
                            lambda *a, **k: CutOff(builtins.open(*a, **k)), raising=False)
        with pytest.raises(exc):
            write_sdpa(problem, str(path))
        assert not path.exists()

    def test_failed_open_leaves_the_path_alone(self, tmp_path):
        problem, _ = generate_random_sdp(20, 10, 2, 0.2, 1.0, 21)
        with pytest.raises(IsADirectoryError):
            write_sdpa(problem, str(tmp_path))
        assert tmp_path.is_dir()

    def test_block_that_parses_only_line_by_line(self, tmp_path, monkeypatch):
        # a block that fails whole and then line by line finds no bad line
        # keeps its entries and the rest of the file
        problem, _ = generate_random_sdp(20, 10, 2, 0.2, 1.0, 21)
        path = str(tmp_path / "p.dat-s")
        write_sdpa(problem, path)
        real, failed = np.loadtxt, []

        def fails_once_whole(lines, *args, **kwargs):
            if len(lines) > 1 and not failed:
                failed.append(len(lines))
                raise ValueError("spurious")
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(problems_module, "_CHUNK", 8)
        monkeypatch.setattr(np, "loadtxt", fails_once_whole)
        back = load_sdpa(path)
        assert failed == [8]
        assert np.array_equal(back.cvec, problem.cvec)
        assert (back.op.avec != problem.op.avec).nnz == 0


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sparse_graph(n: int, seed: int = 1) -> GraphInstance:
    """The c10 family's graph at edge probability 6/n, drawn row by row: the
    same edges as one draw per vertex pair, with no n(n-1)/2 array."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n):
        edges += [(i, int(j), 1.0)
                  for j in np.flatnonzero(rng.random(n - i) < 6.0 / n) + i + 1]
    return GraphInstance(n, edges)


class TestPeakMemory:
    """tracemalloc peaks of the generator, the writer and the reader per
    stored entry of C and avec, on one mid-size instance (60,311 entries)
    and on the benchmark's n = 500 instance (751,900 entries).

    tracemalloc sees numpy's buffers, so the peaks repeat from run to run.
    At n = 200 each bound lies between the peak of the COO-built operator
    and whole-array I/O (generate 90, write 74, load 128 bytes an entry)
    and that of the one-key build and chunked I/O (51, 30 and 50).  At
    n = 500 the bounds lie between the peaks of a build from two keys, the
    reader's (matno, position) split and full-length svec tables (generate
    46, load 48 bytes an entry: 34.5 and 36.0 MB) and those of the one-key
    build with its positions scaled in blocks (32 and 32: 23.7 and 24.3 MB).
    """

    ARGS = (200, 200, 5, 1e-2, 1.0, 42)
    BENCHMARK_ARGS = (500, 500, 5, 1e-2, 1.0, 42)

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        problem, _ = generate_random_sdp(*self.ARGS)
        path = str(tmp_path_factory.mktemp("peak") / "p.dat-s")
        write_sdpa(problem, path)
        return problem, path

    @pytest.mark.parametrize("operation,bound", [
        ("generate", 75), ("write", 50), ("load", 90),
    ])
    def test_bytes_per_entry(self, instance, operation, bound):
        problem, path = instance
        call = {"generate": lambda: generate_random_sdp(*self.ARGS),
                "write": lambda: write_sdpa(problem, path),
                "load": lambda: load_sdpa(path)}[operation]
        entries = problem.C.nnz + problem.op.avec.nnz
        assert traced_peak(call) / entries <= bound

    @pytest.fixture(scope="class")
    def benchmark_instance(self, tmp_path_factory):
        """The entry count, the file and a copy of the file whose first
        entry of A_1 stores 0.0, which the reader drops."""
        problem, _ = generate_random_sdp(*self.BENCHMARK_ARGS)
        path = tmp_path_factory.mktemp("peak") / "b.dat-s"
        write_sdpa(problem, str(path))
        lines = path.read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("1 1 "))
        lines[at] = " ".join(lines[at].split()[:4] + ["0.0"])
        zero = path.with_name("zero.dat-s")
        zero.write_text("\n".join(lines))
        assert load_sdpa(str(zero)).op.avec.nnz == problem.op.avec.nnz - 1
        return problem.C.nnz + problem.op.avec.nnz, str(path), str(zero)

    # the stored zero is dropped in place: while the filter copied the keys,
    # positions and values it raised the load to 44 bytes an entry (33.3 MB)
    @pytest.mark.parametrize("operation,bound", [
        ("generate", 40), ("load", 40), ("load-one-zero", 40),
    ])
    def test_bytes_per_entry_of_the_benchmark_instance(self, benchmark_instance,
                                                       operation, bound):
        entries, path, zero = benchmark_instance
        call = {"generate": lambda: generate_random_sdp(*self.BENCHMARK_ARGS),
                "load": lambda: load_sdpa(path),
                "load-one-zero": lambda: load_sdpa(zero)}[operation]
        assert traced_peak(call) / entries <= bound

    def test_one_entry_in_a_large_block(self, tmp_path):
        # no table of the block's order: while svec_indices searched the n
        # diagonal positions this 30-byte file peaked at 32 MB
        path = tmp_path / "tiny.dat-s"
        path.write_text("1\n1\n1000000\n1.0\n1 1 1 1 2.0\n")
        assert traced_peak(lambda: load_sdpa(str(path))) <= 1_000_000

    @pytest.fixture(scope="class")
    def graphs(self, tmp_path_factory):
        """The n = 2,000 and 5,000 Max-Cut instances (6,060 and 15,378
        edges), the latter's graph and its SDPA file.  A first solve loads
        LAPACK, whose modules are not a solve's memory."""
        graph = sparse_graph(5000)
        small, large = build_maxcut_sdp(sparse_graph(2000)), build_maxcut_sdp(graph)
        path = str(tmp_path_factory.mktemp("peak") / "g.dat-s")
        write_sdpa(large, path)
        solver.solve(build_maxcut_sdp(sparse_graph(20)), solver.SolverParams(maxiter=2))
        return graph, small, large, path

    @pytest.mark.parametrize("operation,bound", [
        ("build", 150), ("write", 120), ("load", 150), ("solve", 350),
    ])
    def test_bytes_per_entry_at_scale(self, graphs, operation, bound):
        # while the index tables and svec(C) were formed at full length,
        # build plus support peaked at 24,000 bytes an entry (585 MB at
        # n = 5,000); from the stored entries alone it peaks at 89 (2.3 MB),
        # load plus support also at 89, write at 74, and two iterations at
        # rank 8 on n = 2,000 at 216
        graph, small, large, path = graphs
        problem = small if operation == "solve" else large
        call = {"build": lambda: build_maxcut_sdp(graph).support,
                "write": lambda: write_sdpa(large, path),
                "load": lambda: load_sdpa(path).support,
                "solve": lambda: solver.solve(small, solver.SolverParams(
                    eps=1e-3, t0=1e-2, l_max="sq", rank=8, maxiter=2))}[operation]
        entries = problem.C.nnz + problem.op.avec.nnz
        assert traced_peak(call) / entries <= bound


def manifest(tmp_path, **fields):
    """A manifest of a 3 x 3 instance with one constraint, with ``fields``."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"instance": "inst.dat-s", "n": 3, "m": 1,
                                "r": 1, **fields}))
    return str(path)


@pytest.mark.parametrize("call,error,message", [
    (lambda tmp: generate_random_sdp(10, 0, 2, 0.3, 1.0, 0), ValueError,
     "m must be at least 1"),
    (lambda tmp: load_manifest(manifest(tmp, trace_X=[1, 2])), ParseError,
     "bad manifest field: trace_X is not a number"),
], ids=["generate-m-zero", "manifest-trace-not-a-number"])
def test_input_checks_name_the_fault(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


class TestManifest:
    def test_roundtrip_with_instance(self, tmp_path):
        problem, planted = generate_random_sdp(15, 8, 2, 0.3, 1.0, 33)
        inst = str(tmp_path / "inst.dat-s")
        man = str(tmp_path / "inst.json")
        write_sdpa(problem, inst)
        write_manifest(man, problem, planted, inst, 0.3, 1.0, 33)
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

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_dimensions_must_match_instance(self, tmp_path, field):
        problem, planted = generate_random_sdp(15, 8, 2, 0.3, 1.0, 33)
        inst, man = tmp_path / "inst.dat-s", tmp_path / "inst.json"
        write_sdpa(problem, str(inst))
        write_manifest(str(man), problem, planted, str(inst), 0.3, 1.0, 33)
        doc = json.loads(man.read_text())
        doc[field] += 1
        man.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="dimensions do not match"):
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

    @pytest.mark.parametrize("text,message", [
        ("x\n1\n2\n1.0\n", ":1: bad constraint count"),
        ("1\n1.5\n2\n1.0\n", ":2: bad block count"),
        ('"c\n1\n1\nx\n1.0\n', ":4: bad block size"),
        ("1\n1\n{}\n1.0\n", ":3: bad block size"),
        ("1\n1\n* c\n", ": unexpected end of file"),
        ("1\n1\n2\n1.0 x\n", ":4: bad right-hand-side vector"),
        ("2\n1\n2\n1.0\n0 1 1 1 1.0\n", ":4: expected 2 right-hand-side values"),
    ], ids=["count", "block-count", "block-size", "block-size-empty",
            "end-in-header", "rhs-token", "rhs-too-few"])
    def test_bad_header(self, tmp_path, text, message):
        f = tmp_path / "bad.dat-s"
        f.write_text(text)
        want = assert_same_outcome(str(f))
        assert type(want) is ParseError and str(want) == f"{f}{message}"

    def test_zero_block_size(self, tmp_path):
        with pytest.raises(ParseError, match=r"bad\.dat-s:3: block size must be positive"):
            self.load(tmp_path, "1\n1\n0\n1.0\n")

    @pytest.mark.parametrize("size", [2**32, 3037000500])
    def test_block_size_whose_keys_overflow_int64(self, tmp_path, size):
        # (m + 1) n(n+1)/2 passes 2**63 - 1 by 3,182,474,693 at 3037000500:
        # the check comes before any key, or any array of n, is formed
        with pytest.raises(ParseError, match=r"bad\.dat-s:3: block size too large"):
            self.load(tmp_path, f"1\n1\n{size}\n1.0\n1 1 1 1 2.0\n")

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

    @pytest.mark.parametrize("head,message", [
        ("1_0\n1\n2\n" + "1.0 " * 10 + "\n", ":1: bad constraint count"),
        ("1\n1\n\u0662\n1.0\n", ":3: bad block size"),
        ("1\n1\n2\n1_0.5\n", ":4: bad right-hand-side vector"),
    ], ids=["underscore-count", "arabic-indic-block-size", "underscore-rhs"])
    def test_header_stricter_than_python_number_parsing(self, tmp_path, head, message):
        # header numbers follow the entry grammar too
        f = tmp_path / "bad.dat-s"
        f.write_text(head + "0 1 1 1 1.0\n1 1 1 2 1.0\n", encoding="utf-8")
        assert ref.load_sdpa(str(f)).op.avec.nnz == 1
        with pytest.raises(ParseError) as exc:
            load_sdpa(str(f))
        assert str(exc.value) == f"{f}{message}"

    @pytest.mark.parametrize("text,message", [
        (HEAD + "0 1 1 1 1.0\n1 1\u00a01 1 1.0\n", ":6: malformed entry"),
        (HEAD + "0 1 1 1 1.0\n1\u20031 1 2 1.0\n", ":6: malformed entry"),
        (HEAD + "0 1 1 1 1.0\n1 1 1 2\u30001.0\n", ":6: malformed entry"),
        ("1\u00a0\n1\n2\n1.0\n0 1 1 1 1.0\n", ":1: bad constraint count"),
        ("1\n1\n{2\u2003}\n1.0\n0 1 1 1 1.0\n", ":3: bad block size"),
        ("2\n1\n2\n1.0\u30001.0\n0 1 1 1 1.0\n", ":4: bad right-hand-side vector"),
    ], ids=["entry-no-break-space", "entry-em-space", "entry-ideographic-space",
            "count-no-break-space", "block-size-em-space", "rhs-ideographic-space"])
    def test_non_ascii_separator(self, tmp_path, text, message):
        # str.split() and loadtxt split at any Unicode space; a data line of
        # the grammar is plain ASCII
        f = tmp_path / "bad.dat-s"
        f.write_text(text, encoding="utf-8")
        assert isinstance(ref.load_sdpa(str(f)), SdpProblem)
        with pytest.raises(ParseError) as exc:
            load_sdpa(str(f))
        assert str(exc.value) == f"{f}{message}"

    def test_non_ascii_comments_and_blank_lines(self, tmp_path):
        # comment lines hold free text, and a line of Unicode spaces is blank
        f = tmp_path / "ok.dat-s"
        f.write_text('"caf\u00e9\n1\n\u00a0\n1\n* na\u00efve\n2\n1.0\n\u2003\u3000\n'
                     "0 1 1 1 1.0\n* \u00e9\n\u00a0\n1 1 1 2 1.0\n", encoding="utf-8")
        assert assert_same_outcome(str(f)).op.avec.nnz == 1

    @pytest.mark.parametrize("text,message", [
        ("2.5\n1\n2\n1.0 1.0\n0 1 1 1 1.0\n", ":1: bad constraint count"),
        ("1e1\n1\n2\n" + "1.0 " * 10 + "\n0 1 1 1 1.0\n", ":1: bad constraint count"),
        ("1\n1.5\n2\n1.0\n0 1 1 1 1.0\n", ":2: bad block count"),
        ("1\n1\n3.9\n1.0\n0 1 1 1 1.0\n", ":3: bad block size"),
        (HEAD + "0 1 1 1 1.0\n1.5 1 1 2 1.0\n", ":6: malformed entry"),
    ], ids=["count", "count-exponent", "block-count", "block-size", "entry-matno"])
    def test_integer_written_as_float_with_warnings_ignored(self, tmp_path, text, message):
        # a numpy that reads "1.5" as the integer 1 only warns; the line
        # still fails when the process ignores warnings
        f = tmp_path / "bad.dat-s"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError) as exc:
                load_sdpa(str(f))
        assert str(exc.value) == f"{f}{message}"

    def test_first_bad_line_before_undecodable_text(self, tmp_path):
        # the read stops after the chunk that holds the first bad line, so
        # the byte that is not UTF-8 is never decoded; it lies past the
        # first _CHUNK and past the text layer's read-ahead.  The repeats of
        # line 5 come after the bad line and are not reported either.
        text = (self.HEAD + "0 1 1 1 1.0\n5 1 1 1 1.0\n" + "0 1 1 1 1.0\n" * 20_000).encode()
        assert len(text) > 2 * _CHUNK * len(b"0 1 1 1 1.0\n")
        with pytest.raises(ParseError, match=r"bad\.dat-s:6: matrix index 5 out of range"):
            self.load(tmp_path, text + b"* caf\xe9\n")

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

    def test_labels_past_n(self, tmp_path):
        # m > n: constraint labels run past the largest index label
        problem, _ = generate_random_sdp(4, 30, 2, 0.5, 1.0, 5)
        new, old = tmp_path / "new.dat-s", tmp_path / "old.dat-s"
        write_sdpa(problem, str(new))
        ref.write_sdpa(problem, str(old))
        assert new.read_bytes() == old.read_bytes()
        assert b"\n30 1 " in new.read_bytes()
        assert isinstance(assert_same_outcome(str(new)), SdpProblem)


class TestSdpaAtBlockEdges(TestSdpaAgainstReference):
    """The differential checks again, parsing and formatting one and three
    lines at a time: blocks with and without comment lines side by side, and
    first bad lines and blank lines at block edges."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 3])
    def small_chunks(self, request):
        with mock.patch.object(problems_module, "_CHUNK", request.param):
            yield request.param


# -- differential checks of the Gset path against the line-at-a-time reference

@st.composite
def gset_lines(draw):
    """(n, lines) of a valid Gset file: each pair of n vertices an edge or
    not, in any order and orientation, with integer or float weights."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.permutations(draw(st.lists(st.sampled_from(pairs), unique=True))
                                 if pairs else []))
    lines = [f"{n} {len(edges)}\n"]
    for i, j in edges:
        if draw(st.booleans()):
            i, j = j, i
        w = draw(st.one_of(st.integers(-3, 3).map(str), finite.map(repr),
                           st.sampled_from(["-0.0", "1e-320", "+.5", "2.", "1E3"])))
        lines.append(f"{i} {j} {w}\n")
    return n, lines


def decorate_gset(draw, lines):
    """Insert blank lines anywhere, Unicode spaces among them, and pad lines
    with ASCII blanks."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(
            ["\n", "  \t\n", "\u00a0\n", "\u2003 \u3000\n"]), max_size=2)))
        out.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    return out


def _mutate_gset(draw, n, lines):
    """One malformed line, bad edge or wrong edge count in a valid file."""
    k = draw(st.integers(0, len(lines) - 1))
    toks = lines[k].split()
    kind = draw(st.sampled_from(["drop", "add", "number", "range", "loop", "duplicate",
                                 "non-finite", "count", "blank", "separator"]))
    if kind == "drop":
        del toks[draw(st.integers(0, len(toks) - 1))]
    elif kind == "add":
        toks.insert(draw(st.integers(0, len(toks))), "1")
    elif kind == "number":
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(
            ["x", "1.5", "1e0", "1_0", "\u0661", "0x1", "--1", "1,0", "2.0", "nan"]))
    elif kind == "separator":
        toks = [" ".join(toks[:1]) + "\u00a0" + " ".join(toks[1:])]
    elif kind == "count":
        lines = lines[:]
        lines[0] = f"{n} {int(lines[0].split()[1]) + draw(st.sampled_from([-1, 1]))}\n"
        return lines
    elif kind == "blank":
        return lines[:k] + [draw(st.sampled_from(["\n", "\u00a0\n", " \u00a0\t\n"]))] + lines[k:]
    elif k == 0:  # the edge kinds below need an edge line
        return lines
    elif kind == "range":
        toks[draw(st.integers(0, 1))] = str(draw(st.sampled_from([0, -1, n + 1, n + 9])))
    elif kind == "loop":
        toks[1] = toks[0]
    elif kind == "non-finite":
        toks[2] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-Infinity"]))
    else:  # a repeat of this edge, in either orientation, counted in the header
        if draw(st.booleans()):
            toks[0], toks[1] = toks[1], toks[0]
        at = draw(st.integers(k + 1, len(lines)))
        lines = lines[:at] + [" ".join(toks) + "\n"] + lines[at:]
        lines[0] = f"{n} {len(lines) - 1}\n"
        return lines
    return lines[:k] + [" ".join(toks) + "\n"] + lines[k + 1:]


def assert_same_graph(path):
    """load_gset and the reference agree on ``path``: the same edges and a
    bit-identical Max-Cut SDP, or a ParseError of the same text."""
    want, got = outcome(gset_ref.load_gset, path), outcome(load_gset, path)
    if isinstance(want, ParseError):
        assert type(got) is ParseError and str(got) == str(want)
        return want
    assert isinstance(got, GraphInstance), got
    i, j, w = zip(*want.edges) if want.edges else ((), (), ())
    assert got.n_vertices == want.n_vertices
    assert got.edges["i"].tolist() == list(i) and got.edges["j"].tolist() == list(j)
    assert np.array_equal(bits(got.edges["w"]), bits(w))
    new, old = build_maxcut_sdp(got), gset_ref.build_maxcut_sdp(want)
    for a, b in [(new.C.rows, old.C.rows), (new.C.cols, old.C.cols),
                 (bits(new.C.vals), bits(old.C.vals)), (new.op.avec.indices, old.op.avec.indices),
                 (new.op.avec.indptr, old.op.avec.indptr),
                 (bits(new.op.avec.data), bits(old.op.avec.data)), (bits(new.b), bits(old.b))]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


class TestGsetAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(graph=gset_lines(), data=st.data())
    def test_same_graph_and_same_sdp(self, graph, data):
        _, lines = graph
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(decorate_gset(data.draw, lines))
            assert isinstance(assert_same_graph(path), GraphInstance)

    @settings(max_examples=300, deadline=None)
    @given(graph=gset_lines(), data=st.data())
    def test_malformed_file_rejected_alike(self, graph, data):
        n, lines = graph
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(decorate_gset(data.draw, _mutate_gset(data.draw, n, lines)))
            assert_same_graph(path)

    def test_benchmark_family_graph(self, tmp_path):
        # the n = 200 graph of the maxcut workload, its edges shuffled
        rng = np.random.default_rng(1)
        rows, cols = np.triu_indices(200, 1)
        hit = np.flatnonzero(rng.random(rows.size) < 0.03)
        hit = hit[np.random.default_rng(5).permutation(hit.size)]
        path = tmp_path / "g.txt"
        path.write_text(f"200 {hit.size}\n" + "".join(
            f"{cols[k] + 1} {rows[k] + 1} 1\n" for k in hit))
        assert assert_same_graph(str(path)).edges.size == hit.size


@pytest.mark.parametrize("token", [
    "2", "+2", "02", "-2", "2.0", "2.", "2e0", "0x2", "0_2", "\u0662", "\uff12", "2\u00a0",
    "1.5", ".5", "5.", "1e3", "1E+3", "-0.0", "1e999", "nan", "-inf", "Infinity",
    "1_0.5", "1e", "1.5.", "0x1p0", "\u0661.\u0665", "i", "1j",
])
def test_one_number_grammar(tmp_path, token):
    """A token parses in a Gset line exactly when it parses in the same place
    of an SDPA entry line: as a label where an index stands, and as a weight
    where the value stands."""
    def parses(text, load, malformed):
        path = tmp_path / "f.txt"
        path.write_text(text, encoding="utf-8")
        try:
            load(str(path))
        except ParseError as exc:
            return not str(exc).endswith(malformed)
        return True

    head = "1\n1\n3\n1.0\n0 1 1 1 1.0\n"
    for gset, sdpa in [(f"3 1\n1 {token} 1\n", f"{head}1 1 1 {token} 1.0\n"),
                       (f"3 1\n1 2 {token}\n", f"{head}1 1 1 2 {token}\n")]:
        assert parses(gset, load_gset, ": malformed edge line") == parses(
            sdpa, load_sdpa, ": malformed entry"), (gset, sdpa)
