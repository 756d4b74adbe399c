import numpy as np
import pytest

from polybundle.linalg import apply_A, apply_At, svec
from polybundle.problems import (
    GraphInstance,
    ParseError,
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
