import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polybundle
from polybundle.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main([
        "generate", "--n", "30", "--m", "30", "--r", "3",
        "--sparsity", "0.1", "--s", "1", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    dat = next(out.glob("*.dat-s"))
    man = next(out.glob("*.json"))
    return dat, man


class TestGenerate:
    def test_writes_instance_and_manifest(self, generated):
        dat, man = generated
        doc = json.loads(man.read_text())
        assert doc["n"] == 30 and doc["m"] == 30 and doc["r"] == 3
        assert doc["kappa_X"] > 0 and doc["kappa_S"] > 0
        assert "planted_objective" in doc

    def test_same_seed_identical_files(self, generated, tmp_path):
        dat, man = generated
        code = main([
            "generate", "--n", "30", "--m", "30", "--r", "3",
            "--sparsity", "0.1", "--s", "1", "--seed", "7",
            "--out", str(tmp_path),
        ])
        assert code == 0
        dat2 = next(tmp_path.glob("*.dat-s"))
        assert dat2.read_text() == dat.read_text()

    def test_invalid_rank_exit_1(self, tmp_path, capsys):
        code = main([
            "generate", "--n", "5", "--m", "5", "--r", "5",
            "--sparsity", "0.5", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_converged_run_exit_0(self, generated, capsys, tmp_path):
        _, man = generated
        out = tmp_path / "report.json"
        code = main(["solve", str(man), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert max(report["delta1"], report["delta4"], report["delta5"],
                   report["delta6"]) <= 1e-4
        assert report["params"]["eps"] == 1e-4

    def test_limit_exit_2(self, generated, capsys):
        _, man = generated
        code = main(["solve", str(man), "--eps", "1e-12", "--maxiter", "3"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "IterLimit"
        assert report["iterations"] == 3

    def test_missing_input_exit_1(self, capsys):
        code = main(["solve", "/nonexistent/file.dat-s"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_params_exit_1(self, generated, capsys):
        _, man = generated
        code = main(["solve", str(man), "--beta1", "0.9"])
        assert code == 1

    def test_jsonl_trace(self, generated, tmp_path, capsys):
        _, man = generated
        trace = tmp_path / "trace.jsonl"
        code = main(["solve", str(man), "--trace", "jsonl",
                     "--trace-out", str(trace)])
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        ks = [r["k"] for r in rows]
        assert ks == sorted(ks)
        elapsed = [r["elapsed_secs"] for r in rows]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        assert rows[0]["step_type"] in ("descent", "null")

    def test_csv_trace(self, generated, tmp_path, capsys):
        _, man = generated
        trace = tmp_path / "trace.csv"
        code = main(["solve", str(man), "--trace", "csv",
                     "--trace-out", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("k,step_type,F_y")
        assert len(lines) > 1

    def test_solve_raw_sdpa_needs_rank(self, generated, tmp_path, capsys):
        dat, _ = generated
        # raw .dat-s has no metadata: rank and rho must come from flags
        code = main(["solve", str(dat), "--rank", "3", "--rho", "100"])
        assert code in (0, 2)


class TestCheck:
    def test_planted_dual_passes(self, generated, tmp_path, capsys):
        _, man = generated
        code = main(["check", str(man), str(man), "--eps", "1e-6"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["delta4"] <= 1e-9
        assert doc["delta5"] <= 1e-9

    def test_perturbed_dual_fails(self, generated, tmp_path, capsys):
        _, man = generated
        doc = json.loads(man.read_text())
        rng = np.random.default_rng(0)
        y = np.asarray(doc["y_star"]) + 0.1 * rng.standard_normal(doc["m"])
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"y": y.tolist()}))
        code = main(["check", str(man), str(sol), "--eps", "1e-6"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["delta4"] > 0

    def test_dimension_mismatch_exit_1(self, generated, tmp_path, capsys):
        _, man = generated
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"y": [1.0, 2.0]}))
        code = main(["check", str(man), str(sol)])
        assert code == 1


class TestMaxcutCommand:
    def test_small_graph_solves(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        n = 20
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        lines = [f"{n} {len(edges)}"] + [f"{i} {j} 1" for i, j in edges]
        g = tmp_path / "graph.txt"
        g.write_text("\n".join(lines) + "\n")
        code = main(["maxcut", str(g), "--sense", "maximize",
                     "--eps", "1e-3", "--maxiter", "500", "--lmax", "sq"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "Converged"

    def test_bad_graph_exit_1(self, tmp_path, capsys):
        g = tmp_path / "bad.txt"
        g.write_text("2 1\n1 5 1\n")
        code = main(["maxcut", str(g)])
        assert code == 1


class TestMalformedSdpa:
    @pytest.mark.parametrize("content", [
        b"1\n1\n2\n1.0\n1 1 1 1 nan\n",
        b"1\n1\n2\ninf\n1 1 1 1 1.0\n",
        b"1\n1\n0\n1.0\n",
        b"1\n1\n2\n1.0\n\xff\n",
    ], ids=["nan-entry", "inf-rhs", "zero-block", "not-utf8"])
    def test_solve_exit_1_without_traceback(self, tmp_path, content):
        path = tmp_path / "bad.dat-s"
        path.write_bytes(content)
        proc = subprocess.run(
            [sys.executable, "-m", "polybundle.cli", "solve", str(path), "--rank", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(Path(polybundle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {path}")
        assert "Traceback" not in proc.stderr
