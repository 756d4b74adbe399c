import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polybundle
from polybundle import cli, problems, qp, solver
from polybundle.linalg import EigenConvergenceError
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
        _, man = generated
        doc = json.loads(man.read_text())
        assert doc["n"] == 30 and doc["m"] == 30 and doc["r"] == 3
        assert doc["kappa_X"] > 0 and doc["kappa_S"] > 0
        assert "planted_objective" in doc

    def test_same_seed_identical_files(self, generated, tmp_path):
        dat, _ = generated
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

    def test_out_is_a_file_exit_1_before_generating(self, tmp_path, capsys,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(polybundle.problems, "generate_random_sdp",
                            lambda *a, **k: calls.append(1))
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["generate", "--n", "30", "--m", "30", "--r", "3",
                     "--sparsity", "0.1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as a strict parser does."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def read_trace(path):
    """The rows of a --trace-out file, CSV or JSON lines."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    return [strict_json(line) for line in path.read_text().splitlines()]


class TestSolve:
    def test_converged_run_exit_0(self, generated, capsys, tmp_path):
        _, man = generated
        out = tmp_path / "report.json"
        code = main(["solve", str(man), "--out", str(out)])
        assert code == 0
        report = strict_json(out.read_text())
        assert set(report) == {
            "status", "iterations", "wall_secs", "delta1", "delta4", "delta5",
            "delta6", "objective_primal", "objective_dual", "rank_used", "rho",
            "failure", "lower_bound", "lower_bound_gap",
            "delta1_last_above_eps", "delta4_last_above_eps",
            "delta5_last_above_eps", "delta6_last_above_eps", "y",
            "instance", "params"}
        assert len(report["y"]) == 30
        assert set(report["instance"]) == {"name", "n", "m", "known_rank",
                                           "known_trace"}
        assert set(report["params"]) == cli.PARAM_FIELDS
        assert report["status"] == "Converged" and report["failure"] is None
        assert max(report["delta1"], report["delta4"], report["delta5"],
                   report["delta6"]) <= 1e-4
        assert report["params"]["eps"] == 1e-4
        # the run ends at the first iteration with every measure at most eps
        held = [report[f"delta{i}_last_above_eps"] for i in (1, 4, 5, 6)]
        assert max(held) == report["iterations"] - 1

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
        code = main(["solve", str(man), "--t0", "10"])
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--t0", "nan"), ("--t0", "inf"),
        ("--eps", "nan"), ("--eps", "inf"),
        ("--rho", "nan"), ("--rho", "inf"), ("--rho", "0"),
        ("--xi", "nan"), ("--xi", "inf"), ("--xi", "0"),
        ("--time-limit", "nan"), ("--time-limit", "inf"),
        ("--time-limit", "0"), ("--time-limit", "-1"),
    ])
    def test_non_finite_or_out_of_range_setting_exit_1(self, generated, capsys,
                                                       flag, value):
        _, man = generated
        code = main(["solve", str(man), f"{flag}={value}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_time_limit_exit_2(self, generated, tmp_path, capsys):
        _, man = generated
        trace = tmp_path / "trace.jsonl"
        code = main(["solve", str(man), "--time-limit", "1e-9",
                     "--trace-out", str(trace)])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "TimeLimit"
        assert report["iterations"] == 1
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["k"] for r in rows] == [1]

    def test_prior_rank_alone_predicts_the_rank(self, generated, capsys):
        dat, _ = generated
        # the prior stands in for --rank; prediction finds the planted rank
        code = main(["solve", str(dat), "--rho", "100", "--prior-rank", "6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["prior_rank"] == 6
        assert report["rank_used"] == 3

    def test_jsonl_trace(self, generated, tmp_path, capsys):
        _, man = generated
        trace = tmp_path / "trace.jsonl"
        code = main(["solve", str(man), "--trace-out", str(trace)])
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        ks = [r["k"] for r in rows]
        assert ks == sorted(ks)
        elapsed = [r["elapsed_secs"] for r in rows]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        assert rows[0]["step_type"] in ("descent", "null")

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.csv"])
    def test_trace_rows_explain_each_step(self, generated, tmp_path, capsys,
                                          name):
        # every record field is in every row, so a row shows why its
        # candidate was a descent or a null step
        _, man = generated
        trace = tmp_path / name
        assert main(["solve", str(man), "--trace-out", str(trace)]) == 0
        rows = read_trace(trace)
        fields = [f.name for f in dataclasses.fields(solver.IterationRecord)]
        assert all(list(row) == fields for row in rows)
        assert {row["step_type"] for row in rows} == {"descent", "null"}
        for row in rows:
            f_y, f_z, model = (float(row[f]) for f in ("F_y", "F_z",
                                                       "model_value"))
            descent = solver.BETA1 * (f_y - model) <= f_y - f_z
            assert (row["step_type"] == "descent") == descent, row["k"]

    @pytest.mark.parametrize("k", [1, 3])
    def test_failed_run_report_and_trace_are_strict_json(
            self, tmp_path, capsys, monkeypatch, k):
        # an eigensolver failure at call k: at k = 1 no iteration finished,
        # so the measures are infinite; the primal objective is NaN either way
        assert main(["generate", "--n", "12", "--m", "8", "--r", "2",
                     "--sparsity", "0.3", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        man = next(tmp_path.glob("*.json"))
        capsys.readouterr()
        real, calls = solver.extreme_eigs, []

        def failing(s, r):
            calls.append(1)
            if len(calls) == k:
                raise EigenConvergenceError("injected", best_residual=1.0)
            return real(s, r)

        monkeypatch.setattr(solver, "extreme_eigs", failing)
        trace = tmp_path / "trace.jsonl"
        assert main(["solve", str(man), "--trace-out", str(trace)]) == 4
        report = strict_json(capsys.readouterr().out)
        assert report["objective_primal"] is None
        assert report["failure"] == "injected"
        assert len(read_trace(trace)) == report["iterations"] == max(k - 2, 0)
        if k == 1:
            assert report["delta1"] is None and report["delta5"] is None

    def test_csv_trace(self, generated, tmp_path, capsys):
        _, man = generated
        trace = tmp_path / "trace.csv"
        code = main(["solve", str(man), "--trace-out", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("k,step_type,F_y")
        assert len(lines) > 1

    @pytest.mark.parametrize("exc", [
        qp.NonConvergence("active-set iteration cap exceeded"),
        np.linalg.LinAlgError("matrix not positive definite"),
    ], ids=["non-convergence", "lin-alg-error"])
    def test_qp_failure_exit_3(self, generated, capsys, monkeypatch, exc):
        _, man = generated
        k, real = 3, qp.solve_subproblem
        calls = []

        def failing(data, warm_start=None):
            calls.append(1)
            if len(calls) == k:
                raise exc
            return real(data, warm_start=warm_start)

        monkeypatch.setattr(qp, "solve_subproblem", failing)
        code = main(["solve", str(man)])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["status"] == "SubproblemFailure"
        assert report["failure"] == str(exc)
        assert report["iterations"] == k - 1

    def test_eigen_failure_exit_4(self, generated, capsys, monkeypatch):
        _, man = generated
        k, real = 3, solver.extreme_eigs
        calls = []

        def failing(s, r):
            calls.append(1)
            if len(calls) == k:
                raise EigenConvergenceError("injected", best_residual=1.0)
            return real(s, r)

        monkeypatch.setattr(solver, "extreme_eigs", failing)
        code = main(["solve", str(man)])
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["status"] == "EigenFailure"
        assert report["failure"] == "injected"
        assert report["iterations"] == k - 2

    def test_solve_raw_sdpa_needs_only_rho(self, generated, capsys):
        dat, _ = generated
        # raw .dat-s has no metadata: rho must come from a flag, while the
        # rank defaults to min(n, ceil(sqrt(2m))) = 8 at n = m = 30
        code = main(["solve", str(dat), "--rho", "100"])
        assert code in (0, 2)
        assert json.loads(capsys.readouterr().out)["rank_used"] == 8

    @pytest.mark.parametrize("flag", ["--rank", "--prior-rank"])
    def test_rank_above_n_exit_1(self, generated, tmp_path, capsys, flag):
        # the instance rejects the setting before any output file is made
        _, man = generated
        out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
        code = main(["solve", str(man), flag, "31", "--out", str(out),
                     "--trace-out", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rank")
        assert not out.exists() and not trace.exists()

    @staticmethod
    def interrupt_oracle(monkeypatch, k):
        """Raise KeyboardInterrupt in the oracle of iteration k + 1
        (penalty_eval's call k + 2, after the start's)."""
        real, calls = solver.penalty_eval, []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == k + 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "penalty_eval", interrupted)

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.csv"])
    def test_interrupted_run_leaves_its_rows(self, generated, tmp_path,
                                             monkeypatch, name):
        # the trace streams: an interrupt in iteration k + 1 leaves k rows,
        # and no empty report
        _, man = generated
        k = 4
        self.interrupt_oracle(monkeypatch, k)
        trace, out = tmp_path / name, tmp_path / "report.json"
        with pytest.raises(KeyboardInterrupt):
            main(["solve", str(man), "--trace-out", str(trace), "--out", str(out)])
        rows = read_trace(trace)
        assert [int(row["k"]) for row in rows] == list(range(1, k + 1))
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["existing", "symlink", "trace"])
    def test_interrupted_run_keeps_files_it_did_not_make(
            self, generated, tmp_path, monkeypatch, kind):
        # only a report file the run made itself is removed: not a file that
        # was there, not a link, and not the trace written to the same path
        _, man = generated
        self.interrupt_oracle(monkeypatch, 4)
        trace, out = tmp_path / "trace.jsonl", tmp_path / "report.json"
        if kind == "existing":
            out.write_text("old")
        elif kind == "symlink":
            target = tmp_path / "target.json"
            target.write_text("old")
            out.symlink_to(target)
        else:
            out = trace
        with pytest.raises(KeyboardInterrupt):
            main(["solve", str(man), "--trace-out", str(trace), "--out", str(out)])
        assert out.exists()
        if kind == "symlink":
            assert out.is_symlink() and target.exists()
        if kind == "trace":
            assert [int(row["k"]) for row in read_trace(trace)] == [1, 2, 3, 4]

    def test_failed_removal_does_not_hide_the_interrupt(
            self, generated, tmp_path, monkeypatch):
        _, man = generated
        self.interrupt_oracle(monkeypatch, 4)

        def refuse(path):
            raise PermissionError(path)

        monkeypatch.setattr(os, "remove", refuse)
        out = tmp_path / "report.json"
        with pytest.raises(KeyboardInterrupt):
            main(["solve", str(man), "--out", str(out)])

    @pytest.mark.parametrize("command", ["solve", "maxcut"])
    @pytest.mark.parametrize("flag", ["--out", "--trace-out"])
    def test_unwritable_output_exit_1_before_solving(self, generated, tmp_path,
                                                     capsys, monkeypatch,
                                                     command, flag):
        _, man = generated
        graph = tmp_path / "graph.txt"
        graph.write_text("3 2\n1 2 1\n2 3 1\n")
        calls = []
        monkeypatch.setattr(solver, "solve", lambda *a, **k: calls.append(1))
        target = man if command == "solve" else graph
        code = main([command, str(target), flag,
                     str(tmp_path / "missing" / "out.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert calls == []


    @pytest.mark.parametrize("trace", [-1.0, 0.0], ids=["negative", "zero"])
    def test_known_trace_below_zero_exit_1(self, generated, tmp_path, capsys,
                                           trace):
        dat, man = generated
        doc = json.loads(man.read_text())
        doc.update(instance=str(dat.resolve()), trace_X=trace)
        path, out = tmp_path / "manifest.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path), "--maxiter", "2", "--out", str(out)])
        if trace < 0:
            assert code == 1
            assert capsys.readouterr().err.startswith("error: known primal trace")
            assert not out.exists()
        else:  # a zero trace is a valid bound, and rho = 1
            assert code == 2
            assert json.loads(out.read_text())["rho"] == 1.0


class TestUsage:
    @pytest.mark.parametrize("args", [
        ["--lmax", "foo"],
        ["--bogus"],
        ["--trace", "jsonl"],          # removed; not a prefix of --trace-out
        ["--trace-o", "trace.jsonl"],  # no abbreviations
        ["--predict-rank"],            # removed
        ["--nullmax", "3"],            # removed
        ["--tmax", "1"],               # removed
        ["--beta1", "0.05"],           # removed
    ], ids=["bad-lmax", "unknown-flag", "trace", "abbreviation",
            "predict-rank", "nullmax", "tmax", "beta1"])
    def test_usage_error_exit_1(self, generated, tmp_path, monkeypatch, capsys,
                                args):
        _, man = generated
        monkeypatch.chdir(tmp_path)
        code = main(["solve", str(man), *args])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_argument_exit_1(self, capsys):
        assert main(["solve"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["-h"]) == 0
        assert main(["solve", "-h"]) == 0
        assert "--trace-out" in capsys.readouterr().out

    def test_usage_error_process_exit_1(self):
        proc = run_cli("solve", "--bogus")
        assert proc.returncode == 1
        assert "error:" in proc.stderr


def test_every_setting_has_a_flag():
    # a setting without a flag is one that no command-line run can change
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("solve", "maxcut"):
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert dests >= cli.PARAM_FIELDS, command


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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_eps_not_finite_and_positive_exit_1(self, generated, tmp_path,
                                                capsys, value):
        # the rule of SolverParams.validate, applied before either file is
        # read; with --eps=inf every solution would pass
        _, man = generated
        missing = tmp_path / "missing.json"
        for solution in (man, missing):
            assert main(["check", str(man), str(solution), f"--eps={value}"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: eps must be finite and positive\n"

    def test_dimension_mismatch_exit_1(self, generated, tmp_path, capsys):
        _, man = generated
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"y": [1.0, 2.0]}))
        code = main(["check", str(man), str(sol)])
        assert code == 1

    def test_eigensolver_failure_exit_1_without_traceback(self, tmp_path):
        # both constraints have entry (1, 1), so a finite y overflows S there
        # to -inf and LAPACK returns no eigenpairs
        instance = tmp_path / "shared.dat-s"
        instance.write_text("2\n1\n2\n1.0 1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n"
                            "2 1 1 1 1.0\n2 1 2 2 1.0\n")
        sol = tmp_path / "sol.json"
        sol.write_text('{"y": [1e308, 1e308]}')
        proc = run_cli("check", instance, sol)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: eigensolve")
        assert "Traceback" not in proc.stderr


class TestMaxcutCommand:
    def test_small_graph_solves(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        n = 20
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        lines = [f"{n} {len(edges)}"] + [f"{i} {j} 1" for i, j in edges]
        g = tmp_path / "graph.txt"
        g.write_text("\n".join(lines) + "\n")
        code = main(["maxcut", str(g), "--eps", "1e-3", "--maxiter", "500",
                     "--lmax", "sq"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "Converged"
        # the certified bound b'y - n max(lambda_max(A'y - C), 0), n = tr X
        dual, bound = report["objective_dual"], report["lower_bound"]
        assert bound == dual - n * report["delta4"]
        assert report["lower_bound_gap"] == (dual - bound) / (1.0 + abs(dual))

    @pytest.mark.parametrize("n,rank", [(1, 1), (20, 7), (100, 15)])
    def test_default_sense_and_rank(self, tmp_path, capsys, n, rank):
        # the solver's default rank min(n, ceil(sqrt(2m))), with m = n
        lines = [f"{n} {n - 1}"] + [f"{i} {i + 1} 1" for i in range(1, n)]
        g = tmp_path / "path.txt"
        g.write_text("\n".join(lines) + "\n")
        main(["maxcut", str(g), "--maxiter", "1"])
        report = json.loads(capsys.readouterr().out)
        assert report["rank_used"] == rank
        assert report["instance"]["name"] == f"maxcut-n{n}-maximize"

    def test_rho_below_the_trace_exit_1(self, tmp_path, capsys):
        # every feasible X has tr X = n = 20, and F falls without bound
        # along y_hat = 1 for rho < 20: rejected before the report is opened
        g, out = tmp_path / "path.txt", tmp_path / "r.json"
        g.write_text("20 19\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 20)))
        assert main(["maxcut", str(g), "--rho", "19.5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: rho must be at least the trace 20")
        main(["maxcut", str(g), "--rho", "20", "--maxiter", "1"])
        assert json.loads(capsys.readouterr().out)["rho"] == 20.0

    def test_bad_graph_exit_1(self, tmp_path, capsys):
        g = tmp_path / "bad.txt"
        g.write_text("2 1\n1 5 1\n")
        code = main(["maxcut", str(g)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {g}:2: edge (1,5) out of range\n"

    @pytest.mark.parametrize("header", ["0 0", "-2 0"])
    def test_graph_without_vertices_names_file_and_line(self, tmp_path, capsys,
                                                        header):
        g = tmp_path / "empty.txt"
        g.write_text(header + "\n")
        assert main(["maxcut", str(g)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {g}:1: ")


@pytest.fixture(scope="module")
def maxcut_sdpa(tmp_path_factory):
    """The c10 Max-Cut instance as a raw SDPA file, which carries no trace."""
    rng = np.random.default_rng(1)
    n = 100
    edges = [(i + 1, j + 1, 1.0) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.06]
    problem = problems.build_maxcut_sdp(problems.GraphInstance(n, edges),
                                        sense="maximize")
    path = tmp_path_factory.mktemp("maxcut") / "maxcut.dat-s"
    problems.write_sdpa(problem, str(path))
    return path


class TestMaxCutSdpa:
    """A(X) = b fixes the whole diagonal, so every feasible X has tr X =
    n: rho and the bound need no trace from the file."""

    def test_solves_without_rho(self, maxcut_sdpa, capsys):
        code = main(["solve", str(maxcut_sdpa), "--eps", "1e-3", "--lmax", "sq"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["status"] == "Converged"
        assert report["rho"] == 201.0
        assert report["instance"]["known_trace"] is None
        assert np.isfinite(report["lower_bound"])
        assert report["lower_bound"] == report["objective_dual"]

    def test_returned_dual_passes_check(self, maxcut_sdpa, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["solve", str(maxcut_sdpa), "--eps", "1e-3", "--lmax", "sq",
                     "--out", str(out)]) == 0
        code = main(["check", str(maxcut_sdpa), str(out), "--eps", "1e-3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["delta4"] <= 1e-12
        assert doc["delta5"] <= 1e-3

    def test_graph_and_its_sdpa_file_report_alike(self, tmp_path, capsys):
        # the trace comes from the constraints on both routes, so the
        # builder's instance and the file's run the same
        rng = np.random.default_rng(1)
        n = 100
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.06]
        graph, sdpa = tmp_path / "g.txt", tmp_path / "g.dat-s"
        graph.write_text("\n".join([f"{n} {len(edges)}"] +
                                   [f"{i} {j} 1" for i, j in edges]) + "\n")
        problems.write_sdpa(problems.build_maxcut_sdp(problems.load_gset(str(graph))),
                            str(sdpa))
        keys = ("status", "iterations", "rho", "lower_bound", "objective_dual", "y")
        reports = []
        for route in (["maxcut", str(graph)], ["solve", str(sdpa)]):
            assert main([*route, "--eps", "1e-3", "--lmax", "sq"]) == 0
            report = json.loads(capsys.readouterr().out)
            reports.append([report["instance"]["known_trace"],
                            *(report[key] for key in keys)])
        assert reports[0] == reports[1]
        assert reports[0][:2] == [None, "Converged"]


def run_cli(*args):
    """The CLI in a fresh interpreter, so that a traceback shows on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "polybundle.cli", *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(polybundle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])},
    )


TINY_SDPA = b"1\n1\n2\n1.0\n1 1 1 1 1.0\n"


class TestMalformedSdpa:
    @pytest.mark.parametrize("content", [
        b"1\n1\n2\n1.0\n1 1 1 1 nan\n",
        b"1\n1\n2\ninf\n1 1 1 1 1.0\n",
        b"1\n1\n0\n1.0\n",
        b"1\n1\n2\n1.0\n\xff\n",
    ], ids=["nan-entry", "inf-rhs", "zero-block", "not-utf8"])
    def test_solve_exit_1_without_traceback(self, tmp_path, capsys, content):
        # an exception escaping main() fails the test, as a traceback would
        path = tmp_path / "bad.dat-s"
        path.write_bytes(content)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_process_exit_1_without_traceback(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_bytes(b"1\n1\n2\n1.0\n\xff\n")
        proc = run_cli("solve", path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {path}")
        assert "Traceback" not in proc.stderr


class TestMalformedManifest:
    @pytest.mark.parametrize("content", [
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": "abc"}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1}\xff',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1, "trace_X": "x"}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1, "trace_X": NaN}',
        b'{"instance": 5, "n": 2, "m": 1, "r": 1}',
        b'{"instance": "tiny.dat-s\\u0000", "n": 2, "m": 1, "r": 1}',
        b'["tiny.dat-s", 2, 1, 1]',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 2.7}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": true}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": "1"}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1, "trace_X": true}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1, "trace_X": "1.0"}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1, "x": '
        + b'[' * 100_000 + b']' * 100_000 + b'}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": 1, "r": 1.0}',
        b'{"instance": "tiny.dat-s", "n": 2.0, "m": 1, "r": 1}',
        b'{"instance": "tiny.dat-s", "n": 2, "m": true, "r": 1}',
    ], ids=["rank-not-int", "not-utf8", "trace-not-float", "trace-nan",
            "instance-not-str", "instance-nul", "json-list", "rank-fraction",
            "rank-bool", "rank-string", "trace-bool", "trace-string",
            "json-too-deep", "rank-integral-float", "n-float", "m-bool"])
    def test_solve_exit_1_without_traceback(self, tmp_path, capsys, content):
        (tmp_path / "tiny.dat-s").write_bytes(TINY_SDPA)
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")


class TestMalformedSolution:
    @pytest.mark.parametrize("content", [
        b'{"y": "abc"}',
        b'[1.0]',
        b'{"y": [1.0]}\xff',
        b'{"y": [NaN]}',
        b'{"y": [1.0], "X": [["a", "b"], ["c", "d"]]}',
        b'{"y": [1.0], "objective_primal": "x"}',
        b'{"y": ["1.5"]}',
        b'{"y": [true]}',
        b'{"y": [1' + b'0' * 400 + b']}',
        b'{"y": [1.0], "X": [["1.0", "0"], ["0", "0"]]}',
        b'{"y": [1.0], "X": [[true, false], [false, false]]}',
        b'{"y": [1.0], "objective_primal": "0.0"}',
        b'{"y": [1.0], "objective_primal": false}',
        b'{"y": ' + b'[' * 60 + b'1.0' + b']' * 60 + b'}',
        b'{"y": ' + b'[' * 100_000 + b']' * 100_000 + b'}',
    ], ids=["y-not-numeric", "json-list", "not-utf8", "y-nan", "X-not-numeric",
            "objective-not-numeric", "y-number-strings", "y-bool",
            "y-int-overflow", "X-number-strings", "X-bool", "objective-string",
            "objective-bool", "y-60-deep", "json-too-deep"])
    def test_check_exit_1_without_traceback(self, tmp_path, capsys, content):
        instance = tmp_path / "tiny.dat-s"
        instance.write_bytes(TINY_SDPA)
        path = tmp_path / "sol.json"
        path.write_bytes(content)
        assert main(["check", str(instance), str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckSolutionValues:
    """y = 0 is dual optimal on TINY_SDPA and X = E11 primal optimal, so a
    check passes unless the solution file itself is bad."""

    def check(self, tmp_path, solution):
        instance = tmp_path / "tiny.dat-s"
        instance.write_bytes(TINY_SDPA)
        path = tmp_path / "sol.json"
        path.write_text(solution)
        return main(["check", str(instance), str(path)])

    def test_optimal_pair_passes(self, tmp_path, capsys):
        code = self.check(tmp_path, '{"y": [0.0], "X": [[1.0, 0.0], [0.0, 0.0]], '
                                    '"objective_primal": 0.0}')
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"delta4": 0.0, "delta1": 0.0, "delta5": 0.0}

    def test_delta4_is_never_negative_zero(self, tmp_path, capsys):
        # at y = 0, S = C = diag(1, 0) has smallest eigenvalue +0.0, so
        # lambda_max(A'y - C) is -0.0
        instance = tmp_path / "c.dat-s"
        instance.write_bytes(b"1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n")
        path = tmp_path / "sol.json"
        path.write_text('{"y": [0.0]}')
        assert main(["check", str(instance), str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"delta4": 0.0}
        assert '"delta4": 0.0' in out

    @pytest.mark.parametrize("fields", [
        '"X": [[NaN, NaN], [NaN, NaN]]',
        '"X": [[1.0, 0.0], [0.0, Infinity]]',
        '"X": [[1.0, 5.0], [0.0, 0.0]]',
        '"objective_primal": NaN',
        '"objective_primal": -Infinity',
        '"objective_primal": [0.0]',
    ], ids=["X-nan", "X-inf", "X-upper-triangular", "objective-nan",
            "objective-inf", "objective-list"])
    def test_bad_value_exit_1(self, tmp_path, capsys, fields):
        code = self.check(tmp_path, f'{{"y": [0.0], {fields}}}')
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solution")
