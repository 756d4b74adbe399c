"""Tests of the benchmark's hooks, span accounting, gates and metric tables.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import polybundle as pb
import run
from polybundle import solver
from tracing import (HOOKS, Hook, Tracer, _resolve, accounting_failures,
                     installed, self_times)
from workloads import WORKLOADS, OpResult, Seeds

ROOT = Path(__file__).resolve().parents[2]


def _originals():
    return {(h.owner, h.attr): inspect.getattr_static(_resolve(h.owner), h.attr)
            for h in HOOKS}


def _small_solve():
    problem, _ = pb.generate_random_sdp(30, 30, 2, 0.1, 1.0, 0)
    return solver.solve(problem, pb.SolverParams(eps=1e-4, maxiter=300))


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    setup_bound = dict((m["name"], m["bound"]) for m in spec["end_to_end"])["setup_s"]
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_every_hook_resolves_and_is_restored():
    before = _originals()
    tracer = Tracer()
    with installed(tracer):
        assert all(inspect.getattr_static(_resolve(h.owner), h.attr)
                   is not before[(h.owner, h.attr)] for h in HOOKS)
        _small_solve()
    assert not tracer.missing
    assert _originals() == before


def test_hooks_are_restored_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("boom")
    assert _originals() == before


def test_missing_hook_is_reported_and_the_rest_still_traced():
    renamed = Hook("polybundle.qp", "_eqp_solve_renamed", "qp._eqp_solve")
    hooks = tuple(h for h in HOOKS if h.attr != "_eqp_solve") + (renamed,)
    tracer = Tracer()
    problem, _ = pb.generate_random_sdp(30, 30, 2, 0.1, 1.0, 0)
    with installed(tracer, hooks):
        res = solver.solve(problem, pb.SolverParams(eps=1e-4, maxiter=300))
    assert tracer.missing == {"qp._eqp_solve", "observe:qp._eqp_solve"}
    op = OpResult(0, res.wall_secs, res.iterations, None,
                  {"max_delta": res.max_delta}, res)
    values = metrics.per_layer(tracer, op, op)
    assert values["qp.active_set_steps"] is None
    assert values["qp.calls"] == res.iterations
    assert values["linalg.extreme_eigs_calls"] == res.iterations + 1


def test_span_accounting_holds_on_a_traced_solve():
    tracer = Tracer()
    with installed(tracer):
        _small_solve()
    root = next(i for i, (name, _, _, parent) in enumerate(tracer.spans)
                if name == "solver.solve" and parent == -1)
    assert accounting_failures(tracer.spans) == []
    assert self_times(tracer.spans)[root] >= 0.0


def test_span_accounting_catches_a_child_outside_its_parent():
    spans = [["solver.solve", 0.0, 1.0, -1], ["qp.solve_subproblem", 0.5, 1.5, 0]]
    assert accounting_failures(spans)


@pytest.mark.parametrize("name,iterations", [("planted-dense", 65), ("maxcut", 140)])
def test_traced_and_untraced_runs_agree(name, iterations, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    seeds = Seeds(run.DEFAULT_PLANTED_SEED, run.DEFAULT_GRAPH_SEED, None)
    out = run.traced_run(WORKLOADS[name], seeds, log=lambda msg: None)
    assert out["trace_failure"] is None
    a, b = out["untraced"].result, out["traced"].result
    assert a.iterations == b.iterations == iterations
    assert [r.F_y for r in a.trace] == [r.F_y for r in b.trace]
    assert [r.step_type for r in a.trace] == [r.step_type for r in b.trace]


def test_input_seed_shuffles_the_gset_file_but_not_the_problem(tmp_path):
    wl = WORKLOADS["maxcut"]
    plain = wl.construct(wl.prepare(Seeds(42, 1, None), 0, tmp_path))
    _, path = prepared = wl.prepare(Seeds(42, 1, 5), 0, tmp_path)
    shuffled = wl.construct(prepared)
    assert path.read_text() != (tmp_path / "graph-n200-seed1-orderNone.txt").read_text()
    assert run.same_instance(plain, shuffled)
    for field in ("rows", "cols", "vals"):
        assert (getattr(plain.problem.C, field) == getattr(shuffled.problem.C, field)).all()


def test_wrong_answers_and_exceptions_are_failed_operations(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    wl, seeds = WORKLOADS["maxcut"], Seeds(42, 1, None)
    real = solver.solve
    monkeypatch.setattr(solver, "solve", lambda problem, params: real(
        problem, dataclasses.replace(params, maxiter=1)))
    out = run.measure(wl, seeds, 0.0, log=lambda msg: None)
    assert [op.failure for op in out["ops"]] == ["status IterLimit"] * wl.min_repeats
    assert metrics.end_to_end(out["ops"], out["setup_times"], 1.0)["op_s"] is None

    def broken(problem, params):
        raise pb.EigenConvergenceError("no convergence")
    monkeypatch.setattr(solver, "solve", broken)
    out = run.measure(wl, seeds, 0.0, log=lambda msg: None)
    assert all(op.failure.startswith("EigenConvergenceError") for op in out["ops"])


def test_blas_threads_above_the_core_count_are_refused(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores + 1))
    assert "more BLAS threads" in run.cap_blas_threads(cores)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert run.cap_blas_threads(cores) is None
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maxcut", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
