"""The benchmark's workloads: how each builds its instance, its timed
operation, and the checks every operation must pass before it may yield a
timing.

Workload inputs come from seeds only.  A run of a planted workload solves
(or writes and reads) the instances with seeds ``planted + k *
INSTANCE_STRIDE`` for k below its instance count, each several times, in an
order drawn from the input seed, so every run measures the same instances.
Max-Cut keeps one graph (the graph seed): the cost of this family varies
several-fold from graph to graph (bundle growth), so the input seed only
shuffles the order of the edge lines in the Gset file, which leaves the SDP
bit-identical.  Every program call goes through its module attribute
(``problems.load_sdpa``, ``solver.solve``) so that the tracing hooks in
``tracing.py`` see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from polybundle import problems, solver

INSTANCE_STRIDE = 1000
PLANTED_DUAL_TOL = 1e-3  # relative dual error bound of acceptance criterion c02
MAXCUT_N = 200
MAXCUT_EDGE_PROB = 0.03


@dataclass(frozen=True)
class Seeds:
    planted: int          # seed of planted instance 0
    graph: int            # Max-Cut graph seed
    input: int | None     # --seed: orders the instances, shuffles the Gset edges


@dataclass
class Instance:
    problem: problems.SdpProblem
    seed: int
    by_star: float | None = None  # b'y* of the planted optimum, if known


@dataclass
class OpResult:
    """One timed operation: a solve, or an SDPA write + load round trip."""

    seed: int
    seconds: float
    units: float              # solver iterations, or SDPA megabytes moved
    failure: str | None
    detail: dict
    result: object = None     # the SolveResult of a solve

    @property
    def unit_ms(self) -> float:
        return 1e3 * self.seconds / self.units


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Seeds, int, Path], object]  # (seeds, instance k) -> input; untimed
    construct: Callable[[object], Instance]  # input -> instance; setup_s times it
    run: Callable[[Instance, Path], OpResult]
    nominal_op_s: float                      # typical operation time, sizes runs
    instances: int = 1                       # instances per run, each repeated
    # Repeats of each instance even when they outlast --seconds: the median
    # of one operation is a single sample.
    min_repeats: int = 2
    warm_up: Callable[[Instance, Path], None] = lambda inst, workdir: None


# -- instance construction ---------------------------------------------------

def _planted(n: int):
    def construct(seed: int) -> Instance:
        problem, planted = problems.generate_random_sdp(
            n=n, m=n, r=5, sparsity=1e-2, s=1.0, seed=seed)
        return Instance(problem, seed, float(problem.b @ planted.y_star))
    return construct


def _planted_seed(seeds: Seeds, k: int, workdir: Path) -> int:
    return seeds.planted + k * INSTANCE_STRIDE


def _write_graph(seeds: Seeds, k: int, workdir: Path) -> tuple[int, Path]:
    """Gset file of the c10 graph family (unit weights) at MAXCUT_N vertices."""
    rng = np.random.default_rng(seeds.graph)
    n = MAXCUT_N
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
             if rng.random() < MAXCUT_EDGE_PROB]
    if seeds.input is not None:
        order = np.random.default_rng(seeds.input).permutation(len(edges))
        edges = [edges[k] for k in order]
    path = workdir / f"graph-n{n}-seed{seeds.graph}-order{seeds.input}.txt"
    lines = [f"{n} {len(edges)}"] + [f"{i} {j} 1" for i, j in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return seeds.graph, path


def _maxcut(prepared: tuple[int, Path]) -> Instance:
    seed, path = prepared
    graph = problems.load_gset(str(path))
    return Instance(problems.build_maxcut_sdp(graph, sense="maximize"), seed)


# -- operations ----------------------------------------------------------------

def _solve_op(params: Callable[[problems.SdpProblem], solver.SolverParams]):
    def run(inst: Instance, workdir: Path) -> OpResult:
        p = params(inst.problem)
        start = time.perf_counter()
        res = solver.solve(inst.problem, p)
        seconds = time.perf_counter() - start
        detail = {"status": res.status, "iterations": res.iterations,
                  "max_delta": res.max_delta}
        failure = None
        if res.status != solver.STATUS_CONVERGED:
            failure = f"status {res.status}"
        elif not res.max_delta <= p.eps:
            failure = f"max_delta {res.max_delta:.3g} > eps {p.eps:g}"
        if inst.by_star is not None:
            err = abs(res.objective_dual - inst.by_star) / (1.0 + abs(inst.by_star))
            detail["dual_rel_err"] = err
            if failure is None and not err <= PLANTED_DUAL_TOL:
                failure = f"dual error {err:.3g} > {PLANTED_DUAL_TOL:g}"
        return OpResult(inst.seed, seconds, max(res.iterations, 1), failure,
                        detail, res)
    return run


def _solve_warm_up(params: Callable[[problems.SdpProblem], solver.SolverParams]):
    """A few untimed iterations, so that the first timed solve does not pay
    for first calls into LAPACK and the QP."""
    def warm_up(inst: Instance, workdir: Path) -> None:
        solver.solve(inst.problem, replace(params(inst.problem), maxiter=3))
    return warm_up


def _planted_params(problem):
    return solver.SolverParams(eps=1e-4, maxiter=300)


def _maxcut_params(problem):
    return solver.SolverParams(eps=1e-3, maxiter=500, t0=1e-2, l_max="sq",
                               rank=math.ceil(math.sqrt(2.0 * problem.n)))


def _sdpa_round_trip(inst: Instance, workdir: Path) -> OpResult:
    problem = inst.problem
    path = workdir / f"instance-seed{inst.seed}.dat-s"
    try:
        start = time.perf_counter()
        problems.write_sdpa(problem, str(path))
        mid = time.perf_counter()
        back = problems.load_sdpa(str(path))
        end = time.perf_counter()
        mb = path.stat().st_size / 1e6
    finally:
        path.unlink(missing_ok=True)
    failure = None
    if not np.array_equal(back.b, problem.b):
        failure = "b differs after the round trip"
    elif not np.array_equal(back.cvec, problem.cvec):
        failure = "cvec differs after the round trip"
    elif back.op.avec.shape != problem.op.avec.shape \
            or (back.op.avec != problem.op.avec).nnz != 0:
        failure = "avec differs after the round trip"
    detail = {"write_s": mid - start, "load_s": end - mid, "sdpa_mb": mb,
              "entries": back.C.nnz + back.op.avec.nnz}
    # units are megabytes moved: the file is written once and read once
    return OpResult(inst.seed, end - start, 2.0 * mb, failure, detail)


# -- the workload table -------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    # Largest c01-family size on the dense eigensolver path
    # (n <= DENSE_EIG_CUTOFF): full eigh and pvec_generate dominate.
    Workload(
        "planted-dense",
        "dense-eigh path: n=m=400 planted c01 family, eigh and pvec_generate dominate, QP about 3%",
        prepare=_planted_seed,
        construct=_planted(400),
        run=_solve_op(_planted_params),
        warm_up=_solve_warm_up(_planted_params),
        nominal_op_s=2.4,
        instances=2,
    ),
    # The QP-bound workload: S = C - Diag(y) is sparse and A is the diagonal,
    # so the oracle is cheap and solve_subproblem takes over half the time.
    Workload(
        "maxcut",
        "QP-bound: c10-family Max-Cut graph (seed 1) at n=200, rank 20, l_max=sq; active-set QP dominates, oracle is cheap",
        prepare=_write_graph,
        construct=_maxcut,
        run=_solve_op(_maxcut_params),
        warm_up=_solve_warm_up(_maxcut_params),
        nominal_op_s=4.0,
    ),
    # The only workload that runs the SDPA writer and reader; the solver is
    # not touched, so solver changes should not move it.  n=500 rather than
    # 600 (41 MB, 15 s a round trip) keeps a run of three round trips short
    # enough for the benchmark's time budget.
    Workload(
        "sdpa-io",
        "problems I/O: write_sdpa + load_sdpa of the n=500 planted instance (about 24 MB), no solve",
        prepare=_planted_seed,
        construct=_planted(500),
        run=_sdpa_round_trip,
        nominal_op_s=8.5,
        # Write and load times each swing by a third from one round trip
        # to the next; the median of three damps that.
        min_repeats=3,
    ),
]}

