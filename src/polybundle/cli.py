"""Command-line interface: solve, generate, maxcut, check.

Exit codes: 1 on a usage or parse error; otherwise ``EXIT_CODES`` of the
run's status for solve and maxcut, and 0 or 2 for check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import problems, solver
from .linalg import EigenConvergenceError, SvecSupport, SymMatrix, apply_A


def _error(message) -> int:
    """Report a usage or input error on stderr; returns its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 1


EXIT_CODES = {
    solver.STATUS_CONVERGED: 0,
    solver.STATUS_ITER_LIMIT: 2,
    solver.STATUS_TIME_LIMIT: 2,
    solver.STATUS_SUBPROBLEM_FAILURE: 3,
    solver.STATUS_EIGEN_FAILURE: 4,
}
PARAM_FIELDS = {f.name for f in dataclasses.fields(solver.SolverParams)}


def _lmax_arg(text: str):
    """An integer cap; other text is a preset name, which validate() checks."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_solver_flags(p: argparse.ArgumentParser):
    """Each setting's dest is its SolverParams field; an absent flag leaves
    the field's default."""
    setting = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    setting("--t0", type=float)
    setting("--xi", type=float)
    setting("--rho", type=float)
    setting("--rank", type=int)
    setting("--lmax", dest="l_max", type=_lmax_arg,
            help=f"an integer, or one of {', '.join(solver.LMAX_PRESETS)}")
    setting("--eps", type=float)
    setting("--maxiter", type=int)
    setting("--time-limit", dest="time_limit_secs", type=float)
    setting("--prior-rank", type=int,
            help="predict the rank, starting from this one")
    p.add_argument("--trace-out", default=None,
                   help="write the per-iteration trace here: CSV if the name "
                        "ends in .csv, else JSON lines")
    p.add_argument("--out", default=None, help="write the run report here "
                                               "instead of stdout")


def _params_from_args(args) -> solver.SolverParams:
    return solver.SolverParams(
        **{k: v for k, v in vars(args).items() if k in PARAM_FIELDS})


# the field annotations that _scalars writes to the report and the trace
SCALAR_TYPES = {"int", "float", "str", "bool", "None"}


def _json_value(value):
    """None (JSON null) for a non-finite float: strict JSON has no NaN or inf."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _scalars(obj) -> dict:
    """The fields of a dataclass whose annotation is a scalar type, by name."""
    return {f.name: _json_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if set(f.type.split(" | ")) <= SCALAR_TYPES}


def _trace_writer(fh):
    """A solve callback that writes every IterationRecord field to ``fh`` as
    each iteration ends, one flushed row: CSV when the file's name ends in
    .csv, JSON lines otherwise."""
    if fh.name.endswith(".csv"):
        w = csv.DictWriter(fh, [f.name for f in
                                dataclasses.fields(solver.IterationRecord)])
        w.writeheader()
        write_row = w.writerow
    else:
        def write_row(row):
            fh.write(json.dumps(row, allow_nan=False) + "\n")

    def callback(info):
        write_row(_scalars(info.record))
        fh.flush()
    return callback


def _load_instance(path: str):
    if path.endswith(".json"):
        problem, _ = problems.load_manifest(path)
        return problem
    return problems.load_sdpa(path)


def _run_solver(args, load) -> int:
    """Load, validate the settings, solve, report. ``load()`` returns the
    problem; ``solver.problem_settings`` decides what the flags leave unset."""
    try:
        problem = load()
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        return _error(exc)
    try:
        params = _params_from_args(args)
        solver.problem_settings(problem, SvecSupport.of(problem.op, problem.C), params)
    except ValueError as exc:
        return _error(exc)
    with contextlib.ExitStack() as files:
        # opened once the settings are known good, and before the solve, so
        # that a bad path costs no solve and a bad setting leaves no file
        out_is_new = bool(args.out) and not os.path.lexists(args.out)
        try:
            trace_fh, out_fh = [
                files.enter_context(open(path, "w", newline="", encoding="utf-8"))
                if path else None for path in (args.trace_out, args.out)]
        except OSError as exc:
            return _error(exc)
        try:
            result = solver.solve(problem, params,
                                  _trace_writer(trace_fh) if trace_fh else None)
        except BaseException:
            # an interrupted run keeps its trace rows and removes the report
            # file it made, never a file that was there or the trace; the
            # interrupt, not a failed removal, is what propagates
            if out_is_new:
                out_fh.close()
                with contextlib.suppress(OSError):
                    if os.path.isfile(args.out) and not (
                            trace_fh and os.path.samefile(args.out, args.trace_out)):
                        os.remove(args.out)
            raise
        # y as well, so that ``check`` reads the report as a solution file
        report = json.dumps({**_scalars(result),
                             "y": [_json_value(v) for v in result.y.tolist()],
                             "instance": _scalars(problem),
                             "params": _scalars(params)},
                            indent=2, allow_nan=False)
        print(report, file=out_fh)  # stdout without --out
    return EXIT_CODES[result.status]


def cmd_solve(args) -> int:
    return _run_solver(args, lambda: _load_instance(args.input))


def cmd_generate(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
        problem, planted = problems.generate_random_sdp(
            args.n, args.m, args.r, args.sparsity, args.s, args.seed
        )
        stem = os.path.join(args.out, problem.name)
        instance_path = stem + ".dat-s"
        manifest_path = stem + ".json"
        problems.write_sdpa(problem, instance_path)
        problems.write_manifest(manifest_path, problem, planted, instance_path,
                                args.sparsity, args.s, args.seed)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(instance_path)
    print(manifest_path)
    return 0


def cmd_maxcut(args) -> int:
    return _run_solver(args, lambda: problems.build_maxcut_sdp(
        problems.load_gset(args.input)))


def cmd_check(args) -> int:
    if not 0 < args.eps < math.inf:
        return _error("eps must be finite and positive")
    try:
        problem = _load_instance(args.input)
        with open(args.solution, encoding="utf-8") as fh:
            sol = json.load(fh)
    except (OSError, problems.ParseError) as exc:
        return _error(exc)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        return _error(f"{args.solution}: invalid JSON: {exc}")
    if not isinstance(sol, dict):
        return _error(f"{args.solution}: solution is not a JSON object")
    try:
        y = problems._floats(sol.get("y", sol.get("y_star")))
        x = sol.get("X")
        x = None if x is None else problems._floats(x)
        au = sol.get("objective_primal", sol.get("planted_objective"))
        au = None if au is None else problems._floats(au)
    except (ValueError, OverflowError) as exc:
        return _error(f"{args.solution}: non-numeric solution field: {exc}")
    if y.ndim != 1 or y.size != problem.m or not np.all(np.isfinite(y)):
        return _error(f"solution y must be a finite vector of size {problem.m}")
    if au is not None and (au.ndim or not np.isfinite(au)):
        return _error("solution objective must be a finite number")
    if x is not None:
        n = problem.n
        if x.shape != (n, n) or not np.all(np.isfinite(x)):
            return _error(f"solution X must be a finite {n} x {n} matrix")
        try:
            x = SymMatrix.from_dense(x)
        except ValueError as exc:
            return _error(f"solution X: {exc}")
    try:
        support = SvecSupport.of(problem.op, problem.C)
        _, lam_max, _, _ = solver.penalty_eval(problem, support, y, 1, rho=1.0)
    except EigenConvergenceError as exc:
        return _error(f"eigensolve of S = C - A'y failed: {exc}")
    doc = {"delta4": solver.dual_infeasibility(lam_max)}
    if x is not None:
        doc["delta1"] = solver.primal_infeasibility(apply_A(problem.op, x),
                                                    problem.b)
    if au is not None:
        doc["delta5"] = solver.duality_gap(float(au), float(problem.b @ y))
    print(json.dumps({k: _json_value(v) for k, v in doc.items()}, indent=2,
                     allow_nan=False))
    return 0 if max(doc.values()) <= args.eps else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybundle",
        description="Polyhedral bundle method for standard-form SDP",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a removed flag must not be read as a prefix of another
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_solve = add_command("solve", help="solve an SDPA or manifest instance")
    p_solve.add_argument("input")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = add_command("generate", help="generate a planted random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--sparsity", type=float, required=True)
    p_gen.add_argument("--s", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".")
    p_gen.set_defaults(func=cmd_generate)

    p_mc = add_command("maxcut", help="solve the Max-Cut relaxation of a Gset graph")
    p_mc.add_argument("input")
    _add_solver_flags(p_mc)
    p_mc.set_defaults(func=cmd_maxcut)

    p_chk = add_command("check", help="verify a solution file against an instance")
    p_chk.add_argument("input")
    p_chk.add_argument("solution")
    p_chk.add_argument("--eps", type=float, default=1e-4)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which it has
        # already reported; 2 here means an iteration or time limit
        return 0 if exc.code == 0 else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
