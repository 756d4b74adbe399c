#!/usr/bin/env python3
"""polybundle benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload planted-dense --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

With ``--trace 0`` one run sets up its instance several times (``setup_s``
is the median), warms up untimed, then runs ``--seconds`` worth of
operations at the workload's nominal operation time, each of the workload's
instances at least ``min_repeats`` times.  The time metrics take each
instance's median over its passing operations and average over the
instances.  With ``--trace 1`` it runs one operation untraced and the same
operation traced, and reports the per-layer metrics; the spans are written
to ``.perfbench/``.  An operation that fails a correctness check or raises
counts as failed and yields no timing.  The last line of standard output is
one JSON object: correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, scipy, polybundle and the modules that use them are imported inside
# functions: BLAS thread limits must be set before numpy is first imported.

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
DEFAULT_PLANTED_SEED = 42   # the c01/c02 instance
DEFAULT_GRAPH_SEED = 1      # the c10 graph seed
HELD_OUT_SEEDS = (7, 7)     # (planted, graph): kept for confirming claims
SETUP_MIN_REPS = 3
SETUP_BATCH_S = 0.2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all' for every workload in turn")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed: orders the run's instances and shuffles "
                         "the Max-Cut file's edge order")
    ap.add_argument("--planted-seed", type=int, default=None,
                    help=f"planted-instance seed (default {DEFAULT_PLANTED_SEED})")
    ap.add_argument("--graph-seed", type=int, default=None,
                    help=f"Max-Cut graph seed (default {DEFAULT_GRAPH_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail-out", default=None,
                    help="also write the full run record as JSON to this file")
    return ap.parse_args(argv)


def seeds(args):
    """Seeds of this run; --seed is the input seed."""
    from workloads import Seeds

    planted = (args.planted_seed if args.planted_seed is not None
               else DEFAULT_PLANTED_SEED)
    graph = args.graph_seed if args.graph_seed is not None else DEFAULT_GRAPH_SEED
    return Seeds(planted=planted, graph=graph, input=args.seed)


# -- environment ---------------------------------------------------------------

def cap_blas_threads(cores: int) -> str | None:
    """Refuse thread settings above the core count; default to one thread.

    One BLAS thread keeps the timings steady on a shared host: with a thread
    per core, a neighbour busy on one core stalls every BLAS call at its
    barrier (n=400 eigh went from 30 to 46-50 ms, with 215 ms spikes, beside
    one busy process on 2 cores; one thread stayed at 29 ms).  numpy and
    scipy each bundle an OpenBLAS with its own pool, which would double the
    threads again.  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        val = os.environ.get(var)
        if val is None:
            continue
        try:
            n = int(val)
        except ValueError:
            return f"{var}={val!r} is not an integer"
        if n > cores:
            return f"{var}={n} asks for more BLAS threads than the {cores} cores"
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return None


def import_program():
    """Import polybundle from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "polybundle"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"polybundle sources not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import polybundle
    if Path(polybundle.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported polybundle from {polybundle.__file__}, "
                         f"not from {pkg}")


def _blas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if readable."""
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(cores: int) -> dict:
    import numpy
    import scipy
    from polybundle import linalg

    env = {"cores": cores, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "dense_eig_cutoff": linalg.DENSE_EIG_CUTOFF}
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        env[f"{mod.__name__}_blas_threads"] = _blas_threads(mod)
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return env


# -- one workload --------------------------------------------------------------

def same_instance(a, b) -> bool:
    import numpy as np
    pa, pb_ = a.problem, b.problem
    return (np.array_equal(pa.b, pb_.b) and np.array_equal(pa.cvec, pb_.cvec)
            and pa.op.avec.shape == pb_.op.avec.shape
            and (pa.op.avec != pb_.op.avec).nnz == 0)


def warm_up(wl, inst):
    """Untimed warm-up; a failure here is met and reported by the timed
    operations that follow."""
    try:
        wl.warm_up(inst, WORKDIR)
    except Exception:
        pass


def attempt(wl, inst):
    """Run one operation; an exception from the program is a failed operation."""
    from workloads import OpResult

    try:
        return wl.run(inst, WORKDIR)
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc()
        return OpResult(inst.seed, 0.0, 1.0, f"{type(exc).__name__}: {exc}", {})


def timed_setup(wl, prepared):
    """Build an instance; returns it and the mean build time over a batch
    of builds lasting at least SETUP_BATCH_S (Max-Cut builds take ~5 ms)."""
    builds, start = 0, time.perf_counter()
    while True:
        inst = wl.construct(prepared)
        builds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_BATCH_S:
            return inst, elapsed / builds


def op_plan(wl, seconds: float, input_seed: int | None) -> list[int]:
    """Instance index of each operation of a run.

    The run makes rounds over every instance of the workload, in an order
    drawn from the input seed, enough to fill ``seconds`` at the nominal
    operation time and at least ``min_repeats``.  Rounds spread the repeats of
    each instance over the whole run.  The plan is fixed for given
    arguments, so every run does the same work however fast the machine is.
    """
    import numpy as np

    repeats = max(wl.min_repeats, int(seconds // (wl.instances * wl.nominal_op_s)))
    rng = np.random.default_rng(input_seed) if input_seed is not None else None
    plan = []
    for _ in range(repeats):
        plan += (rng.permutation(wl.instances).tolist() if rng
                 else list(range(wl.instances)))
    return plan


def measure(wl, seeds, seconds: float, log) -> dict:
    """Untraced run: repeated set-up, an untimed warm-up, then the
    operations of ``op_plan``.

    Set-up is timed SETUP_MIN_REPS times on the first input, which must
    build the same instance each time, and once more before each later
    operation, so the samples spread over the run.
    """
    from metrics import median

    order = op_plan(wl, seconds, seeds.input)
    prepared = wl.prepare(seeds, int(order[0]), WORKDIR)
    first, t = timed_setup(wl, prepared)
    setup_times, setup_failure = [t], None
    while len(setup_times) < SETUP_MIN_REPS:
        inst, t = timed_setup(wl, prepared)
        setup_times.append(t)
        if setup_failure is None and not same_instance(first, inst):
            setup_failure = "the same seed built a different instance"
    if setup_failure:
        log(f"setup FAILED: {setup_failure}")

    warm_up(wl, first)
    ops, inst = [], first
    for i, k in enumerate(order):
        if i:
            inst, t = timed_setup(wl, wl.prepare(seeds, int(k), WORKDIR))
            setup_times.append(t)
        op = attempt(wl, inst)
        ops.append(op)
        log(f"op {i} seed {op.seed}: {op.seconds:.4f} s, "
            f"{op.detail} -> {'ok' if op.failure is None else 'FAILED: ' + op.failure}")
    log(f"setup: {len(setup_times)} samples, median {median(setup_times):.6f} s")
    return {"setup_times": setup_times, "setup_failure": setup_failure, "ops": ops}


def traced_run(wl, seeds, log) -> dict:
    """One untraced and one traced operation on the same instance, after
    an untimed warm-up."""
    import numpy as np
    from tracing import Tracer, accounting_failures, installed

    tracer = Tracer()
    prepared = wl.prepare(seeds, 0, WORKDIR)
    with installed(tracer):
        inst = wl.construct(prepared)
    warm_up(wl, inst)
    untraced = attempt(wl, inst)
    with installed(tracer):
        traced = attempt(wl, inst)
    for label, op in (("untraced", untraced), ("traced", traced)):
        log(f"{label} op seed {op.seed}: {op.seconds:.4f} s, {op.detail} -> "
            f"{'ok' if op.failure is None else 'FAILED: ' + op.failure}")

    problems = accounting_failures(tracer.spans)
    if traced.result is not None:
        a, b = untraced.result, traced.result
        fa = np.array([r.F_y for r in a.trace])
        fb = np.array([r.F_y for r in b.trace])
        if a.iterations != b.iterations or not np.allclose(fa, fb, rtol=1e-12, atol=0):
            problems.append(f"traced run differs from untraced: {b.iterations} vs "
                            f"{a.iterations} iterations")
    if tracer.missing:
        log(f"missing hooks or observers: {sorted(tracer.missing)}")
    for p in problems:
        log(f"trace check FAILED: {p}")
    return {"tracer": tracer, "untraced": untraced, "traced": traced,
            "trace_failure": "; ".join(problems) or None}


def run_one(args, env) -> int:
    import metrics
    from workloads import WORKLOADS, INSTANCE_STRIDE

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_seeds = seeds(args)
    WORKDIR.mkdir(exist_ok=True)

    def log(msg):
        print(f"# {msg}", flush=True)

    log(f"workload {wl.name}: {wl.why}")
    log(f"seeds: planted {run_seeds.planted} (instance k uses {run_seeds.planted} + "
        f"{INSTANCE_STRIDE} k), graph {run_seeds.graph}, input {run_seeds.input}; "
        f"held-out pair: planted {HELD_OUT_SEEDS[0]}, graph {HELD_OUT_SEEDS[1]}")
    log("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    record = {"workload": wl.name, "seeds": vars(run_seeds), "env": env,
              "trace": args.trace}
    try:
        if args.trace:
            out = traced_run(wl, run_seeds, log)
            attempted = 2
            failed = ((out["untraced"].failure is not None)
                      + (out["traced"].failure is not None
                         or out["trace_failure"] is not None))
            values = (metrics.per_layer(out["tracer"], out["traced"], out["untraced"])
                      if not failed else {name: None for name, *_ in metrics.PER_LAYER})
            table = metrics.PER_LAYER
            trace_file = WORKDIR / f"trace-{wl.name}-seed{run_seeds.input}.json"
            trace_file.write_text(json.dumps({
                "workload": wl.name, "seeds": vars(run_seeds),
                "spans": out["tracer"].records(),
                "counts": dict(out["tracer"].counts),
                "missing": sorted(out["tracer"].missing)}))
            log(f"spans written to {trace_file.relative_to(ROOT)}")
            ops = [out["untraced"], out["traced"]]
        else:
            out = measure(wl, run_seeds, args.seconds, log)
            ops = out["ops"]
            attempted = 1 + len(ops)
            failed = (out["setup_failure"] is not None) + sum(
                op.failure is not None for op in ops)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = metrics.end_to_end(ops, out["setup_times"], peak_mb)
            table = metrics.END_TO_END
    finally:
        for path in WORKDIR.glob("graph-*.txt"):
            path.unlink()

    iters = sorted(op.detail["iterations"] for op in ops if "iterations" in op.detail)
    if iters:
        log(f"iterations min/median/max: {iters[0]}/{metrics.median(iters):g}/"
            f"{iters[-1]} over {len(iters)} solves")
    for name, unit, *_ in table:
        val = values[name]
        log(f"{name} = {'missing' if val is None else f'{val:.6g}'} {unit}")

    record.update(ops=[{"seed": op.seed, "seconds": op.seconds, "units": op.units,
                        "failure": op.failure, **op.detail} for op in ops],
                  iterations=iters, values=values)
    if args.detail_out:
        Path(args.detail_out).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in table}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        for flag, val in (("--seed", args.seed), ("--planted-seed", args.planted_seed),
                          ("--graph-seed", args.graph_seed)):
            if val is not None:
                cmd += [flag, str(val)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}", flush=True)
        for metric, mv in result["metrics"].items():
            val = mv["value"]
            print(f"  {metric:32s} {'missing' if val is None else f'{val:.6g}':>12} "
                  f"{mv['unit']}", flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    refusal = cap_blas_threads(cores)
    if refusal:
        print(f"refusing to run: {refusal}", file=sys.stderr)
        return 2
    import_program()
    if args.workload == "all":
        return run_all(args)
    env = environment(cores)
    too_many = {k: v for k, v in env.items()
                if k.endswith("_blas_threads") and v is not None and v > cores}
    if too_many:
        print(f"refusing to run: BLAS threads {too_many} exceed {cores} cores",
              file=sys.stderr)
        return 2
    return run_one(args, env)


if __name__ == "__main__":
    sys.exit(main())
