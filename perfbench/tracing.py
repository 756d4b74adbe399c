"""Spans around the calls into polybundle's layers, recorded from outside.

A hook replaces one attribute with a wrapper that records a span (name,
start, end, parent) in a ``Tracer`` and, optionally, feeds the call's
arguments and result to an observer that updates the tracer's counters.
Each hook patches the name where its caller looks it up: ``solver`` binds
``extreme_eigs`` and ``pvec_generate`` at import time, so those are patched
on ``polybundle.solver``; ``solve`` reaches the QP through ``qp_mod``, so
``solve_subproblem`` is patched on ``polybundle.qp``.

``installed(tracer)`` patches every hook that still resolves and restores
every original on exit.  A hook that no longer resolves is reported in
``Tracer.missing``; the metrics that depend on it are then reported as
missing instead of as numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

LAYERS = ("problems", "solver", "linalg", "bundle", "qp")


class Tracer:
    """In-memory span log plus counters filled by the hooks' observers."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()   # spans and observers that did not resolve
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


# -- observers: derive counters from a call's bound arguments and result ------

def _eigs(counts, args, out):
    n = args["s"].shape[0]
    r = args["r"]
    dense_cutoff = importlib.import_module("polybundle.linalg").DENSE_EIG_CUTOFF
    if n > dense_cutoff and r <= n - 2:
        counts["linalg.arpack_calls"] += 1


def _pvec(counts, args, out):
    p, avec = np.atleast_2d(args["p"]), args["op"].avec
    n, l = p.shape
    nt, nnz = n * (n + 1) // 2, avec.nnz
    # Computed from array sizes, not measured: forming Pvec (2 flops per
    # entry), a = Pvec'cvec, and B = avec'Pvec; bytes are one write and one
    # read of Pvec, the cvec read, the Pvec gathers for B, and avec itself.
    counts["bundle.pvec_flops_computed"] += 4 * nt * l + 2 * nnz * l
    counts["bundle.pvec_bytes_computed"] += (
        8 * (2 * nt * l + nt + nnz * l)
        + nnz * (avec.data.itemsize + avec.indices.itemsize))


def _slack(counts, args, out):
    nnz = out.nnz if sp.issparse(out) else np.count_nonzero(out)
    counts["solver.slack_density_sum"] += nnz / (out.shape[0] * out.shape[1])


def _qp(counts, args, out):
    counts["qp.cols_sum"] += args["d"].B.shape[1]
    counts["qp.kkt_residual_max"] = max(counts["qp.kkt_residual_max"],
                                        out.kkt_residual)


def _aggregate(counts, args, out):
    counts["bundle.size_sum"] += out.l
    counts["bundle.aggregated_cols"] += len(args["p_bar"])


@dataclass(frozen=True)
class Hook:
    owner: str        # dotted module path, then optional class name
    attr: str
    span: str         # "<layer>.<function>"
    observe: Callable | None = None


HOOKS = (
    Hook("polybundle.problems", "generate_random_sdp", "problems.generate_random_sdp"),
    Hook("polybundle.problems", "load_gset", "problems.load_gset"),
    Hook("polybundle.problems", "build_maxcut_sdp", "problems.build_maxcut_sdp"),
    Hook("polybundle.problems", "write_sdpa", "problems.write_sdpa"),
    Hook("polybundle.problems", "load_sdpa", "problems.load_sdpa"),
    Hook("polybundle.linalg:ConstraintOperator", "constraint_matrix",
         "linalg.constraint_matrix"),
    Hook("polybundle.linalg:ConstraintOperator", "from_matrices",
         "linalg.from_matrices"),
    Hook("polybundle.solver", "solve", "solver.solve"),
    Hook("polybundle.solver", "penalty_eval", "solver.penalty_eval"),
    Hook("polybundle.solver", "dual_slack", "solver.dual_slack", _slack),
    Hook("polybundle.solver", "extreme_eigs", "linalg.extreme_eigs", _eigs),
    Hook("polybundle.solver", "pvec_generate", "bundle.pvec_generate", _pvec),
    Hook("polybundle.solver", "model_eval", "bundle.model_eval"),
    Hook("polybundle.solver", "select_aggregation", "bundle.select_aggregation"),
    Hook("polybundle.bundle", "aggregate_and_append",
         "bundle.aggregate_and_append", _aggregate),
    Hook("polybundle.solver", "descent_decision", "solver.descent_decision"),
    Hook("polybundle.solver", "termination_check", "solver.termination_check"),
    Hook("polybundle.qp", "solve_subproblem", "qp.solve_subproblem", _qp),
    Hook("polybundle.qp", "_eqp_solve", "qp._eqp_solve"),
    Hook("polybundle.qp", "kkt_residual", "qp.kkt_residual"),
)


def observer_key(span: str) -> str:
    """Name under which a hook's observer counters are marked missing."""
    return "observe:" + span


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(fn, hook: Hook, tracer: Tracer):
    signature = inspect.signature(fn) if hook.observe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(hook.span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if signature is not None and observer_key(hook.span) not in tracer.missing:
            try:
                bound = signature.bind(*args, **kwargs).arguments
                hook.observe(tracer.counts, bound, out)
            except (KeyError, AttributeError, TypeError, IndexError):
                # the program changed under the observer: its counters are missing
                tracer.missing.add(observer_key(hook.span))
        return out
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Patch every resolvable hook for the duration of the block."""
    undo = []
    try:
        for hook in hooks:
            try:
                owner = _resolve(hook.owner)
                raw = inspect.getattr_static(owner, hook.attr)
            except (ImportError, AttributeError):
                tracer.missing.update((hook.span, observer_key(hook.span)))
                continue
            own = hook.attr in vars(owner)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, hook, tracer))
            else:
                new = _wrap(raw, hook, tracer)
            setattr(owner, hook.attr, new)
            undo.append((owner, hook.attr, raw, own))
        yield tracer
    finally:
        for owner, attr, raw, own in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


# -- span arithmetic -----------------------------------------------------------

def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread with a stack discipline, so siblings never
    overlap and the children's union is their sum.
    """
    dur = np.array([e - s for _, s, e, _ in spans])
    out = dur.copy()
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out[parent] -= dur[i]
    return out


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants (children follow parents)."""
    keep = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in keep:
            keep.add(i)
    return sorted(keep)


def accounting_failures(spans: list[list], tol: float = 1e-6) -> list[str]:
    """Checks that make the per-layer numbers add up.

    Every span is closed and lies inside its parent, no self time is
    negative, and the self times of each top-level span's subtree sum to its
    wall time.
    """
    problems = []
    for name, start, end, parent in spans:
        if end is None:
            problems.append(f"span {name} never closed")
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {name} escapes its parent {spans[parent][0]}")
    if problems or not spans:
        return problems
    own = self_times(spans)
    if own.min() < -tol:
        problems.append(f"negative self time {own.min():.3g} s")
    for root, (name, start, end, parent) in enumerate(spans):
        if parent == -1 and abs(own[subtree(spans, root)].sum() - (end - start)) > tol:
            problems.append(f"self times under {name} do not sum to its wall time")
    return problems
