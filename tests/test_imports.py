"""No module of the package or of its tests imports a name it never uses,
no function there assigns a local it never reads, no function of the
package takes a parameter its body never reads, and the package defines
no function or class that nothing names.

Stand-ins for a linter's unused-import, unused-variable, unused-argument
and dead-code rules.  A name bound by an import counts as used when it
appears anywhere in the module as a bare name or the root of an attribute
chain, or is listed in ``__all__``.
A name a function binds (by assignment, a loop, ``with``, ``except ... as``
or a walrus) counts as read when any code in the function, nested functions
included, loads it; names starting with ``_`` and names declared ``global``
or ``nonlocal`` are exempt.  A parameter counts as read when its function's
body loads it, nested functions included; its annotation and default do
not count, and names starting with ``_`` are exempt.  A function or class
the package defines counts as named when its name appears as a whole word
in some Python file of ``src/``, ``tests/`` or ``perfbench/`` more often
than it is defined there; dunder names are exempt.

The package asks ``svec_indices`` for every position only in the dense
helpers of ``DENSE_HELPERS``, whose input or output has that length anyway;
every other path passes the positions it needs, so that it stays O(nnz).

And a solve loads no solver library beyond what the package needs:
``scipy.optimize`` stays out, since its import alone adds to every run's
time and memory.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "polybundle"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def unused_locals(source: str) -> list[str]:
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(fn))
        exempt = {name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        read = {n.id for n in nodes
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        bound = [(n.lineno, n.id) for n in nodes
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        bound += [(n.lineno, n.name) for n in nodes
                  if isinstance(n, ast.ExceptHandler) and n.name]
        found.update((line, name) for line, name in bound
                     if name not in read | exempt and not name.startswith("_"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def unused_parameters(source: str) -> list[str]:
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, [args.vararg, args.kwarg])]
        found += [(fn.lineno, a.arg) for a in params
                  if a.arg not in read and not a.arg.startswith("_")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


DENSE_HELPERS = {"from_dense", "svec", "_svec_entries", "generate_random_sdp"}


def full_table_calls(source: str) -> list[str]:
    """The calls of ``svec_indices`` without positions (none given, or None)
    outside the functions named in DENSE_HELPERS, as the innermost function
    that makes each."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "svec_indices" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            pos = node.args[1:] + [k.value for k in node.keywords if k.arg == "pos"]
            if all(isinstance(p, ast.Constant) and p.value is None for p in pos) \
                    and owner not in DENSE_HELPERS:
                found.append(f"line {node.lineno}: {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def dead_definitions(package: dict[str, str], elsewhere: str = "") -> list[str]:
    """The functions and classes defined in ``package`` (file name to
    source) whose name appears, in the package or in ``elsewhere``, no more
    often than it is defined; dunder names are exempt."""
    sites = {}
    for file, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                sites.setdefault(node.name, []).append(f"{file}:{node.lineno}: {node.name}")
    words = Counter(re.findall(r"\w+", "\n".join([*package.values(), elsewhere])))
    return sorted(site for name, found in sites.items()
                  if words[name] <= len(found) for site in found)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_all():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "from .linalg import smat\n"
              "__all__ = ['smat']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 1: dataclass", "line 1: field"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_local_checker_flags_assigned_but_never_read():
    source = ("def f(xs, g):\n"
              "    a, b = g()\n"            # b is never read
              "    _c, *rest = xs\n"        # _c exempt; rest never read
              "    for i, x in enumerate(xs):\n"  # i never read
              "        a += x\n"
              "    try:\n"
              "        g()\n"
              "    except ValueError as exc:\n"  # exc never read
              "        pass\n"
              "    total = 0\n"
              "    def inner():\n"
              "        nonlocal total\n"
              "        total += 1\n"
              "        kept = (y := 2)\n"   # kept and y never read
              "    if (n := len(xs)) > 1:\n"
              "        return lambda: [k for k in range(n)]\n"
              "    return a\n")
    assert unused_locals(source) == [
        "line 2: b", "line 3: rest", "line 4: i", "line 8: exc",
        "line 14: kept", "line 14: y"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_checker_flags_what_the_body_never_reads():
    source = ("def f(a, b: int, _c, *args, d=None, **kw):\n"  # b, args, kw unread
              "    def inner(e=a):\n"      # e unread; a is read by the default
              "        return d\n"
              "    return inner\n"
              "class K:\n"
              "    def m(self, x):\n"       # self unread
              "        return x\n"
              "g = lambda y, z: y\n")         # z unread
    assert unused_parameters(source) == [
        "line 1: args", "line 1: b", "line 1: kw", "line 2: e", "line 6: self",
        "line 8: z"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_full_index_tables_only_in_dense_helpers(path):
    assert full_table_calls(path.read_text(encoding="utf-8")) == []


def test_table_checker_flags_calls_without_positions():
    source = ("from .linalg import svec_indices\n"
              "import polybundle.linalg as la\n"
              "def svec(n):\n"                       # a dense helper: exempt
              "    return svec_indices(n)\n"
              "def of(n, pos):\n"
              "    a = svec_indices(n, pos)\n"
              "    b = la.svec_indices(n, pos=pos)\n"
              "    def inner():\n"
              "        return svec_indices(n, None)\n"  # no positions
              "    return la.svec_indices(n), a, b, inner\n"
              "rows = svec_indices(4, pos=None)\n")
    assert full_table_calls(source) == [
        "line 9: inner", "line 10: of", "line 11: None"]


def test_no_dead_definitions():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
    elsewhere = "\n".join(p.read_text(encoding="utf-8") for p in others)
    assert dead_definitions(package, elsewhere) == []


def test_definition_checker_flags_what_nothing_names():
    package = {
        "a.py": ("class Kept:\n"
                 "    def __init__(self):\n"   # dunder: exempt
                 "        self.n = helper()\n"
                 "    def orphan_method(self):\n"
                 "        pass\n"
                 "def helper():\n"
                 "    return 1\n"
                 "class OrphanClass:\n"
                 "    pass\n"),
        "b.py": ("def twice():\n"              # defined twice, named nowhere
                 "    pass\n"
                 "def outside():\n"
                 "    def twice():\n"
                 "        pass\n"),
    }
    assert dead_definitions(package, "Kept(); outside()") == [
        "a.py:4: orphan_method", "a.py:8: OrphanClass",
        "b.py:1: twice", "b.py:4: twice"]


def test_a_solve_does_not_load_scipy_optimize():
    # the primal polish runs on the package's own active-set QP; importing
    # scipy.optimize after polybundle raises the peak RSS from 61 to 77 MB
    # (scipy 1.17.1)
    code = ("import sys, polybundle as pb\n"
            "problem, _ = pb.generate_random_sdp(20, 20, 2, 0.1, 1.0, 0)\n"
            "assert pb.solve(problem).status == 'Converged'\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])})
    assert out.stdout.strip() == "[]"
