"""What README.md lists agrees with the code: the constants, the bundle-cap
presets, the command-line flags, the result's and the trace's fields and the
package's names."""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import polybundle
from polybundle import cli, solver

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# an item such as `bundle.GAMMA1 = 1e-6`: a module or class, a name, a value
CONSTANT = re.compile(r"`(\w+)\.(\w+) = ([^`]+)`")
# a preset row such as | `"sq"` | `r * r` |
PRESET_ROW = re.compile(r'^\| `"(\w+)"`[^|]* \| `([^`]+)` \|$', re.M)
# a flag row such as | `--lmax` | `l_max` |, or | `--out PATH` | none: ... |
FLAG_ROW = re.compile(r"^\| `(--[\w-]+)[^`]*` \| (?:`(\w+)`|none:[^|]*) \|$", re.M)


def owner(name: str):
    """The module polybundle.<name>."""
    return getattr(polybundle, name)


def section(heading: str) -> str:
    """README text from the heading to the next heading of its level."""
    start = TEXT.index(f"\n{heading}\n")
    level = heading.split()[0]
    end = TEXT.find(f"\n{level} ", start + len(heading) + 2)
    return TEXT[start:end if end >= 0 else None]


def test_readme_constants_match_the_code():
    items = CONSTANT.findall(TEXT)
    listed = {f"{where}.{name}" for where, name, _ in items}
    assert listed >= {
        "bundle.GAMMA1", "bundle.GAMMA2", "solver.NULLMAX",
        "solver.PREDCOUNT_MAX", "solver.T_MIN", "solver.T_MAX",
        "solver.BETA1", "solver.BETA2", "solver.BETA3",
    }
    for where, name, value in items:
        assert getattr(owner(where), name) == ast.literal_eval(value), \
            f"{where}.{name}"


def test_readme_presets_match_the_table():
    rows = PRESET_ROW.findall(TEXT)
    assert [name for name, _ in rows] == list(solver.LMAX_PRESETS)
    for name, rule in rows:
        for r in range(1, 30):
            assert eval(rule, {"r": r}) == solver.LMAX_PRESETS[name](r), name


def parser_flags(command: str) -> dict:
    """Each flag of the command: its SolverParams field, or None."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {flag: action.dest if action.dest in cli.PARAM_FIELDS else None
            for action in subparsers.choices[command]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")}


def test_readme_flags_match_the_parser():
    listed = {flag: field or None for flag, field in
              FLAG_ROW.findall(section("## Command line"))}
    assert "--lmax" in listed and "--out" in listed
    assert parser_flags("solve") == listed
    assert parser_flags("maxcut") == listed


def listed_fields(lead: str) -> list:
    """The names before the colon of each item of the bullet list that
    follows ``lead``, up to the blank line."""
    block = TEXT[TEXT.index(lead):].split("\n\n")[0]
    return [name for item in block.split("\n- ")[1:]
            for name in re.findall(r"`(\w+)`", item.split(":")[0])]


def test_readme_trace_fields_match_the_record():
    listed = listed_fields("`result.trace` holds one `IterationRecord` per iteration")
    assert listed == [f.name for f in dataclasses.fields(solver.IterationRecord)]


def test_readme_result_fields_match_the_result():
    listed = listed_fields("`solve` returns a `SolveResult`, with these fields")
    assert listed == [f.name for f in dataclasses.fields(solver.SolveResult)]


def test_readme_names_match_all():
    names = re.findall(r"`(\w+)`", "\n".join(
        line for line in section("## Package names").splitlines()
        if line.startswith(("- ", "  "))))
    assert len(names) == len(set(names)) == 20
    assert sorted(names) == sorted(polybundle.__all__)
    assert len(polybundle.__all__) == len(set(polybundle.__all__))


def test_readme_python_example_runs(capsys):
    # the one example users copy: it must still run against the package
    block = TEXT.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "Converged"
