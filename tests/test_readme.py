"""The constants README.md lists have the values the code gives them."""

import ast
import re
from pathlib import Path

import polybundle

README = Path(__file__).resolve().parents[1] / "README.md"
# an item such as `bundle.GAMMA1 = 1e-6`: a module or class, a name, a value
CONSTANT = re.compile(r"`(\w+)\.(\w+) = ([^`]+)`")


def owner(name: str):
    """The module polybundle.<name>, or the solver class of that name."""
    return getattr(polybundle, name, None) or getattr(polybundle.solver, name)


def test_readme_constants_match_the_code():
    items = CONSTANT.findall(README.read_text(encoding="utf-8"))
    listed = {f"{where}.{name}" for where, name, _ in items}
    assert listed >= {
        "bundle.GAMMA1", "bundle.GAMMA2", "solver.NULLMAX",
        "RankPrediction.predcountmax", "solver.T_MIN", "solver.T_MAX",
        "solver.BETA1", "solver.BETA2", "solver.BETA3",
    }
    for where, name, value in items:
        assert getattr(owner(where), name) == ast.literal_eval(value), \
            f"{where}.{name}"
