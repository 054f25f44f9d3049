"""The "one implementation" rules of the package source, each run on
src/curvadd and on a sample file that breaks it:

* immutability is errors.Frozen's: only errors.py defines __setattr__
  or __delattr__;
* so are equality and hashing: only errors.py defines __eq__ or
  __hash__;
* every record derives from errors.Frozen: no module names namedtuple
  or dataclass;
* the derived operators are fields._RingOps' and _FieldOps': no other
  class defines them, by def or by alias, in its body or by assignment
  to a class attribute, except the overrides in OWNERS.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "curvadd"

# the classes besides the two bases that may define each derived operator
OWNERS = {
    "__radd__": set(), "__rmul__": set(), "__sub__": set(), "__rsub__": set(),
    "__truediv__": {"UniPoly"}, "__rtruediv__": {"UniPoly"},
    "__pow__": {"RationalFunction"},
}
BASES = ("_RingOps", "_FieldOps")


def _mentions(pattern, allowed=()):
    """A rule that a regex matches no line of a module outside `allowed`
    (module file names); it returns the offending file names."""
    def rule(paths):
        return [
            path.name for path in paths
            if path.name not in allowed and re.search(pattern, path.read_text(encoding="utf-8"))
        ]
    return rule


def derived_operators(paths):
    """Each definition of a derived operator outside _RingOps, _FieldOps
    and OWNERS, as "file: Class.name" or "file: target"."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name not in BASES:
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names = [stmt.name]
                    elif isinstance(stmt, ast.Assign):
                        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    found += [f"{path.name}: {node.name}.{n}" for n in names
                              if n in OWNERS and node.name not in OWNERS[n]]
            elif isinstance(node, ast.Assign):
                found += [f"{path.name}: {ast.unparse(t)}" for t in node.targets
                          if isinstance(t, ast.Attribute) and t.attr in OWNERS]
    return found


RULES = {
    "setattr": _mentions(r"def __setattr__|def __delattr__", allowed=("errors.py",)),
    "eq-hash": _mentions(r"def __eq__|def __hash__", allowed=("errors.py",)),
    "records": _mentions(r"namedtuple|dataclass"),
    "operators": derived_operators,
}

# per rule: a module that breaks it
VIOLATIONS = {
    "setattr": "class Point:\n    def __delattr__(self, name):\n        pass\n",
    "eq-hash": "class Point:\n    def __hash__(self):\n        return 0\n",
    "records": "from collections import namedtuple\n\nPoint = namedtuple('Point', 'x y')\n",
    "operators": "class Point:\n    def __sub__(self, other):\n        pass\n\n"
                 "Point.__rmul__ = Point.__sub__\n",
}


@pytest.mark.parametrize("rule", RULES)
def test_the_package_keeps_each_rule(rule):
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert RULES[rule](paths) == []


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_catches_its_violation(rule, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(VIOLATIONS[rule], encoding="utf-8")
    assert RULES[rule]([path])


def test_errors_py_is_exempt_from_the_first_two_rules():
    errors = SRC / "errors.py"
    assert not RULES["setattr"]([errors]) and not RULES["eq-hash"]([errors])
    assert _mentions(r"def __setattr__")([errors]) == ["errors.py"]


def test_the_operator_rule_reports_each_definition(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(VIOLATIONS["operators"] + (
        "class UniPoly:\n    __truediv__ = None\n    __radd__ = None\n\n"
        "class _FieldOps:\n    def __rsub__(self, other):\n        pass\n"
    ), encoding="utf-8")
    assert derived_operators([path]) == [
        "sample.py: Point.__sub__",
        "sample.py: Point.__rmul__",
        "sample.py: UniPoly.__radd__",
    ]
