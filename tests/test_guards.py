"""ast guards for the exactness rules and the independence of the four methods.

Every module of src/runpoly is walked, and each breach is reported as
file:line: rule.  The rules are allowlists:

- no `/` operator, no float literal, and no call to float or round;
- from math only factorial, comb, gcd and lcm;
- decimal only in cli, where its context cannot round;
- brute force imports only RunCountTriangle from the package, and the
  recurrence triangle only Immutable;
- closedform, genfun and recurrences never name another method's builder:
  build_triangle, recurrence_rows, brute_triangle, _run_count_row, or
  u_s_series outside genfun, the module that defines it.
"""

import ast
from pathlib import Path

import pytest

import runpoly

PACKAGE = Path(runpoly.__file__).parent
MATH_NAMES = {"factorial", "comb", "gcd", "lcm"}
PACKAGE_IMPORTS = {"bruteforce.py": {".triangle.RunCountTriangle"}, "triangle.py": {".poly.Immutable"}}
BUILDERS = {"build_triangle", "recurrence_rows", "brute_triangle", "_run_count_row", "u_s_series"}
INDEPENDENT = {"closedform.py", "genfun.py", "recurrences.py"}


def _rules(name: str, node: ast.AST, defined: set[str]):
    """The rules that node, in the module `name` defining the top-level names `defined`, breaks."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield "no / operator"
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        yield "no float literal"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
        yield f"no call to {node.func.id}"
    imported = []  # each imported name in full, a relative one with its leading dots
    if isinstance(node, ast.Import):
        imported = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        prefix = "." * node.level + (f"{node.module}." if node.module else "")
        imported = [prefix + alias.name for alias in node.names]
        if node.module == "math" and not {alias.name for alias in node.names} <= MATH_NAMES:
            yield f"from math only {', '.join(sorted(MATH_NAMES))}, not {', '.join(imported)}"
    for full in imported:
        if full.split(".")[0] == "decimal" and name != "cli.py":
            yield "decimal only in cli"
        if name in PACKAGE_IMPORTS and full.startswith(".") and full not in PACKAGE_IMPORTS[name]:
            yield f"{name[:-3]} imports only {', '.join(sorted(PACKAGE_IMPORTS[name]))} from the package, not {full}"
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math" and node.attr not in MATH_NAMES:
        yield f"from math only {', '.join(sorted(MATH_NAMES))}, not math.{node.attr}"
    if name in INDEPENDENT:
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        named |= {full.rpartition(".")[2] for full in imported}
        for builder in sorted(named & BUILDERS - defined):
            yield f"{name[:-3]} never names another method's {builder}"


def breaches(name: str, source: str) -> list[str]:
    """Every rule the module `name` with this source breaks, as file:line: rule."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return [
        f"{name}:{node.lineno}: {rule}" for node in ast.walk(tree) for rule in _rules(name, node, defined)
    ]


def test_every_module_keeps_the_rules():
    found = [b for path in sorted(PACKAGE.glob("*.py")) for b in breaches(path.name, path.read_text())]
    assert found == []


@pytest.mark.parametrize("name, line, rule", [
    ("closedform.py", "half = n / 2", "no / operator"),
    ("cli.py", "n /= 2", "no / operator"),
    ("poly.py", "scale = 0.5", "no float literal"),
    ("closedform.py", "x = float(n)", "no call to float"),
    ("genfun.py", "x = round(n, 2)", "no call to round"),
    ("poly.py", "from math import sqrt", "from math only comb, factorial, gcd, lcm, not math.sqrt"),
    ("poly.py", "import math\nmath.isqrt(4)", "from math only comb, factorial, gcd, lcm, not math.isqrt"),
    ("serialize.py", "import decimal", "decimal only in cli"),
    ("bruteforce.py", "from .closedform import K",
     "bruteforce imports only .triangle.RunCountTriangle from the package, not .closedform.K"),
    ("triangle.py", "from . import poly",
     "triangle imports only .poly.Immutable from the package, not .poly"),
    ("genfun.py", "from .triangle import build_triangle", "genfun never names another method's build_triangle"),
    ("recurrences.py", "rows = genfun.u_s_series(3, 8)", "recurrences never names another method's u_s_series"),
    ("closedform.py", "from . import bruteforce\nbruteforce.brute_triangle(5)",
     "closedform never names another method's brute_triangle"),
])
def test_each_rule_names_the_file_line_and_rule(name, line, rule):
    # a mutation appended to a module breaks exactly one rule, on its last line
    source = PACKAGE.joinpath(name).read_text() + "\n" + line + "\n"
    last = source.count("\n")
    assert breaches(name, source) == [f"{name}:{last}: {rule}"]


def test_a_module_may_name_its_own_builder():
    assert breaches("genfun.py", "def u_s_series():\n    pass\n\nu_s_series()\n") == []
