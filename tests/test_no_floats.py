"""The package computes exactly: no floating point anywhere in its source.

Walks the syntax tree of every module under src/macdpoly and rejects
float or complex literals, float()/complex()/round() calls, true
division of two integer literals, and math names other than the integer
ones.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "macdpoly").glob("*.py"))
INTEGER_MATH = {"factorial", "prod", "gcd", "lcm", "floor", "comb"}


def _int_literal(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def float_uses(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in {"float", "complex", "round"}):
            found.append(f"{where}: call to {node.func.id}()")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and _int_literal(node.left) and _int_literal(node.right)):
            found.append(f"{where}: {node.left.value} / {node.right.value}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_sources_found():
    assert any(path.name == "exact.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 2j", "x = float(y)", "x = complex(y)", "x = round(y)",
    "x = 1 / 2", "x = math.sqrt(y)", "x = math.pi", "from math import log",
])
def test_detector_flags(source):
    assert float_uses(ast.parse(source))


@pytest.mark.parametrize("source", [
    "x = 1 // 2", "x = y / 2", "x = math.factorial(4) + math.floor(y)", "x = Fraction(1, 2)",
])
def test_detector_passes(source):
    assert float_uses(ast.parse(source)) == []
