"""Only exact writes a scalar in cyclotomic terms.

Walks the syntax tree of every module under src/macdpoly except exact.py
and rejects any name, attribute or import of cyclotomic_scalar, cyclotomic
or _mul_int, so that every product of q-integers or factors 1 - q^(2x)
goes through exact.factor_product.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "macdpoly").glob("*.py"))
EXACT_ONLY = {"cyclotomic_scalar", "cyclotomic", "_mul_int"}


def exact_only_names(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in EXACT_ONLY:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_exact_names_them():
    exact = next(path for path in SOURCES if path.name == "exact.py")
    assert exact_only_names(ast.parse(exact.read_text(), str(exact)))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact.py"], ids=lambda p: p.name)
def test_only_exact_names_cyclotomic_helpers(path):
    assert exact_only_names(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source", [
    "from .exact import cyclotomic_scalar", "x = exact.cyclotomic(3)", "x = _mul_int(a, b)",
    "from .exact import cyclotomic as c",
])
def test_detector_flags(source):
    assert exact_only_names(ast.parse(source))


@pytest.mark.parametrize("source", [
    "from .exact import factor_product", "x = cyclotomics(3)", "x = 'cyclotomic'",
])
def test_detector_passes(source):
    assert exact_only_names(ast.parse(source)) == []
