"""Only `laurent.py` knows how exponents and denominators are stored, and
one function in it gives a denominator factor its shape.

`LaurentPoly._coeffs` maps packed exponent keys to integer numerators over
the common denominator `LaurentPoly._denom`, `LaurentPoly._bound` bounds
the exponents, `LaurentPoly.terms` decodes them into exponent tuples and
coefficients, and `RatFunc._factors` maps denominator factors to powers.
Every other module of the package goes through `LaurentPoly` and `RatFunc`
methods, so the storage can change in one file.  No linter is a dependency
of the project, so this walks each module's syntax tree with the standard
library and rejects any read of an attribute with one of those names.

`_normalize_den` alone gives a factor its shape (leading coefficient 1,
minimum exponents 0), and `_exact_div` relies on that shape without
checking it.  So each has one place in the package that refers to it: the
`RatFunc` constructor makes every factor, and `RatFunc._reduced` makes
every trial division.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "confchern")
OWNER = "laurent.py"
STORAGE = {"terms", "_factors", "_coeffs", "_denom", "_bound"}
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != OWNER)
# private function -> the one function of the package that may refer to it
SOLE_USER = {"_normalize_den": "RatFunc.__init__",
             "_exact_div": "RatFunc._reduced"}


def storage_reads(source: str) -> list:
    """Line numbers of the storage attributes read in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in STORAGE)


def test_detects_storage_reads():
    source = ("def f(p, rf):\n"
              "    n = len(p.terms)\n"
              "    return n, dict(rf._factors), p.universe\n"
              "def g(p):\n"
              "    return max(p._coeffs), p.is_zero()\n")
    assert storage_reads(source) == [2, 3, 5]


@pytest.mark.parametrize("module", MODULES)
def test_no_storage_reads_outside_laurent(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert storage_reads(fh.read()) == []


def references(source: str, name: str) -> list:
    """The enclosing function or class of each reference to `name` in
    `source` (a name, an attribute or an import), "<module>" at top level;
    the definition of `name` is not a reference."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and child.name == name)):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_detects_references():
    source = ("from .laurent import _exact_div\n"
              "class RatFunc:\n"
              "    def _reduced(self):\n"
              "        return _exact_div(self, 2)\n"
              "    def inverse(self):\n"
              "        return laurent._normalize_den(self)\n"
              "def _exact_div(p, f):\n"
              "    return p\n")
    assert references(source, "_exact_div") == ["<module>", "RatFunc._reduced"]
    assert references(source, "_normalize_den") == ["RatFunc.inverse"]


@pytest.mark.parametrize("name", sorted(SOLE_USER))
def test_one_user_of_the_factor_shape(name):
    found = []
    for module in sorted(MODULES + [OWNER]):
        with open(os.path.join(PACKAGE, module)) as fh:
            found += references(fh.read(), name)
    assert found == [SOLE_USER[name]]
