"""Only `laurent.py` knows how exponents and denominators are stored.

`LaurentPoly._coeffs` maps packed exponent keys to integer numerators over
the common denominator `LaurentPoly._denom`, `LaurentPoly._bound` bounds
the exponents, `LaurentPoly.terms` decodes them into exponent tuples and
coefficients, and `RatFunc._factors` maps denominator factors to powers.
Every other module of the package goes through `LaurentPoly` and `RatFunc`
methods, so the storage can change in one file.  No linter is a dependency
of the project, so this walks each module's syntax tree with the standard
library and rejects any read of an attribute with one of those names.
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
