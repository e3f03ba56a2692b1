"""The package ships only code that its callers run.

Every function, class and constant defined at the top level of a module of
the package must be referenced somewhere else in the package or in the
benchmark (`perfbench/`), or be exported by `__init__.py`.  Oracles and
parsers that only the tests call live in `tests/oracles.py`.  No linter is
a dependency of the project, so this walks the syntax trees with the
standard library.  A reference is a name read, an attribute, a name
imported or a string constant, since the benchmark's tracer names what it
wraps in strings.  Dunder names such as `__version__` are read by tools and
are not checked.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "confchern")
BENCHMARK = os.path.join(ROOT, "perfbench")


def definitions(tree: ast.Module) -> list:
    """Names bound by the top-level statements of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def references(tree: ast.Module) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced(package: dict, others: list) -> list:
    """(module, name) for each top-level definition in `package` (module name
    -> source) that no module of `package` or source in `others` references.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    seen = set()
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        seen |= references(tree)
    return sorted((module, name) for module, tree in trees.items()
                  for name in definitions(tree) if name not in seen)


def _sources(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                out[name] = fh.read()
    return out


def test_detects_unreferenced_definitions():
    package = {
        "__init__.py": "from .a import exported\n__version__ = '1'\n",
        "a.py": ("CAP = 3\nLIMIT = 4\n"
                 "def exported():\n    return helper() + CAP\n"
                 "def helper():\n    return 1\n"
                 "def orphan():\n    return LIMIT\n"
                 "class Spare:\n    pass\n"
                 "def traced():\n    pass\n"),
    }
    bench = "import a\nSPANS = {'a.traced': (a, 'traced')}\n"
    assert unreferenced(package, [bench]) == [("a.py", "Spare"),
                                              ("a.py", "orphan")]


def test_every_definition_has_a_caller():
    bench = list(_sources(BENCHMARK).values())
    assert unreferenced(_sources(PACKAGE), bench) == []
