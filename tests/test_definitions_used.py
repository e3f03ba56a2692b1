"""The package ships only code that its callers run.

Every function, class and constant defined at the top level of a module of
the package must be referenced somewhere else in the package or in the
benchmark (`perfbench/`), or be exported by `__init__.py`.  Every method of
a top-level class must be referenced there too, outside its own body.
Oracles and parsers that only the tests call live in `tests/oracles.py`.
No linter is a dependency of the project, so this walks the syntax trees
with the standard library.  A reference is a name read, an attribute, a
name imported or a string constant, since the benchmark's tracer names what
it wraps in strings.  References go by name alone, so a method counts as
used when any class's method of that name is.  Dunder names such as
`__version__` and `__add__` are read by tools or by the interpreter and are
not checked.
"""

import ast
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "confchern")
BENCHMARK = os.path.join(ROOT, "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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
    return [n for n in names if not _dunder(n)]


def methods(tree: ast.Module) -> list:
    """(class name, method node) for the methods of top-level classes."""
    return [(node.name, item) for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not _dunder(item.name)]


def references(tree: ast.AST) -> Counter:
    """How often each name is referenced inside `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced(package: dict, others: list) -> list:
    """(module, name) for each top-level definition in `package` (module name
    -> source) that no module of `package` or source in `others` references,
    and (module, "Class.method") for each method referenced nowhere outside
    its own body.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    seen = Counter()
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        seen += references(tree)
    found = [(module, name) for module, tree in trees.items()
             for name in definitions(tree) if not seen[name]]
    found += [(module, "%s.%s" % (cls, method.name))
              for module, tree in trees.items()
              for cls, method in methods(tree)
              if seen[method.name] <= references(method)[method.name]]
    return sorted(found)


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
                 "def traced():\n    pass\n"
                 "class Used:\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def called(self):\n        return self.wrapped()\n"
                 "    def wrapped(self):\n        return 1\n"
                 "    def orphan_method(self):\n        return 2\n"
                 "    def recursive(self, n):\n"
                 "        return n and self.recursive(n - 1)\n"),
    }
    bench = ("import a\nSPANS = {'a.traced': (a, 'traced'),\n"
             "         'a.called': (a.Used, 'called')}\n")
    assert unreferenced(package, [bench]) == [("a.py", "Spare"),
                                              ("a.py", "Used.orphan_method"),
                                              ("a.py", "Used.recursive"),
                                              ("a.py", "orphan")]


def test_every_definition_has_a_caller():
    bench = list(_sources(BENCHMARK).values())
    assert unreferenced(_sources(PACKAGE), bench) == []
