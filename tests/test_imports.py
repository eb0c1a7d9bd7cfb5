"""Every import in the package is used and comes from the standard library.

An AST scan of each module under ``src/repro`` (package ``__init__``
files re-export by design and are skipped): a name an import binds must
be read somewhere in the module, in code, in an annotation (string
annotations included) or in ``__all__``.  An import kept on purpose for
its side effect says so with ``# noqa: F401`` on its line.

A second scan covers every module, ``__init__`` files included: each
absolute import names a standard-library module or ``repro`` itself, so
the package runs on a bare Python install.
"""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def modules(with_init: bool = False):
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and (with_init or name != "__init__.py"):
                yield os.path.relpath(os.path.join(root, name), SRC)


def _annotation_names(node: ast.AST):
    """Names read by an annotation, looking inside string annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(modules()))
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{module}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from typing import List, Optional\n"
        "import json  # noqa: F401\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [sys.maxsize]\n")
    assert unused_imports(source) == [(2, "os")]


def foreign_imports(source: str):
    """``(line, module)`` for every absolute import of a top-level module
    that is neither in the standard library nor ``repro``."""
    allowed = set(sys.stdlib_module_names) | {"repro"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in allowed)
    return found


@pytest.mark.parametrize("module", sorted(modules(with_init=True)))
def test_imports_only_the_standard_library(module):
    with open(os.path.join(SRC, module)) as fh:
        foreign = foreign_imports(fh.read())
    assert not foreign, f"{module}: imports outside the standard library " + \
        ", ".join(f"{name} (line {line})" for line, name in foreign)


def test_stdlib_scan_sees_foreign_imports():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from networkx.algorithms import bfs\n"
        "from . import sibling\n"
        "from repro.sim import Simulator\n"
        "def f():\n"
        "    import scipy\n")
    assert foreign_imports(source) == [
        (2, "numpy"), (3, "networkx.algorithms"), (7, "scipy")]
