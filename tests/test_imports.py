"""Every import in the package is used.

An AST scan of each module under ``src/repro`` (package ``__init__``
files re-export by design and are skipped): a name an import binds must
be read somewhere in the module, in code, in an annotation (string
annotations included) or in ``__all__``.  An import kept on purpose for
its side effect says so with ``# noqa: F401`` on its line.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
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
