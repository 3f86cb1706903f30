"""Imports sit at module level, where a reader sees a module's dependencies
and the import runs once.  The one exception is the action_graph <->
amalgam cycle: quotient certificates name amalgam presentations, while
amalgam builds on action graphs, so action_graph imports amalgam late."""

import ast
from pathlib import Path

import ordsep

PACKAGE = Path(ordsep.__file__).parent

# (module file, imported module) pairs allowed inside a function
ALLOWED = {("action_graph.py", "amalgam")}


def _function_level_imports(tree):
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                yield node.lineno, node.module


def test_no_function_local_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, module in _function_level_imports(ast.parse(path.read_text())):
            if (path.name, module) not in ALLOWED:
                found.add(f"{path.name}:{lineno} imports {module}")
    assert sorted(found) == []
