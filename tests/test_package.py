from __future__ import annotations

import ast
from pathlib import Path

import mmekit


def test_no_imports_inside_functions() -> None:
    # every import sits at module top, where a cycle fails at load time
    found = []
    for path in sorted(Path(mmekit.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
