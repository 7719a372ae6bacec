"""The layout oracle.py keeps: shared test code lives there, and once.

A test module imports no other test module, each frozen reference
``reference_<function>`` is defined once under tests/, and no function
keeps the older ``previous_*`` name for one.
"""

import ast
from collections import Counter
from pathlib import Path


def test_each_reference_is_defined_once_and_no_test_module_imports_another():
    imports, defined = [], Counter()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] += 1
            elif isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((path.name, node.module or ""))
    assert [(a, b) for a, b in imports if a.startswith("test_") and b.startswith("test_")] == []
    twice = [name for name, count in defined.items() if count > 1]
    assert [name for name in twice if name.startswith("reference_")] == []
    assert [name for name in defined if name.startswith("previous_")] == []
