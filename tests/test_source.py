"""Source checks that hold for every module of the package."""
import ast
from pathlib import Path

import infree

SRC = Path(infree.__file__).parent


def test_no_assert_statements():
    # checks must not disappear under python -O, so none may be an assert
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
