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


def _references(tree: ast.AST, skip: ast.AST):
    """Names read or imported in tree, outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_function_is_used():
    # a module-level private function that nothing else in the package
    # names is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))]
    private = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert private
    unused = [
        node.name
        for node in private
        if not any(node.name in _references(tree, node) for tree in trees)
    ]
    assert unused == []
