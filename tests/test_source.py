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


def _jet_kernel_use(node: ast.AST) -> bool:
    """node names ck._leibniz, or CkScalar._built."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_leibniz" or (
            node.attr == "_built" and isinstance(node.value, ast.Name) and node.value.id == "CkScalar")
    return (isinstance(node, ast.Name) and node.id == "_leibniz"
            or isinstance(node, ast.alias) and node.name == "_leibniz")


def test_one_jet_arithmetic():
    # the Leibniz product and the trusted scalar constructor belong to
    # ck.py alone, so no other module grows a second C_k kernel
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ck.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _jet_kernel_use(node)
    ]
    assert found == []
