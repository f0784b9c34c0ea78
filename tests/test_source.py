"""Source checks that hold for every module of the package, and the
import contract of the package and its CLI."""
import ast
import importlib
import json
from math import comb
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import infree
from infree import ck

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


_JET_KERNELS = {"_leibniz", "_leibniz_rule", "_core", "_core_source", "_spelt", "_TEMPLATES"}


def _jet_kernel_use(node: ast.AST) -> bool:
    """node names the Leibniz loop, its rule, the core builder or its
    templates in ck, or CkScalar._built."""
    if isinstance(node, ast.Attribute):
        return node.attr in _JET_KERNELS or (
            node.attr == "_built" and isinstance(node.value, ast.Name) and node.value.id == "CkScalar")
    return (isinstance(node, ast.Name) and node.id in _JET_KERNELS
            or isinstance(node, ast.alias) and node.name in _JET_KERNELS)


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


def _named_in(tree: ast.Module, name: str) -> set:
    """The module-level functions and classes of tree that read name, and
    "<module>" if a module-level statement other than an import does."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
    }


def test_one_leibniz_rule_in_ck():
    # the binomial rule is spelt out by the Leibniz loop and the template
    # field writer alone, every template multiplies through its mul field,
    # and ck takes every C_k product through the rule or one of its five sum
    # cores, so a second Leibniz loop or a sixth sum core cannot come back
    # unnoticed
    tree = ast.parse((SRC / "ck.py").read_text(encoding="utf-8"))
    assert _named_in(tree, "comb") == {"_leibniz", "_spelt"}
    assert _named_in(tree, "_leibniz") == {"_leibniz_rule"}
    assert _named_in(tree, "_leibniz_rule") == {"ck_mul", "ck_inverse"}
    assert _named_in(tree, "_core") == {"_leibniz_rule", "_accumulate", "_block_table",
                                        "_product_tuple_table", "_powers", "_boxed_rows"}
    assert set(ck._TEMPLATES) == {"leibniz", "accumulate", "block_table", "product_tuple_table",
                                  "power_rows", "boxed_rows"}
    for template in ck._TEMPLATES.values():
        assert "$mul(" in template and "_leibniz" not in template and "comb" not in template


def _calls_series_constructor(node: ast.AST, in_series_class: bool) -> bool:
    """Does node call the validating `CkSeries(...)`, or `cls(...)` inside
    CkSeries itself?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "CkSeries" or in_series_class and name == "cls":
                return True
    return False


def _series_validators() -> set:
    """module.function, module.Class.method, module.Class or module.<module>
    for every module-level function, method, other class statement and
    other module statement of src that calls the validating series
    constructor."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            units = [(getattr(node, "name", "<module>"), node, False)]
            if isinstance(node, ast.ClassDef):
                own = node.name == "CkSeries"
                units = [(f"{node.name}.{c.name}" if hasattr(c, "name") else node.name, c, own)
                         for c in node.body]
            found |= {f"{path.stem}.{name}" for name, unit, own in units
                      if _calls_series_constructor(unit, own)}
    return found


def test_only_caller_scalars_enter_the_validating_series_constructor():
    # a series the library computed is built through the trusted
    # CkSeries._of; only routes that start from scalars a caller gave, or
    # from no scalar at all, pay for the check, so a route that re-validates
    # its own result cannot come back unnoticed
    assert _series_validators() == {
        "ck.CkSeries.zero", "ck.CkSeries.from_rationals", "convolve.special_series",
        "convolve.example_law", "jsonio.decode_series",
    }


def _value_plumbing(node: ast.AST, holder: str = ""):
    """(holder, what) for every `__setattr__` or trusted constructor defined
    or assigned, and every `object.__setattr__` or descriptor `__set__`
    named, under node; holder is the dotted name of the enclosing classes
    and functions."""
    for child in ast.iter_child_nodes(node):
        inner = holder
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{holder}.{child.name}".lstrip(".")
            if child.name in {"__setattr__", "_built", "_fill", "_of"}:
                yield holder, f"defines {child.name}"
        elif isinstance(child, ast.Name) and child.id == "__setattr__":
            yield holder, "assigns __setattr__"
        elif (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
              and isinstance(child.value, ast.Name) and child.value.id == "object"):
            yield holder, "object.__setattr__"
        elif (isinstance(child, ast.Attribute) and child.attr == "__set__"
              or isinstance(child, ast.Name) and child.id == "__set__"):
            yield holder, "names __set__"
        yield from _value_plumbing(child, inner)


def test_one_immutable_value_base():
    # immutability, the slot setters and trusted construction belong to
    # _value.Value alone, besides the trusted scalar constructor, which
    # runs once per computed scalar and writes through the setters Value
    # binds
    found = {
        (path.name, holder, what)
        for path in sorted(SRC.glob("*.py"))
        for holder, what in _value_plumbing(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    }
    assert {f for f in found if f[0] != "_value.py"} == {("ck.py", "CkScalar", "defines _built")}
    assert {("_value.py", "Value", "defines __setattr__"), ("_value.py", "Value", "defines _of"),
            ("_value.py", "Value.__init_subclass__", "names __set__")} <= found


def test_one_budget_check_in_the_cli():
    # every verb sizes its work through one check, so the refusal line is
    # spelt in one raise and no second sizing path can come back
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    phrase = "over the budget"
    raises = [node for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and phrase in ast.get_source_segment(source, node)]
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    strings = [node for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and phrase in node.value and id(node) not in docstrings]
    assert len(raises) == 1 and len(strings) == 1
    assert strings[0] in list(ast.walk(raises[0]))


def test_one_write_path_in_the_cli():
    # main hands every verb's value to one call of _write, the one function
    # that writes output, through _encoded, the one that encodes it; so a
    # handler returns its value, and a streamed list and a whole document
    # leave by the same path
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {node.name: set(_references(node, None)) for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def users(*wanted):
        return {name for name, used in names.items() if used & set(wanted)}

    assert users("write", "writelines", "stdout", "_encoded") == {"_write"}
    assert users("encode", "encode_items", "dumps") == {"_encoded"}
    assert users("_write") == {"main"}
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    assert [node.func.id for node in ast.walk(main) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "_write"] == ["_write"]
    handlers = [name for name in names if name.startswith("_cmd_")]
    assert handlers
    assert users("print", "open", "stdout", "stderr", "write", "writelines", "encode",
                 "encode_items", "dumps", "_encoded", "_write").isdisjoint(handlers)


def _dynamic_code_calls(node: ast.AST, inside: str | None):
    """(function, line) of every call of eval, exec or compile under node,
    with the name of the module-level function that holds it."""
    for child in ast.iter_child_nodes(node):
        holder = inside
        if inside is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holder = child.name
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in {"eval", "exec", "compile"}):
            yield holder, child.lineno
        yield from _dynamic_code_calls(child, holder)


def test_code_is_compiled_only_by_the_leibniz_rule_builder():
    # the one place that turns text into code is the core builder, and the
    # text it compiles holds the templates' own names and small integers,
    # integer indices and binomial literals, at every order and above the
    # cutoff
    calls = {
        (path.name, holder)
        for path in sorted(SRC.glob("*.py"))
        for holder, _ in _dynamic_code_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                                             None)
    }
    assert calls == {("ck.py", "_core")}
    for name, template in ck._TEMPLATES.items():
        own = {int(n) for n in re.findall(r"\b\d+\b", template)}
        for order in (*range(6), ck._RULE_MAX_K, None):
            tree = ast.parse(ck._core_source(name, order))
            consts = [n.value for n in ast.walk(tree)
                      if isinstance(n, ast.Constant) and n.value is not None]
            binomials = {comb(i, j) for i in range((order or 0) + 1) for j in range(i + 1)}
            assert all(isinstance(c, int) for c in consts), (name, order)
            assert set(consts) <= own | {0, 1} | binomials, (name, order)
            assert not list(_dynamic_code_calls(tree, None)), (name, order)
    assert {n.value for n in ast.walk(ast.parse(ck._core_source("leibniz", 4)))
            if isinstance(n, ast.Constant)} == {comb(i, j) for i in range(5) for j in range(1, i)}


def test_no_leibniz_rule_is_compiled_at_import(tmp_path):
    # nothing is compiled at import; each core is compiled at its first use
    # per order, once, and every order above the cutoff shares one compile
    out = tmp_path / "cores.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    script = (
        "import builtins, json\n"
        "import infree.cli\n"
        "from infree import ck, cumulants\n"
        "before = sorted(ck._CORES)\n"
        "compiled = []\n"
        "ck.compile = lambda source, name, mode: compiled.append(name) or builtins.compile(\n"
        "    source, name, mode)\n"
        "ck.ck_mul(ck.CkScalar.one(2), ck.CkScalar.eps(2))\n"
        "ck.ck_mul(ck.CkScalar.one(40), ck.CkScalar.eps(40))\n"
        "rules = sorted(ck._CORES)\n"
        "for k in (2, 2, 40, 41):\n"
        "    x = ck.CkScalar.eps(k)\n"
        "    ck.ck_prod_many([x, x])\n"
        "    law = cumulants.InfLaw(k, 1, 2, {(1,): x, (1, 1): x})\n"
        "    cumulants.moments_to_cumulants(law)\n"
        f"with open({str(out)!r}, 'w') as fh:\n"
        "    json.dump([before, rules, compiled], fh)\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    assert json.loads(out.read_text(encoding="utf-8")) == [[], [["leibniz", 2]], [
        "<leibniz core of order 2>", "<accumulate core of order 2>",
        "<block_table core of order 2>", "<accumulate core of order None>",
        "<block_table core of order None>"]]


def test_no_module_imports_dataclasses():
    # dataclasses and the inspect module it loads cost every cold CLI start
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def _imports(node: ast.AST, layer: str) -> bool:
    """node imports the package module layer or a name from it."""
    if isinstance(node, ast.ImportFrom):
        return node.module in (layer, f"infree.{layer}") or (
            node.module in (None, "infree") and any(a.name == layer for a in node.names))
    return isinstance(node, ast.Import) and any(a.name == f"infree.{layer}" for a in node.names)


def test_partition_layers_import_nothing_from_the_jet_layer():
    # a type-k shape is a plain tuple of ints, so neither partition layer
    # carries a concept of the jet layer or loads it
    found = [
        f"{name}:{node.lineno}"
        for name in ("partitions.py", "typek.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"), name))
        if _imports(node, "ck")
    ]
    assert found == []
    assert [_imports(ast.parse(line).body[0], "ck") for line in (
        "from .ck import multinomial", "from infree.ck import CkScalar", "from . import ck",
        "import infree.ck", "from .partitions import kreweras", "import math")] == [
        True, True, True, True, False, False]


def test_one_nc_block_table_for_the_cumulant_sums():
    # both sums over p and Kr(p), the cumulants with products as arguments
    # and those of a product tuple, read one per-length table of block
    # getters, so no call computes a complement and freeness holds no
    # partition code of its own
    tree = ast.parse((SRC / "cumulants.py").read_text(encoding="utf-8"))
    assert _named_in(tree, "kreweras") == _named_in(tree, "enumerate_nc") == {"_nc_block_getters"}
    freeness = ast.parse((SRC / "freeness.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(freeness) if _imports(node, "partitions")] == []


def test_one_table_core_call_per_transform():
    # the table core takes each word's direction from the entries it is
    # given, so it has no direction flag and no length cut-off, and each
    # of the four transforms over it makes one call: a factor pre-pass or
    # a second direction cannot come back unnoticed
    tree = ast.parse((SRC / "ck.py").read_text(encoding="utf-8"))
    core = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_block_table")
    params = core.args
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == [
        "k", "cumulants", "moments", "colors", "max_len"]
    assert params.vararg is None and params.kwarg is None
    assert "def block_table(k, cumulants, moments, colors, max_len, plan):" in \
        ck._TEMPLATES["block_table"]
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            count = sum(isinstance(n, ast.Name) and n.id == "_block_table" for n in ast.walk(node))
            if count and path.name != "ck.py":
                calls[f"{path.stem}.{node.name}"] = count
    assert calls == {"cumulants.cumulants_to_moments": 1, "cumulants.moments_to_cumulants": 1,
                     "freeness.check_inf_freeness": 1, "freeness.free_product_joint": 1}


def _loaded_modules(tmp_path, code: str) -> set:
    """The modules loaded by a fresh interpreter once it has run code."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    script = (f"import json, sys\n{code}\n"
              f"with open({str(out)!r}, 'w') as fh:\n    json.dump(sorted(sys.modules), fh)\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    return set(json.loads(out.read_text(encoding="utf-8")))


def test_cli_imports_only_the_layers_a_verb_runs(tmp_path):
    layers = {"infree.ck", "infree.partitions", "infree.typek", "infree.cumulants",
              "infree.convolve", "infree.freeness"}
    loaded = _loaded_modules(tmp_path, "import infree")
    assert {m for m in loaded if m.startswith("infree")} == {"infree"}
    loaded = _loaded_modules(tmp_path, "import infree.cli")
    assert "dataclasses" not in loaded
    assert loaded & (layers | {"infree._value"}) == set()
    partition = tmp_path / "p.json"
    partition.write_text('{"n": 4, "blocks": [[1, 4], [2, 3]]}', encoding="utf-8")
    out = tmp_path / "kr.json"
    loaded = _loaded_modules(tmp_path, (
        "from infree.cli import main\n"
        f"main(['kreweras', '--lhs', {str(partition)!r}, '--out', {str(out)!r}])"))
    assert json.loads(out.read_text(encoding="utf-8")) == {"n": 4, "blocks": [[1, 3], [2], [4]]}
    assert "dataclasses" not in loaded
    assert loaded & layers == {"infree.partitions"}
    out = tmp_path / "nck.json"
    loaded = _loaded_modules(tmp_path, (
        "from infree.cli import main\n"
        f"main(['nck-enum', '--n', '2', '--k', '1', '--out', {str(out)!r}])"))
    assert [tk["shape"] for tk in json.loads(out.read_text(encoding="utf-8"))] == [
        [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert loaded & layers == {"infree.partitions", "infree.typek"}
    # the table and series verbs load no partition layer: the first-block
    # kernel and the boxed sum enumerate nothing
    from infree.ck import CkScalar
    from infree.cumulants import InfLaw
    from infree.freeness import Coloring
    from infree.jsonio import encode

    one = CkScalar.from_rational(1, 2)
    inputs = {"law1": InfLaw(1, 1, 3, {(1,) * n: one for n in range(1, 4)}),
              "law2": InfLaw(1, 2, 2, {w: one for w in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]}),
              "colors": Coloring((1, 2))}
    for name, value in inputs.items():
        (tmp_path / f"{name}.json").write_text(encode(value), encoding="utf-8")
    law1, law2, colors = (str(tmp_path / f"{name}.json") for name in inputs)
    for argv, expected in (
            (["m2c", "--law", law2], {"infree.ck", "infree.cumulants"}),
            (["convolve-mul", "--lhs", law1, "--rhs", law1],
             {"infree.ck", "infree.cumulants", "infree.convolve"}),
            (["check-freeness", "--law", law2, "--colors", colors],
             {"infree.ck", "infree.cumulants", "infree.freeness"})):
        out = tmp_path / "out.json"
        loaded = _loaded_modules(tmp_path, (
            "from infree.cli import main\n"
            f"code = main({argv + ['--out', str(out)]!r})\n"
            "assert code == 0, code"))
        assert json.loads(out.read_text(encoding="utf-8")), argv
        assert loaded & layers == expected, argv


PUBLIC_NAMES = {
    "ck": "CkScalar CkSeries NotInvertible ck_inverse ck_mul ck_prod_many "
          "series_comp_inverse series_compose series_mul",
    "partitions": "NcPartition SetPartition biane_permutation enumerate_nc "
                  "is_noncrossing kreweras mobius_to_top ordered_blocks partition_join",
    "typek": "TypeKPartition enumerate_type_k enumerate_type_k_star is_type_k r_of_shape "
             "reduce_mod",
    "cumulants": "CumulantTable InfLaw cumulant_of_products cumulants_to_moments kappa_pi "
                 "moments_to_cumulants",
    "convolve": "additive_convolve boxed_conv_ck boxed_conv_type_b boxed_conv_type_k example_law "
                "fourier_transform moments_from_r multiplicative_convolve r_from_moments "
                "s_transform special_series",
    "freeness": "Coloring Derivation FreenessVerdict NcPolynomial check_inf_freeness "
                "derivative_of_convolution free_product_joint product_tuple_cumulants "
                "upgraded_law",
}


def test_public_names_are_their_home_modules_objects():
    assert len(infree.__all__) == len(set(infree.__all__))
    assert infree._EXPORTS == {name: module for module, names in PUBLIC_NAMES.items()
                               for name in names.split()}
    for name in infree.__all__:
        home = importlib.import_module(f"infree.{infree._EXPORTS[name]}")
        assert getattr(infree, name) is getattr(home, name)
        assert getattr(home, name).__module__ == home.__name__
    assert set(infree.__all__) <= set(dir(infree))
    assert infree.convolve is importlib.import_module("infree.convolve")
    namespace: dict = {}
    exec("from infree import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(infree.__all__)
    assert all(namespace[n] is getattr(infree, n) for n in infree.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        infree.no_such_name
