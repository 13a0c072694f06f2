"""The package's public surface and the README's library sketch."""

import ast
import re
from fractions import Fraction
from math import comb
from pathlib import Path
from types import ModuleType

import repgrowth


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from repgrowth import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(repgrowth.__all__)
    for name, value in namespace.items():
        assert not isinstance(value, ModuleType), name
        assert value.__module__.startswith("repgrowth."), name


def run_readme_sketch():
    """Run the README's ``python`` block; return its namespace and each bare expression's value."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    source = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_library_sketch():
    namespace, values = run_readme_sketch()
    assert values["fuse_basis(5, 3, 3)"].coeffs == (1, 0, 0, 0, 3)
    assert values["fusion_matrix(basis_vector(3, 1))"] == ((0, 1, 0), (1, 0, 0), (0, 1, 2))
    assert values["decay_rate(basis_vector(5, 1))"] == Fraction(11, 16)
    catalan = tuple(comb(2 * k, k) // (k + 1) for k in range(1, 13))
    assert namespace["series"].values == catalan
