"""Every module-level function and every public method or property of a class
in the package has a caller in the package.

A function or member that only tests call is a second implementation or a
dead helper; a scalar reference the tests compare against belongs in
``tests/oracles.py``. For a function, a reference is a name, an attribute, an
import alias or a string constant that is an identifier (``zoo`` looks up
``ensemble.fit_*`` by name). A member is only reached as ``x.name``, so for a
member only an attribute reference counts: a local variable of the same name
is not a reader.

Below ``core.Predictor`` there is one query shape: a function takes float
arrays, and no function picks a second contract from its argument's type or
rank.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "costlab"


def _referenced_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif isinstance(current, ast.alias):
            names.update(filter(None, (current.name, current.asname)))
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            if current.value.isidentifier():
                names.add(current.value)
    return names


def unreferenced_functions(src: Path = SRC) -> list[str]:
    """``module.function`` for each module-level function no other code names."""
    modules = {
        path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))
    }
    # the names each top-level statement refers to; a function's own body does not count
    references = [
        (stmt, _referenced_names(stmt)) for tree in modules.values() for stmt in tree.body
    ]
    return [
        f"{module}.{fn.name}"
        for module, tree in modules.items()
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(fn.name in names for stmt, names in references if stmt is not fn)
    ]


def _attribute_counts(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unreferenced_members(src: Path = SRC) -> list[str]:
    """``module.Class.member`` for each public method or property of a
    module-level class that no code outside its own body reads as ``x.member``."""
    modules = {
        path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))
    }
    everywhere = sum((_attribute_counts(tree) for tree in modules.values()), Counter())
    return [
        f"{module}.{cls.name}.{member.name}"
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and everywhere[member.name] == _attribute_counts(member)[member.name]
    ]


def shape_forks(src: Path = SRC) -> list[str]:
    """``module:line`` of each ``isinstance(..., FeatureVector)`` and each
    ``atleast_2d`` call: a function that reads its query's shape from its argument."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "atleast_2d" or (
                name == "isinstance" and "FeatureVector" in _referenced_names(node.args[-1])
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_module_level_function_has_a_caller_in_src():
    assert unreferenced_functions() == []


def test_every_public_method_and_property_has_a_reader_in_src():
    assert unreferenced_members() == []


def test_the_check_sees_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "import b\n\ndef used():\n    return b.helper()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def looked_up():\n    pass\n\nNAME = 'looked_up'\n"
    )
    (tmp_path / "b.py").write_text("from a import used as alias\n\ndef helper():\n    return 1\n")
    assert unreferenced_functions(tmp_path) == ["a.recursive"]


def test_the_member_check_counts_attribute_reads_only(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    @property\n    def read(self):\n        return 1\n\n"
        "    @property\n    def shadowed(self):\n        return self.shadowed\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def called(self):\n        return self.read\n\n"
        "def use(a):\n    shadowed = a.called()\n    return shadowed\n"
    )
    assert unreferenced_members(tmp_path) == ["a.A.shadowed"]


def test_no_function_forks_on_its_query_shape():
    """A ``FeatureVector`` becomes a row only in ``core.Predictor`` and the
    ``explain`` hooks; every family function takes (n, 4) rows."""
    assert shape_forks() == []


def test_the_shape_check_sees_both_forks(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nfrom numpy import atleast_2d\n\n"
        "def f(x):\n"
        "    if isinstance(x, (FeatureVector, list)):\n        x = x.to_array()\n"
        "    if isinstance(x, float):\n        pass\n"
        "    return np.atleast_2d(x), atleast_2d(x)\n"
    )
    assert shape_forks(tmp_path) == ["a:5", "a:9", "a:9"]
