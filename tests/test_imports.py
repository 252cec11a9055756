"""Five ast rules over src/.  Every import is used: a name bound by an import
statement must be read somewhere in its module, or re-exported, through
__all__ or as a package __init__ importing from its own submodules.  No
function is memoized with functools.lru_cache or functools.cache, so no
module holds process-wide state.  Every private module-level name is read
somewhere in src/, so no helper lives on only for the tests.  Each trusted
construction path is used only in its home module (ExactHeight._of and its
_den and _nums fields in adelic.py, FactoredInt._from_sorted in arith.py,
PowerClass._from_factors in classifying.py), so every other module goes
through the validating constructor.  The height modules and the CLI import
neither numpy nor the counting layer (counting, checks) when they are
themselves imported, so a height query never loads numpy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stacky_heights"


def unused_imports(source: str, package_init: bool = False) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or (package_init and node.level)
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Sequence\nos.getcwd()\n") == [
        "Sequence (line 2)"
    ]
    assert unused_imports("from .a import f\n__all__ = ['f']\n") == []
    assert unused_imports("from .a import f\n", package_init=True) == []
    assert unused_imports("from .a import f\n") == ["f (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), package_init=path.name == "__init__.py") == []


def cache_decorated(source: str) -> list[str]:
    """Functions decorated with functools.lru_cache or functools.cache, by
    bare name or through the module: each is state that lives as long as
    the process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(f"{node.name} (line {node.lineno})")
    return found


def test_detector_flags_a_cache_decorator():
    assert cache_decorated("@lru_cache(maxsize=8)\ndef f(n):\n    return n\n") == ["f (line 2)"]
    assert cache_decorated("class C:\n    @functools.cache\n    def g(self):\n        pass\n") == [
        "g (line 3)"
    ]
    assert cache_decorated("@functools.lru_cache\ndef h():\n    pass\n") == ["h (line 2)"]
    assert cache_decorated("@staticmethod\ndef k():\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cache_decorators(path):
    assert cache_decorated(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants (one leading
    underscore) that no module reads, by bare name or as an attribute.  A
    read inside the function or class that defines the name does not
    count, so a helper kept alive only by tests or by its own recursion is
    found."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [owner := stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((name, f"{module}:{stmt.lineno}"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return sorted(f"{name} ({where})" for name, where in defined if name not in read)


def test_detector_flags_an_unread_private_name():
    source = "_A = 1\ndef _f():\n    return _f()\ndef g():\n    return 2\n"
    assert unread_private_names({"m": source}) == ["_A (m:1)", "_f (m:2)"]
    assert unread_private_names({"m": "_A: int = 1\n", "n": "from .m import _A\nprint(_A)\n"}) == []
    assert unread_private_names({"m": "def _f():\n    pass\n", "n": "import m\nm._f()\n"}) == []
    assert unread_private_names({"m": "__all__ = []\n_B = _C = 2\nx = _C\n"}) == ["_B (m:2)"]


def test_every_private_name_is_read_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


# Each unvalidated construction path, and the internals it writes, by
# attribute name -> the one module allowed to reference it.
TRUSTED_HOMES = {
    "_of": "adelic.py",  # ExactHeight._of skips the coefficient checks
    "_den": "adelic.py",  # ExactHeight's shared denominator, unguarded
    "_nums": "adelic.py",  # ExactHeight's numerator map, unguarded
    "_from_sorted": "arith.py",  # FactoredInt without its ordering checks
    "_from_factors": "classifying.py",  # PowerClass that trusts its factors
}


def trusted_attribute_uses(sources: dict[str, str]) -> list[str]:
    """Attribute references to a trusted construction path outside its home
    module (TRUSTED_HOMES)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and TRUSTED_HOMES.get(node.attr, module) != module:
                found.append(f"{node.attr} ({module}:{node.lineno})")
    return sorted(found)


def test_detector_flags_a_trusted_attribute_outside_adelic():
    inside = "h = ExactHeight._of(1, {})\nt = h._nums\nd = h._den\n"
    outside = "t = h.terms\nh = ExactHeight._of(1, {})\nif h._nums:\n    d = h._den\n"
    assert trusted_attribute_uses({"adelic.py": inside}) == []
    assert trusted_attribute_uses({"football.py": outside}) == [
        "_den (football.py:4)",
        "_nums (football.py:3)",
        "_of (football.py:2)",
    ]
    assert trusted_attribute_uses({"checks.py": "_nums = 1\nof = h.of\n"}) == []


def test_detector_flags_each_trusted_path_outside_its_home():
    arith = "f = FactoredInt._from_sorted(1, ())\n"
    classifying = "c = PowerClass._from_factors(3, 2, ((2, 1),))\n"
    assert trusted_attribute_uses({"arith.py": arith, "classifying.py": classifying}) == []
    assert trusted_attribute_uses({"adelic.py": arith, "football.py": classifying}) == [
        "_from_factors (football.py:1)",
        "_from_sorted (adelic.py:1)",
    ]
    # the home of one path is no home for another
    assert trusted_attribute_uses({"classifying.py": arith + "h = ExactHeight._of({})\n"}) == [
        "_from_sorted (classifying.py:1)",
        "_of (classifying.py:2)",
    ]


def test_trusted_constructor_stays_in_adelic():
    """Every trusted path of TRUSTED_HOMES, ExactHeight._of among them,
    stays in its home module."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert trusted_attribute_uses(sources) == []


# Modules a height query imports; the counting layer is loaded only by the
# code that counts (inside functions, or through the package __getattr__).
HEIGHT_MODULES = (
    "__init__.py", "adelic.py", "arith.py", "classifying.py", "cli.py",
    "football.py", "sympow.py", "wps.py",
)
COUNTING_LAYER = ("numpy", "stacky_heights.counting", "stacky_heights.checks")


def import_time_counting_imports(source: str) -> list[str]:
    """Imports of numpy, counting or checks that run when the module is
    imported: those outside every function body.  Relative imports are
    read as imports from the stacky_heights package."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                targets = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = ".".join(filter(None, ["stacky_heights" if child.level else "", child.module]))
                targets = [base] + [f"{base}.{alias.name}" for alias in child.names]
            else:
                visit(child)
                continue
            for target in targets:
                if any(target == m or target.startswith(m + ".") for m in COUNTING_LAYER):
                    found.append(f"{target} (line {child.lineno})")
                    break

    visit(ast.parse(source))
    return found


def test_detector_flags_a_counting_import_at_import_time():
    assert import_time_counting_imports("import numpy as np\n") == ["numpy (line 1)"]
    assert import_time_counting_imports("from .counting import count_bmun\n") == [
        "stacky_heights.counting (line 1)"
    ]
    assert import_time_counting_imports("import os\nfrom . import checks\n") == [
        "stacky_heights.checks (line 2)"
    ]
    assert import_time_counting_imports("class C:\n    from numpy import int64\n") == [
        "numpy (line 2)"
    ]
    assert import_time_counting_imports("from stacky_heights import counting\n") == [
        "stacky_heights.counting (line 1)"
    ]
    inside = "def f():\n    from .counting import count_bmun\n    import numpy\n"
    assert import_time_counting_imports(inside) == []
    assert import_time_counting_imports("from .arith import factor\nimport numbers\n") == []


@pytest.mark.parametrize("name", HEIGHT_MODULES)
def test_height_modules_import_no_counting_layer(name):
    assert import_time_counting_imports((SRC / name).read_text()) == []
