"""Two ast rules over src/.  Every import is used: a name bound by an import
statement must be read somewhere in its module, or re-exported, through
__all__ or as a package __init__ importing from its own submodules.  No
function is memoized with functools.lru_cache or functools.cache, so no
module holds process-wide state."""

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
