"""The demos and the docs name only streamseg modules, attributes and keywords that exist.

The demos take minutes to run, so this checks them statically: each demo is
parsed, every `streamseg` import and every attribute chain rooted at an
imported streamseg name is resolved, and every call to a resolved function
or class must bind its keyword arguments. The package's `__all__` and the
module attributes that README.md names in backticks must resolve too.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import streamseg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def streamseg_bindings(tree):
    """Names a demo binds to streamseg modules or their attributes."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "streamseg":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "streamseg":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["streamseg"] = importlib.import_module("streamseg")
    return bound


def resolve(node, bound):
    """The object an attribute chain on a bound name denotes, else None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, bound)
        if base is None:
            return None
        assert hasattr(base, node.attr), f"{ast.unparse(node.value)} has no {node.attr}"
        return getattr(base, node.attr)
    return None


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = streamseg_bindings(tree)
    assert bound, "the demo imports nothing from streamseg"
    for node in ast.walk(tree):
        resolve(node, bound)  # asserts each attribute along a bound chain
        if isinstance(node, ast.Call) and callable(fn := resolve(node.func, bound)):
            keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
            inspect.signature(fn).bind_partial(*[None] * len(node.args), **keywords)


def test_package_exports_exist():
    missing = [name for name in streamseg.__all__ if not hasattr(streamseg, name)]
    assert not missing


def test_readme_names_exist():
    text = (ROOT / "README.md").read_text()
    named = set(re.findall(r"`(harness|model|stream)\.(\w+)", text))
    assert named
    missing = [f"{module}.{attr}" for module, attr in sorted(named)
               if not hasattr(importlib.import_module(f"streamseg.{module}"), attr)]
    assert not missing
